"""Brute-force ground truth, independent of the constructive machinery.

Enumeration backtracks jointly over the structure (cycle path or matching)
and exact colors, pruning with a bipartite-matching feasibility test
between chosen edges and colors. Every walk keeps its own stack, so a
deep instance costs no Python recursion. Budgets are explicit: blowing
the node budget raises, carrying whatever was found so far; so does a
count that the result cap stopped, as it is not exact.

A count keeps no solution, so two branches that reach the same state
have the same solutions and nodes below them (the subset-state argument
of Held and Karp, J. SIAM 10(1), 1962). Counting therefore memoizes each
finished subtree's (solutions, nodes) on its state: in the matching
search, the matched vertices and the used colors; in the colorings of
the cycles, the cycle's color options in coloring order and the used
colors, in one memo for all the cycles of a search. A state met again
adds both numbers without a walk, but only when walking it would neither
exhaust the node budget nor reach the result cap; otherwise it is
walked as before. So node counts, partial counts and every budget exit
are those of the plain search. Enumeration keeps its results and never
reads the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Sequence

from .core import (
    Edge,
    KIND_HAM,
    KIND_PM,
    SubgraphFamily,
    Transversal,
    edge,
)
from .errors import BudgetExceeded

# States one counting memo keeps. Matching-search entries measured about
# 150 bytes each (CPython 3.11, planted-pm with 12 pairs: 106,123 entries,
# 15.5 MB traced), so a full memo holds about 40 MB. Past the cap the
# search inserts nothing more and walks every state it has not stored.
MEMO_ENTRIES = 1 << 18


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 100_000_000
    max_results: int | None = None


class _Search:
    """Node and result budget of one search, and what it found.

    ``kind`` given, each solution is kept as a ``Transversal`` in
    ``results``; without it the search only counts them in ``found``.
    """

    def __init__(self, budget: SearchBudget, kind: str | None = None):
        self.budget = budget
        self.kind = kind
        self.nodes = 0
        self.found = 0
        self.results: list[Transversal] = []

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise BudgetExceeded(
                f"node budget {self.budget.max_nodes} exhausted", self.results, self.nodes, self.found
            )

    def solution(self, assignment: dict[Edge, int]) -> None:
        self.found += 1
        if self.kind is not None:
            self.results.append(Transversal.from_map(self.kind, assignment))

    def absorb(self, found: int, nodes: int) -> bool:
        """Add a memoized subtree's solutions and nodes, unless walking it
        would exhaust the node budget or reach the result cap."""
        cap = self.budget.max_results
        if self.nodes + nodes <= self.budget.max_nodes and (cap is None or self.found + found < cap):
            self.found += found
            self.nodes += nodes
            return True
        return False

    def full(self) -> bool:
        return self.budget.max_results is not None and self.found >= self.budget.max_results

    def count(self) -> int:
        if self.full():
            raise BudgetExceeded(f"result cap {self.budget.max_results} reached", (), self.nodes, self.found)
        return self.found


def _walk(
    search: _Search,
    expand: Callable[[], Iterator[bool]],
    key: Callable[[], Hashable] | None = None,
    memo: dict | None = None,
) -> None:
    """Depth-first search on an explicit stack, stopped by the result cap.

    ``expand()`` walks the children of the current state: it applies each
    child's move, ticking for it, yields True, and undoes the move when
    resumed. At a leaf it records the solution and yields nothing. While
    counting, ``key()`` names the current state in ``memo``: a new dict
    unless the caller shares one between walks.
    """
    if search.full():
        return
    if key is None or search.kind is not None:
        memo = None
    elif memo is None:
        memo = {}
    stack = [(expand(), key() if memo is not None else None, search.found, search.nodes)]
    while stack:
        children, state, found, nodes = stack[-1]
        if next(children, False):
            if memo is None:
                stack.append((expand(), None, 0, 0))
                continue
            state = key()
            hit = memo.get(state)
            if hit is None or not search.absorb(*hit):
                stack.append((expand(), state, search.found, search.nodes))
            continue
        stack.pop()
        if search.full():
            return
        if memo is not None and len(memo) < MEMO_ENTRIES:
            memo[state] = (search.found - found, search.nodes - nodes)


def _edge_options(family: SubgraphFamily) -> dict[Edge, tuple[int, ...]]:
    opts: dict[Edge, list[int]] = {e: [] for e in family.base.edges()}
    for c, g in enumerate(family.subgraphs):
        for e in g:
            if e in opts:
                opts[e].append(c)
    return {e: tuple(cs) for e, cs in opts.items()}


def _colors_feasible(chosen: Sequence[Edge], options: dict[Edge, tuple[int, ...]]) -> bool:
    """Can the chosen edges get pairwise distinct colors? (Kuhn matching,
    each augmenting path searched on an explicit stack)"""
    match: dict[int, int] = {}  # color -> index into chosen
    for root, e in enumerate(chosen):
        for c in options[e]:
            if c not in match:
                match[c] = root
                break
        else:
            visited: set[int] = set()
            stack = [(root, iter(options[e]))]  # edges on the path, each with its untried colors
            via: list[int] = []  # via[j]: the color stack[j] would take from stack[j + 1]
            while True:
                for c in stack[-1][1]:
                    if c not in visited:
                        break
                else:
                    stack.pop()
                    if not stack:
                        return False
                    via.pop()
                    continue
                visited.add(c)
                owner = match.get(c)
                if owner is None:
                    break
                via.append(c)
                stack.append((owner, iter(options[chosen[owner]])))
            via.append(c)
            for (i, _), c in zip(stack, via):
                match[c] = i
    return True


def _assign_colors(
    search: _Search, edges: list[Edge], options: dict[Edge, tuple[int, ...]], memo: dict, signatures: dict
):
    """Enumerate all bijective colorings of a fixed edge set.

    The edges are colored in one fixed order, most constrained first, so
    their option tuples in that order and the used colors fix the state:
    how many edges are colored, and which colors are left for the rest.
    ``memo`` is keyed on both, so cycles whose edges carry the same
    options share it. ``signatures`` numbers the option tuples, so a key
    hashes two numbers, not n tuples. An enumeration, which reads no
    memo, numbers none, nor does a full one: no state of an unnumbered
    cycle is stored to be met again.
    """
    order = sorted(edges, key=lambda e: len(options[e]))
    signature = tuple([options[e] for e in order])
    number = signatures.get(signature)
    if number is None and search.kind is None and len(memo) < MEMO_ENTRIES:
        number = signatures[signature] = len(signatures)
    assignment: dict[Edge, int] = {}
    used = 0  # bit c set: color c is taken

    def expand():
        nonlocal used
        if len(assignment) == len(order):
            search.solution(assignment)
            return
        e = order[len(assignment)]
        for c in options[e]:
            if used >> c & 1:
                continue
            search.tick()
            used |= 1 << c
            assignment[e] = c
            yield True
            del assignment[e]
            used ^= 1 << c

    _walk(search, expand, None if number is None else lambda: (number, used), memo)


def _search_ham(family: SubgraphFamily, budget: SearchBudget | None, kind: str | None = None) -> _Search:
    """Cycles rooted at vertex 0 with the smaller second vertex, so each
    cycle is found once; colorings are enumerated per cycle, all cycles
    sharing one coloring memo."""
    if family.kind != KIND_HAM:
        raise ValueError("hamiltonian enumeration needs a hamiltonian family")
    search = _Search(budget or SearchBudget(), kind)
    n = family.num_vertices
    options = _edge_options(family)
    base = family.base
    path = [0]
    used = [False] * n
    used[0] = True
    chosen: list[Edge] = []
    colorings: dict = {}  # the coloring memo, and the numbered option tuples it is keyed on
    signatures: dict[tuple, int] = {}

    def expand():
        u = path[-1]
        if len(path) == n:
            if base.has_edge(u, 0) and path[1] < u:
                cycle = chosen + [edge(u, 0)]
                if _colors_feasible(cycle, options):
                    _assign_colors(search, cycle, options, colorings, signatures)
            return
        for v in base.neighbors(u):
            if used[v]:
                continue
            search.tick()
            chosen.append(edge(u, v))
            if _colors_feasible(chosen, options):
                used[v] = True
                path.append(v)
                yield True
                path.pop()
                used[v] = False
            chosen.pop()

    _walk(search, expand)
    return search


def _search_pm(family: SubgraphFamily, budget: SearchBudget | None, kind: str | None = None) -> _Search:
    """Matchings built by pairing the lowest unmatched vertex, each edge
    colored as it is added. The matched vertices and the used colors fix
    the state."""
    if family.kind != KIND_PM:
        raise ValueError("matching enumeration needs a matching family")
    search = _Search(budget or SearchBudget(), kind)
    n = family.num_vertices
    options = _edge_options(family)
    base = family.base
    everyone = (1 << n) - 1
    matched = 0  # bit v set: vertex v is matched
    used = 0  # bit c set: color c is taken
    assignment: dict[Edge, int] = {}

    def expand():
        nonlocal matched, used
        if matched == everyone:
            search.solution(assignment)
            return
        low = ~matched & (matched + 1)  # the bit of the lowest unmatched vertex
        u = low.bit_length() - 1
        for w in base.neighbors(u):
            if matched >> w & 1:
                continue
            e = edge(u, w)
            pair = low | 1 << w
            for c in options[e]:
                if used >> c & 1:
                    continue
                search.tick()
                matched |= pair
                used |= 1 << c
                assignment[e] = c
                yield True
                del assignment[e]
                used ^= 1 << c
                matched ^= pair

    _walk(search, expand, lambda: used << n | matched)
    return search


def enumerate_all_ham_transversals(
    family: SubgraphFamily, budget: SearchBudget | None = None
) -> list[Transversal]:
    """Every (cycle, coloring) transversal, canonically sorted."""
    return sorted(_search_ham(family, budget, KIND_HAM).results, key=lambda t: t.items)


def enumerate_all_pm_transversals(
    family: SubgraphFamily, budget: SearchBudget | None = None
) -> list[Transversal]:
    """Every (perfect matching, coloring) transversal, canonically sorted."""
    return sorted(_search_pm(family, budget, KIND_PM).results, key=lambda t: t.items)


def count_ham_transversals(family: SubgraphFamily, budget: SearchBudget | None = None) -> int:
    """The number of transversals ``enumerate_all_ham_transversals`` finds, none of them built."""
    return _search_ham(family, budget).count()


def count_pm_transversals(family: SubgraphFamily, budget: SearchBudget | None = None) -> int:
    """The number of transversals ``enumerate_all_pm_transversals`` finds, none of them built."""
    return _search_pm(family, budget).count()


def exists_ham_transversal(
    family: SubgraphFamily, budget: SearchBudget | None = None
) -> Transversal | None:
    budget = budget or SearchBudget()
    capped = SearchBudget(budget.max_nodes, 1)
    found = enumerate_all_ham_transversals(family, capped)
    return found[0] if found else None


def permanent(matrix: Sequence[Sequence[int]]) -> int:
    """Permanent of a square matrix, by a dynamic program over column sets.

    The rows are placed in order, each on one column of its nonzero
    entries not taken by an earlier row. After each row the program keeps
    one dict, ``{column bitmask: weight}``, where a set's weight is the
    sum, over the ways the rows so far can fill exactly that set, of the
    product of the chosen entries; after the last row the full set's
    weight is the permanent. Only sets reached this way are held. A set
    that lacks a column no later row has a nonzero entry in is dropped:
    each row adds one column, so that column could never be filled and
    the set never completed, and dropping it loses no term. Once no set is
    left, the permanent is 0. Arithmetic is in exact Python integers, for
    any integer entries, signs and cancellations included.

    After row i each set has i + 1 columns, so at most C(k, i+1) sets are
    held, at most C(k, k//2) at once (184,756 at k = 20), and each is
    extended by at most k columns. A sparse matrix holds far fewer: the
    k = 14 omega matrices of ``gen_planted_pm_family(14, 3, seed)``, four
    ones per row, hold about 900 to 6,300 sets over all rows, and take
    about 1 to 1.5 ms where Ryser's 2^k-step formula, which the tests keep
    as the reference, takes about 9 to 10 ms. A dense matrix meets the
    bound: all-ones takes 0.53 to 0.61 s at k = 18 (Ryser 0.41 s) and
    2.9 s at k = 20 (Ryser 1.9 s), holding about 47 MB more at k = 20
    (CPython 3.11, one core of an Intel Xeon).
    ``permanent([]) == 1``; a ragged or non-square matrix raises
    ``ValueError``.
    """
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("permanent needs a square matrix")
    rows = [[(1 << j, a) for j, a in enumerate(row) if a] for row in matrix]
    later = [0] * (k + 1)  # later[i]: the columns rows i, i+1, ... have nonzero entries in
    for i in range(k - 1, -1, -1):
        later[i] = later[i + 1] | sum(bit for bit, _ in rows[i])
    full = (1 << k) - 1
    weights = {0: 1}
    for row, rest in zip(rows, later[1:]):
        need = full ^ rest  # no later row can take these, so every set must hold them now
        step: dict[int, int] = {}
        for used, w in weights.items():
            for bit, a in row:
                if used & bit:  # each column is taken once
                    continue
                s = used | bit
                if s & need == need:
                    step[s] = step.get(s, 0) + w * a
        if not step:
            return 0
        weights = step
    return weights[full]
