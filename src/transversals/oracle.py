"""Brute-force ground truth, independent of the constructive machinery.

Enumeration backtracks jointly over the structure (cycle path or matching)
and exact colors, pruning with a bipartite-matching feasibility test
between chosen edges and colors. Budgets are explicit: blowing the node
budget raises, carrying whatever was found so far; so does a count that
the result cap stopped, as it is not exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Edge,
    KIND_HAM,
    KIND_PM,
    SubgraphFamily,
    Transversal,
    edge,
)
from .errors import BudgetExceeded


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

    def full(self) -> bool:
        return self.budget.max_results is not None and self.found >= self.budget.max_results

    def count(self) -> int:
        if self.full():
            raise BudgetExceeded(f"result cap {self.budget.max_results} reached", (), self.nodes, self.found)
        return self.found


def _edge_options(family: SubgraphFamily) -> dict[Edge, tuple[int, ...]]:
    opts: dict[Edge, list[int]] = {e: [] for e in family.base.edges()}
    for c, g in enumerate(family.subgraphs):
        for e in g:
            if e in opts:
                opts[e].append(c)
    return {e: tuple(cs) for e, cs in opts.items()}


def _colors_feasible(chosen: Sequence[Edge], options: dict[Edge, tuple[int, ...]]) -> bool:
    """Can the chosen edges get pairwise distinct colors? (Kuhn matching)"""
    match: dict[int, int] = {}

    def try_assign(i: int, visited: set[int]) -> bool:
        for c in options[chosen[i]]:
            if c in visited:
                continue
            visited.add(c)
            if c not in match or try_assign(match[c], visited):
                match[c] = i
                return True
        return False

    for i in range(len(chosen)):
        if not try_assign(i, set()):
            return False
    return True


def _assign_colors(search: _Search, edges: list[Edge], options: dict[Edge, tuple[int, ...]]):
    """Enumerate all bijective colorings of a fixed edge set."""
    n = len(edges)
    order = sorted(range(n), key=lambda i: len(options[edges[i]]))
    used: set[int] = set()
    assignment: dict[Edge, int] = {}

    def rec(k: int):
        if search.full():
            return
        if k == n:
            search.solution(assignment)
            return
        e = edges[order[k]]
        for c in options[e]:
            if c in used:
                continue
            search.tick()
            used.add(c)
            assignment[e] = c
            rec(k + 1)
            used.discard(c)
            del assignment[e]
            if search.full():
                return

    rec(0)


def _search_ham(family: SubgraphFamily, budget: SearchBudget | None, kind: str | None = None) -> _Search:
    """Cycles rooted at vertex 0 with the smaller second vertex, so each
    cycle is found once; colorings are enumerated per cycle."""
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

    def extend():
        if search.full():
            return
        u = path[-1]
        if len(path) == n:
            if base.has_edge(u, 0) and path[1] < path[-1]:
                closing = edge(u, 0)
                if _colors_feasible(chosen + [closing], options):
                    _assign_colors(search, chosen + [closing], options)
            return
        for v in base.neighbors(u):
            if used[v]:
                continue
            search.tick()
            e = edge(u, v)
            chosen.append(e)
            if _colors_feasible(chosen, options):
                used[v] = True
                path.append(v)
                extend()
                path.pop()
                used[v] = False
            chosen.pop()
            if search.full():
                return

    extend()
    return search


def _search_pm(family: SubgraphFamily, budget: SearchBudget | None, kind: str | None = None) -> _Search:
    """Matchings built by pairing the lowest unmatched vertex, each edge
    colored as it is added."""
    if family.kind != KIND_PM:
        raise ValueError("matching enumeration needs a matching family")
    search = _Search(budget or SearchBudget(), kind)
    n = family.num_vertices
    options = _edge_options(family)
    base = family.base
    matched = [False] * n
    used_colors: set[int] = set()
    assignment: dict[Edge, int] = {}

    def rec():
        if search.full():
            return
        u = next((v for v in range(n) if not matched[v]), None)
        if u is None:
            search.solution(assignment)
            return
        matched[u] = True
        for w in base.neighbors(u):
            if matched[w]:
                continue
            e = edge(u, w)
            for c in options[e]:
                if c in used_colors:
                    continue
                search.tick()
                matched[w] = True
                used_colors.add(c)
                assignment[e] = c
                rec()
                del assignment[e]
                used_colors.discard(c)
                matched[w] = False
                if search.full():
                    break
            if search.full():
                break
        matched[u] = False

    rec()
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
    """Permanent of a square matrix by Ryser's formula, walked in Gray-code order.

    per(A) = sum over nonempty column sets S of (-1)^(k-|S|) times the
    product over rows of that row's sum over S. Successive sets of a
    Gray code differ in one column, so each of the 2^k - 1 steps adds or
    subtracts that column's nonzero entries from k running row sums, then
    forms the k-term product only when no row sum is zero. Arithmetic is
    in exact Python integers, never floats. The step count doubles with
    each row, so k up to about 20 (a million steps) is practical.
    ``permanent([]) == 1``; a ragged or non-square matrix raises
    ``ValueError``.
    """
    k = len(matrix)
    if k == 0:
        return 1
    if any(len(row) != k for row in matrix):
        raise ValueError("permanent needs a square matrix")
    columns = [[(i, row[j]) for i, row in enumerate(matrix) if row[j]] for j in range(k)]
    sums = [0] * k
    zeros = k
    inside = [False] * k
    sign = 1 if k % 2 else -1  # (-1)^(k-|S|) at the first set, |S| = 1
    total = 0
    for step in range(1, 1 << k):
        j = (step & -step).bit_length() - 1  # the Gray code flips the lowest set bit
        inside[j] = add = not inside[j]
        for i, a in columns[j]:
            before = sums[i]
            after = before + a if add else before - a
            sums[i] = after
            zeros += (after == 0) - (before == 0)
        if not zeros:
            total += sign * math.prod(sums)
        sign = -sign
    return total
