"""Colored auxiliary digraphs over a canonically labelled transversal.

Cycle kind builds a red/yellow/blue digraph on the cycle vertices:
red edges are the bidirectional distance-1 and distance-2 cycle pairs,
a yellow arc i->j exists when edge(i,j) lies in subgraph i and j is not
a cycle neighbor of i, and a blue arc i->j exists when edge(i,j) lies
in subgraph i-1 (mod n) under the same exclusion.

Matching kind builds a red/blue digraph on the 2n endpoints: red edges
are the matched pairs (i, n+i), and a blue arc leaves an endpoint of
pair i toward an opposite-side endpoint of a different pair j whenever
that edge lies in subgraph i.

Red edges are fixed by the labelling, so neither class stores them, and
the omega predicates state the planted colors themselves.

``support`` lists, per arc tail, the heads the support depth counts, and
checks red independence, reading family's subgraphs in its own labels or
through new-to-old tables, under ``_arcs``, the arc rule ``build_full_*``
also applies. A matching's is ``row_heads`` of its ``admissible_rows``,
the members' own rows outside the set, which the multiplication also
keys its children on. ``support_depth`` is the shortest list, which
reports name d_star for a cycle and d_cross for a matching. The exchange
keeps the first head of each, and the multiplier's saturation loop
crosses heads off and passes what is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Edge,
    KIND_HAM,
    KIND_PM,
    SubgraphFamily,
    Tables,
    Transversal,
    edge,
    old_to_new,
)
from .errors import NotMaximalRedIndependent, NotRedIndependent


@dataclass(frozen=True)
class RybDigraph:
    """Per-vertex sorted yellow and blue arc heads on a cycle of length n."""

    n: int
    yellow: tuple[tuple[int, ...], ...]
    blue: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for tail in range(self.n):
            banned = {(tail - 1) % self.n, (tail + 1) % self.n, tail}
            for head in self.yellow[tail] + self.blue[tail]:
                if head in banned:
                    raise ValueError(f"arc {tail}->{head} targets a cycle neighbor or itself")
                if not 0 <= head < self.n:
                    raise ValueError(f"arc {tail}->{head} leaves the vertex range 0..{self.n - 1}")


@dataclass(frozen=True)
class RbDigraph:
    """Blue arc heads per endpoint over n matched pairs (vertices 0..2n-1)."""

    n: int
    blue: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for tail in range(2 * self.n):
            for head in self.blue[tail]:
                if not 0 <= head < 2 * self.n:
                    raise ValueError(f"arc {tail}->{head} leaves the vertex range 0..{2 * self.n - 1}")
                if self.pair_index(head) == self.pair_index(tail):
                    raise ValueError(f"arc {tail}->{head} stays inside one pair")
                if (tail < self.n) == (head < self.n):
                    raise ValueError(f"arc {tail}->{head} does not cross sides")

    def pair_index(self, v: int) -> int:
        return v % self.n


def _arcs(cycle: bool, n: int, c: int, pairs) -> list[tuple[int, int]]:
    """The arc rule: the arcs t->h that the edges t-h of subgraph c in
    ``pairs`` give, one call per batch. A cycle keeps a pair (both arcs)
    unless it joins cycle neighbors. A matching's edge gives the arc from
    its end in pair c to an end of another pair, across the sides. An arc
    out of range stays, for RybDigraph or RbDigraph to reject."""
    if cycle:
        red = 1, n - 1
        return [p for p in pairs if (p[1] - p[0]) % n not in red or not (0 <= p[0] < n and 0 <= p[1] < n)]
    return [(t, h) for u, v in pairs for t, h in ((u, v), (v, u))
            if t % n == c and (t < n) != (h < n) and h % n != c]


def build_full_ryb(family: SubgraphFamily) -> RybDigraph:
    """All yellow and blue arcs the family supports over the planted cycle.

    Row i of yellow reads only G_i at vertex i, and row i of blue only
    G_{i-1} at i. Each distinct subgraph object is indexed by vertex once,
    so an all-equal family costs one pass over its one edge set, and any
    family O(n + the sum of its distinct |G_c|).
    """
    if family.kind != KIND_HAM:
        raise ValueError("cycle digraph needs a hamiltonian family")
    n = family.num_vertices
    # keyed by id as SubgraphFamily canonicalises: the family keeps each alive
    index: dict[int, dict[int, list[int]]] = {}
    yellow: list[tuple[int, ...]] = [()] * n
    blue: list[tuple[int, ...]] = [()] * n
    for c, g in enumerate(family.subgraphs):
        at = index.get(id(g))
        if at is None:
            at = index[id(g)] = {}
            for u, v in _arcs(True, n, c, g):
                at.setdefault(u, []).append(v)
                at.setdefault(v, []).append(u)
        nxt = (c + 1) % n
        # G_c at c gives c's yellow heads, and at c+1 the blue heads of c+1
        if c in at:
            yellow[c] = tuple(sorted(at[c]))
        if nxt in at:
            blue[nxt] = tuple(sorted(at[nxt]))
    return RybDigraph(n, tuple(yellow), tuple(blue))


def build_full_rb(family: SubgraphFamily) -> RbDigraph:
    """All blue arcs the family supports over the planted pairing."""
    if family.kind != KIND_PM:
        raise ValueError("pair digraph needs a matching family")
    n = family.num_pairs
    blue: list[list[int]] = [[] for _ in range(2 * n)]
    for i, g in enumerate(family.subgraphs):
        for a, b in _arcs(False, n, i, g):
            blue[a].append(b)
    return RbDigraph(n, tuple(tuple(sorted(set(h))) for h in blue))


def support(family: SubgraphFamily, members: Sequence[int],
            tables: Tables | None = None) -> dict[int, tuple[int, ...]]:
    """The arc heads the support depth counts, by arc tail, as the rows of
    ``build_full_*`` of ``relabel(family, *tables)`` give them, or of
    family when tables is None; read from family's subgraphs, not built.

    Cycle kind: for each member m, ascending, m-1's yellow heads in the set
    and then m+1's blue heads in the set, by O(|S|^2) arc lookups; red
    independence keeps these tails distinct. Matching kind: ``row_heads``
    of the set's ``admissible_rows``. Heads ascend. A cycle set with a red
    edge raises NotRedIndependent, and a matching set that is not one
    endpoint per pair NotMaximalRedIndependent.
    """
    if family.kind != KIND_HAM:
        ms = tuple(sorted(set(members)))
        return row_heads(ms, admissible_rows(family, ms, tables))
    subs = family.subgraphs
    vt, ct = (range(family.num_vertices), range(family.num_colors)) if tables is None else tables
    n = len(ct)
    ms = sorted(set(members))
    if not ms:
        raise ValueError("empty set has no support depth")
    # no two members within cycle distance 2
    if any(min((b - a) % n, (a - b) % n) <= 2 for i, a in enumerate(ms) for b in ms[i + 1:]):
        raise NotRedIndependent(f"set {ms} has a red-adjacent pair")
    heads = {}
    for m in ms:
        # m-1 has yellow heads, read in subgraph m-1; m+1 has blue ones, read in subgraph m
        for t, c in (((m - 1) % n, (m - 1) % n), ((m + 1) % n, m)):
            heads[t] = tuple(h for _, h in _arcs(True, n, c, [(t, h) for h in ms]) if edge(vt[t], vt[h]) in subs[ct[c]])
    return heads


def admissible_rows(family: SubgraphFamily, members: Sequence[int],
                    tables: Tables | None = None) -> tuple[tuple[int, ...], ...]:
    """A matching set's admissible rows: per member m, ascending, the
    vertices outside the set that m's own subgraph, color m mod n, joins it
    to, ascending; read by one scan of that subgraph, in family's labels or
    through new-to-old tables. A set that is not one endpoint per pair
    raises NotMaximalRedIndependent. A row holds every vertex omega may
    match m to, as ``enumerate_omega_pm`` lists them, and ``row_heads``
    keeps those the arc rule allows: the multiplication keys a matching
    child on the rows and filters its support from them.
    """
    vt, ct = (range(family.num_vertices), range(family.num_colors)) if tables is None else tables
    n = len(ct)
    ms = sorted(set(members))
    if len(ms) != n or len({v % n for v in ms}) != n:
        raise NotMaximalRedIndependent("need exactly one endpoint per pair")
    new = old_to_new(vt, family.num_vertices)
    s = frozenset(ms)
    rows = []
    for m in ms:
        o = vt[m]
        far = [v if u == o else u for u, v in family.subgraphs[ct[m % n]] if o in (u, v)]
        # an end outside family's vertices is no head, nor one the tables leave out (-1)
        mapped = [new[b] for b in far if 0 <= b < len(new)]
        rows.append(tuple(sorted(h for h in mapped if h >= 0 and h not in s)))
    return tuple(rows)


def row_heads(members: Sequence[int], rows: Sequence[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """A matching set's ``support`` from its ``admissible_rows``: each
    member's heads are the row's entries the arc rule keeps, across the
    sides and off the member's own pair; members ascend, rows are theirs."""
    n = len(rows)
    return {m: tuple(h for _, h in _arcs(False, n, m % n, [(m, h) for h in row])) for m, row in zip(members, rows)}


def support_depth(heads: dict[int, tuple[int, ...]]) -> int:
    """The support depth, d_star for a cycle set and d_cross for a
    matching: the length of the shortest list of ``heads``."""
    return min(map(len, heads.values()))


def omega_member_ham(members: Sequence[int], cand: Transversal) -> bool:
    """Membership in the exchange neighborhood of the planted cycle and
    members.

    cand must keep every planted edge (i, i+1) avoiding the set in its
    color i, and each member m's cycle neighbors m-1 and m+1 must join the
    set by one edge each, in colors m-1 and m, those of their planted
    edges to m. cand is assumed to be a valid transversal of the same
    canonically labelled family.
    """
    n = len(cand)
    s = frozenset(members)
    cand_colors = cand.colors()
    cand_at: dict[int, list[Edge]] = {v: [] for v in range(n)}
    for u, v in cand.edges:
        cand_at[u].append((u, v))
        cand_at[v].append((u, v))
    for i in range(n):
        if i not in s and (i + 1) % n not in s and cand_colors.get(edge(i, (i + 1) % n)) != i:
            return False
    for m in s:
        for v, c in (((m - 1) % n, (m - 1) % n), ((m + 1) % n, m)):
            joins = [e for e in cand_at[v] if (e[0] if e[1] == v else e[1]) in s]
            if len(joins) != 1 or cand_colors[joins[0]] != c:
                return False
    return True


def omega_member_pm(members: Sequence[int], cand: Transversal) -> bool:
    """Every cand edge crosses the set boundary, and the member on each
    keeps its planted pair's color, m mod n. cand is assumed valid for the
    same canonically labelled family."""
    n, s = len(cand), frozenset(members)
    for (u, v), c in cand.items:
        if (u in s) == (v in s) or (u if u in s else v) % n != c:
            return False
    return True
