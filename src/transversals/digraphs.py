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

Red edges are fixed by the labelling, so neither class stores them.

``support`` is the one place a row is filtered by set membership: it
lists, per arc tail, the heads the support depth counts, and checks red
independence. ``d_star`` and ``d_cross`` are the shortest of those
lists; the exchange keeps the first head of each, and the multiplier's
saturation loop crosses heads off and passes what is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Edge,
    KIND_HAM,
    KIND_PM,
    SubgraphFamily,
    Transversal,
    edge,
    require_naturally_indexed,
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
                if self.pair_index(head) == self.pair_index(tail):
                    raise ValueError(f"arc {tail}->{head} stays inside one pair")
                if (tail < self.n) == (head < self.n):
                    raise ValueError(f"arc {tail}->{head} does not cross sides")

    def partner(self, v: int) -> int:
        return v + self.n if v < self.n else v - self.n

    def pair_index(self, v: int) -> int:
        return v % self.n


def build_full_ryb(family: SubgraphFamily, t: Transversal) -> RybDigraph:
    """All yellow and blue arcs the family supports over the planted cycle.

    Row i of yellow reads only G_i at vertex i, and row i of blue only
    G_{i-1} at i. Each distinct subgraph object is indexed by vertex once,
    so an all-equal family costs one pass over its one edge set, and any
    family O(n + the sum of its distinct |G_c|).
    """
    if family.kind != KIND_HAM:
        raise ValueError("cycle digraph needs a hamiltonian family")
    require_naturally_indexed(family, t)
    n = family.num_vertices
    # keyed by id as SubgraphFamily canonicalises: the family keeps each alive
    index: dict[int, dict[int, list[int]]] = {}
    yellow: list[tuple[int, ...]] = [()] * n
    blue: list[tuple[int, ...]] = [()] * n
    steps = (1, n - 1)  # v - u over a cycle pair u < v
    for c, g in enumerate(family.subgraphs):
        at = index.get(id(g))
        if at is None:
            at = index[id(g)] = {}
            for u, v in g:
                # a cycle pair is red, never an arc (SubgraphFamily orders u <= v);
                # any other pair is kept, for RybDigraph to reject if it is no arc
                if v - u not in steps or u < 0 or v >= n:
                    at.setdefault(u, []).append(v)
                    at.setdefault(v, []).append(u)
        nxt = (c + 1) % n
        # G_c at c gives c's yellow heads, and at c+1 the blue heads of c+1
        if c in at:
            yellow[c] = tuple(sorted(at[c]))
        if nxt in at:
            blue[nxt] = tuple(sorted(at[nxt]))
    return RybDigraph(n, tuple(yellow), tuple(blue))


def build_full_rb(family: SubgraphFamily, t: Transversal) -> RbDigraph:
    """All blue arcs the family supports over the planted pairing."""
    if family.kind != KIND_PM:
        raise ValueError("pair digraph needs a matching family")
    require_naturally_indexed(family, t)
    n = family.num_pairs
    blue: list[list[int]] = [[] for _ in range(2 * n)]
    for i, g in enumerate(family.subgraphs):
        for u, v in g:
            for a, b in ((u, v), (v, u)):
                # arcs leave pair i's endpoints toward the opposite side
                if a % n == i and (a < n) != (b < n) and b % n != i:
                    blue[a].append(b)
    return RbDigraph(n, tuple(tuple(sorted(set(h))) for h in blue))


def is_red_independent(digraph: RybDigraph | RbDigraph, members: Sequence[int]) -> bool:
    """No two members joined by a red edge."""
    ms = sorted(set(members))
    if isinstance(digraph, RybDigraph):
        n = digraph.n
        for a in range(len(ms)):
            for b in range(a + 1, len(ms)):
                d = (ms[b] - ms[a]) % n
                if min(d, n - d) <= 2:
                    return False
        return True
    seen_pairs: set[int] = set()
    for v in ms:
        p = digraph.pair_index(v)
        if p in seen_pairs:
            return False
        seen_pairs.add(p)
    return True


def is_maximal_red_independent(digraph: RbDigraph, members: Sequence[int]) -> bool:
    """Exactly one endpoint from every matched pair."""
    ms = set(members)
    return len(ms) == digraph.n and is_red_independent(digraph, sorted(ms))


def support(H: RybDigraph | RbDigraph, members: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """The arc heads the support depth counts, by arc tail.

    Cycle kind: for each member m, ascending, m-1's yellow heads in the set
    and then m+1's blue heads in the set; red independence keeps these
    tails distinct. Matching kind: each member's blue heads outside the
    set. Heads stay in row order, which is ascending.
    """
    ms = sorted(set(members))
    s = frozenset(ms)
    if isinstance(H, RbDigraph):
        if not is_maximal_red_independent(H, ms):
            raise NotMaximalRedIndependent("need exactly one endpoint per pair")
        return {v: tuple(h for h in H.blue[v] if h not in s) for v in ms}
    if not ms:
        raise ValueError("empty set has no support depth")
    if not is_red_independent(H, ms):
        raise NotRedIndependent(f"set {ms} has a red-adjacent pair")
    n = H.n
    heads: dict[int, tuple[int, ...]] = {}
    for m in ms:
        y, b = (m - 1) % n, (m + 1) % n
        heads[y] = tuple(h for h in H.yellow[y] if h in s)
        heads[b] = tuple(h for h in H.blue[b] if h in s)
    return heads


def is_locally_dominating(J: RybDigraph, members: Sequence[int]) -> bool:
    """Every member is fed by a yellow arc from its predecessor and a blue
    arc from its successor, both landing inside the set."""
    return d_star(J, members) >= 1


def d_star(H: RybDigraph, members: Sequence[int]) -> int:
    """Minimum in-set support over all members (cycle kind).

    Zero whenever some member has an empty yellow or blue support; the
    caller decides whether zero is an error.
    """
    return min(map(len, support(H, members).values()))


def d_cross(H: RbDigraph, members: Sequence[int]) -> int:
    """Minimum number of blue arcs leaving the set from any member."""
    return min(map(len, support(H, members).values()))


def omega_member_ham(base: Transversal, members: Sequence[int], cand: Transversal) -> bool:
    """Membership in the exchange neighborhood of (base, members).

    cand must contain every base-cycle edge avoiding the set, with its base
    color, and at each cycle neighbor v of the set, cand must join v to the
    set by one edge carrying the color of v's base edge into the set.
    cand is assumed to be a valid transversal of the same family.
    """
    n = len(base)
    s = frozenset(members)
    cand_colors = cand.colors()
    base_colors = base.colors()
    cand_at: dict[int, list[Edge]] = {v: [] for v in range(n)}
    for u, v in cand.edges:
        cand_at[u].append((u, v))
        cand_at[v].append((u, v))
    for i in range(n):
        e = edge(i, (i + 1) % n)
        if i in s or (i + 1) % n in s:
            continue
        if cand_colors.get(e) != base_colors[e]:
            return False
    for m in s:
        for v in ((m - 1) % n, (m + 1) % n):
            base_e = edge(v, m)
            joins = [e for e in cand_at[v] if (e[0] if e[1] == v else e[1]) in s]
            if len(joins) != 1 or cand_colors[joins[0]] != base_colors[base_e]:
                return False
    return True


def omega_member_pm(base: Transversal, members: Sequence[int], cand: Transversal) -> bool:
    """Every cand edge crosses the set boundary, and each member keeps the
    color its base pair had. cand is assumed valid for the same family."""
    s = frozenset(members)
    base_color_at: dict[int, int] = {}
    for (u, v), c in base.items:
        if u in s:
            base_color_at[u] = c
        if v in s:
            base_color_at[v] = c
    for (u, v), c in cand.items:
        u_in, v_in = u in s, v in s
        if u_in == v_in:
            return False
        m = u if u_in else v
        if base_color_at.get(m) != c:
            return False
    return True
