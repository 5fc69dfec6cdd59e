"""Colored auxiliary digraphs over a canonically labelled transversal.

Cycle kind has a red/yellow/blue digraph on the cycle vertices: red
edges are the bidirectional distance-1 and distance-2 cycle pairs, a
yellow arc i->j exists when edge(i,j) lies in subgraph i and j is not a
cycle neighbor of i, and a blue arc i->j exists when edge(i,j) lies in
subgraph i-1 (mod n) under the same exclusion.

Matching kind has a red/blue digraph on the 2n endpoints: red edges are
the matched pairs (i, n+i), and a blue arc leaves an endpoint of pair i
toward an opposite-side endpoint of a different pair j whenever that
edge lies in subgraph i.

No digraph is stored: ``_arcs`` states the arc rule once, and the
samplers read every tail's heads from ``arc_rows``. Red edges are fixed
by the labelling; the omega predicates state the planted colors.

``support`` lists, per arc tail, the heads the support depth counts, and
checks red independence, reading family's subgraphs in its own labels or
through new-to-old tables, under ``_arcs``. A matching's is ``row_heads``
of its ``admissible_rows``, the members' own rows outside the set, which
the multiplication also keys its children on. ``support_depth`` is the
shortest list, which reports name d_star for a cycle and d_cross for a
matching. The exchange keeps the first head of each, and the multiplier's
saturation loop crosses heads off and passes what is left.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    Edge,
    KIND_HAM,
    SubgraphFamily,
    Tables,
    Transversal,
    edge,
    old_to_new,
)
from .errors import NotMaximalRedIndependent, NotRedIndependent


def _arcs(cycle: bool, n: int, c: int, pairs) -> list[tuple[int, int]]:
    """The arc rule: the arcs t->h that the edges t-h of subgraph c in
    ``pairs`` give, one call per batch. A cycle keeps a pair (both arcs)
    unless it joins cycle neighbors. A matching's edge gives the arc from
    its end in pair c to an end of another pair, across the sides."""
    if cycle:
        red = 1, n - 1
        return [p for p in pairs if (p[1] - p[0]) % n not in red]
    return [(t, h) for u, v in pairs for t, h in ((u, v), (v, u))
            if t % n == c and (t < n) != (h < n) and h % n != c]


def arc_rows(family: SubgraphFamily) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every tail's arc heads under ``_arcs``, ascending: a cycle's
    (yellow, blue) rows, a matching's (blue,) rows, one per vertex.

    Yellow row i reads G_i at i, blue row i G_{i-1} at i, and a matching's
    row v G_{v mod n} at v. Each distinct subgraph object is indexed once,
    a matching's once per color, as its arc rule names the color. A loop,
    or an edge with an end outside 0..|V|-1, raises ValueError; ``_arcs``
    keeps no head on its tail, a cycle neighbor, its pair or its side, so
    no row is checked for one.
    """
    cycle, size = family.kind == KIND_HAM, family.num_vertices
    n = size if cycle else family.num_pairs
    rows = [[()] * size for _ in range(2 if cycle else 1)]
    # keyed by id as SubgraphFamily canonicalises: the family keeps each alive
    index: dict[object, dict[int, list[int]]] = {}
    for c, g in enumerate(family.subgraphs):
        key = id(g) if cycle else (id(g), c)
        at = index.get(key)
        if at is None:
            # only a subgraph outside the base can hold a loop or an end out of range; u <= v
            for u, v in () if g <= family.base.edge_set else sorted(g):
                if not 0 <= u < v < size:
                    raise ValueError(f"subgraph {c} has a loop at {u}" if u == v else
                                     f"subgraph {c} edge ({u},{v}) leaves the vertex range 0..{size - 1}")
            at = index[key] = {}
            for t, h in _arcs(cycle, n, c, g):
                at.setdefault(t, []).append(h)
                if cycle:
                    at.setdefault(h, []).append(t)
        # G_c gives c's yellow and c+1's blue heads, or the ends of pair c theirs
        for row, t in ((0, c), (1, (c + 1) % n)) if cycle else ((0, c), (0, n + c)):
            if t in at:
                rows[row][t] = tuple(sorted(at[t]))
    return tuple(map(tuple, rows))


def _members(members: Sequence[int], size: int) -> list[int]:
    """The set's members ascending, each a vertex of 0..size-1 or ValueError."""
    ms = sorted(set(members))
    if ms and not (ms[0] >= 0 and ms[-1] < size):
        raise ValueError(f"set {ms} leaves the vertex range 0..{size - 1}")
    return ms


def support(family: SubgraphFamily, members: Sequence[int],
            tables: Tables | None = None) -> dict[int, tuple[int, ...]]:
    """The arc heads the support depth counts, by arc tail, as the rows of
    ``arc_rows`` of ``relabel(family, *tables)`` give them, or of family
    when tables is None; read from family's subgraphs, not built.

    Cycle kind: for each member m, ascending, m-1's yellow heads in the set
    and then m+1's blue heads in the set, by O(|S|^2) arc lookups; red
    independence keeps these tails distinct. Matching kind: ``row_heads``
    of the set's ``admissible_rows``. Heads ascend. A cycle set with a red
    edge raises NotRedIndependent, and a matching set that is not one
    endpoint per pair NotMaximalRedIndependent. A member outside the
    vertex range raises ValueError.
    """
    if family.kind != KIND_HAM:
        ms = tuple(sorted(set(members)))
        return row_heads(ms, admissible_rows(family, ms, tables))
    subs = family.subgraphs
    vt, ct = (range(family.num_vertices), range(family.num_colors)) if tables is None else tables
    n = len(ct)
    ms = _members(members, n)
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
    raises NotMaximalRedIndependent, and one with a member outside the
    vertex range ValueError. A row holds every vertex omega may
    match m to, as ``enumerate_omega_pm`` lists them, and ``row_heads``
    keeps those the arc rule allows: the multiplication keys a matching
    child on the rows and filters its support from them.
    """
    vt, ct = (range(family.num_vertices), range(family.num_colors)) if tables is None else tables
    n = len(ct)
    ms = _members(members, len(vt))
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
