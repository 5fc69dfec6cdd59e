"""Producing one more transversal from a planted one.

Cycle kind: prune the support down to one yellow and one blue arc per
set member, then walk Thomason-style rotations over Hamiltonian paths of
the underlying graph that start with a fixed anchor edge. States of that
auxiliary walk have degree 1 or 2, so starting at the opened base cycle
(degree 1) and never stepping back reaches a different degree-1 state,
which closes into a second Hamiltonian cycle. Recoloring by arc tails
plus one forced missing color yields the second transversal.

Matching kind: walk red pair edges and first-head blue arcs alternately
until a pair repeats, cut out the even alternating cycle, and swap it
into the matching; set members keep their base colors.

Both exchanges read a heads map shaped like ``digraphs.support``'s result,
arc tail to the heads the support depth counts, and keep the first head
of each list: the lowest, as ``support`` lists heads ascending. The
multiplier's witness loop passes its pending lists as they are.
``second_transversal`` runs the exchange of the family's kind in a
canonical labelling, around its ``planted`` transversal, which the size
of the caller's tables fixes. It validates the result once, in the
labels its caller lifts it to, refuses the planted one, and returns the
result with the rotation walk or alternating cycle that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    Edge,
    KIND_HAM,
    SubgraphFamily,
    Tables,
    Transversal,
    cycle_tables,
    edge,
    lift,
    planted,
    validate_transversal,
)
from .errors import (
    InvalidTransversal,
    NoBlueEscape,
    NotLocallyDominating,
    NotMaximalRedIndependent,
    RecolorConflict,
    WalkStuck,
)


Heads = Mapping[int, Sequence[int]]


@dataclass(frozen=True)
class PrunedDigraph:
    """One retained yellow and blue arc per set member, plus the cycle.

    ``yellow_pick[m] = (m-1, head)`` and ``blue_pick[m] = (m+1, head)``,
    heads inside the set. Distance-2 red edges are dropped; ``adj`` is the
    underlying graph, the base cycle plus the retained arc edges.
    ``arc_colors`` recolors a retained arc's edge by its tail rule.
    """

    n: int
    members: tuple[int, ...]
    yellow_pick: tuple[tuple[int, tuple[int, int]], ...]
    blue_pick: tuple[tuple[int, tuple[int, int]], ...]
    adj: tuple[tuple[int, ...], ...]
    arc_colors: Mapping[Edge, int]


def prune(heads: Heads, members: Sequence[int], n: int) -> PrunedDigraph:
    """Keep the first yellow head of each member's predecessor and the
    first blue head of its successor; a tail missing from ``heads`` has
    none. ``heads`` is ``support``'s map, or any map whose lists start
    with heads ``support`` would list: each kept head is in the set and,
    by the arc rule ``digraphs._arcs``, neither its tail nor a cycle neighbor
    of it, or NotLocallyDominating is raised."""
    ms = tuple(sorted(set(members)))
    if not ms:
        raise ValueError("empty set has no support depth")
    adj = [{(v - 1) % n, (v + 1) % n} for v in range(n)]
    ypick, bpick = [], []
    for m in ms:
        ytail, btail = (m - 1) % n, (m + 1) % n
        yheads, bheads = heads.get(ytail, ()), heads.get(btail, ())
        if not yheads or not bheads:
            raise NotLocallyDominating(f"member {m} lacks in-set support (yellow {len(yheads)}, blue {len(bheads)})")
        if yheads[0] not in ms or bheads[0] not in ms:
            raise NotLocallyDominating(f"member {m}'s first heads {yheads[0]}, {bheads[0]} are not all in the set")
        ypick.append((m, (ytail, yheads[0])))
        bpick.append((m, (btail, bheads[0])))
        for t, h in ((ytail, yheads[0]), (btail, bheads[0])):
            if (h - t) % n in (0, 1, n - 1):
                raise NotLocallyDominating(f"arc {t}->{h} targets its tail or a cycle neighbor of it")
            adj[t].add(h)
            adj[h].add(t)
    colors = {edge(t, h): (t - 1) % n for _, (t, h) in bpick} | {edge(t, h): t for _, (t, h) in ypick}
    return PrunedDigraph(n, ms, tuple(ypick), tuple(bpick), tuple(tuple(sorted(s)) for s in adj), colors)


@dataclass(frozen=True)
class LollipopTrace:
    """Every Hamiltonian-path state visited, plus the rotation pivot edges."""

    states: tuple[tuple[int, ...], ...]
    pivots: tuple[Edge, ...]

    @property
    def final(self) -> tuple[int, ...]:
        return self.states[-1]


def _rotation_pivots(path: tuple[int, ...], adj) -> list[int]:
    """Positions j where rotating at path[j] yields another anchored path.

    The first edge stays fixed, so j = 0 is out; j = n-2 is the trivial
    self-rotation. A neighbor equal to path[0] closes a cycle instead of
    rotating, which is what makes the state degree 1.
    """
    n = len(path)
    last = path[-1]
    pos = {v: i for i, v in enumerate(path)}
    return [pos[w] for w in adj[last] if 1 <= pos[w] <= n - 3]


def lollipop_walk(jp: PrunedDigraph, anchor: Edge) -> LollipopTrace:
    """Rotation walk from the opened base cycle to another degree-1 state.

    anchor must be (s, s+1 mod n) for a set member s; the walk only ever
    visits Hamiltonian paths beginning with that edge. Raises WalkStuck if
    a state's degree leaves {1, 2}, which would mean the pruning broke its
    degree contract.
    """
    n = jp.n
    s0, s1 = anchor
    if s0 not in jp.members or s1 != (s0 + 1) % n:
        raise ValueError(f"anchor {anchor} is not a member's forward cycle edge")
    adj = jp.adj
    q0 = tuple((s0 + k) % n for k in range(n))
    states = [q0]
    pivot_edges: list[Edge] = []
    seen = {q0}
    prev: tuple[int, ...] | None = None
    cur = q0
    while True:
        pivots = _rotation_pivots(cur, adj)
        if len(pivots) not in (1, 2):
            raise WalkStuck(f"state ends at {cur[-1]} with auxiliary degree {len(pivots)}")
        if prev is None and len(pivots) != 1:
            raise WalkStuck("initial state must have auxiliary degree 1")
        succ = []
        for j in pivots:
            cand = cur[: j + 1] + cur[j + 1 :][::-1]
            if cand != prev:
                succ.append((j, cand))
        if not succ:
            # degree-1 state entered from its only neighbor: done
            return LollipopTrace(tuple(states), tuple(pivot_edges))
        if len(succ) > 1 and prev is not None:
            raise WalkStuck(f"interior state has {len(succ) + 1} neighbors")
        j, nxt = succ[0]
        if nxt in seen:
            raise WalkStuck("rotation walk revisited a state")
        seen.add(nxt)
        pivot_edges.append(edge(cur[-1], cur[j]))
        states.append(nxt)
        prev, cur = cur, nxt


def recolor_ham(cycle: Sequence[int], jp: PrunedDigraph) -> tuple[int, ...]:
    """The colors along the second cycle, entry k for the edge leaving
    ``cycle[k]``: cycle edges keep their base color, retained arcs take
    their tail rule, and the one closing edge gets the single color left
    over. Any ambiguity or repeat raises RecolorConflict."""
    n = jp.n
    psi: dict[Edge, int] = {}
    for u, v in zip(cycle, cycle[1:]):
        e = edge(u, v)
        if (u + 1) % n == v:
            c = u
        elif (v + 1) % n == u:
            c = v
        elif e in jp.arc_colors:
            c = jp.arc_colors[e]
        else:
            raise RecolorConflict(f"edge {e} is neither a cycle edge nor a retained arc")
        if e in psi:
            raise RecolorConflict(f"edge {e} appears twice in the cycle")
        psi[e] = c
    if len(set(psi.values())) != n - 1:
        raise RecolorConflict("arc-tail rule repeated a color")
    if edge(cycle[-1], cycle[0]) in psi:
        raise RecolorConflict("closing edge duplicates a path edge")
    return tuple(psi.values()) + tuple(set(range(n)).difference(psi.values()))


@dataclass(frozen=True)
class AlternatingCycle:
    """Even cycle alternating red pair edges and blue arcs.

    ``pairs[k]`` is a pair index; ``arcs[k]`` leaves the set endpoint of
    pairs[k] and lands on the out-of-set endpoint of pairs[k+1] (cyclic).
    """

    pairs: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]

    def length(self) -> int:
        return 2 * len(self.pairs)


def find_alternating_cycle(escapes: Heads, n: int) -> AlternatingCycle:
    """Walk red edges and first-head blue escapes until a pair repeats,
    then cut the closed part. ``escapes`` maps one endpoint of each of the
    n pairs to its heads, as ``support`` does; the walk starts at the set
    endpoint of pair 0."""
    set_end = {v % n: v for v in escapes}
    if len(escapes) != n or len(set_end) != n:
        raise NotMaximalRedIndependent("need exactly one endpoint per pair")
    trail: list[tuple[int, tuple[int, int]]] = []
    seen_at: dict[int, int] = {}
    p = 0
    while True:
        if p in seen_at:
            start = seen_at[p]
            pairs = tuple(pr for pr, _ in trail[start:])
            arcs = tuple(a for _, a in trail[start:])
            return AlternatingCycle(pairs, arcs)
        z = set_end[p]
        if not escapes[z]:
            raise NoBlueEscape(f"member {z} of pair {p} has no blue arc leaving the set")
        w = escapes[z][0]
        seen_at[p] = len(trail)
        trail.append((p, (z, w)))
        p = w % n


def second_transversal(family: SubgraphFamily, tables: tuple, members: Sequence[int],
                       heads: Heads) -> tuple[Transversal, Transversal, Tables | None, LollipopTrace | AlternatingCycle]:
    """A second transversal supported by the first of ``heads``, either kind.

    The exchange runs in a canonical labelling around its planted
    transversal, ``planted(family.kind, len(tables[0]))``, and ``tables``,
    ``lift``'s arguments after the transversals, lead from there to
    family's labels, where the result is validated once. A cycle needs
    local domination: every member's predecessor and successor have a
    head; its walk is anchored at the smallest member's forward cycle
    edge. A matching's members must be the keys of ``heads``, one endpoint
    per pair; each one on the alternating cycle moves to its first head
    and keeps its planted color. Returns the result, never the planted
    one, in the canonical labels and in family's, a cycle's canonical
    tables (None for a matching), and the walk or the alternating cycle.
    """
    base = planted(family.kind, len(tables[0]))
    n = len(base)
    if base.kind == KIND_HAM:
        jp = prune(heads, members, n)
        walk = lollipop_walk(jp, edge(jp.members[0], (jp.members[0] + 1) % n))
        cyc = walk.final
        if cyc[0] not in jp.adj[cyc[-1]]:
            raise WalkStuck("final state does not close into a cycle")
        canonical = cycle_tables(cyc, recolor_ham(cyc, jp))
        (out,) = lift([base], *canonical)
    else:
        if set(members) != set(heads):
            raise NotMaximalRedIndependent("the members must be the keys of the heads map, one endpoint per pair")
        walk, canonical = find_alternating_cycle(heads, n), None
        swapped = set(walk.pairs)
        kept = [((p, p + n), p) for p in range(n) if p not in swapped]
        out = Transversal(base.kind, tuple(kept + [((t, h), t % n) for t, h in walk.arcs]))
    (lifted,) = lift([out], *tables)
    report = validate_transversal(family, lifted)
    if not report.ok:
        raise InvalidTransversal(f"exchange produced an invalid transversal: {report.summary()}", report)
    if out == base:
        raise WalkStuck("exchange returned the base transversal")
    return out, lifted, canonical, walk
