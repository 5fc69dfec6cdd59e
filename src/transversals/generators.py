"""Seeded instance construction for every experimental regime.

All generators are pure in (parameters, seed) and return canonically
indexed instances: the planted cycle is 0,1,...,n-1 with edge (i, i+1)
colored i, and the planted matching pairs i with n+i colored i.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

from .core import (
    BaseGraph,
    Edge,
    KIND_HAM,
    KIND_PM,
    SubgraphFamily,
    Transversal,
    edge,
    iter_cycle_edges,
    planted,
)
from .errors import GenerationFailed, InfeasibleDegree, InfeasibleWitness

# pairing rounds gen_regular_all_equal tries before it gives up
REGULAR_RESTARTS = 200


def _circular_distance(a: int, b: int, n: int) -> int:
    d = (a - b) % n
    return min(d, n - d)


def gen_planted_ham_family(
    n: int, extra_degree: int, seed: int
) -> tuple[SubgraphFamily, Transversal]:
    """Cycle family where G_i adds about extra_degree chords at i or i+1."""
    if n < 3:
        raise InfeasibleDegree(f"need n >= 3, got {n}")
    if extra_degree < 0 or extra_degree > n - 3:
        raise InfeasibleDegree(
            f"extra_degree {extra_degree} outside [0, n-3] for n = {n}"
        )
    rng = random.Random(seed)
    chords: set[Edge] = set()
    subs: list[set[Edge]] = []
    for i in range(n):
        g = {edge(i, (i + 1) % n)}
        for _ in range(extra_degree):
            v = rng.choice((i, (i + 1) % n))
            w = rng.randrange(n)
            while _circular_distance(v, w, n) < 2:
                w = rng.randrange(n)
            g.add(edge(v, w))
            chords.add(edge(v, w))
        subs.append(g)
    base = BaseGraph(n, list(iter_cycle_edges(n)) + sorted(chords))
    family = SubgraphFamily(base, subs, KIND_HAM)
    return family, planted(KIND_HAM, n)


def gen_dirac_family(n: int, c: float, seed: int) -> SubgraphFamily:
    """Complete-graph family with every subgraph's minimum degree guarded.

    Each subgraph starts complete; a shuffled pass deletes each edge with
    probability 1/2 unless that would push an endpoint below the guard
    min(ceil(c n), n-1). c = 1 therefore returns complete subgraphs.
    """
    if n < 3:
        raise InfeasibleDegree(f"need n >= 3, got {n}")
    if not 0.0 < c <= 1.0:
        raise InfeasibleDegree(f"need 0 < c <= 1, got {c}")
    target = min(math.ceil(c * n), n - 1)
    rng = random.Random(seed)
    all_edges = [edge(u, v) for u in range(n) for v in range(u + 1, n)]
    base = BaseGraph(n, all_edges)
    subs = []
    for _ in range(n):
        keep = set(all_edges)
        deg = [n - 1] * n
        order = all_edges[:]
        rng.shuffle(order)
        for u, v in order:
            if deg[u] > target and deg[v] > target and rng.random() < 0.5:
                keep.discard((u, v))
                deg[u] -= 1
                deg[v] -= 1
        subs.append(keep)
    return SubgraphFamily(base, subs, KIND_HAM)


def gen_regular_all_equal(n: int, m: int, seed: int) -> tuple[SubgraphFamily, Transversal]:
    """One m-regular Hamiltonian graph, used as every subgraph.

    Built as the planted cycle plus a random pairing of the remaining
    degree stubs; a pairing round fails when a loop, duplicate, or cycle
    edge cannot be swapped away.
    """
    if m < 2 or m >= n:
        raise InfeasibleDegree(f"need 2 <= m < n, got m = {m}, n = {n}")
    if (n * m) % 2 != 0:
        raise InfeasibleDegree(f"n*m must be even, got n = {n}, m = {m}")
    rng = random.Random(seed)
    cycle_edges = list(iter_cycle_edges(n))
    extra = m - 2

    def one_round() -> set[Edge] | None:
        stubs = [v for v in range(n) for _ in range(extra)]
        rng.shuffle(stubs)
        seen = set(cycle_edges)
        chosen: set[Edge] = set()
        for i in range(0, len(stubs), 2):
            a = stubs[i]
            ok = False
            for j in range(i + 1, len(stubs)):
                b = stubs[j]
                if a != b and edge(a, b) not in seen and edge(a, b) not in chosen:
                    stubs[i + 1], stubs[j] = stubs[j], stubs[i + 1]
                    chosen.add(edge(a, b))
                    ok = True
                    break
            if not ok:
                return None
        return chosen

    for _ in range(REGULAR_RESTARTS):
        extras = one_round() if extra > 0 else set()
        if extras is None:
            continue
        g = frozenset(cycle_edges) | extras
        base = BaseGraph(n, g)
        if any(base.degree(v) != m for v in range(n)):
            continue
        shared = frozenset(g)
        family = SubgraphFamily(base, [shared] * n, KIND_HAM)
        return family, planted(KIND_HAM, n)
    raise GenerationFailed(f"no simple {m}-regular pairing in {REGULAR_RESTARTS} rounds")


def gen_planted_pm_family(
    n: int, extra_degree: int, seed: int
) -> tuple[SubgraphFamily, Transversal]:
    """Pair family where G_i adds about extra_degree cross edges per side."""
    if n < 1:
        raise InfeasibleDegree(f"need n >= 1, got {n}")
    if extra_degree < 0 or (extra_degree > 0 and extra_degree > n - 1):
        raise InfeasibleDegree(
            f"extra_degree {extra_degree} outside [0, n-1] for n = {n}"
        )
    rng = random.Random(seed)
    subs: list[set[Edge]] = []
    union: set[Edge] = set()
    for i in range(n):
        g = {edge(i, n + i)}
        others = [j for j in range(n) if j != i]
        if extra_degree:
            for j in rng.sample(others, extra_degree):
                g.add(edge(i, n + j))
            for j in rng.sample(others, extra_degree):
                g.add(edge(n + i, j))
        union |= g
        subs.append(g)
    base = BaseGraph(2 * n, union)
    family = SubgraphFamily(base, subs, KIND_PM)
    return family, planted(KIND_PM, 2 * n)


def gen_witness_instance_ham(
    n: int, members: Iterable[int], d: int, seed: int
) -> tuple[SubgraphFamily, Transversal]:
    """Cycle family with support depth exactly d at the given set.

    For each member s, the subgraph left of s gains d chords from s-1
    into the rest of the set, and the subgraph at s gains d chords from
    s+1. Every added chord contributes exactly one arc, so the depth
    comes out to d on the nose.
    """
    ms = sorted(set(int(v) for v in members))
    if n < 3:
        raise InfeasibleWitness(f"need n >= 3, got {n}")
    if any(v < 0 or v >= n for v in ms):
        raise InfeasibleWitness(f"set members out of range for n = {n}")
    if len(ms) < 2:
        raise InfeasibleWitness("need at least two set members")
    for a in ms:
        for b in ms:
            if a < b and _circular_distance(a, b, n) < 3:
                raise InfeasibleWitness(
                    f"members {a} and {b} are at circular distance < 3"
                )
    if d < 1 or d > len(ms) - 1:
        raise InfeasibleWitness(f"need 1 <= d <= |S|-1 = {len(ms) - 1}, got {d}")
    rng = random.Random(seed)
    subs: list[set[Edge]] = [{edge(i, (i + 1) % n)} for i in range(n)]
    chords: set[Edge] = set()
    for s in ms:
        heads = [t for t in ms if t != s]
        for h in rng.sample(heads, d):
            e = edge((s - 1) % n, h)
            subs[(s - 1) % n].add(e)
            chords.add(e)
        for h in rng.sample(heads, d):
            e = edge((s + 1) % n, h)
            subs[s].add(e)
            chords.add(e)
    base = BaseGraph(n, list(iter_cycle_edges(n)) + sorted(chords))
    family = SubgraphFamily(base, subs, KIND_HAM)
    return family, planted(KIND_HAM, n)


def gen_bipartite_pm_family(
    n: int, r: int, seed: int
) -> tuple[SubgraphFamily, Transversal]:
    """Biregular matching instance: host degree n-1, escape count exactly r.

    The host is the complete bipartite graph on n+n vertices minus the
    shifted matching (i, n+i+1). Each G_i holds its pair edge plus r
    sampled cross edges at each endpoint, none landing in its own pair,
    so every vertex has exactly r escape arcs.
    """
    if n < 3:
        raise InfeasibleDegree(f"need n >= 3, got {n}")
    if r < 1 or r > n - 2:
        raise InfeasibleDegree(f"need 1 <= r <= n-2 = {n - 2}, got {r}")
    rng = random.Random(seed)
    base_edges = [
        edge(i, n + j) for i in range(n) for j in range(n) if j != (i + 1) % n
    ]
    base = BaseGraph(2 * n, base_edges)
    subs: list[set[Edge]] = []
    for i in range(n):
        g = {edge(i, n + i)}
        x_heads = [j for j in range(n) if j != i and j != (i + 1) % n]
        y_heads = [j for j in range(n) if j != i and j != (i - 1) % n]
        for j in rng.sample(x_heads, r):
            g.add(edge(i, n + j))
        for j in rng.sample(y_heads, r):
            g.add(edge(n + i, j))
        subs.append(g)
    family = SubgraphFamily(base, subs, KIND_PM)
    return family, planted(KIND_PM, 2 * n)
