import random

import numpy as np
import pytest

from transversals import (
    BaseGraph,
    KIND_HAM,
    NotMaximalRedIndependent,
    NotRedIndependent,
    RbDigraph,
    SubgraphFamily,
    Transversal,
    edge,
    planted,
    support,
    support_depth,
)
from transversals.core import require_naturally_indexed


def relabelled(family, t, vperm, cperm):
    """The family and its transversal t with vertex v moved to vperm[v]
    and color c to cperm[c]."""
    def move(e):
        return edge(vperm[e[0]], vperm[e[1]])

    subs = [frozenset()] * family.num_colors
    for c, g in enumerate(family.subgraphs):
        subs[cperm[c]] = frozenset(map(move, g))
    base = BaseGraph(family.num_vertices, [move(e) for e in family.base.edges()])
    moved = Transversal.from_map(family.kind, {move(e): cperm[c] for e, c in t.items})
    return SubgraphFamily(base, subs, family.kind), moved


def cycle_graph(n):
    """The n-cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return BaseGraph(n, [edge(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return BaseGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empirical_lower_tail(n, p, delta, trials, seed):
    """Monte-Carlo frequency of Bin(n,p) < (1-delta)np."""
    rng = np.random.default_rng(seed)
    draws = rng.binomial(n, p, size=trials)
    return float(np.mean(draws < (1.0 - delta) * n * p))


def identity(family):
    """The identity new-to-old tables of a family, as ``lift`` takes them:
    an exchange in a canonically labelled family validates in its labels."""
    return tuple(range(family.num_vertices)), tuple(range(family.num_colors))


def make_ham_family(n, chords):
    """Cycle family on n vertices; chords maps color -> iterable of edges."""
    cyc = [edge(i, (i + 1) % n) for i in range(n)]
    subs = [
        frozenset({cyc[i]} | {edge(*e) for e in chords.get(i, ())}) for i in range(n)
    ]
    base = BaseGraph(n, sorted(set().union(*subs)))
    return SubgraphFamily(base, subs, KIND_HAM)


@pytest.fixture(scope="session")
def figure_family():
    """Hand-checked 6-vertex instance used throughout: S = (0, 3) works."""
    fam = make_ham_family(
        6, {5: [(3, 5)], 0: [(1, 3)], 2: [(0, 2)], 3: [(0, 4)]}
    )
    return fam, planted(fam.kind, fam.num_vertices)


def random_ham_set(rng: random.Random, n: int, want_three: bool):
    """Members with pairwise circular distance >= 3."""
    if want_three and n >= 9:
        while True:
            S = tuple(sorted(rng.sample(range(n), 3)))
            gaps = [(S[(j + 1) % 3] - S[j]) % n for j in range(3)]
            if all(g >= 3 for g in gaps):
                return S
    while True:
        S = tuple(sorted(rng.sample(range(n), 2)))
        if (S[1] - S[0]) % n >= 3 and (S[0] - S[1]) % n >= 3:
            return S


def random_pm_set(rng: random.Random, family, n: int):
    """One endpoint per pair, rejection-sampled so every member can escape."""
    for _ in range(20):
        S = tuple(sorted(i if rng.random() < 0.5 else n + i for i in range(n)))
        if support_depth(support(family, S)) >= 1:
            return S
    return tuple(range(n))


def digraph_support(H, members):
    """The support read off a built digraph's rows, errors included: for a
    cycle each member m's tails m-1 (yellow row) and m+1 (blue row), their
    heads in the set; for a matching each member's blue row, less the set.
    ``support`` must give the same from the family with no digraph."""
    cycle, n = not isinstance(H, RbDigraph), H.n
    ms = sorted(set(members))
    s = frozenset(ms)
    if not cycle:
        if len(ms) != n or len({v % n for v in ms}) != len(ms):
            raise NotMaximalRedIndependent("need exactly one endpoint per pair")
        return {m: tuple(h for h in H.blue[m] if h not in s) for m in ms}
    if not ms:
        raise ValueError("empty set has no support depth")
    if not all(min((b - a) % n, (a - b) % n) > 2 for i, a in enumerate(ms) for b in ms[i + 1:]):
        raise NotRedIndependent(f"set {ms} has a red-adjacent pair")
    heads = {}
    for m in ms:
        for t, row in (((m - 1) % n, H.yellow), ((m + 1) % n, H.blue)):
            heads[t] = tuple(h for h in row[t] if h in s)
    return heads


def enumerate_omega_pm_by_map(family, base, members):
    """``enumerate_omega_pm`` as each leaf once built its matching: the
    items set and cleared in a dict, each leaf normalised and sorted by
    ``Transversal.from_map``, and the list deduplicated before sorting.
    It must list the same transversals, in the same order."""
    require_naturally_indexed(family, base)
    n = family.num_pairs
    ms = sorted(set(members))
    if len(ms) != n:
        raise ValueError("need exactly one endpoint per pair")
    outside = [v for v in range(2 * n) if v not in set(ms)]
    heads = {
        m: [w for w in outside if edge(m, w) in family.subgraphs[m % n]] for m in ms
    }
    found = []
    taken = set()
    psi = {}

    def rec(k):
        if k == len(ms):
            found.append(Transversal.from_map(base.kind, dict(psi)))
            return
        m = ms[k]
        for w in heads[m]:
            if w in taken:
                continue
            taken.add(w)
            psi[edge(m, w)] = m % n
            rec(k + 1)
            del psi[edge(m, w)]
            taken.discard(w)

    rec(0)
    return sorted(set(found), key=lambda t: t.items)
