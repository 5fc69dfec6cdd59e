import random

import numpy as np
import pytest

from transversals import (
    BaseGraph,
    KIND_HAM,
    SubgraphFamily,
    edge,
    planted,
    support,
    support_depth,
)


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


def random_pm_set(rng: random.Random, H, n: int):
    """One endpoint per pair, rejection-sampled so every member can escape."""
    for _ in range(20):
        S = tuple(sorted(i if rng.random() < 0.5 else n + i for i in range(n)))
        if support_depth(support(H, S)) >= 1:
            return S
    return tuple(range(n))
