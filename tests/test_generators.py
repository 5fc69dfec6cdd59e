import random

import pytest

from transversals import (
    InfeasibleDegree,
    InfeasibleWitness,
    build_full_rb,
    build_full_ryb,
    edge,
    gen_bipartite_pm_family,
    gen_dirac_family,
    gen_planted_ham_family,
    gen_planted_pm_family,
    gen_regular_all_equal,
    gen_witness_instance_ham,
    planted,
    support,
    support_depth,
    validate_family,
    validate_transversal,
)


def test_planted_ham_family_valid_and_canonical():
    rng = random.Random(1)
    for _ in range(15):
        n = rng.randrange(5, 20)
        extra = rng.randrange(0, min(4, n - 2))
        fam, t = gen_planted_ham_family(n, extra, seed=rng.randrange(10**6))
        assert validate_family(fam).ok
        assert validate_transversal(fam, t).ok
        assert t == planted(fam.kind, fam.num_vertices)
        # every subgraph: its cycle edge plus at most extra chords
        for i, g in enumerate(fam.subgraphs):
            assert edge(i, (i + 1) % n) in g
            assert len(g) <= 1 + extra


def test_planted_ham_determinism():
    a = gen_planted_ham_family(12, 2, seed=99)
    b = gen_planted_ham_family(12, 2, seed=99)
    assert a == b
    c = gen_planted_ham_family(12, 2, seed=100)
    assert a != c


def test_planted_ham_rejects_bad_parameters():
    with pytest.raises(InfeasibleDegree):
        gen_planted_ham_family(2, 0, seed=0)
    with pytest.raises(InfeasibleDegree):
        gen_planted_ham_family(6, 4, seed=0)


def test_planted_pm_family_shape():
    rng = random.Random(2)
    for _ in range(15):
        n = rng.randrange(2, 12)
        extra = 1 if n <= 3 else rng.randrange(1, min(4, n - 1))
        fam, t = gen_planted_pm_family(n, extra, seed=rng.randrange(10**6))
        assert validate_family(fam).ok
        assert validate_transversal(fam, t).ok
        assert t == planted(fam.kind, fam.num_vertices)
        H = build_full_rb(fam)
        # each x-side member has exactly extra escapes from its own subgraph
        assert support_depth(support(H, tuple(range(n)))) == extra


def test_dirac_family_degree_floor():
    for n, c in [(10, 0.6), (14, 0.75), (9, 1.0)]:
        fam = gen_dirac_family(n, c, seed=5)
        assert validate_family(fam).ok
        target = min(-(-c * n // 1), n - 1)
        for v in range(n):
            assert fam.base.degree(v) >= int(target)
    # c = 1 gives the complete graph
    fam = gen_dirac_family(7, 1.0, seed=0)
    assert fam.base.num_edges == 7 * 6 // 2


def test_dirac_family_rejects_bad_c():
    with pytest.raises(InfeasibleDegree):
        gen_dirac_family(10, 0.0, seed=0)
    with pytest.raises(InfeasibleDegree):
        gen_dirac_family(10, 1.2, seed=0)
    with pytest.raises(InfeasibleDegree):
        gen_dirac_family(2, 0.9, seed=0)


def test_regular_all_equal_structure():
    fam, t = gen_regular_all_equal(40, 6, seed=8)
    assert validate_family(fam).ok
    assert validate_transversal(fam, t).ok
    g0 = fam.subgraphs[0]
    assert all(g == g0 for g in fam.subgraphs)
    for v in range(40):
        assert fam.base.degree(v) == 6
    a = gen_regular_all_equal(40, 6, seed=8)
    assert a == (fam, t)


def test_regular_all_equal_rejects_impossible():
    with pytest.raises(InfeasibleDegree):
        gen_regular_all_equal(9, 3, seed=0)  # odd n * odd degree
    with pytest.raises(InfeasibleDegree):
        gen_regular_all_equal(8, 1, seed=0)  # degree below the cycle's 2


def test_witness_instance_depth_is_exact():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randrange(9, 15)
        S = (0, 3, 6)
        d = rng.randrange(1, 3)
        fam, t = gen_witness_instance_ham(n, S, d, seed=rng.randrange(10**6))
        assert validate_family(fam).ok
        H = build_full_ryb(fam)
        assert support_depth(support(H, S)) == d


def test_witness_instance_rejections():
    with pytest.raises(InfeasibleWitness):
        gen_witness_instance_ham(8, (0, 2), 1, seed=0)  # distance 2
    with pytest.raises(InfeasibleWitness):
        gen_witness_instance_ham(9, (0, 3, 6), 3, seed=0)  # d > |S| - 1
    with pytest.raises(InfeasibleWitness):
        gen_witness_instance_ham(9, (0,), 1, seed=0)  # need two members
    with pytest.raises(InfeasibleWitness):
        gen_witness_instance_ham(9, (0, 3, 9), 1, seed=0)  # out of range


def test_bipartite_pm_family_degrees():
    fam, t = gen_bipartite_pm_family(12, 4, seed=6)
    assert validate_family(fam).ok
    assert validate_transversal(fam, t).ok
    H = build_full_rb(fam)
    for v in range(24):
        assert len(H.blue[v]) == 4
    with pytest.raises(InfeasibleDegree):
        gen_bipartite_pm_family(5, 4, seed=0)  # r > n - 2


def test_generators_are_independent_of_global_random_state():
    random.seed(12345)
    a = gen_planted_ham_family(10, 2, seed=7)
    random.seed(999)
    b = gen_planted_ham_family(10, 2, seed=7)
    assert a == b
