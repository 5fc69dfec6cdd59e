"""Acceptance suite: one test per stated criterion, pass/fail per line.

Criterion 8 is split in three, and all three pass. 8a records that the
criterion's stated regime is arithmetically unsatisfiable: with
alpha = 1/2 and m = 199 the required inequality
r >= 4(1 + ln(2m^2 - 2m + 1))/(1 - alpha)^2 asks for r >= 196.395...,
while the stated floor is r = 180; the right side exceeds 180 for every
m >= 120, so no 400-vertex instance can satisfy it at r = 180. 8a checks
that finding (the value, the crossover, and the sampler's warning) as a
passing test. 8b runs the stated scale anyway and checks the sampler's
behavioral contract; 8c reruns it at the nearest scale where the
hypothesis does hold (250 pairs, m = 249, r = 204).
"""

import math
import random
import time

import pytest

from transversals import (
    SamplerConfig,
    SubgraphFamily,
    KIND_HAM,
    arc_rows,
    chernoff_bounds,
    count_ham_transversals,
    count_pm_transversals,
    edge,
    enumerate_omega_ham,
    enumerate_omega_pm,
    factorial_bounds,
    find_alternating_cycle,
    gen_bipartite_pm_family,
    gen_dirac_family,
    gen_planted_ham_family,
    gen_planted_pm_family,
    gen_regular_all_equal,
    gen_witness_instance_ham,
    lll_condition_ham,
    lll_condition_scan,
    many_transversals,
    naturally_index,
    old_to_new,
    omega_admissibility_matrix,
    omega_member_ham,
    omega_member_pm,
    permanent,
    pm_hypothesis_warnings,
    pm_lll_rhs,
    sample_set_lll_ham,
    sample_set_pm,
    second_transversal,
    support,
    support_depth,
    validate_transversal,
)

from conftest import complete_graph, empirical_lower_tail, identity, make_ham_family, random_ham_set, random_pm_set


def test_c01_lll_numeric_constants():
    start = time.perf_counter()
    r262 = lll_condition_ham(262)
    assert r262.first.holds, "first inequality must be positive at m = 262"
    assert r262.first.margin > 0
    r194 = lll_condition_ham(194)
    assert r194.second.holds, "second inequality must be satisfied at m = 194"
    scan = lll_condition_scan(3, 5000)
    assert scan.first_min_m is not None and scan.first_min_m <= 262
    assert scan.second_min_m is not None and scan.second_min_m <= 194
    # recorded structure: first crosses once at 262; second holds on
    # [3, 7], fails on [8, 77], then holds for every m >= 78
    assert scan.first_transitions == (262,)
    assert scan.second_transitions == (8, 78)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion allows < 1 s, took {elapsed:.3f}"
    print(
        f"CRITERION 1 PASS: first minimal m = {scan.first_min_m}, "
        f"second minimal m = {scan.second_min_m} (non-monotone: holds [3,7], "
        f"fails [8,77], holds >= 78), {elapsed * 1000:.0f} ms"
    )


def test_c02_second_ham_suite_200_instances():
    start = time.perf_counter()
    rng = random.Random(999)
    checked = 0
    for i in range(200):
        n = rng.randrange(6, 16)
        S = random_ham_set(rng, n, n >= 9 and rng.random() < 0.5)
        fam, t = gen_witness_instance_ham(n, S, 1, seed=i)
        yellow, blue = arc_rows(fam)
        t2 = second_transversal(fam, identity(fam), S, support(fam, S))[0]
        assert validate_transversal(fam, t2).ok, (n, S, i)
        assert t2 != t, (n, S, i)
        assert omega_member_ham(S, t2), (n, S, i)
        allowed = {edge(v, (v + 1) % n) for v in range(n)}
        for tail in range(n):
            allowed.update(edge(tail, h) for h in yellow[tail])
            allowed.update(edge(tail, h) for h in blue[tail])
        assert t2.edge_set <= allowed, (n, S, i)
        assert t2.edge_set <= fam.base.edge_set, (n, S, i)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 30.0, f"criterion allows < 30 s, took {elapsed:.1f}"
    print(f"CRITERION 2 PASS: 200/200 instances, zero failures, {elapsed:.2f} s")


def test_c03_d_star_invariance_exhaustive():
    rng = random.Random(4242)
    instances = 0
    members_checked = 0
    for i in range(50):
        n = rng.randrange(6, 11)
        if n >= 9 and rng.random() < 0.4:
            S = (0, 3, 6)
        else:
            S = random_ham_set(rng, n, False)
        d = 1 if len(S) < 3 else rng.choice([1, 1, 2])
        fam, t = gen_witness_instance_ham(n, S, d, seed=i)
        d0 = support_depth(support(fam, S))
        for psi in enumerate_omega_ham(fam, t, S):
            fam2, (vinv, _) = naturally_index(fam, psi)
            new = old_to_new(vinv, fam.num_vertices)
            S2 = sorted(new[v] for v in S)
            assert support_depth(support(fam2, S2)) == d0, (n, S, i)
            members_checked += 1
        instances += 1
    assert instances >= 50 and members_checked > instances
    print(
        f"CRITERION 3 PASS: exact d* equality on {members_checked} omega members "
        f"across {instances} instances"
    )


def test_c04_many_ham_factorial_bound():
    start = time.perf_counter()
    rng = random.Random(77)
    totals = {}
    for d in (1, 2):
        count = 0
        for i in range(30):
            n = rng.randrange(9, 13)
            S = (0, 3, 6)
            fam, t = gen_witness_instance_ham(n, S, d, seed=1000 * d + i)
            out = many_transversals(fam, S)[1]
            need = math.factorial(d + 1)
            assert len(out) >= need, (d, n, i)
            assert len(set(out)) == len(out), (d, n, i)
            om = set(enumerate_omega_ham(fam, t, S))
            assert len(om) >= need, (d, n, i)
            for psi in out:
                assert validate_transversal(fam, psi).ok, (d, n, i)
                assert psi in om, (d, n, i)
            count += 1
        totals[d] = count
    elapsed = time.perf_counter() - start
    assert totals == {1: 30, 2: 30}
    assert elapsed < 300.0, f"criterion allows < 5 min, took {elapsed:.1f}"
    print(
        f"CRITERION 4 PASS: 30 instances at d=1 (>= 2 each) and d=2 (>= 6 each), "
        f"all outputs distinct, valid, omega-confirmed, {elapsed:.2f} s"
    )


def test_c05_second_pm_suite_200_instances():
    start = time.perf_counter()
    rng = random.Random(55)
    checked = 0
    for i in range(200):
        n = rng.randrange(2, 21)
        extra = 1 if n <= 3 else rng.randrange(1, min(4, n - 1))
        fam, t = gen_planted_pm_family(n, extra, seed=i)
        S = random_pm_set(rng, fam, n)
        heads = support(fam, S)
        cyc = find_alternating_cycle(heads, n)
        assert cyc.length() >= 2 and cyc.length() % 2 == 0, (n, i)
        t2 = second_transversal(fam, identity(fam), S, heads)[0]
        assert validate_transversal(fam, t2).ok, (n, i)
        assert t2 != t, (n, i)
        assert omega_member_pm(S, t2), (n, i)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 30.0, f"criterion allows < 30 s, took {elapsed:.1f}"
    print(f"CRITERION 5 PASS: 200/200 matching instances, zero failures, {elapsed:.2f} s")


def test_c06_d_cross_invariance_and_permanent():
    rng = random.Random(66)
    instances = 0
    members_checked = 0
    for i in range(50):
        n = rng.randrange(2, 9)
        extra = 1 if n <= 3 else rng.randrange(1, min(4, n - 1))
        fam, t = gen_planted_pm_family(n, extra, seed=500 + i)
        S = random_pm_set(rng, fam, n)
        d0 = support_depth(support(fam, S))
        om = enumerate_omega_pm(fam, t, S)
        M = omega_admissibility_matrix(fam, S)
        assert len(om) == permanent(M), (n, i)
        for psi in om:
            fam2, (vinv, _) = naturally_index(fam, psi)
            new = old_to_new(vinv, fam.num_vertices)
            S2 = sorted(new[v] for v in S)
            assert support_depth(support(fam2, S2)) == d0, (n, i)
            members_checked += 1
        instances += 1
    assert instances >= 50
    print(
        f"CRITERION 6 PASS: exact d-cross equality on {members_checked} omega "
        f"members across {instances} instances, counts match permanents"
    )


def test_c07_many_pm_factorial_bound():
    start = time.perf_counter()
    rng = random.Random(7474)
    for d in (1, 2, 3):
        for i in range(30):
            n = rng.randrange(max(3, d + 2), 9)
            fam, t = gen_planted_pm_family(n, d, seed=3000 * d + i)
            S = tuple(range(n))
            assert support_depth(support(fam, S)) == d, (d, n, i)
            out = many_transversals(fam, S)[1]
            need = math.factorial(d + 1)
            assert len(out) >= need, (d, n, i)
            assert len(set(out)) == len(out), (d, n, i)
            om = set(enumerate_omega_pm(fam, t, S))
            assert len(om) >= need, (d, n, i)
            for psi in out:
                assert validate_transversal(fam, psi).ok, (d, n, i)
                assert psi in om, (d, n, i)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion allows < 5 min, took {elapsed:.1f}"
    print(
        f"CRITERION 7 PASS: 30 instances per d in {{1,2,3}} "
        f"(required 2, 6, 24), all oracle-confirmed, {elapsed:.2f} s"
    )


def test_c08a_stated_hypothesis_arithmetic():
    """The stated regime cannot meet the escape-count hypothesis.

    As stated: 2n = 400 vertices, m = 199, alpha = 1/2, r = 180, with the
    claim that r >= 4(1 + ln(2m^2 - 2m + 1))/(1 - alpha)^2. The right side
    is 196.3957 there, and it exceeds 180 for every m >= 120, so no
    instance near this scale satisfies the inequality at r = 180. This
    test checks that finding and that the sampler flags the regime.

    The constant 4 and the log argument are taken from pm_lll_rhs. The
    paper's abstract does not state the matching hypothesis, so whether
    this is the paper's exact constant is still open.
    """
    alpha, r = 0.5, 180
    fam, _ = gen_bipartite_pm_family(200, r, seed=808)
    m = fam.base.max_degree()
    assert m == 199, "the stated instance's own max degree"

    rhs = pm_lll_rhs(alpha, m)
    expected = 4.0 * (1.0 + math.log(2 * m * m - 2 * m + 1)) / (1.0 - alpha) ** 2
    assert rhs == pytest.approx(expected, abs=1e-9)
    assert rhs == pytest.approx(196.3957, abs=1e-3)

    # crossover between m = 119 and m = 120, and no return below 180 after
    assert pm_lll_rhs(alpha, 119) < r < pm_lll_rhs(alpha, 120)
    tail = [pm_lll_rhs(alpha, k) for k in range(120, 1001)]
    assert all(lo < hi for lo, hi in zip(tail, tail[1:]))

    warnings = pm_hypothesis_warnings(alpha, m, r)
    assert len(warnings) == 1, warnings
    assert "196.396" in warnings[0]
    print(
        f"CRITERION 8a PASS: stated regime unsatisfiable, r = {r} < {rhs:.4f} "
        "at m = 199; crossover at m = 120; the sampler warns"
    )


def test_c08b_sampler_behavior_at_stated_scale():
    start = time.perf_counter()
    fam, t = gen_bipartite_pm_family(200, 180, seed=808)
    m = fam.base.max_degree()
    target = math.ceil(0.5 * 180 / 2)
    assert target == 45
    good = 0
    for seed in range(10):
        out = sample_set_pm(fam, SamplerConfig(seed=seed, alpha=0.5, m=m))
        assert len(out.warnings) == 1 and "escape floor" in out.warnings[0], (
            out.warnings
        )
        if out.depth >= target:
            good += 1
    elapsed = time.perf_counter() - start
    assert good >= 9, f"only {good}/10 seeds reached d_cross >= {target}"
    assert elapsed < 120.0, f"criterion allows < 2 min, took {elapsed:.1f}"
    print(
        f"CRITERION 8b PASS: {good}/10 seeds reach d_cross >= 45 at the stated "
        f"scale (2n = 400, r = 180), each flagged below the escape floor, "
        f"{elapsed:.2f} s"
    )


def test_c08c_sampler_at_full_hypothesis_scale():
    start = time.perf_counter()
    alpha, n, r = 0.5, 250, 204
    fam, t = gen_bipartite_pm_family(n, r, seed=808)
    m = fam.base.max_degree()
    assert m == 249
    assert r >= pm_lll_rhs(alpha, m)  # 204 >= 203.585...
    target = math.ceil(alpha * r / 2)
    good = 0
    for seed in range(10):
        out = sample_set_pm(fam, SamplerConfig(seed=seed, alpha=alpha, m=m))
        assert out.warnings == (), out.warnings
        if out.depth >= target:
            good += 1
    elapsed = time.perf_counter() - start
    assert good >= 9, f"only {good}/10 seeds reached d_cross >= {target}"
    assert elapsed < 120.0, f"criterion allows < 2 min, took {elapsed:.1f}"
    print(
        f"CRITERION 8c PASS: {good}/10 seeds reach d_cross >= {target} with the "
        f"hypothesis satisfied (250 pairs, m = 249, r = 204), {elapsed:.2f} s"
    )


def test_c09_chernoff_monte_carlo():
    start = time.perf_counter()
    grid = [
        (500, 0.02), (1000, 0.01),          # np = 10
        (1000, 0.05), (5000, 0.01),         # np = 50
        (2000, 0.1), (4000, 0.05),          # np = 200
    ]
    trials = 100_000
    cells = 0
    for n, p in grid:
        mu = n * p
        assert round(mu) in (10, 50, 200)
        for delta in (0.2, 0.5, 0.8):
            freq = empirical_lower_tail(
                n, p, delta, trials=trials,
                seed=(n * 7919 + int(p * 10000) * 31 + int(delta * 10)) % 2**31,
            )
            _, b2 = chernoff_bounds(mu, delta)
            sd = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
            assert freq <= b2 + 3 * sd, (n, p, delta, freq, b2)
            cells += 1
    elapsed = time.perf_counter() - start
    assert cells == 18
    assert elapsed < 120.0, f"criterion allows < 2 min, took {elapsed:.1f}"
    print(
        f"CRITERION 9 PASS: 18 grid cells, 10^5 trials each, tail frequency "
        f"never exceeds the squared-exponent bound + 3 sd, {elapsed:.2f} s"
    )


def test_c10_oracle_ground_truths():
    base = complete_graph(4)
    fam = SubgraphFamily(base, [base.edge_set] * 4, KIND_HAM)
    # independent derivation: K_4 has (4-1)!/2 = 3 hamiltonian cycles and
    # each gets one of 4! = 24 colorings since every subgraph is K_4
    assert count_ham_transversals(fam) == 3 * 24 == 72
    forced = make_ham_family(7, {})
    assert count_ham_transversals(forced) == 1
    from transversals import BaseGraph, KIND_PM

    pm_base = BaseGraph(6, [(0, 3), (1, 4), (2, 5)])
    pm = SubgraphFamily(
        pm_base, [frozenset({(i, 3 + i)}) for i in range(3)], KIND_PM
    )
    assert count_pm_transversals(pm) == 1
    print("CRITERION 10 PASS: K_4 all-equal = 72 (= 3 cycles x 4! colorings), forced instances = 1")


def test_c11_determinism_everywhere():
    # generators
    assert gen_planted_ham_family(11, 2, seed=4) == gen_planted_ham_family(11, 2, seed=4)
    assert gen_planted_pm_family(7, 2, seed=4) == gen_planted_pm_family(7, 2, seed=4)
    assert gen_dirac_family(12, 0.7, seed=4) == gen_dirac_family(12, 0.7, seed=4)
    assert gen_regular_all_equal(30, 6, seed=4) == gen_regular_all_equal(30, 6, seed=4)
    assert gen_witness_instance_ham(9, (0, 3, 6), 2, seed=4) == gen_witness_instance_ham(
        9, (0, 3, 6), 2, seed=4
    )
    assert gen_bipartite_pm_family(10, 3, seed=4) == gen_bipartite_pm_family(10, 3, seed=4)
    # samplers (members and resample trace both pinned)
    fam, t = gen_regular_all_equal(150, 26, seed=2)
    a = sample_set_lll_ham(fam, SamplerConfig(seed=9, m=26))
    b = sample_set_lll_ham(fam, SamplerConfig(seed=9, m=26))
    assert a.members == b.members
    assert a.resamples == b.resamples
    assert [(r.kind, r.location) for r in a.records] == [
        (r.kind, r.location) for r in b.records
    ]
    fam2, t2 = gen_bipartite_pm_family(40, 12, seed=2)
    c = sample_set_pm(fam2, SamplerConfig(seed=9, alpha=0.5))
    d = sample_set_pm(fam2, SamplerConfig(seed=9, alpha=0.5))
    assert c.members == d.members
    # deterministic pipelines: exchange and multiplication output order
    fam3, t3 = gen_witness_instance_ham(10, (0, 3, 6), 2, seed=6)
    heads3 = support(fam3, (0, 3, 6))
    assert second_transversal(fam3, identity(fam3), (0, 3, 6), heads3) == second_transversal(
        fam3, identity(fam3), (0, 3, 6), heads3
    )
    assert many_transversals(fam3, (0, 3, 6)) == many_transversals(fam3, (0, 3, 6))
    print("CRITERION 11 PASS: generators, samplers, exchange, multiplication all bit-stable under fixed seeds")


def test_c12_factorial_bound_table():
    rows = [
        ("ham-dirac", dict(n=100, c=1.0, epsilon=1.0), math.ceil(1.0 * 100 / 17)),
        ("ham-dirac", dict(n=262, c=0.5, epsilon=1.0), math.ceil(0.25 * 262 / 17)),
        ("ham-dirac", dict(n=1000, c=0.9, epsilon=2.0), math.ceil(0.81 * 1000 / 18)),
        ("ham-dirac", dict(n=50, c=0.8, epsilon=0.5), math.ceil(0.64 * 50 / 16.5)),
        ("ham-dirac", dict(n=3, c=0.5, epsilon=1.0), math.ceil(0.25 * 3 / 17)),
        ("ham-dirac", dict(n=8100, c=0.5, epsilon=0.1), math.ceil(0.25 * 8100 / 16.1)),
        ("pm-dirac", dict(n=100, c=0.5, epsilon=1.0), math.floor(50 / 3)),
        ("pm-dirac", dict(n=100, c=1.0, epsilon=1.0), math.floor(100 / 3)),
        ("pm-dirac", dict(n=41, c=0.62, epsilon=0.38), math.floor(0.62 * 41 / 2.38)),
        ("pm-dirac", dict(n=1, c=0.5, epsilon=1.0), 0),
        ("pm-dirac", dict(n=8000, c=0.75, epsilon=1.25), math.floor(6000 / 3.25)),
        ("pm-dirac", dict(n=2, c=0.9, epsilon=0.5), math.floor(1.8 / 2.5)),
    ]
    assert len(rows) >= 10
    for bound_id, params, inner in rows:
        got = factorial_bounds(bound_id, **params)
        assert got == math.factorial(inner), (bound_id, params, inner, got)
    print(f"CRITERION 12 PASS: {len(rows)}-row table matches direct formula substitution")
