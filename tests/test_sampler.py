import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from transversals import (
    DomainError,
    GuaranteeViolated,
    ResampleBudgetExceeded,
    SamplerConfig,
    build_full_rb,
    build_full_ryb,
    chernoff_bounds,
    default_inclusion_probability,
    dirac_depth_target,
    exists_ham_transversal,
    factorial_bounds,
    gen_bipartite_pm_family,
    gen_dirac_family,
    gen_regular_all_equal,
    lll_condition_ham,
    lll_condition_scan,
    naturally_index,
    pm_bounded_degree_floor,
    pm_degree_threshold,
    pm_lll_rhs,
    sample_set_dirac,
    sample_set_lll_ham,
    sample_set_pm,
    support,
    support_depth,
)
from transversals import sampler
from transversals.sampler import XI

from conftest import (
    empirical_lower_tail,
    sample_set_dirac_by_numpy,
    sample_set_lll_ham_by_numpy,
    sample_set_pm_by_numpy,
)


@pytest.fixture(scope="module")
def regular_family():
    return gen_regular_all_equal(200, 30, seed=3)[0]


@pytest.fixture(scope="module")
def bipartite_family():
    return gen_bipartite_pm_family(60, 20, seed=9)[0]


def test_xi_constant_value():
    assert XI == pytest.approx(0.374366004431, abs=1e-12)
    assert XI == math.exp(-399.0 / 400.0) / (1.0 / 400.0) ** (1.0 / 400.0)


def test_lll_condition_frozen_margins():
    r261 = lll_condition_ham(261)
    r262 = lll_condition_ham(262)
    assert not r261.first.holds and r262.first.holds
    assert r261.first.margin == pytest.approx(-8.005928e-07, rel=1e-5)
    assert r262.first.margin == pytest.approx(7.225762e-08, rel=1e-5)
    assert r262.p == pytest.approx(0.5 * math.sqrt(math.log(262) / 262))
    assert r262.r == pytest.approx(7 * math.sqrt(262 * math.log(262)) + 2)
    assert r262.x == pytest.approx(1.05 * r262.p**2)
    assert r262.y == pytest.approx(262**-2)


def test_lll_scan_transition_structure():
    scan = lll_condition_scan(3, 400)
    assert scan.first_min_m == 262
    assert scan.first_transitions == (262,)
    # the second inequality holds on [3, 7], fails on [8, 77], holds from 78
    assert scan.second_transitions == (8, 78)
    assert scan.second_min_m == 3
    assert not scan.second_single_crossing


def test_default_inclusion_probability():
    assert default_inclusion_probability(262) == pytest.approx(
        0.5 * math.sqrt(math.log(262) / 262)
    )


def test_lll_ham_sampler_meets_guarantee(regular_family):
    H = build_full_ryb(regular_family)
    out = sample_set_lll_ham(regular_family, SamplerConfig(seed=5, m=30))
    p = default_inclusion_probability(30)
    r = min(
        min(len(H.yellow[v]) for v in range(H.n)),
        min(len(H.blue[v]) for v in range(H.n)),
    )
    # support raises unless the set is red-independent
    assert out.depth == support_depth(support(regular_family, out.members)) >= math.ceil(p * r / 400.0)
    assert len(out.warnings) == 2  # small-m and small-r regime notes


def test_lll_ham_sampler_deterministic(regular_family):
    a = sample_set_lll_ham(regular_family, SamplerConfig(seed=5, m=30))
    b = sample_set_lll_ham(regular_family, SamplerConfig(seed=5, m=30))
    assert a.members == b.members
    assert a.resamples == b.resamples
    assert [r.location for r in a.records] == [r.location for r in b.records]
    c = sample_set_lll_ham(regular_family, SamplerConfig(seed=6, m=30))
    assert (
        c.members != a.members or c.resamples != a.resamples
    )


def test_lll_ham_sampler_budget_exhaustion():
    fam, t = gen_regular_all_equal(300, 8, seed=3)
    with pytest.raises(ResampleBudgetExceeded) as exc:
        sample_set_lll_ham(fam, SamplerConfig(seed=5, m=8, max_resamples=60))
    assert exc.value.resamples == 60
    assert len(exc.value.records) == 60


def test_lll_ham_sampler_rejects_bad_p(regular_family):
    with pytest.raises(DomainError):
        sample_set_lll_ham(regular_family, SamplerConfig(seed=0, p=1.5))
    with pytest.raises(DomainError):
        sample_set_lll_ham(regular_family, SamplerConfig(seed=0))  # no p, no m


def test_samplers_warn_when_m_is_not_given(regular_family, bipartite_family):
    # without m the hypotheses on m cannot be checked, and the outcome says so
    ham = sample_set_lll_ham(regular_family, SamplerConfig(seed=5, p=default_inclusion_probability(30)))
    pm = sample_set_pm(bipartite_family, SamplerConfig(seed=0, alpha=0.5))
    for out in (ham, pm):
        assert len(out.warnings) == 1
        assert "m not given" in out.warnings[0] and "not checked" in out.warnings[0]
        assert out.depth_floor == math.ceil(out.event_threshold)
        assert out.depth >= out.depth_floor
    assert ham.statement_form is None
    with_m = sample_set_lll_ham(regular_family, SamplerConfig(seed=5, m=30))
    assert (with_m.members, with_m.depth) == (ham.members, ham.depth)
    # r/400 * sqrt(log m/m) is twice p*r/400 at the default p
    assert with_m.statement_form == pytest.approx(2 * with_m.event_threshold)


def test_pm_sampler_meets_guarantee(bipartite_family):
    out = sample_set_pm(bipartite_family, SamplerConfig(seed=1, alpha=0.5))
    assert len(out.members) == bipartite_family.num_pairs
    # support raises unless the set has one endpoint per pair
    assert out.depth == support_depth(support(bipartite_family, out.members)) >= math.ceil(0.5 * 20 / 2)


def test_pm_escape_counts_match_the_row_loop(bipartite_family):
    # the sampler counts escapes as degree minus in-set heads, and moves the
    # counts of the rows holding a vertex as it joins or leaves the set
    H = build_full_rb(bipartite_family)
    rng = random.Random(0)
    in_set = [rng.random() < 0.5 for _ in range(2 * H.n)]
    counts = sampler._RowCounts(H.blue, in_set)
    for _ in range(100):
        v = rng.randrange(2 * H.n)
        in_set[v] = not in_set[v]
        moved = counts.move(v, 1 if in_set[v] else -1)
        assert sorted(moved) == [t for t, row in enumerate(H.blue) if v in row]
        got = [len(row) - c for row, c in zip(H.blue, counts.count)]
        assert got == [sum(1 for h in row if not in_set[h]) for row in H.blue]


def _run(sample, *args):
    """A sampler's (members, resamples, records), or its budget error's."""
    try:
        out = sample(*args)
    except ResampleBudgetExceeded as exc:
        return "budget exhausted", exc.resamples, exc.records
    return out if isinstance(out, tuple) else (out.members, out.resamples, out.records)


@pytest.mark.parametrize("seed", range(4))
def test_lll_ham_sampler_matches_the_numpy_reference_at_scale(regular_family, seed):
    cfg = SamplerConfig(seed=seed, m=30)
    assert _run(sample_set_lll_ham, regular_family, cfg) == _run(sample_set_lll_ham_by_numpy, regular_family, cfg)


def _dirac_family(n, c_gen, seed):
    """A naturally indexed Dirac family; generated at c_gen >= 0.8 and
    n >= 9, its every out-degree is at least 0.75 n - 2."""
    family = gen_dirac_family(n, c_gen, seed)
    return naturally_index(family, exists_ham_transversal(family))[0]


@st.composite
def ham_families(draw):
    # a regular all-equal family never flags a blue row first; a Dirac
    # family's blue row can be empty when every yellow row is met
    n = draw(st.integers(9, 30), label="n")
    seed = draw(st.integers(0, 1000), label="family seed")
    if draw(st.booleans(), label="dirac"):
        return _dirac_family(n, draw(st.floats(0.8, 1.0), label="c"), seed)
    m = draw(st.integers(3, 8).filter(lambda m: n * m % 2 == 0), label="m")
    return gen_regular_all_equal(n, m, seed=seed)[0]


@settings(deadline=None, max_examples=80)
@given(ham_families(), st.integers(0, 2**64), st.floats(0.02, 0.6), st.integers(0, 60))
@example(_dirac_family(12, 0.8, 0), 0, 0.02, 60)  # y_blue events, then budget exhausted
def test_lll_ham_sampler_matches_the_numpy_reference(family, seed, p, max_resamples):
    cfg = SamplerConfig(seed=seed, p=p, max_resamples=max_resamples)
    assert _run(sample_set_lll_ham, family, cfg) == _run(sample_set_lll_ham_by_numpy, family, cfg)


@settings(deadline=None, max_examples=60)
@given(st.integers(3, 24), st.integers(0, 2**64), st.data())
def test_pm_sampler_matches_the_numpy_reference(n, seed, data):
    r = data.draw(st.integers(1, n - 2), label="r")
    family, _ = gen_bipartite_pm_family(n, r, seed=seed % 1000)
    cfg = SamplerConfig(
        seed=seed, alpha=data.draw(st.floats(0.05, 0.95), label="alpha"),
        max_resamples=data.draw(st.integers(0, 60), label="max_resamples"),
    )
    assert _run(sample_set_pm, family, cfg) == _run(sample_set_pm_by_numpy, family, cfg)


@settings(deadline=None, max_examples=40)
@given(st.integers(9, 24), st.floats(0.8, 1.0), st.floats(0.5, 0.75), st.integers(0, 2**64), st.integers(0, 20))
def test_dirac_sampler_matches_the_numpy_reference(n, c_gen, c, seed, max_resamples):
    family = _dirac_family(n, c_gen, seed % 1000)
    cfg = SamplerConfig(seed=seed, c=c, max_resamples=max_resamples)
    want = _run(sample_set_dirac_by_numpy, family, cfg, dirac_depth_target(n, c))
    assert _run(sample_set_dirac, family, cfg) == want


def test_pm_sampler_deterministic(bipartite_family):
    a = sample_set_pm(bipartite_family, SamplerConfig(seed=1, alpha=0.5))
    b = sample_set_pm(bipartite_family, SamplerConfig(seed=1, alpha=0.5))
    assert a.members == b.members


def test_pm_sampler_raises_when_the_depth_floor_fails(bipartite_family, monkeypatch):
    # an explicit raise, not an assert, so python -O keeps the check
    monkeypatch.setattr(sampler, "support_depth", lambda heads: 0)
    with pytest.raises(GuaranteeViolated, match="below the floor 5"):
        sample_set_pm(bipartite_family, SamplerConfig(seed=1, alpha=0.5))


def test_pm_sampler_rejects_bad_alpha(bipartite_family):
    with pytest.raises(DomainError):
        sample_set_pm(bipartite_family, SamplerConfig(seed=0, alpha=1.0))
    with pytest.raises(DomainError):
        sample_set_pm(bipartite_family, SamplerConfig(seed=0, alpha=0.0))


def test_dirac_sampler_meets_target():
    fam = gen_dirac_family(60, 0.9, seed=2)
    t = exists_ham_transversal(fam)
    fam_c, _ = naturally_index(fam, t)
    out = sample_set_dirac(fam_c, SamplerConfig(seed=4, c=0.9))
    assert out.depth >= dirac_depth_target(60, 0.9)
    assert out.depth == support_depth(support(fam_c, out.members))  # red-independent, or support raises
    again = sample_set_dirac(fam_c, SamplerConfig(seed=4, c=0.9))
    assert again.members == out.members


def test_dirac_sampler_requires_c():
    fam = gen_dirac_family(20, 0.9, seed=0)
    t = exists_ham_transversal(fam)
    fam_c, _ = naturally_index(fam, t)
    with pytest.raises(DomainError):
        sample_set_dirac(fam_c, SamplerConfig(seed=0))


def test_dirac_depth_target_values():
    assert dirac_depth_target(8000, 0.5) == 1
    # formula: ceil(c^2 n / 16 - (15 c^2 / 8) sqrt(n ln n))
    n, c = 10**6, 0.5
    raw = c * c * n / 16 - (15 * c * c / 8) * math.sqrt(n * math.log(n))
    assert dirac_depth_target(n, c) == math.ceil(raw)
    assert dirac_depth_target(n, c) > 1


def test_chernoff_bounds_shapes():
    b1, b2 = chernoff_bounds(10.0, 0.5)
    assert b1 == pytest.approx(0.2156143, rel=1e-5)
    assert b2 == pytest.approx(math.exp(-0.5**2 * 10 / 2))
    assert 0 < b1 < b2 < 1
    with pytest.raises(DomainError):
        chernoff_bounds(10.0, 1.5)
    with pytest.raises(DomainError):
        chernoff_bounds(-1.0, 0.5)


def test_empirical_tail_is_deterministic_and_bounded():
    f1 = empirical_lower_tail(1000, 0.01, 0.5, trials=20_000, seed=7)
    f2 = empirical_lower_tail(1000, 0.01, 0.5, trials=20_000, seed=7)
    assert f1 == f2
    _, b2 = chernoff_bounds(10.0, 0.5)
    sd = math.sqrt(max(f1 * (1 - f1), 1e-12) / 20_000)
    assert f1 <= b2 + 3 * sd


def test_pm_threshold_values():
    assert pm_lll_rhs(0.5, 199) == pytest.approx(196.3957, abs=1e-3)
    assert pm_lll_rhs(0.5, 100) == pytest.approx(174.2958, abs=1e-3)
    assert pm_lll_rhs(0.5, 250) == pytest.approx(203.7131, abs=1e-3)
    assert pm_degree_threshold(0.5, 100) == pytest.approx(175.2958, abs=1e-3)
    assert pm_bounded_degree_floor(44) == pytest.approx(10 * math.log(44) + 6)


def test_factorial_bounds_frozen_values():
    assert factorial_bounds("ham-bounded-degree", m=262) == 1
    assert factorial_bounds("ham-dirac", n=100, c=1.0, epsilon=1.0) == math.factorial(6)
    assert factorial_bounds("pm-bounded-degree", m=44) == 2
    assert factorial_bounds("pm-dirac", n=100, c=0.5, epsilon=1.0) == math.factorial(16)
    t = 7 * math.sqrt(300 * math.log(300)) + 2
    assert factorial_bounds("ham-min-degree", m=300, t=t) == 1
    thr = pm_degree_threshold(0.5, 100)
    assert factorial_bounds("pm-min-degree", m=100, alpha=0.5, t=thr) == math.factorial(44)


def test_factorial_bounds_domain_checks():
    with pytest.raises(DomainError):
        factorial_bounds("ham-bounded-degree", m=261)
    with pytest.raises(DomainError):
        factorial_bounds("pm-bounded-degree", m=43)
    with pytest.raises(DomainError):
        factorial_bounds("ham-dirac", n=100, c=0.4, epsilon=1.0)
    with pytest.raises(DomainError):
        factorial_bounds("ham-dirac", n=100, c=1.0, epsilon=0.0)
    with pytest.raises(DomainError):
        factorial_bounds("pm-min-degree", m=100, alpha=0.5, t=100.0)
    with pytest.raises(DomainError):
        factorial_bounds("ham-min-degree", m=300, t=10.0)
    with pytest.raises(DomainError):
        factorial_bounds("nonsense", m=10)
    with pytest.raises(DomainError):
        factorial_bounds("ham-bounded-degree", m=262, n=3)


def test_a_sampled_set_below_its_depth_floor_raises(regular_family, monkeypatch):
    # the set's depth is reported as floor - 1, then as floor
    floor = sample_set_lll_ham(regular_family, SamplerConfig(seed=5, m=30)).depth_floor
    assert floor >= 1
    monkeypatch.setattr(sampler, "support_depth", lambda heads: floor - 1)
    with pytest.raises(GuaranteeViolated, match=f"below the floor {floor}"):
        sample_set_lll_ham(regular_family, SamplerConfig(seed=5, m=30))
    monkeypatch.setattr(sampler, "support_depth", lambda heads: floor)
    assert sample_set_lll_ham(regular_family, SamplerConfig(seed=5, m=30)).depth == floor


@pytest.mark.parametrize("cfg", [SamplerConfig(seed=0, m=0), SamplerConfig(seed=0, p=0.3, m=-3),
                                 SamplerConfig(seed=0, m=1)])
def test_lll_ham_sampler_rejects_a_max_degree_below_2(regular_family, cfg):
    with pytest.raises(DomainError, match=f"max degree must be >= 2, got {cfg.m}"):
        sample_set_lll_ham(regular_family, cfg)


def test_factorial_bounds_stop_above_max_arg():
    cap = sampler.FACTORIAL_MAX_ARG
    assert cap == 1558
    # floor(n / 3) at c = 1, epsilon = 1
    value = factorial_bounds("pm-dirac", n=4674, c=1.0, epsilon=1.0, max_arg=cap)
    assert value == math.factorial(1558) and len(str(value)) == 4300
    with pytest.raises(DomainError, match="rounds above 1558"):
        factorial_bounds("pm-dirac", n=4677, c=1.0, epsilon=1.0, max_arg=cap)
    # with no cap the library returns what does not print
    assert factorial_bounds("pm-dirac", n=4677, c=1.0, epsilon=1.0) == math.factorial(1559)


@pytest.mark.parametrize("bound_id, params", [
    ("ham-dirac", dict(n=10, c=0.7, epsilon=math.nan)),
    ("ham-dirac", dict(n=10, c=math.nan, epsilon=1.0)),
    ("pm-dirac", dict(n=10, c=0.7, epsilon=math.nan)),
    ("ham-min-degree", dict(m=300, t=math.nan)),
    ("ham-min-degree", dict(m=300, t=math.inf)),
    ("pm-min-degree", dict(m=40, t=math.nan, alpha=0.5)),
    ("pm-min-degree", dict(m=40, t=1e300, alpha=0.5)),
    ("ham-dirac", dict(n=10**400, c=1.0, epsilon=1.0)),
])
def test_factorial_bounds_reject_nan_infinite_and_huge_arguments(bound_id, params):
    with pytest.raises(DomainError):
        factorial_bounds(bound_id, max_arg=sampler.FACTORIAL_MAX_ARG, **params)


def test_m_too_large_for_a_float_is_a_domain_error():
    with pytest.raises(DomainError, match="too large"):
        lll_condition_ham(10**400)
    with pytest.raises(DomainError, match="too large"):
        pm_lll_rhs(0.5, 10**400)
