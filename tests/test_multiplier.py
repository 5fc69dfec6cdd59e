import math
import random
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from transversals import (
    BaseGraph,
    DStarTooSmall,
    GuaranteeViolated,
    InvalidTransversal,
    KIND_HAM,
    KIND_PM,
    NotMaximalRedIndependent,
    RbDigraph,
    RybDigraph,
    SubgraphFamily,
    Transversal,
    build_full_rb,
    build_full_ryb,
    enumerate_all_ham_transversals,
    enumerate_all_pm_transversals,
    enumerate_omega_ham,
    enumerate_omega_pm,
    gen_planted_ham_family,
    gen_planted_pm_family,
    gen_witness_instance_ham,
    lift,
    many_transversals,
    naturally_index,
    old_to_new,
    omega_admissibility_matrix,
    omega_member_ham,
    omega_member_pm,
    permanent,
    planted,
    second_transversal,
    support,
    support_depth,
    validate_transversal,
)
from transversals import exchange, multiplier
from transversals.core import canonical_tables, relabel, relabel_rows
from transversals.digraphs import admissible_rows

from conftest import (
    digraph_support,
    enumerate_omega_pm_by_map,
    identity,
    make_ham_family,
    random_ham_set,
    relabelled,
)


def test_omega_contains_base_and_stays_inside_all(figure_family):
    fam, t = figure_family
    om = enumerate_omega_ham(fam, t, (0, 3))
    assert t in om
    assert len(set(om)) == len(om)
    everything = set(enumerate_all_ham_transversals(fam))
    assert set(om) <= everything
    for psi in om:
        assert validate_transversal(fam, psi).ok
        assert omega_member_ham((0, 3), psi)


def test_omega_ham_respects_path_reversal_only():
    # with no chords the only omega member is the base itself
    fam = make_ham_family(8, {})
    t = planted(fam.kind, fam.num_vertices)
    om = enumerate_omega_ham(fam, t, (0, 4))
    assert om == [t]


def test_omega_pm_equals_permanent():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(2, 7)
        extra = 1 if n <= 3 else rng.randrange(1, n - 1)
        fam, t = gen_planted_pm_family(n, extra, seed=rng.randrange(10**6))
        S = tuple(range(n))
        om = enumerate_omega_pm(fam, t, S)
        M = omega_admissibility_matrix(fam, S)
        assert len(om) == permanent(M)
        assert len(set(om)) == len(om)
        for psi in om:
            assert omega_member_pm(S, psi)


@st.composite
def planted_pm_with_set(draw):
    """(family, planted, S): a planted-pm family with n <= 7 pairs and a
    set holding one endpoint of each planted pair."""
    n = draw(st.integers(1, 7), label="pairs")
    extra = draw(st.integers(0, n - 1), label="extra degree")
    fam, t = gen_planted_pm_family(n, extra, seed=draw(st.integers(0, 2**16), label="seed"))
    high = draw(st.lists(st.booleans(), min_size=n, max_size=n), label="high endpoint")
    return fam, t, tuple(i + n if h else i for i, h in enumerate(high))


@given(planted_pm_with_set())
def test_omega_pm_count_is_the_permanent(case):
    fam, t, S = case
    assert len(enumerate_omega_pm(fam, t, S)) == permanent(omega_admissibility_matrix(fam, S))


@given(planted_pm_with_set())
def test_omega_pm_lists_what_building_each_leaf_by_map_lists(case):
    # each leaf's items, sorted once into a canonical transversal, give
    # the list, in the order, that normalising each leaf's map gave
    fam, t, S = case
    assert enumerate_omega_pm(fam, t, S) == enumerate_omega_pm_by_map(fam, t, S)


@pytest.mark.parametrize("S", [(0, 4, 1, 2), (0, 1), (0, 4), (0, 1, 2, 3, 4)])
def test_omega_pm_and_its_matrix_refuse_a_set_that_is_not_one_endpoint_per_pair(S):
    # (0, 4, 1, 2) has n members but both ends of pair 0: omega once listed
    # 6 matchings that each fail validation, and (0, 1) gave a 2 x 6 matrix
    fam, t = gen_planted_pm_family(4, 3, seed=1)
    with pytest.raises(NotMaximalRedIndependent, match="one endpoint per pair"):
        enumerate_omega_pm(fam, t, S)
    with pytest.raises(NotMaximalRedIndependent, match="one endpoint per pair"):
        omega_admissibility_matrix(fam, S)


def _root(fam, S):
    """``_many``'s node, set and support at the root: identity tables, no
    dropped pairs."""
    node = tuple(range(fam.num_vertices)), tuple(range(fam.num_colors)), ()
    return node, tuple(sorted(S)), support(fam, S)


def _branch_witness(kind, tables, pairs):
    """The witness a branch of ``_saturated_branches`` stands for: the
    child's planted transversal, expanded through the branch's tables and
    dropped pairs."""
    vinv, cinv = tables
    return next(multiplier._expand([planted(kind, len(vinv))], vinv, cinv, pairs))


def test_saturated_vertex_ham_accumulates_enough_targets():
    fam, t = gen_witness_instance_ham(11, (0, 4, 8), 2, seed=2)
    node, ms, heads = _root(fam, (0, 4, 8))
    branches = multiplier._saturated_branches(fam, node, ms, heads)
    assert len(branches) >= 3  # d + 1
    assert [e for e, _, _ in branches] == sorted({e for e, _, _ in branches})
    for e, tables, pairs in branches:
        wit = _branch_witness(KIND_HAM, tables, pairs)
        assert tables == canonical_tables(wit) and pairs == ()
        assert e in wit.edge_set
        assert validate_transversal(fam, wit).ok
        assert omega_member_ham((0, 4, 8), wit)


def test_saturated_vertex_pm_accumulates_enough_targets():
    fam, t = gen_planted_pm_family(6, 2, seed=5)
    S = tuple(range(6))
    node, ms, heads = _root(fam, S)
    branches = multiplier._saturated_branches(fam, node, ms, heads)
    assert len(branches) >= support_depth(heads) + 1
    assert [e for e, _, _ in branches] == sorted({e for e, _, _ in branches})
    for e, tables, pairs in branches:
        wit = _branch_witness(KIND_PM, tables, pairs)
        assert tables == canonical_tables(wit, e) and pairs == ((e, wit.color_of(e)),)
        assert e in wit.edge_set
        assert validate_transversal(fam, wit).ok
        assert omega_member_pm(S, wit)


@pytest.mark.parametrize("d", [1, 2])
def test_many_ham_reaches_factorial(d):
    rng = random.Random(100 + d)
    for _ in range(8):
        n = rng.randrange(9, 13)
        S = (0, 4, 8) if n >= 11 and rng.random() < 0.4 else (0, 3, 6)
        fam, t = gen_witness_instance_ham(n, S, d, seed=rng.randrange(10**6))
        out = many_transversals(fam, S)[1]
        assert len(out) >= math.factorial(d + 1)
        assert len(set(out)) == len(out)
        om = set(enumerate_omega_ham(fam, t, S))
        for psi in out:
            assert validate_transversal(fam, psi).ok
            assert psi in om


@pytest.mark.parametrize("d", [1, 2, 3])
def test_many_pm_reaches_factorial(d):
    rng = random.Random(200 + d)
    for _ in range(8):
        n = rng.randrange(d + 2, 9)
        fam, t = gen_planted_pm_family(n, d, seed=rng.randrange(10**6))
        S = tuple(range(n))
        assert support_depth(support(fam, S)) == d
        out = many_transversals(fam, S)[1]
        assert len(out) >= math.factorial(d + 1)
        assert len(set(out)) == len(out)
        om = set(enumerate_omega_pm(fam, t, S))
        for psi in out:
            assert validate_transversal(fam, psi).ok
            assert psi in om


def _spread_set(draw, n, size):
    """size vertices of the n-cycle at pairwise circular distance >= 3."""
    gaps, left = [], n
    for k in range(size - 1):
        gaps.append(draw(st.integers(3, left - 3 * (size - 1 - k)), label="gap"))
        left -= gaps[-1]
    first = draw(st.integers(0, n - 1), label="first member")
    return tuple(sorted((first + sum(gaps[:k])) % n for k in range(size)))


@st.composite
def witness_ham_with_set(draw):
    """(family, planted, S): a witness cycle instance with n <= 12, two or
    three members at circular distance >= 3, and support depth d <= 2."""
    n = draw(st.integers(6, 12), label="vertices")
    size = draw(st.integers(2, 3 if n >= 9 else 2), label="members")
    S = _spread_set(draw, n, size)
    d = draw(st.integers(1, min(2, size - 1)), label="depth")
    fam, t = gen_witness_instance_ham(n, S, d, seed=draw(st.integers(0, 2**16), label="seed"))
    return fam, t, S


def _check_multiplied(fam, out, omega, d):
    assert len(out) >= math.factorial(d + 1)
    assert len(set(out)) == len(out)
    for psi in out:
        assert validate_transversal(fam, psi).ok
        assert psi in omega


@given(witness_ham_with_set())
def test_many_ham_lies_in_omega(case):
    fam, t, S = case
    out = many_transversals(fam, S)[1]
    _check_multiplied(fam, out, set(enumerate_omega_ham(fam, t, S)), support_depth(support(fam, S)))


@settings(deadline=None)
@given(planted_pm_with_set())
def test_many_pm_lies_in_omega(case):
    # S holds a random endpoint of each pair, not only the low ones
    fam, t, S = case
    d = support_depth(support(fam, S))
    assume(d <= 4)  # 7 pairs at depth 6 take about a second each
    out = many_transversals(fam, S)[1]
    _check_multiplied(fam, out, set(enumerate_omega_pm(fam, t, S)), d)


@given(st.one_of(witness_ham_with_set(), planted_pm_with_set()))
def test_child_lifts_back_to_its_witness(case):
    # the child's canonical transversal, expanded through a one-branch plan
    # (the tables, plus the dropped branch pair of a matching), is a valid
    # member of omega holding the branch's edge, whose canonical_tables are
    # the branch's: a cycle's, taken from the walk, as well
    fam, t, S = case
    assume(fam.num_vertices > 2)  # a one-pair matching has no child
    ham = fam.kind == KIND_HAM
    member = omega_member_ham if ham else omega_member_pm
    node, ms, heads = _root(fam, S)
    for e, (vinv, cinv), pairs in multiplier._saturated_branches(fam, node, ms, heads):
        fam2 = relabel(fam, vinv, cinv)
        t2 = planted(fam2.kind, fam2.num_vertices)
        assert validate_transversal(fam2, t2).ok
        plan = [(vinv, cinv, pairs, [t2])]
        (wit,) = multiplier._expand(plan, range(fam.num_vertices), range(fam.num_colors))
        assert (vinv, cinv) == canonical_tables(wit, None if ham else e)
        assert pairs == (() if ham else ((e, wit.color_of(e)),))
        assert e in wit.edge_set
        assert validate_transversal(fam, wit).ok
        assert member(S, wit)


def test_many_ham_rejects_zero_depth():
    fam = make_ham_family(8, {})
    t = planted(fam.kind, fam.num_vertices)
    with pytest.raises(DStarTooSmall):
        many_transversals(fam, (0, 4))


def test_many_pm_raises_when_the_floor_fails(monkeypatch):
    # an explicit raise, not an assert, so python -O keeps the check
    fam, t = gen_planted_pm_family(6, 2, seed=5)
    monkeypatch.setattr(multiplier, "_many", lambda family, node, ms, heads, d, memo: [t])
    with pytest.raises(GuaranteeViolated, match=r"fell short of \(d\+1\)!"):
        many_transversals(fam, tuple(range(6)))


def test_many_ham_raises_when_the_floor_fails(monkeypatch):
    fam, t = gen_witness_instance_ham(11, (0, 4, 8), 2, seed=2)
    monkeypatch.setattr(multiplier, "_many", lambda family, node, ms, heads, d, memo: [t])
    with pytest.raises(GuaranteeViolated, match=r"fell short of \(d\+1\)!"):
        many_transversals(fam, (0, 4, 8))


@pytest.mark.parametrize("kind", [KIND_HAM, KIND_PM])
def test_the_floor_is_d_plus_one_factorial_exactly(kind, monkeypatch):
    # (d+1)! - 1 distinct outputs must raise and (d+1)! must pass, so a
    # floor that drifts to d! or to (d+1)! + 1 fails here
    if kind == KIND_HAM:
        fam, t = gen_witness_instance_ham(11, (0, 4, 8), 2, seed=2)
        ms = (0, 4, 8)
    else:
        fam, t = gen_planted_pm_family(6, 2, seed=5)
        ms = tuple(range(6))
    d, outputs = many_transversals(fam, ms)
    assert d == support_depth(support(fam, ms))
    floor = math.factorial(d + 1)
    assert len(outputs) >= floor > 1
    monkeypatch.setattr(multiplier, "_many", lambda family, node, ms, heads, d, memo: outputs[:floor - 1])
    with pytest.raises(GuaranteeViolated, match=r"fell short of \(d\+1\)!"):
        many_transversals(fam, ms)
    monkeypatch.setattr(multiplier, "_many", lambda family, node, ms, heads, d, memo: outputs[:floor])
    assert many_transversals(fam, ms) == (d, outputs[:floor])


def _entry_case(kind):
    """(family, base, set): a witness cycle instance with d = 2, or the
    planted-pm n=8 seed 2 instance of the pinned reports (d = 4)."""
    if kind == KIND_HAM:
        fam, t = gen_witness_instance_ham(11, (0, 4, 8), 2, seed=2)
        return fam, t, (0, 4, 8)
    fam, t = gen_planted_pm_family(8, 4, seed=2)
    return fam, t, tuple(range(8))


@pytest.mark.parametrize("kind", [KIND_HAM, KIND_PM])
def test_many_rejects_a_base_missing_from_its_subgraph(kind):
    # the family is canonically labelled, but subgraph 2 lacks the planted
    # edge of color 2, which only the entry validation sees
    fam, t, S = _entry_case(kind)
    subs = list(fam.subgraphs)
    subs[2] = subs[2] - {e for e, c in t.items if c == 2}
    fam = SubgraphFamily(fam.base, subs, kind)
    with pytest.raises(InvalidTransversal, match="witness is invalid: edge_not_in_subgraph"):
        many_transversals(fam, S)


@pytest.mark.parametrize("kind, outputs", [(KIND_HAM, 6), (KIND_PM, 982)])
def test_many_validates_each_witness_once(kind, outputs, monkeypatch):
    # the base is checked on entry; every other witness was checked once,
    # in the root family's labels, by the exchange round that made it, so
    # the recursion checks none again
    fam, t, S = _entry_case(kind)
    checked, lifted = [], []

    def counting(family, u, calls=checked):
        calls.append((family, u))
        return validate_transversal(family, u)

    monkeypatch.setattr(multiplier, "validate_transversal", counting)
    monkeypatch.setattr(exchange, "validate_transversal", partial(counting, calls=lifted))
    _, rounds = _counting(monkeypatch)
    assert len(many_transversals(fam, S)[1]) == outputs
    assert checked == [(fam, t)]
    assert len(lifted) == len(rounds) and all(family is fam for family, _ in lifted)


@pytest.mark.parametrize("kind, sizes", [(KIND_HAM, [11]), (KIND_PM, [16, 14, 12, 10, 8, 6, 4, 2])])
def test_many_builds_each_planted_transversal_once(kind, sizes):
    # planted is built once per (kind, n) and process: every cycle node
    # shares the root's planted cycle, and a matching call builds one per
    # node size, not once per node (359) or per exchange round (455)
    fam, t, S = _entry_case(kind)
    planted.cache_clear()
    many_transversals(fam, S)
    assert planted.cache_info().misses == len(sizes)
    assert planted.cache_info().hits > 0


class _NeverStores(dict):
    """A memo that forgets every child: each one is solved from scratch."""

    def __setitem__(self, key, value):
        pass


@st.composite
def multiply_case(draw):
    """(family, planted, S, d): a planted-pm family with 3-7 pairs,
    extra degree d = 1-3 and S its low endpoints, or a witness cycle
    instance with d = 2 or 3 and |S| = d + 1."""
    if draw(st.booleans(), label="matching"):
        n = draw(st.integers(3, 7), label="pairs")
        extra = draw(st.integers(1, min(3, n - 1)), label="extra degree")
        fam, t = gen_planted_pm_family(n, extra, seed=draw(st.integers(0, 2**16), label="seed"))
        S = tuple(range(n))
        return fam, t, S, extra
    d = draw(st.integers(2, 3), label="depth")
    n = draw(st.integers(3 * d + 3, 3 * d + 7), label="vertices")
    S = _spread_set(draw, n, d + 1)
    fam, t = gen_witness_instance_ham(n, S, d, seed=draw(st.integers(0, 2**16), label="seed"))
    return fam, t, S, d


@settings(deadline=None, max_examples=60)
@given(multiply_case())
def test_many_memo_changes_no_output(case):
    # solving each distinct child once gives the list, in the order, that
    # solving every child again gives
    fam, t, S, d = case
    node, ms, heads = _root(fam, S)
    assert multiplier._many(fam, node, ms, heads, d, {}) == multiplier._many(fam, node, ms, heads, d, _NeverStores())


@st.composite
def matching_memo_case(draw):
    """(family, S): a planted-pm family with 2-7 pairs and extra degree
    1-3, S one endpoint of each pair, from either side; or a copy with its
    vertices and colors permuted, brought back by ``naturally_index``,
    which may put either end of a pair low, and S moved along."""
    n = draw(st.integers(2, 7), label="pairs")
    extra = draw(st.integers(1, min(3, n - 1)), label="extra degree")
    fam, t = gen_planted_pm_family(n, extra, seed=draw(st.integers(0, 2**16), label="seed"))
    S = [i + n * draw(st.integers(0, 1), label="high endpoint") for i in range(n)]
    if draw(st.booleans(), label="relabelled copy"):
        vperm = draw(st.permutations(range(2 * n)), label="vertex permutation")
        cperm = draw(st.permutations(range(n)), label="color permutation")
        fam, (vinv, _) = naturally_index(*relabelled(fam, t, vperm, cperm))
        new = old_to_new(vinv, 2 * n)
        S = [new[vperm[v]] for v in S]
    return fam, tuple(sorted(S))


def _expanded(fam, S, memo):
    """``_many``'s outputs at the root with this memo, expanded in the
    root's labels, or the error's type and message."""
    node, ms, heads = _root(fam, S)
    try:
        return list(multiplier._expand(multiplier._many(fam, node, ms, heads, support_depth(heads), memo), *node))
    except Exception as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=80)
@given(matching_memo_case())
def test_sharing_a_matching_plan_changes_no_output(case):
    # a child reads the plan of the first child with its set and admissible
    # rows: that gives the outputs, in the order, that solving every child
    # gives, and each reader's outputs are valid in the root's labels
    fam, S = case
    shared = _expanded(fam, S, {})
    assert shared == _expanded(fam, S, _NeverStores())
    if isinstance(shared, list):
        assert all(validate_transversal(fam, u).ok and omega_member_pm(S, u) for u in shared)


def _many_per_family(family, ms, heads, d, memo):
    """The recursion as it was when every child was a family: the child's
    rows make a new family, whose digraph gives the child's depth and
    support, and whose labels the exchange validates in."""
    ham = family.kind == KIND_HAM
    base = planted(family.kind, family.num_vertices)
    node = tuple(range(family.num_vertices)), tuple(range(family.num_colors)), ()
    if ham and d == 1:
        return [base, second_transversal(family, identity(family), ms, heads)[0]]
    if not ham and (d == 0 or family.num_pairs == 1):
        return [base]
    branches = multiplier._saturated_branches(family, node, ms, heads)
    assert len(branches) >= d + 1
    build = build_full_ryb if ham else build_full_rb
    plan = []
    for e, tables, pairs in branches:
        wit = _branch_witness(family.kind, tables, pairs)
        vinv, cinv = canonical_tables(wit, None if ham else e)
        fam2 = relabel(family, vinv, cinv)
        new = old_to_new(vinv, family.num_vertices)
        ms2 = tuple(sorted(new[m] for m in ms if m not in e))
        key = fam2.base, fam2.subgraphs, ms2
        if key not in memo:
            heads2 = digraph_support(build(fam2), ms2)
            d2 = support_depth(heads2)
            assert d2 >= d - 1
            memo[key] = _many_per_family(fam2, ms2, heads2, d2, memo)
        plan.append((vinv, cinv, () if ham else ((e, wit.color_of(e)),), memo[key]))
    return plan


@settings(deadline=None, max_examples=40)
@given(multiply_case())
def test_many_matches_the_recursion_over_child_families(case):
    # a child held as tables into the root family gives the outputs, in
    # the order, that building each child's family and digraph gives
    fam, t, S, d = case
    node, ms, heads = _root(fam, S)
    plan = multiplier._many(fam, node, ms, heads, d, {})
    expected = _many_per_family(fam, ms, heads, d, {})
    assert list(multiplier._expand(plan, *node)) == list(multiplier._expand(expected, *node))


@st.composite
def support_case(draw):
    """(family, tables, members): a ``multiply_case`` family; no tables
    (the family's own labels), a multiplication child's (``canonical_tables``
    of a valid transversal other than the planted one, a matching's with
    one pair dropped or none), or random new-to-old tables (a matching
    keeps k of its pairs' vertices and colors, not necessarily pairwise);
    and a set, spread or arbitrary, the latter mostly not red-independent."""
    fam, t, S, _ = draw(multiply_case())
    ham = fam.kind == KIND_HAM
    how = draw(st.sampled_from(["own labels", "child", "random"]), label="tables")
    if how == "own labels":
        tables = None
    elif how == "child":
        build = build_full_ryb if ham else build_full_rb
        wit = second_transversal(fam, identity(fam), S, digraph_support(build(fam), S))[0]
        drop = None if ham else draw(st.sampled_from([None, *sorted(wit.edge_set)]), label="dropped pair")
        tables = canonical_tables(wit, drop)
    else:
        k = fam.num_colors if ham else draw(st.integers(1, fam.num_colors), label="colors kept")
        size = k if ham else 2 * k
        tables = (tuple(draw(st.permutations(range(fam.num_vertices)), label="vertex table")[:size]),
                  tuple(draw(st.permutations(range(fam.num_colors)), label="color table")[:k]))
    k = fam.num_colors if tables is None else len(tables[1])
    if not draw(st.booleans(), label="well-formed set"):
        members = tuple(draw(st.sets(st.integers(0, (k if ham else 2 * k) - 1), max_size=4), label="set"))
    elif ham:
        members = _spread_set(draw, k, draw(st.integers(1, k // 3), label="members"))
    else:
        members = tuple(i + k * draw(st.integers(0, 1), label="high endpoint") for i in range(k))
    return fam, tables, members


def _outcome(fn, *args):
    """The support's items in order, or the error's type and message."""
    try:
        return list(fn(*args).items())
    except Exception as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=80)
@given(support_case())
def test_support_is_the_support_of_the_built_digraph(case):
    # read from the family, in its own labels or through a child's or any
    # tables, the support is the one the relabelled family's built digraph
    # gives, errors and their messages included
    fam, tables, members = case
    build = build_full_ryb if fam.kind == KIND_HAM else build_full_rb
    expected = _outcome(digraph_support, build(fam if tables is None else relabel(fam, *tables)), members)
    assert _outcome(support, fam, members, tables) == expected


def _lifted_per_level(family, ms, heads, d):
    """The recursion with no memo and no plan: every child's outputs are
    lifted back a level at a time, a matching child's branch pair added;
    each child's support read off its built digraph."""
    ham = family.kind == KIND_HAM
    base = planted(family.kind, family.num_vertices)
    if ham and d == 1:
        return [base, second_transversal(family, identity(family), ms, heads)[0]]
    if not ham and (d == 0 or family.num_pairs == 1):
        return [base]
    node = tuple(range(family.num_vertices)), tuple(range(family.num_colors)), ()
    build = build_full_ryb if ham else build_full_rb
    out = []
    for e, tables, pairs in multiplier._saturated_branches(family, node, ms, heads):
        wit = _branch_witness(family.kind, tables, pairs)
        vinv, cinv = canonical_tables(wit, None if ham else e)
        fam2 = relabel(family, vinv, cinv)
        new = old_to_new(vinv, family.num_vertices)
        ms2 = tuple(sorted(new[m] for m in ms if m not in e))
        heads2 = digraph_support(build(fam2), ms2)
        solved = _lifted_per_level(fam2, ms2, heads2, support_depth(heads2))
        pair = {} if ham else {e: wit.color_of(e)}
        out += [Transversal.from_map(u.kind, {**u.colors(), **pair}) for u in lift(solved, vinv, cinv)]
    return out


@settings(deadline=None, max_examples=40)
@given(multiply_case())
def test_many_equals_a_lift_per_level(case):
    # the plan, expanded once at the top, gives the outputs, in the order,
    # that lifting every child's list back at each level gives
    fam, t, S, _ = case
    heads = support(fam, S)
    d = support_depth(heads)
    expected = sorted(set(_lifted_per_level(fam, S, heads, d)), key=lambda u: u.items)
    assert many_transversals(fam, S) == (d, expected)


def _counting(monkeypatch):
    """Record the arguments of each memo miss and of each exchange round.
    A cycle's miss is the one ``support`` call through a new child's
    tables, recorded as (family, vt, ct, set); the root's own call, with
    no tables, is no miss. A matching's is the one ``row_heads`` call that
    filters a new child's key, recorded as (set, admissible rows)."""
    misses, rounds = [], []

    def read(family, members, tables=None, fn=multiplier.support):
        if tables is not None:
            misses.append((family, *tables, members))
        return fn(family, members, tables)

    def filtered(members, rows, fn=multiplier.row_heads):
        misses.append((members, rows))
        return fn(members, rows)

    def exchanged(*args, fn=multiplier.second_transversal):
        rounds.append(args)
        return fn(*args)

    monkeypatch.setattr(multiplier, "support", read)
    monkeypatch.setattr(multiplier, "row_heads", filtered)
    monkeypatch.setattr(multiplier, "second_transversal", exchanged)
    return misses, rounds


def test_many_builds_each_distinct_child_once(monkeypatch):
    # planted-pm n=8 seed 2 of the pinned reports: 1744 children and 1015
    # exchanges without the memo, 230 distinct admissible-row keys (337
    # when each child was keyed on all its subgraph rows)
    fam, t, S = _entry_case(KIND_PM)
    misses, rounds = _counting(monkeypatch)
    assert len(many_transversals(fam, S)[1]) == 982
    # each child's heads are filtered once, so each (set, admissible rows) key is missed once
    assert len(misses) == len(set(misses)) == 230
    assert len(rounds) == 347
    # the memo lives for one call: a second call solves every child again
    first = list(misses)
    assert len(many_transversals(fam, S)[1]) == 982
    assert misses[len(first):] == first


def test_children_sharing_a_plan_have_equal_admissible_rows(monkeypatch):
    # planted-pm n=8 seed 2: walking the plan and composing the tables, the
    # 1744 children read 230 distinct plans, one per memo miss. A plan is
    # read only by children with equal sets and admissible rows, but some
    # of them differ in subgraph rows: keyed on those as well, 337 would be
    # solved. Every output of every reader is valid in the root's labels
    fam, t, S = _entry_case(KIND_PM)
    node, ms, heads = _root(fam, S)
    misses, _ = _counting(monkeypatch)
    plan = multiplier._many(fam, node, ms, heads, support_depth(heads), {})
    readers = {}  # id of a child plan -> (the plan, its readers' (set, admissible rows), their subgraph rows)

    def walk(plan, vt, ct, ms, fixed):
        for item in plan:
            if isinstance(item, Transversal):
                (out,) = lift([item], vt, ct, fixed)
                assert validate_transversal(fam, out).ok
                continue
            vinv, cinv, pairs, child = item
            vt2, ct2 = tuple([vt[k] for k in vinv]), tuple([ct[k] for k in cinv])
            new = old_to_new(vinv, len(vt))
            ms2 = tuple(sorted(new[m] for m in ms if m not in pairs[0][0]))
            _, keys, subs = readers.setdefault(id(child), (child, set(), set()))
            keys.add((ms2, admissible_rows(fam, ms2, (vt2, ct2))))
            subs.add((ms2, relabel_rows(fam, vt2, ct2)))
            fixed2 = fixed + tuple([((vt[u], vt[v]), ct[c]) for (u, v), c in pairs])
            walk(child, vt2, ct2, ms2, fixed2)

    walk(plan, *node[:2], ms, ())
    assert len(readers) == len(misses) == 230
    assert all(len(keys) == 1 for _, keys, _ in readers.values())
    assert sum(len(subs) for _, _, subs in readers.values()) == 337


@pytest.mark.parametrize("kind, outputs", [(KIND_HAM, 6), (KIND_PM, 982)])
def test_many_builds_no_family_or_digraph_below_the_root(kind, outputs, monkeypatch):
    # a node is a pair of tables into the root family, whose support is
    # read from it: the recursion constructs no family, base graph or
    # digraph, at the root or for any child
    fam, t, S = _entry_case(kind)
    built = []
    for cls, name in ((SubgraphFamily, "__post_init__"), (BaseGraph, "__init__"),
                      (RybDigraph, "__post_init__"), (RbDigraph, "__post_init__")):
        def counting(self, *args, fn=getattr(cls, name), cls=cls):
            built.append(cls.__name__)
            fn(self, *args)
        monkeypatch.setattr(cls, name, counting)
    assert len(many_transversals(fam, S)[1]) == outputs
    assert built == []


def test_many_solves_equal_cycle_children_once(monkeypatch):
    # witness n=60, d=3, the set at the quarter points: 11 nodes (the root
    # and 10 misses) and 17 exchanges. Children with equal rows but other
    # tables into the root share one solve; a memo keyed on the tables
    # would miss 16 times and exchange 23 times
    S = (0, 15, 30, 45)
    fam, t = gen_witness_instance_ham(60, S, 3, seed=7)
    misses, rounds = _counting(monkeypatch)
    assert len(many_transversals(fam, S)[1]) == 24
    assert len(misses) == 10
    assert len(rounds) == 17


def test_omega_ham_endpoint_colors_pin_attachment(figure_family):
    # every omega member keeps base colors off the boundary and reuses
    # the boundary subgraphs for attachment edges
    fam, t = figure_family
    S = (0, 3)
    for psi in enumerate_omega_ham(fam, t, S):
        for e, c in psi.items:
            u, v = e
            if u not in S and v not in S:
                assert t.colors().get(e) == c


def test_d_star_invariant_across_omega():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randrange(7, 11)
        S = random_ham_set(rng, n, rng.random() < 0.4)
        fam, t = gen_witness_instance_ham(n, S, 1, seed=rng.randrange(10**6))
        d0 = support_depth(support(fam, S))
        for psi in enumerate_omega_ham(fam, t, S):
            fam2, (vinv, _) = naturally_index(fam, psi)
            new = old_to_new(vinv, fam.num_vertices)
            assert support_depth(support(fam2, sorted(new[v] for v in S))) == d0


def test_d_cross_invariant_across_omega():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randrange(3, 7)
        extra = rng.randrange(1, min(4, n - 1))
        fam, t = gen_planted_pm_family(n, extra, seed=rng.randrange(10**6))
        S = tuple(range(n))
        d0 = support_depth(support(fam, S))
        for psi in enumerate_omega_pm(fam, t, S):
            fam2, (vinv, _) = naturally_index(fam, psi)
            new = old_to_new(vinv, fam.num_vertices)
            assert support_depth(support(fam2, sorted(new[v] for v in S))) == d0


def _boundary_case(kind):
    """``_entry_case`` as ``_many``'s arguments at the root, with its depth."""
    fam, t, S = _entry_case(kind)
    node, ms, heads = _root(fam, S)
    return fam, t, node, ms, heads, support_depth(heads)




@pytest.mark.parametrize("kind", [KIND_HAM, KIND_PM])
def test_a_child_may_drop_the_depth_by_one_and_no_more(kind, monkeypatch):
    # every child reports depth d - 2, then d - 1; the children's own
    # recursion is stubbed out, so only this node's depth check runs
    fam, t, node, ms, heads, d = _boundary_case(kind)
    assert d >= 2
    many = multiplier._many
    monkeypatch.setattr(multiplier, "_many", lambda family, node, ms, heads, d, memo: [t])
    monkeypatch.setattr(multiplier, "support_depth", lambda heads: d - 2)
    with pytest.raises(GuaranteeViolated, match="depth dropped by more than one"):
        many(fam, node, ms, heads, d, {})
    monkeypatch.setattr(multiplier, "support_depth", lambda heads: d - 1)
    assert many(fam, node, ms, heads, d, {})


@pytest.mark.parametrize("kind", [KIND_HAM, KIND_PM])
def test_a_saturated_vertex_needs_d_plus_one_targets(kind, monkeypatch):
    # the saturated vertex keeps only its first k branches: k = d raises,
    # k = d + 1 does not
    fam, t, node, ms, heads, d = _boundary_case(kind)
    find = multiplier._saturated_branches
    many = multiplier._many
    monkeypatch.setattr(multiplier, "_many", lambda family, node, ms, heads, d, memo: [t])

    def keeping(k):
        def trimmed(*args):
            branches = find(*args)[:k]
            assert len(branches) == k
            return branches
        return trimmed

    monkeypatch.setattr(multiplier, "_saturated_branches", keeping(d))
    with pytest.raises(GuaranteeViolated, match="too few targets"):
        many(fam, node, ms, heads, d, {})
    monkeypatch.setattr(multiplier, "_saturated_branches", keeping(d + 1))
    assert len(many(fam, node, ms, heads, d, {})) == d + 1


def _contracting_case():
    """A 14-cycle with set (0, 7) at depth 1, whose kernel keeps 0, 1, 2, 6,
    7, 8, 9, 13 and contracts the base paths 2..6 and 9..13. The chords
    (1, 8) and (2, 9) make a valid transversal outside omega; the chord
    (2, 6) of subgraph 1 lands on a contracted edge."""
    fam = make_ham_family(14, {13: [(13, 7)], 0: [(1, 7)], 6: [(6, 0)], 7: [(8, 0)],
                               1: [(1, 8), (2, 6)], 8: [(2, 9)]})
    return fam, (0, 7)


def test_kernel_contracts_the_paths_between_the_sets_neighbors():
    fam, S = _contracting_case()
    kfam, kms, kheads, K, paths = multiplier._kernel(fam, S, support(fam, S))
    assert K == (0, 1, 2, 6, 7, 8, 9, 13)
    assert kms == (0, 4) and kheads == support(kfam, kms) == {7: (4,), 1: (4,), 3: (0,), 5: (0,)}
    assert validate_transversal(kfam, planted(KIND_HAM, 8)).ok
    # each contracted edge is in its own subgraph only, and stands for its base path
    assert paths == {(2, 3): (2, (((2, 3), 2), ((3, 4), 3), ((4, 5), 4), ((5, 6), 5))),
                     (6, 7): (6, (((9, 10), 9), ((10, 11), 10), ((11, 12), 11), ((12, 13), 12)))}
    assert [c for c, g in enumerate(kfam.subgraphs) if paths.keys() & g] == [2, 6]
    # kernel subgraph 1 is root subgraph 1 on K, less the chord (2, 6)
    assert kfam.subgraphs[1] == {(1, 2), (1, 5)}
    # nothing contracts when every member is within four of the next
    tight, _ = gen_witness_instance_ham(11, (0, 4, 8), 2, seed=2)
    heads = support(tight, (0, 4, 8))
    kernel = multiplier._kernel(tight, (0, 4, 8), heads)
    assert kernel[0] is tight and kernel[2] is heads and kernel[3:] == (tuple(range(11)), {})


def _multiply_in_full(family, S):
    """``many_transversals`` as it ran before the kernel: the recursion on the
    root node, expanded there."""
    base = planted(family.kind, family.num_vertices)
    ms = tuple(sorted(S))
    heads = support(family, ms)
    d = support_depth(heads)
    if d < 1:
        raise DStarTooSmall(f"support depth is {d}; need at least 1")
    root = tuple(range(family.num_vertices)), tuple(range(family.num_colors)), ()
    plan = multiplier._many(family, root, ms, heads, d, {family.num_vertices: base})
    out = sorted(set(multiplier._expand(plan, *root)), key=lambda t: t.items)
    if len(out) < math.factorial(d + 1):
        raise GuaranteeViolated("multiplication fell short of (d+1)!")
    return d, out


@st.composite
def cycle_with_spread_set(draw):
    """(family, S, gaps): a witness or planted-ham family on n <= 60
    vertices and a red-independent set of 2-4 members, ``gaps`` apart. With
    every gap 3 or 4 the kernel keeps every vertex; wider gaps contract."""
    size = draw(st.integers(2, 4), label="members")
    widest = draw(st.sampled_from([4, 14]), label="widest gap")
    gaps = draw(st.lists(st.integers(3, widest), min_size=size, max_size=size), label="gaps")
    n = sum(gaps)
    first = draw(st.integers(0, n - 1), label="first member")
    S = tuple(sorted((first + sum(gaps[:k])) % n for k in range(size)))
    seed = draw(st.integers(0, 2**16), label="seed")
    if draw(st.sampled_from(["witness"] * 3 + ["planted-ham"]), label="model") == "witness":
        fam, _ = gen_witness_instance_ham(n, S, draw(st.integers(1, size - 1), label="depth"), seed=seed)
    else:
        fam, _ = gen_planted_ham_family(n, draw(st.integers(1, 3), label="extra degree"), seed=seed)
    return fam, S, gaps


def _outputs_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@settings(deadline=None, max_examples=80)
@given(cycle_with_spread_set())
def test_kernel_multiplication_equals_the_full_recursion(case):
    fam, S, gaps = case
    kfam = multiplier._kernel(fam, S, {})[0]
    assert (kfam is fam) == (max(gaps) <= 4)
    assert kfam.num_vertices <= 4 * len(S)
    out = _outputs_or_error(many_transversals, fam, S)
    assert out == _outputs_or_error(_multiply_in_full, fam, S)
    if isinstance(out, tuple):
        base = planted(KIND_HAM, fam.num_vertices)
        assert all(omega_member_ham(S, psi) for psi in out[1])


def test_many_runs_a_cycle_on_its_kernel(monkeypatch):
    # witness n=2400, d=3, the set at the quarter points: the one family and
    # base graph built are the 16-vertex kernel's, every node reads its
    # support and rows there, and the caller's family is validated for the
    # planted cycle only: each output is checked in the kernel
    S = (0, 600, 1200, 1800)
    fam, t = gen_witness_instance_ham(2400, S, 3, seed=7)
    built, rows, checked, lifted = [], [], [], []
    for cls, name in ((SubgraphFamily, "__post_init__"), (BaseGraph, "__init__"),
                      (RybDigraph, "__post_init__"), (RbDigraph, "__post_init__")):
        def constructing(self, *args, fn=getattr(cls, name), cls=cls):
            built.append(cls.__name__)
            fn(self, *args)
        monkeypatch.setattr(cls, name, constructing)

    def reading(family, *args, fn=relabel_rows):
        rows.append(family.num_vertices)
        return fn(family, *args)

    def validating(family, u, calls=checked):
        calls.append((family, u))
        return validate_transversal(family, u)

    monkeypatch.setattr(multiplier, "relabel_rows", reading)
    monkeypatch.setattr(multiplier, "validate_transversal", validating)
    monkeypatch.setattr(exchange, "validate_transversal", partial(validating, calls=lifted))
    misses, rounds = _counting(monkeypatch)
    out = many_transversals(fam, S)[1]
    assert len(out) == 24
    assert built == ["BaseGraph", "SubgraphFamily"]
    kernel = misses[0][0]
    assert kernel.num_vertices <= 4 * len(S)
    assert rows and set(rows) == {kernel.num_vertices}
    assert all(family is kernel for family, *_ in misses + rounds + lifted)
    assert len(misses) == 10 and len(rounds) == len(lifted) == 17
    assert checked[0] == (fam, t) and [family for family, _ in checked] == [fam] + [kernel] * 24
    assert len({u for _, u in checked[1:]}) == 24


@pytest.mark.parametrize("contracts", [True, False])
def test_many_ham_raises_on_an_output_outside_omega(contracts, monkeypatch):
    # the recursion also returns a valid transversal outside the exchange
    # neighborhood: the first one the oracle lists in its family, which is
    # the kernel when the set's neighbors leave a path to contract. The
    # instance that does not contract is that kernel itself
    fam, S = _contracting_case()
    if not contracts:
        fam, S = multiplier._kernel(fam, S, {})[0], (0, 4)
    many = multiplier._many

    def and_outside_omega(family, node, ms, heads, d, memo):
        assert (family is fam) != contracts
        base = planted(KIND_HAM, family.num_vertices)
        bad = next(u for u in enumerate_all_ham_transversals(family) if not omega_member_ham(ms, u))
        return many(family, node, ms, heads, d, memo) + [bad]

    assert many_transversals(fam, S)[1]
    monkeypatch.setattr(multiplier, "_many", and_outside_omega)
    with pytest.raises(GuaranteeViolated, match="outside the exchange neighborhood"):
        many_transversals(fam, S)


def test_many_pm_raises_on_an_output_outside_omega(monkeypatch):
    # the matching twin: a valid matching the oracle lists whose colors
    # at the set differ from the planted matching's
    fam, _ = gen_planted_pm_family(6, 2, seed=5)
    S = tuple(range(6))
    base = planted(KIND_PM, fam.num_vertices)
    bad = next(u for u in enumerate_all_pm_transversals(fam) if not omega_member_pm(S, u))
    many, calls = multiplier._many, []

    def and_outside_omega(family, node, ms, heads, d, memo):
        calls.append(node)  # the root's call is the first; its children share its family
        plan = many(family, node, ms, heads, d, memo)
        return plan + [bad] if node is calls[0] else plan

    assert many_transversals(fam, S)[1]
    monkeypatch.setattr(multiplier, "_many", and_outside_omega)
    with pytest.raises(GuaranteeViolated, match="outside the exchange neighborhood"):
        many_transversals(fam, S)


def test_kernel_expansion_refuses_a_recolored_path(monkeypatch):
    # a kernel output that gives the contracted edge (2, 3) color 1 and
    # (1, 2) color 2 cannot stand for the base path 2..6
    fam, S = _contracting_case()
    many = multiplier._many

    def and_recolored(family, node, ms, heads, d, memo):
        swapped = {(1, 2): 2, (2, 3): 1}
        bad = Transversal(KIND_HAM, tuple((e, swapped.get(e, c)) for e, c in planted(KIND_HAM, 8).items))
        return many(family, node, ms, heads, d, memo) + [bad]

    monkeypatch.setattr(multiplier, "_many", and_recolored)
    with pytest.raises(GuaranteeViolated, match=r"recolors the contracted edge \(2, 3\)"):
        many_transversals(fam, S)


def test_many_ham_validates_each_expanded_output(monkeypatch):
    # a kernel whose paths each lose their last edge: every output is valid
    # in the kernel and lies in its omega, but expands to a broken cycle
    fam, S = _contracting_case()
    kernel = multiplier._kernel

    def losing_an_edge(family, ms, heads):
        *rest, paths = kernel(family, ms, heads)
        return *rest, {e: (c, items[:-1]) for e, (c, items) in paths.items()}

    monkeypatch.setattr(multiplier, "_kernel", losing_an_edge)
    with pytest.raises(GuaranteeViolated, match="expanded multiplication output is invalid: size"):
        many_transversals(fam, S)


def _with_kernel_output(monkeypatch, chords, items):
    """Make ``_kernel`` add ``chords`` (kernel edge -> color) to its family
    and the recursion return ``items`` as one more output; the family is
    ``_contracting_case``'s, whose kernel keeps 0, 1, 2, 6, 7, 8, 9, 13."""
    fam, S = _contracting_case()
    kernel, many = multiplier._kernel, multiplier._many

    def with_chords(family, ms, heads):
        kfam, *rest = kernel(family, ms, heads)
        subs = list(kfam.subgraphs)
        for e, c in chords.items():
            subs[c] = subs[c] | {e}
        base = BaseGraph(kfam.num_vertices, kfam.base.edge_set | chords.keys())
        return SubgraphFamily(base, subs, KIND_HAM), *rest

    def and_output(family, node, ms, heads, d, memo):
        return many(family, node, ms, heads, d, memo) + [Transversal(KIND_HAM, items)]

    monkeypatch.setattr(multiplier, "_kernel", with_chords)
    monkeypatch.setattr(multiplier, "_many", and_output)
    return fam, S


def test_kernel_expansion_checks_each_kept_edge_in_the_root(monkeypatch):
    # the kernel's subgraph 4 gains the chord (0, 2), which is no edge of
    # the root: the output using it is a valid kernel cycle through both
    # contracted edges, but its expansion holds the root pair (0, 2) in color 7
    fam, S = _with_kernel_output(monkeypatch, {(0, 2): 4}, (
        ((0, 1), 0), ((0, 2), 4), ((1, 5), 1), ((2, 3), 2), ((3, 4), 3), ((4, 7), 7), ((5, 6), 5), ((6, 7), 6)))
    with pytest.raises(GuaranteeViolated, match=r"invalid: edge \(0, 2\) not in base and subgraph 7"):
        many_transversals(fam, S)


def test_kernel_expansion_refuses_an_output_without_a_contracted_edge(monkeypatch):
    # with the chords (2, 4) and (3, 5) a kernel cycle avoids the contracted
    # edge (2, 3), so its expansion would skip the root vertices 3, 4, 5
    fam, S = _with_kernel_output(monkeypatch, {(2, 4): 2, (3, 5): 4}, (
        ((0, 1), 0), ((0, 7), 7), ((1, 2), 1), ((2, 4), 2), ((3, 4), 3), ((3, 5), 4), ((5, 6), 5), ((6, 7), 6)))
    with pytest.raises(GuaranteeViolated, match=r"leaves out the contracted edge \(2, 3\)"):
        many_transversals(fam, S)


def test_kernel_expansion_checks_the_paths_once_per_call():
    # the path checks run before any output is looked at, so they refuse a
    # bad kernel even with no output to expand
    fam, S = _contracting_case()
    kfam, _, _, K, paths = multiplier._kernel(fam, S, {})
    assert multiplier._expand_kernel(fam, kfam, [], K, paths) == []
    recolored = dict(paths)
    recolored[(2, 3)] = 2, (((2, 3), 2), ((3, 4), 4), ((4, 5), 3), ((5, 6), 5))
    with pytest.raises(GuaranteeViolated, match=r"\(2, 3\) does not stand for the base path 2...6"):
        multiplier._expand_kernel(fam, kfam, [], K, recolored)
    # dropping a path leaves the root vertices 10, 11, 12 to no item, and
    # its four edges to the one root pair (9, 13)
    with pytest.raises(GuaranteeViolated, match="invalid: size: expected 14 edges, got 11"):
        multiplier._expand_kernel(fam, kfam, [], K, {(2, 3): paths[(2, 3)]})
    with pytest.raises(GuaranteeViolated, match="one vertex and color per entry of K, in cycle order"):
        multiplier._expand_kernel(fam, kfam, [], K[1:] + K[:1], paths)


def _expanded_naively(K, paths, t):
    """t in root labels: a contracted edge in its own color becomes its
    path, every other item is relabelled through K."""
    items = []
    for (a, b), c in t.items:
        path = paths.get((a, b))
        items += path[1] if path is not None and path[0] == c else [((K[a], K[b]), K[c])]
    return Transversal(KIND_HAM, tuple(items))


@settings(deadline=None, max_examples=80)
@given(cycle_with_spread_set(), st.data())
def test_kernel_output_check_is_the_root_validation(case, data):
    # differential: a member of the kernel's omega, corrupted in one item or
    # not at all, passes _expand_kernel's checks exactly when its naive
    # expansion is valid in the root family, and then expands to it
    fam, S, _ = case
    kfam, kms, _, K, paths = multiplier._kernel(fam, S, {})
    assume(paths)
    size = len(K)
    omega = enumerate_omega_ham(kfam, planted(KIND_HAM, size), kms)
    items = list(data.draw(st.sampled_from(omega), label="kernel output").items)
    how = data.draw(st.sampled_from(["none", "recolor", "swap colors", "move edge", "drop"]), label="corruption")
    i = data.draw(st.integers(0, size - 1), label="item")
    (a, b), c = items[i]
    if how == "recolor":
        items[i] = (a, b), data.draw(st.integers(0, size - 1), label="color")
    elif how == "swap colors":
        j = data.draw(st.integers(0, size - 1), label="other item")
        items[i], items[j] = ((a, b), items[j][1]), (items[j][0], c)
    elif how == "move edge":
        a = data.draw(st.integers(0, size - 2), label="u")
        items[i] = (a, data.draw(st.integers(a + 1, size - 1), label="v")), c
    elif how == "drop":
        del items[i]
    t = Transversal(KIND_HAM, tuple(items))
    naive = _expanded_naively(K, paths, t)
    try:
        got = multiplier._expand_kernel(fam, kfam, [t], K, paths)
    except GuaranteeViolated:
        got = None
    assert (got is not None) == validate_transversal(fam, naive).ok
    assert got in (None, [naive])
    # the spliced items are the sorted, normalised items of the naive expansion
    assert got is None or got[0].items == Transversal(KIND_HAM, naive.items).items


def test_kernel_outputs_are_spliced_not_normalised(monkeypatch):
    # witness n=2400, d=3, the set at the quarter points: of the
    # 2400-item transversals, only the planted cycle, built on entry,
    # goes through the normalising constructor; the 24 outputs are spliced
    S = (0, 600, 1200, 1800)
    fam, t = gen_witness_instance_ham(2400, S, 3, seed=7)
    normalised = []
    init = Transversal.__post_init__

    def normalising(self):
        init(self)
        normalised.append(self)

    monkeypatch.setattr(Transversal, "__post_init__", normalising)
    # the generator built t through the cache; the entry builds it afresh
    planted.cache_clear()
    out = many_transversals(fam, S)[1]
    assert len(out) == 24
    assert [u for u in normalised if len(u) == 2400] == [t]
    assert not {id(u) for u in out} & {id(u) for u in normalised}
    assert all(validate_transversal(fam, u).ok for u in out)
    assert all(u.items == Transversal(KIND_HAM, u.items).items for u in out)
