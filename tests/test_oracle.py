import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from transversals import (
    BaseGraph,
    BudgetExceeded,
    KIND_HAM,
    KIND_PM,
    SearchBudget,
    SubgraphFamily,
    count_ham_transversals,
    count_pm_transversals,
    edge,
    enumerate_all_ham_transversals,
    enumerate_all_pm_transversals,
    exists_ham_transversal,
    gen_dirac_family,
    gen_planted_ham_family,
    gen_planted_pm_family,
    omega_admissibility_matrix,
    permanent,
    oracle,
    validate_transversal,
)

from conftest import complete_graph, make_ham_family, permanent_by_ryser


def _k4_all_equal():
    base = complete_graph(4)
    return SubgraphFamily(base, [base.edge_set] * 4, KIND_HAM)


def test_k4_all_equal_is_72():
    # 3 distinct hamiltonian cycles in K_4, each colorable in 4! ways
    assert count_ham_transversals(_k4_all_equal()) == 3 * 24 == 72


def test_forced_instances_count_one():
    fam = make_ham_family(7, {})
    assert count_ham_transversals(fam) == 1
    base = BaseGraph(6, [(0, 3), (1, 4), (2, 5)])
    subs = [frozenset({(i, 3 + i)}) for i in range(3)]
    pm = SubgraphFamily(base, subs, KIND_PM)
    assert count_pm_transversals(pm) == 1


def test_enumeration_matches_count_and_is_duplicate_free():
    for seed in (0, 1, 2, 3):
        fam, _ = gen_planted_ham_family(8, 2, seed=seed)
        all_t = enumerate_all_ham_transversals(fam)
        assert len(set(all_t)) == len(all_t)
        assert count_ham_transversals(fam) == len(all_t)
        for t in all_t[:5]:
            assert validate_transversal(fam, t).ok
    for seed in (0, 1):
        fam, _ = gen_planted_pm_family(5, 2, seed=seed)
        all_t = enumerate_all_pm_transversals(fam)
        assert len(set(all_t)) == len(all_t)
        assert count_pm_transversals(fam) == len(all_t)
        for t in all_t[:5]:
            assert validate_transversal(fam, t).ok


def test_exists_returns_valid_or_none():
    fam, planted = gen_planted_ham_family(9, 1, seed=4)
    found = exists_ham_transversal(fam)
    assert found is not None
    assert validate_transversal(fam, found).ok
    empty = make_ham_family(6, {})
    sparse = SubgraphFamily(
        empty.base,
        list(empty.subgraphs[:-1]) + [frozenset({edge(0, 1)})],
        KIND_HAM,
    )
    assert exists_ham_transversal(sparse) is None


def test_budget_exhaustion_carries_partial():
    base = complete_graph(8)
    fam = SubgraphFamily(base, [base.edge_set] * 8, KIND_HAM)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_all_ham_transversals(fam, SearchBudget(max_nodes=500))
    assert exc.value.nodes >= 500
    assert all(validate_transversal(fam, t).ok for t in exc.value.partial)


def test_counting_builds_no_transversal(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("a count built a Transversal")

    k6 = gen_dirac_family(6, 1.0, seed=1)
    pm = gen_planted_pm_family(5, 2, seed=0)[0]
    expected = len(enumerate_all_pm_transversals(pm))
    monkeypatch.setattr(oracle, "Transversal", refuse)
    assert count_ham_transversals(k6) == 43200  # 5!/2 cycles of K6, 6! colorings each
    assert count_pm_transversals(pm) == expected
    with pytest.raises(BudgetExceeded) as exc:
        count_ham_transversals(k6, SearchBudget(max_nodes=500))
    assert exc.value.partial == [] and exc.value.found > 0


def test_budget_exhaustion_counts_what_enumeration_keeps():
    base = complete_graph(8)
    fam = SubgraphFamily(base, [base.edge_set] * 8, KIND_HAM)
    for budget in (SearchBudget(max_nodes=500), SearchBudget(max_nodes=2000)):
        with pytest.raises(BudgetExceeded) as kept:
            enumerate_all_ham_transversals(fam, budget)
        with pytest.raises(BudgetExceeded) as counted:
            count_ham_transversals(fam, budget)
        assert kept.value.found == len(kept.value.partial) == counted.value.found
        assert kept.value.nodes == counted.value.nodes


def test_a_result_cap_of_zero_stops_the_count_before_its_first_node():
    fam = gen_planted_pm_family(4, 2, seed=1)[0]
    with pytest.raises(BudgetExceeded, match="result cap 0 reached") as exc:
        count_pm_transversals(fam, SearchBudget(max_results=0))
    assert (exc.value.nodes, exc.value.found) == (0, 0)


def test_each_search_refuses_a_family_of_the_other_kind():
    with pytest.raises(ValueError, match="hamiltonian enumeration needs a hamiltonian family"):
        count_ham_transversals(gen_planted_pm_family(4, 2, seed=1)[0])
    with pytest.raises(ValueError, match="matching enumeration needs a matching family"):
        count_pm_transversals(_k4_all_equal())


def test_max_results_stops_early():
    base = complete_graph(6)
    fam = SubgraphFamily(base, [base.edge_set] * 6, KIND_HAM)
    got = enumerate_all_ham_transversals(fam, SearchBudget(max_results=5))
    assert len(got) == 5
    assert len(set(got)) == 5


@st.composite
def _small_families(draw):
    """A cycle family on at most 7 vertices or a matching family on at most
    5 pairs, each color holding about 60% of the host's edges, so that
    branches often meet the same state."""
    if draw(st.booleans()):
        n, kind = draw(st.integers(3, 7)), KIND_HAM
        host = [(u, v) for u in range(n) for v in range(u + 1, n)]
        colors = n
    else:
        colors, kind = draw(st.integers(1, 5)), KIND_PM
        n = 2 * colors
        host = [(u, colors + v) for u in range(colors) for v in range(colors)]
    member = st.lists(st.integers(0, 4).map(lambda r: r < 3), min_size=len(host), max_size=len(host))
    subs = [frozenset(e for e, keep in zip(host, draw(member)) if keep) for _ in range(colors)]
    edges = sorted(set().union(*subs))
    return SubgraphFamily(BaseGraph(n, edges), subs, kind)


def _outcome(search, family, budget, kind):
    """What one search ends in: its budget message, or whether the result
    cap stopped it; with the nodes it ticked and the solutions it found."""
    try:
        done = search(family, budget, kind)
    except BudgetExceeded as exc:
        return str(exc), exc.nodes, exc.found
    return done.full(), done.nodes, done.found


def _searches(family):
    if family.kind == KIND_HAM:
        return oracle._search_ham, count_ham_transversals, enumerate_all_ham_transversals
    return oracle._search_pm, count_pm_transversals, enumerate_all_pm_transversals


@settings(deadline=None, max_examples=60)
@given(
    _small_families(),
    st.integers(1, 1500),
    st.one_of(st.none(), st.integers(1, 300)),
)
def test_a_count_matches_the_enumeration_at_every_budget(family, max_nodes, max_results):
    # enumeration keeps its results, so it never reads the counting memo
    search, count, enumerate_all = _searches(family)
    budget = SearchBudget(max_nodes, max_results)
    kind = family.kind
    assert _outcome(search, family, budget, None) == _outcome(search, family, budget, kind)
    try:
        counted = count(family, budget)
    except BudgetExceeded as exc:
        counted = str(exc), exc.nodes, exc.found
    try:
        kept = len(enumerate_all(family, budget))
    except BudgetExceeded as exc:
        kept = str(exc), exc.nodes, exc.found
    if isinstance(counted, int) or counted[0].startswith("node budget"):
        assert counted == kept
    else:
        assert counted[2] == kept == max_results


def _memo_cases():
    k6 = gen_dirac_family(6, 1.0, seed=1)
    pm = gen_planted_pm_family(8, 4, seed=2)[0]
    return [
        (k6, SearchBudget()),
        (k6, SearchBudget(max_nodes=9000)),
        (k6, SearchBudget(max_results=4000)),
        (pm, SearchBudget()),
        (pm, SearchBudget(max_nodes=20000)),
        (pm, SearchBudget(max_results=2000)),
    ]


def test_a_full_memo_keeps_the_search_exact(monkeypatch):
    cases = _memo_cases()
    wide = [_outcome(_searches(f)[0], f, b, None) for f, b in cases]
    monkeypatch.setattr(oracle, "MEMO_ENTRIES", 3)
    assert [_outcome(_searches(f)[0], f, b, None) for f, b in cases] == wide
    assert wide[0] == (False, 117685, 43200) and wide[3] == (False, 25399, 3062)


def test_a_memoized_subtree_that_ends_at_the_budget_is_not_walked(monkeypatch):
    # a budget equal to the node total leaves room for every memo hit,
    # so the walk ticks exactly as often as it does with no budget
    ticks = []
    tick = oracle._Search.tick
    monkeypatch.setattr(oracle._Search, "tick", lambda self: ticks.append(1) or tick(self))
    for family, _ in _memo_cases()[::3]:
        search = _searches(family)[0]
        ticks.clear()
        total = search(family, None).nodes
        walked = len(ticks)
        assert search(family, SearchBudget(max_nodes=total)).nodes == total
        assert len(ticks) - walked == walked < total


def _recording_colorings(monkeypatch):
    """Record the memo and the numbered option tuples of each cycle's coloring walk."""
    calls = []
    assign = oracle._assign_colors

    def recording(search, edges, options, memo, signatures):
        assign(search, edges, options, memo, signatures)
        calls.append((memo, signatures))

    monkeypatch.setattr(oracle, "_assign_colors", recording)
    return calls


def test_cycles_with_equal_options_share_one_coloring_memo(monkeypatch):
    # K6 all-equal: its 60 cycles carry the same options, so one memo of
    # the 64 used-color sets serves them all, where a memo per cycle
    # would hold 60 times as many states
    calls = _recording_colorings(monkeypatch)
    assert count_ham_transversals(gen_dirac_family(6, 1.0, seed=1)) == 43200
    memo, signatures = calls[0]
    assert len(calls) == 60 and all(m is memo and s is signatures for m, s in calls)
    assert len(signatures) == 1 and len(memo) == 64


def test_cycles_with_other_options_keep_their_own_states(monkeypatch):
    # planted-ham families whose cycles carry different options: a state
    # is the options and the used colors, so the count is the enumeration's.
    # The enumeration, which reads no memo, numbers no options
    calls = _recording_colorings(monkeypatch)
    for seed in range(6):
        fam, _ = gen_planted_ham_family(7, 3, seed=seed)
        calls.clear()
        assert count_ham_transversals(fam) == len(enumerate_all_ham_transversals(fam))
        assert len(calls[0][1]) > 1 and calls[-1][1] == {}


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 6).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 5), max_size=4, unique=True), min_size=k, max_size=k
)))
def test_colors_feasible_matches_a_search_over_all_colorings(color_lists):
    chosen = [(i, i + 1) for i in range(len(color_lists))]
    options = {e: tuple(cs) for e, cs in zip(chosen, color_lists)}
    expected = any(len(set(pick)) == len(pick) for pick in itertools.product(*color_lists))
    assert oracle._colors_feasible(chosen, options) == expected


def test_permanent_small_matrices():
    assert permanent([]) == 1
    assert permanent([[1]]) == 1
    assert permanent([[1, 0], [0, 1]]) == 1
    assert permanent([[1, 1], [1, 1]]) == 2
    assert permanent([[1] * 3 for _ in range(3)]) == 6
    assert permanent([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2
    # permanent is row-permutation invariant
    assert permanent([[0, 1, 1], [1, 1, 0], [1, 0, 1]]) == 2


def _permanent_by_permutations(matrix):
    rows = range(len(matrix))
    return sum(
        math.prod(matrix[i][p[i]] for i in rows) for p in itertools.permutations(rows)
    )


# one_of picks a branch uniformly, so about half the entries are 0 and
# row sums often cancel to 0 under mixed signs
_small_entries = st.one_of(st.just(0), st.integers(-3, 3))


@given(st.integers(0, 6).flatmap(
    lambda k: st.lists(st.lists(_small_entries, min_size=k, max_size=k), min_size=k, max_size=k)
))
def test_permanent_matches_the_sum_over_permutations(matrix):
    assert permanent(matrix) == _permanent_by_permutations(matrix)


def test_permanent_is_exact_beyond_float_precision():
    big = 2**80
    matrix = [[big + 3 * i - j if (i + j) % 4 else -big - i for j in range(5)] for i in range(5)]
    assert permanent(matrix) == _permanent_by_permutations(matrix)
    # all entries equal: per(cJ_k) = k! c^k, which a float would round
    assert permanent([[big + 1] * 5 for _ in range(5)]) == 120 * (big + 1) ** 5


# entry kinds the column-set program and Ryser's formula must agree on
_ENTRIES = [
    st.sampled_from([0, 0, 0, 1]),  # sparse 0/1
    st.sampled_from([0, 1, 1, 1]),  # dense 0/1
    st.integers(-2, 2),  # mixed signs: row sums and set weights cancel
    st.one_of(st.just(0), st.integers(2**64, 2**70), st.integers(-(2**70), -(2**64))),
]


@st.composite
def _square_matrices(draw):
    """A k x k matrix, k <= 12, of one entry kind, with some rows and
    columns then set to zero."""
    k = draw(st.integers(0, 12))
    entries = draw(st.sampled_from(_ENTRIES))
    matrix = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k))
    if k:
        index = st.integers(0, k - 1)
        for i in draw(st.sets(index, max_size=2)):
            matrix[i] = [0] * k
        for j in draw(st.sets(index, max_size=2)):
            for row in matrix:
                row[j] = 0
    return matrix


@settings(deadline=None)
@given(_square_matrices())
def test_permanent_equals_ryser(matrix):
    assert permanent(matrix) == permanent_by_ryser(matrix)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 14), st.integers(0, 4), st.integers(0, 2**31), st.data())
def test_permanent_of_an_omega_matrix_equals_ryser(k, extra, seed, data):
    family, _ = gen_planted_pm_family(k, min(extra, k - 1), seed)
    ends = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    matrix = omega_admissibility_matrix(family, [i + k * b for i, b in enumerate(ends)])
    assert permanent(matrix) == permanent_by_ryser(matrix)


def test_permanent_extends_only_sets_with_one_column_per_row():
    products = []

    class Entry(int):
        """An entry that records each product it is the right factor of."""

        def __rmul__(self, other):
            products.append(other)
            return other * int(self)

    # before row i every held set has i columns, so on the all-ones k x k
    # matrix row i extends C(k, i) sets by k - i columns: k * 2^(k-1) products
    k = 8
    assert permanent([[Entry(1)] * k for _ in range(k)]) == math.factorial(k)
    assert len(products) == k * 2 ** (k - 1)
    # two rows on one column leave no set after the second, and no later row is read
    products.clear()
    one = [Entry(1)] + [0] * (k - 1)
    assert permanent([one, one] + [[Entry(1)] * k for _ in range(k - 2)]) == 0
    assert len(products) == 1


@pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1], [2]]])
def test_permanent_rejects_a_ragged_or_non_square_matrix(matrix):
    with pytest.raises(ValueError, match="square"):
        permanent(matrix)
