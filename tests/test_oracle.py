import itertools
import math

import pytest
from hypothesis import given, strategies as st

from transversals import (
    BaseGraph,
    BudgetExceeded,
    KIND_HAM,
    KIND_PM,
    SearchBudget,
    SubgraphFamily,
    complete_graph,
    count_ham_transversals,
    count_pm_transversals,
    edge,
    enumerate_all_ham_transversals,
    enumerate_all_pm_transversals,
    exists_ham_transversal,
    gen_dirac_family,
    gen_planted_ham_family,
    gen_planted_pm_family,
    permanent,
    oracle,
    validate_transversal,
)

from conftest import make_ham_family


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


def test_max_results_stops_early():
    base = complete_graph(6)
    fam = SubgraphFamily(base, [base.edge_set] * 6, KIND_HAM)
    got = enumerate_all_ham_transversals(fam, SearchBudget(max_results=5))
    assert len(got) == 5
    assert len(set(got)) == 5


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


@pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1], [2]]])
def test_permanent_rejects_a_ragged_or_non_square_matrix(matrix):
    with pytest.raises(ValueError, match="square"):
        permanent(matrix)
