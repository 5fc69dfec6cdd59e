import random

import pytest
from hypothesis import given, strategies as st

from transversals import (
    BaseGraph,
    KIND_HAM,
    KIND_PM,
    NotMaximalRedIndependent,
    NotRedIndependent,
    SubgraphFamily,
    arc_rows,
    edge,
    enumerate_all_pm_transversals,
    enumerate_omega_pm,
    gen_bipartite_pm_family,
    gen_planted_ham_family,
    gen_planted_pm_family,
    gen_witness_instance_ham,
    omega_member_ham,
    omega_member_pm,
    prune,
    second_transversal,
    support,
    support_depth,
)

from transversals.core import canonical_tables

from conftest import BAD_CYCLE_EDGES, digraph_support, identity, make_ham_family, with_edge


def test_figure_arcs(figure_family):
    fam, t = figure_family
    yellow, blue = arc_rows(fam)
    assert {v: row for v, row in enumerate(yellow) if row} == {2: (0,), 5: (3,)}
    assert {v: row for v, row in enumerate(blue) if row} == {1: (3,), 4: (0,)}


def test_yellow_arc_excludes_cycle_neighbors():
    # chord (1, 3) in G_1 gives yellow 1 -> 3; the cycle edges of G_1 and
    # G_0, (1, 2) and (0, 1), give no arc
    fam = make_ham_family(7, {1: [(1, 3)]})
    yellow, blue = arc_rows(fam)
    assert yellow[1] == (3,)
    # blue 0 reads G_6 = {(6, 0)} across the wrap
    assert not yellow[0] and not blue[0] and not blue[1] and not blue[2]


def test_blue_arc_comes_from_previous_subgraph():
    # chord (2, 5) placed in G_1 means blue arc 2 -> 5
    fam = make_ham_family(7, {1: [(2, 5)]})
    yellow, blue = arc_rows(fam)
    assert 5 in blue[2]
    assert not yellow[2]


def _arcs_by_definition(fam):
    """Yellow i->j iff edge(i,j) in G_i, blue i->j iff edge(i,j) in G_{i-1},
    with j off the cycle neighbours of i; checked over all pairs."""
    n = fam.num_vertices
    G = fam.subgraphs

    def heads(i, g):
        return tuple(
            j for j in range(n) if j not in (i, (i - 1) % n, (i + 1) % n) and edge(i, j) in g
        )

    yellow = tuple(heads(i, G[i]) for i in range(n))
    blue = tuple(heads(i, G[(i - 1) % n]) for i in range(n))
    return yellow, blue


def _support_by_definition(fam, members):
    """The counted heads read off the subgraphs, with no digraph.

    Cycle kind: tail m-1 counts h in S with edge(m-1, h) in G_{m-1}, tail
    m+1 counts h in S with edge(m+1, h) in G_m, h off the tail's cycle
    neighbours. Matching kind: member v counts every opposite-side h
    outside S and off v's own pair, joined to v in G_{v mod n}.
    """
    S = set(members)
    N = fam.num_vertices
    G = fam.subgraphs
    if fam.kind == KIND_HAM:
        out = {}
        for m in sorted(S):
            for tail, color in (((m - 1) % N, (m - 1) % N), ((m + 1) % N, m)):
                near = {tail, (tail - 1) % N, (tail + 1) % N}
                out[tail] = tuple(h for h in sorted(S - near) if edge(tail, h) in G[color])
        return out
    n = fam.num_pairs
    return {
        v: tuple(
            h for h in range(N)
            if h not in S and h % n != v % n and (h < n) != (v < n) and edge(v, h) in G[v % n]
        )
        for v in sorted(S)
    }


@given(st.integers(3, 14), st.data())
def test_cycle_rows_match_arc_definition_on_planted_families(n, data):
    k = data.draw(st.integers(0, n - 3), label="extra_degree")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    fam, t = gen_planted_ham_family(n, k, seed)
    rows = arc_rows(fam)
    assert rows == _arcs_by_definition(fam)
    # random chords, so arcs also land outside the set
    size = data.draw(st.integers(1, n // 3), label="set size")
    shift = data.draw(st.integers(0, n - 1), label="shift")
    members = [(shift + i * (n // size)) % n for i in range(size)]
    assert support(fam, members) == digraph_support(rows, members) == _support_by_definition(fam, members)


@given(st.integers(9, 40), st.data())
def test_cycle_rows_match_arc_definition_on_witness_instances(n, data):
    size = data.draw(st.integers(2, n // 3), label="set size")
    members = [i * (n // size) for i in range(size)]  # gaps of at least 3
    d = data.draw(st.integers(1, size - 1), label="d")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    fam, t = gen_witness_instance_ham(n, members, d, seed)
    rows = arc_rows(fam)
    assert rows == _arcs_by_definition(fam)
    assert support(fam, members) == digraph_support(rows, members) == _support_by_definition(fam, members)
    assert support_depth(support(fam, members)) == d


def test_cycle_rows_read_both_endpoints_of_one_subgraph():
    # G_2 has a chord at 2 and one at 3; G_7 wraps: a chord at 7 and one at 0
    fam = make_ham_family(8, {2: [(2, 5), (3, 6)], 7: [(3, 7), (0, 4)]})
    yellow, blue = arc_rows(fam)
    assert {i: r for i, r in enumerate(yellow) if r} == {2: (5,), 7: (3,)}
    assert {i: r for i, r in enumerate(blue) if r} == {3: (6,), 0: (4,)}


def test_arc_rows_rejects_a_loop_or_an_edge_past_the_vertex_range():
    # a loop edge is a self-arc, and an edge to a vertex past n-1 or
    # below 0 is an arc to no vertex; each is rejected in the one scan
    fam = make_ham_family(8, {2: [(2, 5)]})
    for bad, message in BAD_CYCLE_EDGES.items():
        with pytest.raises(ValueError, match=message):
            arc_rows(with_edge(fam, 2, bad))
    # an in-range edge missing from the base is still read: validate_family reports it
    assert arc_rows(with_edge(fam, 2, (2, 6)))[0][2] == (5, 6)


def _random_family(data, kind, n):
    """n colors over 2n vertices (n for a cycle), each subgraph a random
    set of edges, same-side ones included, some of them shared objects."""
    size = n if kind == KIND_HAM else 2 * n
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    subs = []
    for c in range(n):
        if subs and data.draw(st.booleans(), label=f"share {c}"):
            subs.append(subs[data.draw(st.integers(0, c - 1), label=f"shared {c}")])
        else:
            subs.append(frozenset(data.draw(st.sets(st.sampled_from(pairs)), label=f"G_{c}")))
    base = set().union(*subs) if data.draw(st.booleans(), label="base holds them") else pairs
    return SubgraphFamily(BaseGraph(size, base), subs, kind)


@given(st.data())
def test_arc_rows_state_the_row_rule_of_the_definition_and_of_support(data):
    # a cycle's rows are the arc definition's; a matching's are support's
    # rows of either whole side, merged: one statement of each row rule
    source = data.draw(st.sampled_from(["cycle", "planted", "bipartite", "random"]), label="source")
    if source == "cycle":
        fam = _random_family(data, KIND_HAM, data.draw(st.integers(3, 9), label="n"))
        assert arc_rows(fam) == _arcs_by_definition(fam)
        return
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    if source == "planted":
        n = data.draw(st.integers(1, 9), label="n")
        fam, _ = gen_planted_pm_family(n, data.draw(st.integers(0, n - 1), label="extra_degree"), seed)
    elif source == "bipartite":
        n = data.draw(st.integers(3, 9), label="n")
        fam, _ = gen_bipartite_pm_family(n, data.draw(st.integers(1, n - 2), label="r"), seed)
    else:
        n = data.draw(st.integers(1, 6), label="n")
        fam = _random_family(data, KIND_PM, n)
    (blue,) = arc_rows(fam)
    assert dict(enumerate(blue)) == {**support(fam, range(n)), **support(fam, range(n, 2 * n))}


def test_red_independence_circular_distance():
    # support raises on two members at cycle distance 1 or 2
    fam = make_ham_family(8, {})
    support(fam, (0, 3))
    support(fam, (0, 4))
    for red in ((0, 1), (0, 2), (0, 6)):  # (0, 6): distance 2 around the wrap
        with pytest.raises(NotRedIndependent):
            support(fam, red)
    support(make_ham_family(9, {}), (0, 3, 6))


def test_d_star_counts_min_inset_support(figure_family):
    fam, t = figure_family
    assert support_depth(support(fam, (0, 3))) == 1
    # member 0 needs yellow from 5 into S and blue from 1 into S
    assert support_depth(support(fam, (0,))) == 0


def test_d_star_on_witness_instance_matches_request():
    for d in (1, 2):
        fam, t = gen_witness_instance_ham(9, (0, 3, 6), d, seed=5)
        heads = support(fam, (0, 3, 6))
        assert support_depth(heads) == d
        prune(heads, (0, 3, 6), 9)  # locally dominating: the exchange can start


def _with_edges_past_the_range():
    """gen_planted_pm_family(3, 1, seed=1), and the same with edges (0, 7)
    and (-1, 0) added to subgraph 0: past either end of its 6 vertices,
    which validate_family reports as edge_not_in_base."""
    fam, t = gen_planted_pm_family(3, 1, seed=1)
    return fam, t, with_edge(with_edge(fam, 0, (0, 7)), 0, (-1, 0))


def test_matching_rows_reject_an_edge_past_the_vertex_range():
    # as a cycle's do; without the scan, blue[0] would be (4, 7)
    fam, _, bad = _with_edges_past_the_range()
    with pytest.raises(ValueError, match=r"subgraph 0 edge \(-1,0\) leaves the vertex range 0\.\.5"):
        arc_rows(bad)
    for e in ((0, 7), (0, 6), (-1, 0)):
        with pytest.raises(ValueError, match="leaves the vertex range"):
            arc_rows(with_edge(fam, 0, e))
    with pytest.raises(ValueError, match="subgraph 1 has a loop at 4"):
        arc_rows(with_edge(fam, 1, (4, 4)))
    assert arc_rows(fam)[0][0] == (4,)


def test_matching_support_reads_no_head_past_the_vertex_range():
    # member 0 scans subgraph 0, where 7 and -1 map to no vertex, in the
    # family's labels or through a child's tables
    fam, t, bad = _with_edges_past_the_range()
    assert support(bad, (0, 1, 2)) == support(fam, (0, 1, 2)) == {0: (4,), 1: (5,), 2: (4,)}
    tables = canonical_tables(t, (2, 5))
    assert support(bad, (0, 1), tables) == support(fam, (0, 1), tables)


def test_support_rejects_a_member_outside_the_vertex_range():
    # a member past either end is no vertex: unchecked, a cycle read heads
    # at -3, and a matching's -1 passed as the end of pair 3
    fam, _ = gen_planted_ham_family(10, 2, 1)
    for members in ((-3,), (10,), (0, 3, 6, -3)):
        with pytest.raises(ValueError, match=r"leaves the vertex range 0\.\.9"):
            support(fam, members)
    pm, t = gen_planted_pm_family(4, 1, seed=0)
    for members in ((0, 1, 2, -1), (0, 1, 2, 11)):
        with pytest.raises(ValueError, match=r"leaves the vertex range 0\.\.7"):
            support(pm, members)
    # through a child's tables the range is the child's: 3 pairs, 6 vertices
    with pytest.raises(ValueError, match=r"set \[0, 1, 6\] leaves the vertex range 0\.\.5"):
        support(pm, (0, 1, 6), canonical_tables(t, (3, 7)))


def test_matching_arcs_cross_pair_boundary():
    fam, t = gen_planted_pm_family(5, 2, seed=1)
    (blue,) = arc_rows(fam)
    for tail in range(10):
        for head in blue[tail]:
            assert head % 5 != tail % 5 and (head < 5) != (tail < 5)


def test_pm_red_independence_one_per_pair():
    # support needs exactly one endpoint of every pair
    fam, _ = gen_planted_pm_family(3, 0, seed=0)
    support(fam, (0, 1, 2))
    support(fam, (0, 4, 2))
    for bad in ((0, 3, 1), (0, 4)):  # 0 and 3 share pair 0; pair 2 is missing
        with pytest.raises(NotMaximalRedIndependent):
            support(fam, bad)


def test_d_cross_counts_escapes():
    fam, t = gen_planted_pm_family(6, 2, seed=3)
    (blue,) = arc_rows(fam)
    S = tuple(range(6))
    assert support_depth(support(fam, S)) == 2  # every x-side vertex got exactly 2 cross edges
    got = min(len([w for w in blue[v] if w not in set(S)]) for v in S)
    assert got == 2


def test_support_lists_the_counted_heads(figure_family):
    fam, t = figure_family
    # member 0: yellow 5 -> 3 and blue 1 -> 3; member 3: yellow 2 -> 0 and blue 4 -> 0
    heads = support(fam, (3, 0))
    assert list(heads.items()) == [(5, (3,)), (1, (3,)), (2, (0,)), (4, (0,))]
    assert support_depth(support(fam, (0, 3))) == min(map(len, heads.values())) == 1
    with pytest.raises(ValueError, match="empty set"):
        support(fam, ())
    with pytest.raises(NotRedIndependent, match=r"set \[0, 1\] has a red-adjacent pair"):
        support(fam, (1, 0))

    fam2, t2 = gen_planted_pm_family(4, 1, seed=0)
    (blue2,) = arc_rows(fam2)
    # the x side is one endpoint per pair, and every blue arc leaves it
    assert support(fam2, range(4)) == {v: blue2[v] for v in range(4)}
    assert support_depth(support(fam2, tuple(range(4)))) == min(len(blue2[v]) for v in range(4))
    with pytest.raises(NotMaximalRedIndependent, match="need exactly one endpoint per pair"):
        support(fam2, (0, 4, 1, 2))


@given(st.integers(2, 12), st.data())
def test_support_matches_the_family_on_planted_matchings(n, data):
    k = data.draw(st.integers(0, n - 1), label="extra_degree")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    sides = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="sides")
    members = [i + n * y for i, y in enumerate(sides)]
    fam, t = gen_planted_pm_family(n, k, seed)
    heads = support(fam, members)
    assert heads == digraph_support(arc_rows(fam), members) == _support_by_definition(fam, members)
    assert list(heads) == sorted(members)


def test_omega_member_ham_accepts_and_rejects(figure_family):
    fam, t = figure_family
    t2 = second_transversal(fam, identity(fam), (0, 3), support(fam, (0, 3)))[0]
    assert omega_member_ham((0, 3), t2)
    assert omega_member_ham((0, 3), t)


def test_omega_member_ham_agrees_with_enumeration():
    from transversals import enumerate_all_ham_transversals, enumerate_omega_ham
    from transversals import gen_planted_ham_family

    for seed in (0, 1, 2):
        fam, t = gen_planted_ham_family(8, 3, seed=seed)
        S = (0, 4)
        omega = set(enumerate_omega_ham(fam, t, S))
        everything = enumerate_all_ham_transversals(fam)
        assert omega <= set(everything)
        flags = [omega_member_ham(S, x) for x in everything]
        assert [x in omega for x in everything] == flags
        assert any(flags) and not all(flags)


def test_omega_member_pm_agrees_with_enumeration():
    # the predicate states the planted colors itself: on every valid
    # transversal it says what enumerating omega around the planted
    # matching says, whichever endpoint of each pair is in the set
    rng = random.Random(29)
    split = 0
    for seed in range(6):
        n = 3 + seed % 3
        fam, t = gen_planted_pm_family(n, 2, seed=seed)
        everything = enumerate_all_pm_transversals(fam)
        for _ in range(4):
            S = tuple(sorted(i + n * rng.randrange(2) for i in range(n)))
            omega = set(enumerate_omega_pm(fam, t, S))
            assert omega <= set(everything)
            flags = [omega_member_pm(S, x) for x in everything]
            assert [x in omega for x in everything] == flags
            split += any(flags) and not all(flags)
    assert split >= 10


def test_omega_member_pm_checks_color_and_boundary():
    fam, t = gen_planted_pm_family(5, 2, seed=7)
    S = tuple(range(5))
    t2 = second_transversal(fam, identity(fam), S, support(fam, S))[0]
    assert omega_member_pm(S, t2)
    assert omega_member_pm(S, t)
