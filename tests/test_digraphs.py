import random

import pytest
from hypothesis import given, strategies as st

from transversals import (
    KIND_HAM,
    KIND_PM,
    RbDigraph,
    RybDigraph,
    NotMaximalRedIndependent,
    NotRedIndependent,
    SubgraphFamily,
    build_full_rb,
    build_full_ryb,
    edge,
    enumerate_all_pm_transversals,
    enumerate_omega_pm,
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

from conftest import digraph_support, identity, make_ham_family


def _rows(n, arcs=()):
    """One tuple of heads per tail 0..n-1, from (tail, head) arcs."""
    rows = [() for _ in range(n)]
    for t, h in arcs:
        rows[t] += (h,)
    return tuple(rows)


def test_figure_arcs(figure_family):
    fam, t = figure_family
    H = build_full_ryb(fam)
    assert {v: sorted(H.yellow[v]) for v in range(6) if H.yellow[v]} == {
        2: [0],
        5: [3],
    }
    assert {v: sorted(H.blue[v]) for v in range(6) if H.blue[v]} == {
        1: [3],
        4: [0],
    }


def test_yellow_arc_excludes_cycle_neighbors():
    # chord (1, 3) in G_1 gives yellow 1 -> 3; chord (1, 2) could not
    fam = make_ham_family(7, {1: [(1, 3)]})
    H = build_full_ryb(fam)
    assert 3 in H.yellow[1]
    with pytest.raises(ValueError):
        RybDigraph(7, _rows(7, [(1, 2)]), _rows(7))
    with pytest.raises(ValueError):
        RybDigraph(7, _rows(7, [(1, 1)]), _rows(7))
    with pytest.raises(ValueError):
        RybDigraph(7, _rows(7), _rows(7, [(0, 6)]))


def test_blue_arc_comes_from_previous_subgraph():
    # chord (2, 5) placed in G_1 means blue arc 2 -> 5
    fam = make_ham_family(7, {1: [(2, 5)]})
    H = build_full_ryb(fam)
    assert 5 in H.blue[2]
    assert not H.yellow[2]


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
def test_ryb_build_matches_arc_definition_on_planted_families(n, data):
    k = data.draw(st.integers(0, n - 3), label="extra_degree")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    fam, t = gen_planted_ham_family(n, k, seed)
    H = build_full_ryb(fam)
    assert (H.yellow, H.blue) == _arcs_by_definition(fam)
    # random chords, so arcs also land outside the set
    size = data.draw(st.integers(1, n // 3), label="set size")
    shift = data.draw(st.integers(0, n - 1), label="shift")
    members = [(shift + i * (n // size)) % n for i in range(size)]
    assert support(fam, members) == digraph_support(H, members) == _support_by_definition(fam, members)


@given(st.integers(9, 40), st.data())
def test_ryb_build_matches_arc_definition_on_witness_instances(n, data):
    size = data.draw(st.integers(2, n // 3), label="set size")
    members = [i * (n // size) for i in range(size)]  # gaps of at least 3
    d = data.draw(st.integers(1, size - 1), label="d")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    fam, t = gen_witness_instance_ham(n, members, d, seed)
    H = build_full_ryb(fam)
    assert (H.yellow, H.blue) == _arcs_by_definition(fam)
    assert support(fam, members) == digraph_support(H, members) == _support_by_definition(fam, members)
    assert support_depth(support(fam, members)) == d


def test_ryb_build_reads_both_endpoints_of_one_subgraph():
    # G_2 has a chord at 2 and one at 3; G_7 wraps: a chord at 7 and one at 0
    fam = make_ham_family(8, {2: [(2, 5), (3, 6)], 7: [(3, 7), (0, 4)]})
    H = build_full_ryb(fam)
    assert {i: r for i, r in enumerate(H.yellow) if r} == {2: (5,), 7: (3,)}
    assert {i: r for i, r in enumerate(H.blue) if r} == {3: (6,), 0: (4,)}
    # a loop edge is a self-arc, and an edge to a vertex past n-1 or
    # below 0 is an arc to no vertex; each is rejected
    for bad in ((2, 2), (2, 9), (-1, 3)):
        subs = list(fam.subgraphs)
        subs[2] = subs[2] | {bad}
        with pytest.raises(ValueError):
            build_full_ryb(SubgraphFamily(fam.base, subs, KIND_HAM))


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


def test_rb_pair_index():
    H = RbDigraph(4, _rows(8))
    assert H.pair_index(2) == 2 and H.pair_index(6) == 2


def _with_edges_past_the_range():
    """gen_planted_pm_family(3, 1, seed=1), and the same with edges (0, 7)
    and (-1, 0) added to subgraph 0: past either end of its 6 vertices,
    which validate_family reports as edge_not_in_base."""
    fam, t = gen_planted_pm_family(3, 1, seed=1)
    subs = list(fam.subgraphs)
    subs[0] = subs[0] | {(0, 7), (-1, 0)}
    return fam, t, SubgraphFamily(fam.base, subs, KIND_PM)


def test_rb_rejects_a_head_past_the_vertex_range():
    # as RybDigraph does; before the check, blue[0] was (4, 7)
    fam, _, bad = _with_edges_past_the_range()
    with pytest.raises(ValueError, match=r"arc 0->7 leaves the vertex range 0\.\.5"):
        build_full_rb(bad)
    for head in (7, 6, -1):
        with pytest.raises(ValueError, match="leaves the vertex range"):
            RbDigraph(3, _rows(6, [(0, head)]))
    assert build_full_rb(fam).blue[0] == (4,)


def test_matching_support_reads_no_head_past_the_vertex_range():
    # member 0 scans subgraph 0, where 7 and -1 map to no vertex, in the
    # family's labels or through a child's tables
    fam, t, bad = _with_edges_past_the_range()
    assert support(bad, (0, 1, 2)) == support(fam, (0, 1, 2)) == {0: (4,), 1: (5,), 2: (4,)}
    tables = canonical_tables(t, (2, 5))
    assert support(bad, (0, 1), tables) == support(fam, (0, 1), tables)


def test_rb_arcs_cross_pair_boundary():
    fam, t = gen_planted_pm_family(5, 2, seed=1)
    H = build_full_rb(fam)
    for tail in range(10):
        for head in H.blue[tail]:
            assert H.pair_index(head) != H.pair_index(tail)


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
    H = build_full_rb(fam)
    S = tuple(range(6))
    assert support_depth(support(fam, S)) == 2  # every x-side vertex got exactly 2 cross edges
    got = min(len([w for w in H.blue[v] if w not in set(S)]) for v in S)
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
    H2 = build_full_rb(fam2)
    # the x side is one endpoint per pair, and every blue arc leaves it
    assert support(fam2, range(4)) == {v: H2.blue[v] for v in range(4)}
    assert support_depth(support(fam2, tuple(range(4)))) == min(len(H2.blue[v]) for v in range(4))
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
    assert heads == digraph_support(build_full_rb(fam), members) == _support_by_definition(fam, members)
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
