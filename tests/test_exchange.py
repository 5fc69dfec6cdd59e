import random

import pytest

from transversals import (
    AlternatingCycle,
    InvalidTransversal,
    NoBlueEscape,
    NotLocallyDominating,
    NotMaximalRedIndependent,
    WalkStuck,
    arc_rows,
    edge,
    find_alternating_cycle,
    gen_planted_pm_family,
    gen_witness_instance_ham,
    lollipop_walk,
    omega_member_ham,
    omega_member_pm,
    planted,
    prune,
    second_transversal,
    support,
    support_depth,
    validate_transversal,
)
from transversals import exchange
from transversals.exchange import LollipopTrace, PrunedDigraph

from conftest import identity, make_ham_family, random_ham_set


def _ham_cycles_through(n, adj, anchor):
    """All hamiltonian cycles (as edge sets) containing the anchor edge."""
    res = []

    def rec(path, used):
        v = path[-1]
        if len(path) == n:
            if 0 in adj[v] and path[1] < path[-1]:
                es = frozenset(edge(path[i], path[(i + 1) % n]) for i in range(n))
                if anchor in es:
                    res.append(es)
            return
        for w in sorted(adj[v]):
            if w not in used:
                used.add(w)
                path.append(w)
                rec(path, used)
                path.pop()
                used.remove(w)

    rec([0], {0})
    return res


def test_figure_second_transversal_matches_hand_trace(figure_family):
    fam, t = figure_family
    t2 = second_transversal(fam, identity(fam), (0, 3), support(fam, (0, 3)))[0]
    assert t2.colors() == {
        (0, 1): 0,
        (1, 2): 1,
        (2, 3): 2,
        (3, 5): 5,
        (4, 5): 4,
        (0, 4): 3,
    }
    assert validate_transversal(fam, t2).ok
    assert omega_member_ham((0, 3), t2)


def test_prune_keeps_only_rotation_arcs(figure_family):
    fam, t = figure_family
    yellow, blue = arc_rows(fam)
    jp = prune(support(fam, (0, 3)), (0, 3), 6)
    assert isinstance(jp, PrunedDigraph)
    assert set(jp.members) == {0, 3}
    for m, (tail, head) in jp.yellow_pick:
        assert tail == (m - 1) % 6
        assert head in yellow[tail]
        assert head in {0, 3}
    for m, (tail, head) in jp.blue_pick:
        assert tail == (m + 1) % 6
        assert head in blue[tail]
        assert head in {0, 3}
    adj = jp.adj
    # every cycle edge survives
    for i in range(6):
        assert (i + 1) % 6 in adj[i]


def test_walk_finds_the_unique_other_anchored_cycle():
    # frozen instances whose pruned graph has exactly two anchored cycles
    for n, S, seed in [(8, (0, 4), 0), (9, (0, 3, 6), 0)]:
        fam, t = gen_witness_instance_ham(n, S, 1, seed=seed)
        jp = prune(support(fam, S), S, n)
        anchor = edge(min(S), min(S) + 1)
        thru = _ham_cycles_through(n, jp.adj, anchor)
        assert len(thru) == 2
        others = [c for c in thru if c != t.edge_set]
        assert len(others) == 1
        seq = lollipop_walk(jp, anchor).final
        cyc_edges = frozenset(
            edge(seq[i], seq[(i + 1) % n]) for i in range(n)
        )
        assert cyc_edges == others[0]


def test_anchored_cycle_count_is_even():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(7, 11)
        S = random_ham_set(rng, n, rng.random() < 0.4)
        fam, t = gen_witness_instance_ham(n, S, 1, seed=rng.randrange(10**6))
        jp = prune(support(fam, S), S, n)
        anchor = edge(min(S), min(S) + 1)
        thru = _ham_cycles_through(n, jp.adj, anchor)
        assert len(thru) % 2 == 0 and len(thru) >= 2


def test_walk_trace_shape(figure_family):
    fam, t = figure_family
    jp = prune(support(fam, (0, 3)), (0, 3), 6)
    trace = lollipop_walk(jp, edge(0, 1))
    assert len(trace.states) >= 2
    assert trace.states[0] != trace.states[-1]
    assert len(trace.pivots) == len(trace.states) - 1


def test_prune_rejects_undominated_set():
    fam = make_ham_family(8, {})
    t = planted(fam.kind, fam.num_vertices)
    with pytest.raises(NotLocallyDominating):
        prune(support(fam, (0, 4)), (0, 4), 8)


def test_second_ham_differs_only_in_allowed_places():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(7, 12)
        S = random_ham_set(rng, n, rng.random() < 0.5)
        fam, t = gen_witness_instance_ham(n, S, 1, seed=rng.randrange(10**6))
        t2 = second_transversal(fam, identity(fam), S, support(fam, S))[0]
        assert validate_transversal(fam, t2).ok
        assert t2 != t
        assert omega_member_ham(S, t2)
        # colors of surviving base edges are untouched
        base_colors = t.colors()
        for e, c in t2.items:
            if e in base_colors:
                assert base_colors[e] == c


def test_find_alternating_cycle_alternates():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(2, 12)
        extra = 1 if n <= 3 else rng.randrange(1, min(4, n - 1))
        fam, t = gen_planted_pm_family(n, extra, seed=rng.randrange(10**6))
        S = tuple(range(n))
        cyc = find_alternating_cycle(support(fam, S), n)
        assert cyc.length() >= 2 and cyc.length() % 2 == 0
        assert len(cyc.arcs) == len(cyc.pairs)
        # arcs leave members of the listed pairs and land outside S
        sset = set(S)
        for (tail, head), p in zip(cyc.arcs, cyc.pairs):
            assert tail % n == p
            assert tail in sset and head not in sset


def test_second_pm_transversal_swaps_cycle():
    fam, t = gen_planted_pm_family(6, 2, seed=23)
    S = tuple(range(6))
    t2 = second_transversal(fam, identity(fam), S, support(fam, S))[0]
    assert validate_transversal(fam, t2).ok
    assert t2 != t
    assert omega_member_pm(S, t2)
    # every member still covered, pair colors preserved on moved edges
    for e, c in t2.items:
        u, v = e
        assert u % 6 == c or v % 6 == c


def test_no_blue_escape_raises():
    # hunt a side choice whose minimum escape count is zero
    stranded = None
    for seed in range(10):
        fam, t = gen_planted_pm_family(2, 1, seed=seed)
        for S in [(0, 1), (0, 3), (1, 2), (2, 3)]:
            if support_depth(support(fam, S)) == 0:
                stranded = (fam, S)
                break
        if stranded:
            break
    assert stranded is not None, "expected some stranded side choice at n = 2"
    fam, S = stranded
    with pytest.raises(NoBlueEscape):
        find_alternating_cycle(support(fam, S), 2)


def test_ham_exchange_refuses_to_return_its_base(monkeypatch):
    # a walk that recolors back to the base is stuck, not a second cycle
    fam, t = gen_witness_instance_ham(11, (0, 4, 8), 2, seed=2)
    heads = support(fam, (0, 4, 8))
    assert second_transversal(fam, identity(fam), (0, 4, 8), heads)[0] != t
    # a walk that ends where it started: the opened base cycle
    monkeypatch.setattr(exchange, "lollipop_walk", lambda jp, anchor: LollipopTrace((tuple(range(11)),), ()))
    with pytest.raises(WalkStuck, match="returned the base"):
        second_transversal(fam, identity(fam), (0, 4, 8), heads)[0]


def test_pm_exchange_refuses_to_return_its_base(monkeypatch):
    # swapping an empty alternating cycle leaves the base as it was
    fam, t = gen_planted_pm_family(6, 2, seed=23)
    heads = support(fam, range(6))
    assert second_transversal(fam, identity(fam), tuple(range(6)), heads)[0] != t
    monkeypatch.setattr(exchange, "find_alternating_cycle", lambda escapes, n: AlternatingCycle((), ()))
    with pytest.raises(WalkStuck, match="returned the base"):
        second_transversal(fam, identity(fam), tuple(range(6)), heads)[0]


def test_the_exchange_reads_only_the_first_head_of_each_list():
    # the witness loop passes its pending lists, which only share their
    # first head with the support; cutting every list to its first k heads
    # changes nothing
    rng = random.Random(41)
    for _ in range(12):
        n = rng.randrange(9, 14)
        S = random_ham_set(rng, n, True)
        fam, t = gen_witness_instance_ham(n, S, rng.randrange(1, len(S)), seed=rng.randrange(10**6))
        heads = support(fam, S)
        second = second_transversal(fam, identity(fam), S, heads)[0]
        for k in range(1, max(map(len, heads.values())) + 1):
            assert second_transversal(fam, identity(fam), S, {v: hs[:k] for v, hs in heads.items()})[0] == second
    tried = 0
    for _ in range(30):
        n = rng.randrange(3, 9)
        fam, t = gen_planted_pm_family(n, rng.randrange(1, n), seed=rng.randrange(10**6))
        S = tuple(i + n * rng.randrange(2) for i in range(n))
        heads = support(fam, S)
        if not all(heads.values()):
            continue
        tried += max(map(len, heads.values())) > 1
        second = second_transversal(fam, identity(fam), S, heads)[0]
        for k in range(1, max(map(len, heads.values())) + 1):
            assert second_transversal(fam, identity(fam), S, {v: hs[:k] for v, hs in heads.items()})[0] == second
    assert tried >= 5


def test_a_heads_map_support_could_not_make_is_a_precondition_error():
    # a missing tail, a first head outside the set, or one that is its
    # tail's cycle neighbor, so no arc, leaves a member undominated; a
    # matching map needs exactly one endpoint of every pair
    fam, t = gen_witness_instance_ham(9, (0, 3, 6), 1, seed=5)
    heads = support(fam, (0, 3, 6))
    for tail in heads:
        with pytest.raises(NotLocallyDominating, match="lacks in-set support"):
            second_transversal(fam, identity(fam), (0, 3, 6), {v: hs for v, hs in heads.items() if v != tail})[0]
        for head in (4, 20, -1):
            with pytest.raises(NotLocallyDominating, match="not all in the set"):
                second_transversal(fam, identity(fam), (0, 3, 6), {**heads, tail: (head, *heads[tail])})[0]
    for tail, head in ((8, 0), (7, 6)):
        with pytest.raises(NotLocallyDominating, match=f"arc {tail}->{head} targets its tail or a cycle neighbor"):
            second_transversal(fam, identity(fam), (0, 3, 6), {**heads, tail: (head,)})
    fam, t = gen_planted_pm_family(4, 2, seed=3)
    heads = support(fam, range(4))
    for bad in ({v: heads[v] for v in range(3)}, {**heads, 4: heads[0]}, {**heads, 5: ()}):
        with pytest.raises(NotMaximalRedIndependent, match="one endpoint per pair"):
            second_transversal(fam, identity(fam), range(4), bad)[0]
    # a well-formed map whose keys are not the members given
    assert second_transversal(fam, identity(fam), range(4), heads)[0] != t
    for members in (range(3), (0, 1, 2, 7), range(5)):
        with pytest.raises(NotMaximalRedIndependent, match="keys of the heads map"):
            second_transversal(fam, identity(fam), members, heads)[0]


def test_the_exchange_validates_its_result_in_the_callers_labels():
    # a first head in the set that is no arc of the support: the walk or
    # the swap runs, and the one validation of the result refuses it
    fam, t = gen_witness_instance_ham(9, (0, 3, 6), 1, seed=5)
    heads = support(fam, (0, 3, 6))
    with pytest.raises(InvalidTransversal, match=r"invalid transversal: edge_not_in_base: edge \(3, 8\) missing"):
        second_transversal(fam, identity(fam), (0, 3, 6), {**heads, 8: (3,)})
    fam, t = gen_planted_pm_family(4, 2, seed=3)
    heads = support(fam, range(4))
    with pytest.raises(InvalidTransversal, match=r"invalid transversal: edge_not_in_subgraph: edge \(0, 6\)"):
        second_transversal(fam, identity(fam), range(4), {**heads, 0: (6,)})
    # members equal to the keys, but 0 and 4 are one pair's two endpoints
    bad = {0: heads[0], 1: heads[1], 2: heads[2], 4: heads[3]}
    with pytest.raises(NotMaximalRedIndependent, match="^need exactly one endpoint per pair$"):
        second_transversal(fam, identity(fam), (0, 1, 2, 4), bad)
