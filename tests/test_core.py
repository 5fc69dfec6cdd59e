import pytest
from hypothesis import given, strategies as st

from transversals import (
    BaseGraph,
    InvalidTransversal,
    KIND_HAM,
    KIND_PM,
    NotNaturallyIndexed,
    SubgraphFamily,
    Transversal,
    edge,
    gen_planted_pm_family,
    gen_regular_all_equal,
    lift,
    naturally_index,
    old_to_new,
    planted,
    validate_family,
    validate_transversal,
)
from transversals import core
from transversals.core import ValidationReport, Violation, canonical_tables, relabel, require_naturally_indexed

from conftest import complete_graph, cycle_graph, make_ham_family


def test_edge_orders_endpoints():
    assert edge(3, 1) == (1, 3)
    assert edge(1, 3) == (1, 3)
    assert edge(0, 0) == (0, 0)


@given(st.integers(0, 50), st.integers(0, 50))
def test_edge_symmetric(u, v):
    assert edge(u, v) == edge(v, u)
    assert edge(u, v)[0] <= edge(u, v)[1]


def test_base_graph_basics():
    g = cycle_graph(5)
    assert g.num_edges == 5
    assert g.degree(0) == 2
    assert g.has_edge(0, 4) and g.has_edge(4, 0)
    assert not g.has_edge(0, 2)
    assert sorted(g.neighbors(0)) == [1, 4]
    assert g.max_degree() == 2
    k = complete_graph(4)
    assert k.num_edges == 6
    assert k.max_degree() == 3


def test_base_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        BaseGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        BaseGraph(3, [(1, 1)])


def test_family_validation_catches_stray_subgraph_edge():
    base = cycle_graph(4)
    subs = [frozenset({edge(i, (i + 1) % 4)}) for i in range(4)]
    subs[2] = frozenset({edge(0, 2)})  # not a base edge
    fam = SubgraphFamily(base, subs, KIND_HAM)
    rep = validate_family(fam)
    assert not rep.ok
    assert any(v.code == "edge_not_in_base" for v in rep.violations)


def _validate_family_per_edge(family):
    """The per-edge scan validate_family used for every subgraph: the reference."""
    out = []
    n = family.num_vertices
    if family.kind == KIND_HAM:
        if family.num_colors != n:
            out.append(
                Violation("subgraph_count", f"need {n} subgraphs for {n} vertices, got {family.num_colors}")
            )
    else:
        if n % 2 != 0:
            out.append(Violation("odd_vertex_count", f"matching kind needs even |V|, got {n}"))
        elif family.num_colors != n // 2:
            out.append(
                Violation("subgraph_count", f"need {n // 2} subgraphs for {n} vertices, got {family.num_colors}")
            )
    for i, g in enumerate(family.subgraphs):
        for u, v in sorted(g):
            if u == v:
                out.append(Violation("loop_edge", f"subgraph {i} has loop at {u}"))
            elif not family.base.has_edge(u, v):
                out.append(Violation("edge_not_in_base", f"subgraph {i} edge ({u},{v}) missing from base"))
    return ValidationReport(tuple(out))


@given(st.integers(2, 9), st.sampled_from([KIND_HAM, KIND_PM]), st.data())
def test_validate_family_matches_the_per_edge_scan(n, kind, data):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    base = BaseGraph(n, [e for e in data.draw(st.lists(pairs), label="base") if e[0] != e[1]])
    # a few shared edge sets, some with loops or edges outside the base
    pool = data.draw(st.lists(st.frozensets(pairs, max_size=6), min_size=1, max_size=3), label="pool")
    count = data.draw(st.integers(0, n + 1), label="subgraphs")
    subs = [
        pool[data.draw(st.integers(0, len(pool) - 1))] if data.draw(st.booleans())
        else data.draw(st.frozensets(pairs, max_size=6))
        for _ in range(count)
    ]
    family = SubgraphFamily(base, subs, kind)
    assert validate_family(family) == _validate_family_per_edge(family)


def test_equal_subgraph_objects_stay_shared():
    shared = [(1, 0), (2, 1)]
    fam = SubgraphFamily(complete_graph(3), [shared, shared, [(0, 2)]], KIND_HAM)
    assert fam.subgraphs[0] is fam.subgraphs[1]
    assert fam.subgraphs[0] == frozenset({(0, 1), (1, 2)})
    assert fam.subgraphs[2] == frozenset({(0, 2)})
    fam, _ = gen_regular_all_equal(20, 4, 1)
    assert all(g is fam.subgraphs[0] for g in fam.subgraphs)


def test_family_kind_is_checked():
    base = cycle_graph(4)
    subs = [frozenset({edge(i, (i + 1) % 4)}) for i in range(4)]
    with pytest.raises(ValueError):
        SubgraphFamily(base, subs, "cycle")


def test_pm_family_needs_even_vertices_and_half_colors():
    base = BaseGraph(4, [(0, 2), (1, 3)])
    fam = SubgraphFamily(
        base, [frozenset({(0, 2)}), frozenset({(1, 3)})], KIND_PM
    )
    assert validate_family(fam).ok
    bad = SubgraphFamily(base, [frozenset({(0, 2)})], KIND_PM)
    assert not validate_family(bad).ok


def test_canonical_transversal_shapes():
    fam = make_ham_family(6, {})
    t = planted(fam.kind, fam.num_vertices)
    assert t.kind == KIND_HAM
    assert t.color_of(edge(2, 3)) == 2
    assert t.color_of(edge(5, 0)) == 5
    assert canonical_tables(t) == ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5))
    assert validate_transversal(fam, t).ok
    require_naturally_indexed(fam, t)


def test_transversal_validation_catches_color_misuse():
    fam = make_ham_family(5, {})
    items = {edge(i, (i + 1) % 5): i for i in range(5)}
    items[edge(4, 0)] = 0  # duplicate color, one missing
    t = Transversal.from_map(KIND_HAM, items)
    rep = validate_transversal(fam, t)
    assert not rep.ok
    assert any(v.code == "color_repeat" for v in rep.violations)


def test_transversal_validation_catches_wrong_subgraph():
    fam = make_ham_family(5, {})
    items = {edge(i, (i + 1) % 5): (i + 1) % 5 for i in range(5)}
    t = Transversal.from_map(KIND_HAM, items)
    rep = validate_transversal(fam, t)
    assert not rep.ok
    assert any(v.code == "edge_not_in_subgraph" for v in rep.violations)


def test_matching_transversal_shape_check():
    # 6 vertices, pairs (0,3),(1,4),(2,5)
    base = BaseGraph(6, [(0, 3), (1, 4), (2, 5), (0, 4)])
    subs = [frozenset({(0, 3)}), frozenset({(1, 4)}), frozenset({(2, 5)})]
    fam = SubgraphFamily(base, subs, KIND_PM)
    t = Transversal.from_map(KIND_PM, {(0, 3): 0, (1, 4): 1, (2, 5): 2})
    assert validate_transversal(fam, t).ok
    overlap = Transversal.from_map(KIND_PM, {(0, 3): 0, (0, 4): 1, (2, 5): 2})
    rep = validate_transversal(fam, overlap)
    assert not rep.ok


def test_kind_mapping():
    # one kind names a family and its transversals, and is the file tag
    assert (KIND_HAM, KIND_PM) == ("hamiltonian", "perfect_matching")
    fam = make_ham_family(6, {})
    t = planted(fam.kind, fam.num_vertices)
    assert t.kind == fam.kind == KIND_HAM
    rep = validate_transversal(fam, Transversal(KIND_PM, t.items))
    assert [v.code for v in rep.violations] == ["kind_mismatch"]


def test_require_naturally_indexed_raises():
    fam = make_ham_family(5, {})
    seq = [0, 2, 4, 1, 3]
    items = {edge(seq[i], seq[(i + 1) % 5]): i for i in range(5)}
    # relabel family so this is a valid but non-canonical transversal
    base = complete_graph(5)
    subs = [frozenset({e}) for e in (edge(seq[i], seq[(i + 1) % 5]) for i in range(5))]
    fam2 = SubgraphFamily(base, subs, KIND_HAM)
    t = Transversal.from_map(KIND_HAM, items)
    assert validate_transversal(fam2, t).ok
    with pytest.raises(NotNaturallyIndexed):
        require_naturally_indexed(fam2, t)
    fam3, tables = naturally_index(fam2, t)
    t3 = planted(fam3.kind, fam3.num_vertices)
    assert validate_transversal(fam3, t3).ok
    assert lift([t3], *tables) == [t]


def test_naturally_index_returns_canonical_input_itself(monkeypatch):
    # a planted t needs no canonical_tables: its tables are the identity
    monkeypatch.setattr(core, "canonical_tables", None)
    ham = make_ham_family(7, {2: [(2, 5)]})
    for fam, t in ((ham, planted(ham.kind, ham.num_vertices)), gen_planted_pm_family(5, 2, seed=1)):
        fam2, (vinv, cinv) = naturally_index(fam, t)
        assert fam2 is fam
        assert vinv == tuple(range(fam.num_vertices))
        assert cinv == tuple(range(fam.num_colors))
        assert lift([t], vinv, cinv)[0] is t


def test_naturally_index_validates_before_the_identity_path():
    # colors say canonical, but subgraph 2 lacks the cycle edge (2, 3)
    fam = make_ham_family(5, {})
    subs = list(fam.subgraphs)
    subs[2] = frozenset({edge(2, 4)})
    fam = SubgraphFamily(fam.base, subs, KIND_HAM)
    t = planted(fam.kind, fam.num_vertices)
    require_naturally_indexed(fam, t)
    with pytest.raises(InvalidTransversal, match="edge_not_in_subgraph"):
        naturally_index(fam, t)


@given(st.integers(5, 12), st.sampled_from([KIND_HAM, KIND_PM]), st.randoms(use_true_random=False))
def test_natural_indexing_round_trip(n, kind, rng):
    # lift takes the canonical transversal back to t, and the inverted
    # tables take the canonical family back to the input family
    seq = list(range(n if kind == KIND_HAM else 2 * n))
    rng.shuffle(seq)
    colors = list(range(n))
    rng.shuffle(colors)
    if kind == KIND_HAM:
        chosen = [edge(seq[k], seq[(k + 1) % n]) for k in range(n)]
    else:
        chosen = [edge(seq[2 * k], seq[2 * k + 1]) for k in range(n)]
    base = complete_graph(len(seq))
    subs = [frozenset() for _ in range(n)]
    items = {}
    for k, e in enumerate(chosen):
        subs[colors[k]] = frozenset({e})
        items[e] = colors[k]
    fam = SubgraphFamily(base, subs, kind)
    t = Transversal.from_map(kind, items)
    fam2, (vinv, cinv) = naturally_index(fam, t)
    t2 = planted(kind, len(seq))
    assert validate_transversal(fam2, t2).ok
    assert lift([t2], vinv, cinv) == [t]
    vnew = old_to_new(vinv, len(seq))
    assert [vinv[v] for v in vnew] == list(range(len(seq)))
    assert relabel(fam2, tuple(vnew), tuple(old_to_new(cinv, n))) == fam


def test_indexing_maps_edges_and_vertex_sets():
    # new-to-old table (1, 2, 0) sends old vertices 0, 1, 2 to 2, 0, 1
    vinv = (1, 2, 0)
    new = old_to_new(vinv, 3)
    assert new == [2, 0, 1]
    assert sorted(new[v] for v in (0, 2)) == [1, 2]
    fam = SubgraphFamily(complete_graph(3), [frozenset({(0, 1)}), frozenset({(1, 2)}), frozenset({(0, 2)})],
                         KIND_HAM)
    fam2 = relabel(fam, vinv, (0, 1, 2))
    assert fam2.subgraphs[0] == frozenset({(0, 2)})
    t = Transversal.from_map(KIND_HAM, {(0, 2): 0})
    assert lift([t], vinv, (0, 1, 2))[0].color_of(edge(0, 1)) == 0


def test_pm_natural_indexing_places_pairs():
    # pairs under planted matching: (0,1),(2,3) -> canonical (0,2),(1,3)
    base = BaseGraph(4, [(0, 1), (2, 3), (1, 2)])
    subs = [frozenset({(0, 1)}), frozenset({(2, 3), (1, 2)})]
    fam = SubgraphFamily(base, subs, KIND_PM)
    t = Transversal.from_map(KIND_PM, {(0, 1): 0, (2, 3): 1})
    fam2, tables = naturally_index(fam, t)
    assert tables == ((0, 2, 1, 3), (0, 1))
    assert validate_transversal(fam2, planted(KIND_PM, 4)).ok
    assert lift([planted(KIND_PM, 4)], *tables) == [t]
