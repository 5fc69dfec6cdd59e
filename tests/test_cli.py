import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import transversals
from transversals import (
    AlternatingCycle,
    BaseGraph,
    BudgetExceeded,
    GuaranteeViolated,
    KIND_HAM,
    KIND_PM,
    LollipopTrace,
    NotRedIndependent,
    SubgraphFamily,
    Transversal,
    cli,
    edge,
    enumerate_all_ham_transversals,
    enumerate_all_pm_transversals,
    omega_member_ham,
    omega_member_pm,
    planted,
    sampler,
)
from transversals import core, digraphs, exchange, multiplier
from transversals.cli import main
from transversals.sampler import ScanReport


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else None


def gen_witness_file(tmp_path, capsys, name="w.json"):
    path = str(tmp_path / name)
    code, rep = run_cli(
        capsys,
        "gen", "--model", "witness", "--n", "9", "--set", "0,3,6",
        "--d", "2", "--seed", "11", "--out", path,
    )
    assert code == 0
    return path


def test_gen_writes_parseable_instance(tmp_path, capsys):
    path = gen_witness_file(tmp_path, capsys)
    with open(path) as fh:
        obj = json.load(fh)
    assert obj["kind"] == "hamiltonian"
    assert obj["num_vertices"] == 9
    assert len(obj["subgraphs"]) == 9
    assert len(obj["planted"]["edges"]) == 9
    assert obj["metadata"]["model"] == "witness"


def test_second_reports_valid_distinct_member(tmp_path, capsys):
    path = gen_witness_file(tmp_path, capsys)
    code, rep = run_cli(capsys, "second", "--in", path, "--set", "0,3,6")
    assert code == 0
    res = rep["results"]
    assert res["valid"] and res["distinct"] and res["omega_member"]
    assert res["metric"] == "d_star" and res["value"] == 2
    assert res["provenance"]["trace_states"] >= 2


def test_count_exact(tmp_path, capsys):
    path = gen_witness_file(tmp_path, capsys)
    code, rep = run_cli(capsys, "count", "--in", path)
    assert code == 0
    assert rep["results"] == {"count": 48, "status": "exact"}


def test_multiply_reaches_required(tmp_path, capsys):
    path = gen_witness_file(tmp_path, capsys)
    code, rep = run_cli(capsys, "multiply", "--in", path, "--set", "0,3,6")
    assert code == 0
    res = rep["results"]
    assert res["d"] == 2 and res["required"] == 6
    assert res["count"] >= 6
    assert res["oracle"]["outputs_in_omega"]
    assert res["oracle"]["omega_at_least_required"]


def test_sample_set_and_debug_log(tmp_path, capsys):
    path = str(tmp_path / "reg.json")
    code, _ = run_cli(
        capsys,
        "gen", "--model", "regular-all-equal", "--n", "200", "--m", "30",
        "--seed", "3", "--out", path,
    )
    assert code == 0
    log = str(tmp_path / "dbg.jsonl")
    code, rep = run_cli(
        capsys,
        "sample-set", "--in", path, "--method", "lll-ham", "--seed", "5",
        "--debug-log", log,
    )
    assert code == 0
    res = rep["results"]
    assert res["status"] == "ok"
    assert res["depth"] >= res["guarantee"]["depth_floor"]
    assert res["resamples"] == 51
    with open(log) as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == 51
    assert {"step", "kind", "location", "redrawn"} <= set(lines[0])


def test_pm_sample_set_with_aliases(tmp_path, capsys):
    path = str(tmp_path / "pm.json")
    code, _ = run_cli(
        capsys,
        "gen", "--model", "planted-pm", "--n", "6", "--extra-degree", "2",
        "--seed", "7", "--out", path,
    )
    assert code == 0
    code, rep = run_cli(
        capsys, "second", "--in", path, "--set", "x0,x1,x2,x3,x4,x5"
    )
    assert code == 0
    assert rep["results"]["valid"] and rep["results"]["distinct"]
    code, rep = run_cli(
        capsys, "sample-set", "--in", path, "--method", "pm", "--seed", "1"
    )
    assert code == 0
    assert rep["results"]["size"] == 6


def test_reports_reproducible_modulo_wall_time(tmp_path, capsys):
    path = gen_witness_file(tmp_path, capsys)
    code1, rep1 = run_cli(capsys, "multiply", "--in", path, "--set", "0,3,6")
    code2, rep2 = run_cli(capsys, "multiply", "--in", path, "--set", "0,3,6")
    assert code1 == code2 == 0
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert rep1 == rep2


def test_gen_reproducible_bytes(tmp_path, capsys):
    p1 = gen_witness_file(tmp_path, capsys, "a.json")
    p2 = gen_witness_file(tmp_path, capsys, "b.json")
    with open(p1) as f1, open(p2) as f2:
        assert f1.read() == f2.read()


def test_exit_code_input_error(tmp_path, capsys):
    code = main(["second", "--in", str(tmp_path / "missing.json"), "--set", "0,3"])
    assert code == 2
    path = gen_witness_file(tmp_path, capsys)
    assert main(["second", "--in", path, "--set", "bogus"]) == 2
    assert main(["bounds", "--id", "made-up"]) == 2
    assert main([
        "gen", "--model", "witness", "--n", "12", "--seed", "1", "--set", "0,a",
        "--d", "2", "--out", str(tmp_path / "w.json"),
    ]) == 2


def test_exit_code_precondition(tmp_path, capsys):
    path = gen_witness_file(tmp_path, capsys)
    # members at circular distance 1 break red independence
    assert main(["second", "--in", path, "--set", "0,1"]) == 4
    assert capsys.readouterr().err == "precondition failed: NotRedIndependent: set [0, 1] has a red-adjacent pair\n"
    assert main([
        "gen", "--model", "witness", "--n", "9", "--set", "0,3,6",
        "--d", "9", "--seed", "1", "--out", str(tmp_path / "x.json"),
    ]) == 4


def test_exit_code_internal_error(tmp_path, capsys, monkeypatch):
    path = gen_witness_file(tmp_path, capsys)

    def fall_short(*args):
        raise GuaranteeViolated("multiplication fell short of (d+1)!")

    monkeypatch.setattr(cli, "many_transversals", fall_short)
    assert main(["multiply", "--in", path, "--set", "0,3,6"]) == cli.EXIT_INTERNAL == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: GuaranteeViolated: multiplication fell short of (d+1)!\n"


def test_sample_set_exits_5_when_the_sampled_set_is_not_red_independent(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "r.json")
    run_cli(capsys, "gen", "--model", "regular-all-equal", "--n", "30", "--m", "10", "--seed", "1", "--out", path)

    def not_independent(family, members):
        raise NotRedIndependent(f"set {list(members)} has a red-adjacent pair")

    monkeypatch.setattr(sampler, "support", not_independent)
    assert main(["sample-set", "--in", path, "--method", "lll-ham", "--seed", "2"]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: GuaranteeViolated: sampled set is not red-independent\n"


@pytest.mark.parametrize("kind", [KIND_HAM, KIND_PM])
def test_second_exits_5_when_its_result_is_outside_omega(kind, tmp_path, capsys, monkeypatch):
    # an exchange that returns a valid transversal outside the exchange
    # neighborhood: the first one the oracle lists
    path = str(tmp_path / "p.json")
    model, n, extra, members = ("planted-ham", 8, 3, "0,4") if kind == KIND_HAM else ("planted-pm", 4, 2, "0,1,2,3")
    run_cli(capsys, "gen", "--model", model, "--n", str(n), "--extra-degree", str(extra), "--seed", "0", "--out", path)
    if kind == KIND_HAM:
        every, member = enumerate_all_ham_transversals, omega_member_ham
        provenance = LollipopTrace((tuple(range(n)),), ())
    else:
        every, member = enumerate_all_pm_transversals, omega_member_pm
        provenance = AlternatingCycle((), ())

    def outside_omega(family, tables, ms, heads):
        # gen writes canonical files: family's labels are the canonical ones
        bad = next(t for t in every(family) if not member(ms, t))
        return bad, bad, None, provenance

    monkeypatch.setattr(cli, "second_transversal", outside_omega)
    assert main(["second", "--in", path, "--set", members]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: GuaranteeViolated: the second transversal lies outside the exchange neighborhood\n"
    )


def test_exit_code_budget(tmp_path, capsys):
    path = str(tmp_path / "reg.json")
    run_cli(
        capsys,
        "gen", "--model", "regular-all-equal", "--n", "40", "--m", "8",
        "--seed", "3", "--out", path,
    )
    code, rep = run_cli(capsys, "count", "--in", path, "--max-nodes", "500")
    assert code == 3
    assert rep["results"] == {"status": "inconclusive", "partial_count": 156, "nodes": 501}


def test_count_stopped_by_the_result_cap_is_inconclusive(tmp_path, capsys):
    # K6 holds 43200 transversals; a count the cap stops is not exact, even
    # when the cap equals the count, since the search cannot tell
    path = str(tmp_path / "k6.json")
    run_cli(capsys, "gen", "--model", "dirac", "--n", "6", "--c", "1.0", "--seed", "1", "--out", path)
    code, rep = run_cli(capsys, "count", "--in", path, "--max-results", "5")
    assert code == cli.EXIT_BUDGET == 3
    assert rep["results"] == {"status": "inconclusive", "partial_count": 5, "nodes": 21}
    assert rep["warnings"] == ["search budget exhausted: result cap 5 reached"]
    code, rep = run_cli(capsys, "count", "--in", path, "--max-results", "43200")
    assert code == 3
    assert rep["results"] == {"status": "inconclusive", "partial_count": 43200, "nodes": 117597}
    code, rep = run_cli(capsys, "count", "--in", path, "--max-results", "43201")
    assert code == 0
    assert rep["results"] == {"status": "exact", "count": 43200}


def test_a_deep_cycle_count_ends_in_its_budget_exit(tmp_path, capsys):
    # a 600-vertex path is 600 levels deep; the search keeps its own stack,
    # so the budget, not Python's recursion limit, ends it
    path = str(tmp_path / "w600.json")
    run_cli(capsys, "gen", "--model", "witness", "--n", "600", "--set", "0,150,300,450",
            "--d", "3", "--seed", "2", "--out", path)
    code = main(["count", "--in", path, "--max-nodes", "1000"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BUDGET == 3
    rep = json.loads(captured.out)
    assert rep["results"] == {"status": "inconclusive", "partial_count": 0, "nodes": 1001}
    assert rep["warnings"] == ["search budget exhausted: node budget 1000 exhausted"]
    assert captured.err == ""


@pytest.mark.parametrize("argv, message", [
    (["count", "--max-nodes", "-1"], "--max-nodes must be at least 1, got -1"),
    (["count", "--max-nodes", "0"], "--max-nodes must be at least 1, got 0"),
    (["count", "--max-results", "0"], "--max-results must be at least 1, got 0"),
    (["count", "--max-results", "-3"], "--max-results must be at least 1, got -3"),
    (["sample-set", "--method", "pm", "--seed", "1", "--max-resamples", "-1"],
     "--max-resamples must be at least 0, got -1"),
    (["sample-set", "--method", "lll-ham", "--seed", "-1"], "--seed must be at least 0, got -1"),
])
def test_a_budget_below_its_floor_exits_2_before_the_file_is_read(argv, message, tmp_path, capsys):
    # the file does not exist, so reading it first would name the file
    missing = str(tmp_path / "missing.json")
    assert main(argv[:1] + ["--in", missing] + argv[1:]) == cli.EXIT_INPUT == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_zero_resamples_is_one_draw(tmp_path, capsys):
    path = str(tmp_path / "pm8.json")
    run_cli(capsys, "gen", "--model", "planted-pm", "--n", "8", "--extra-degree", "4",
            "--seed", "2", "--out", path)
    code, rep = run_cli(capsys, "sample-set", "--in", path, "--method", "pm", "--seed", "1",
                        "--max-resamples", "0")
    assert code == 0
    assert rep["results"]["status"] == "ok" and rep["results"]["resamples"] == 0
    assert rep["results"]["members"] == [0, 4, 5, 9, 10, 11, 14, 15]


def test_lll_scan_range_is_capped(capsys, monkeypatch):
    assert cli.LLL_SCAN_MAX_HI == 10**6
    # a stub stands in for the 5 s scan, so a cap that drifted upwards fails fast
    monkeypatch.setattr(cli, "lll_condition_scan", lambda lo, hi: ScanReport(lo, hi, 262, 78, (262,), (8, 78)))
    for hi in (10**6 + 1, 10**9 + 1):
        assert main(["bounds", "--id", "lll-scan", "--hi", str(hi)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: lll-scan --hi is capped at 1000000, got {hi}\n"
    # the cap itself is accepted
    code, rep = run_cli(capsys, "bounds", "--id", "lll-scan", "--hi", "1000000")
    assert code == 0 and rep["results"]["hi"] == 10**6


def test_bounds_lll_scan(capsys):
    code, rep = run_cli(capsys, "bounds", "--id", "lll-scan", "--lo", "3", "--hi", "300")
    assert code == 0
    res = rep["results"]
    assert res["first_min_m"] == 262
    assert res["second_transitions"] == [8, 78]
    assert rep["warnings"]  # non-monotone second inequality is flagged


def test_bounds_factorial(capsys):
    code, rep = run_cli(
        capsys, "bounds", "--id", "pm-dirac", "--n", "100", "--c", "0.5",
        "--epsilon", "1.0",
    )
    assert code == 0
    assert rep["results"]["value"] == 20922789888000


def test_instance_file_validation_fails_cleanly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "hamiltonian",
        "num_vertices": 4,
        "subgraphs": [[[0, 1]], [[1, 2]], [[2, 3]]],
    }))
    assert main(["count", "--in", str(bad)]) == 2
    bad.write_text("{not json")
    assert main(["count", "--in", str(bad)]) == 2


def test_vertex_count_is_checked_before_the_graph_is_built(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("BaseGraph was built before num_vertices was checked")

    monkeypatch.setattr(cli, "BaseGraph", refuse)
    bad = tmp_path / "huge.json"
    for kind, n in (("hamiltonian", 10**12), ("hamiltonian", 0), ("perfect_matching", 3)):
        bad.write_text(json.dumps({
            "kind": kind,
            "num_vertices": n,
            "subgraphs": [[[0, 1]], [[1, 2]], [[0, 2]]],
        }))
        assert main(["count", "--in", str(bad)]) == 2, (kind, n)


def test_instance_numbers_must_be_json_integers(tmp_path):
    good = {
        "kind": "hamiltonian",
        "num_vertices": 3,
        "subgraphs": [[[0, 1]], [[1, 2]], [[0, 2]]],
        "planted": {"edges": [[0, 1], [1, 2], [0, 2]], "colors": [0, 1, 2]},
    }
    path = tmp_path / "i.json"
    path.write_text(json.dumps(good))
    assert main(["count", "--in", str(path)]) == 0
    bad_variants = [
        {"subgraphs": [[[0, 1.7]], [[1, 2]], [[0, 2]]]},
        {"subgraphs": [[[0, 1.0]], [[1, 2]], [[0, 2]]]},
        {"subgraphs": [[[0, True]], [[1, 2]], [[0, 2]]]},
        {"subgraphs": [[["0", 1]], [[1, 2]], [[0, 2]]]},
        {"num_vertices": 3.0},
        {"num_vertices": "3"},
        {"num_vertices": True},
        {"base_edges": [[0, 1], [1, 2], [0, 2.5]]},
        {"planted": {"edges": [[0, 1], [1, 2], [0, 2]], "colors": [0, 1, 2.0]}},
        {"planted": {"edges": [[0, 1], [1, 2], [0, False]], "colors": [0, 1, 2]}},
    ]
    for change in bad_variants:
        path.write_text(json.dumps({**good, **change}))
        assert main(["count", "--in", str(path)]) == 2, change


GEN_MODELS = [
    "--model planted-ham --n 12 --extra-degree 3 --seed 5",
    "--model planted-pm --n 6 --extra-degree 2 --seed 7",
    "--model dirac --n 10 --c 0.8 --seed 4",
    "--model dirac --n 10 --c 0.8 --seed 4 --find-planted",
    "--model regular-all-equal --n 30 --m 10 --seed 1",
    "--model witness --n 12 --set 0,3,6,9 --d 3 --seed 1",
]


@pytest.mark.parametrize("model", GEN_MODELS)
def test_gen_writes_the_bytes_of_json_dump(model, tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["gen", *model.split(), "--out", str(path)]) == 0
    text = path.read_text()
    reference = json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
    assert text == reference


@st.composite
def instance_families(draw):
    """Cycle-kind families whose subgraphs mix shared, distinct and empty
    edge sets, with the canonical cycle planted or not."""
    n = draw(st.integers(3, 8), label="n")
    plant = draw(st.booleans(), label="planted")
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    cycle = [edge(i, (i + 1) % n) for i in range(n)]
    shared = [draw(st.frozensets(pairs, min_size=1, max_size=5)).union(cycle) for _ in range(2)]
    # a planted cycle needs edge i in subgraph i, so no subgraph is empty
    choices = ["shared", "distinct"] if plant else ["shared", "distinct", "empty"]
    subs = []
    for i in range(n):
        choice = draw(st.sampled_from(choices), label=f"subgraph {i}")
        if choice == "shared":
            subs.append(shared[draw(st.integers(0, 1))])
        elif choice == "distinct":
            subs.append(draw(st.frozensets(pairs, max_size=5)).union(cycle[i:i + 1] if plant else ()))
        else:
            subs.append(frozenset())
    family = SubgraphFamily(BaseGraph(n, set().union(cycle, *subs)), subs, KIND_HAM)
    return family, planted(family.kind, family.num_vertices) if plant else None


@st.composite
def matching_families(draw):
    """Matching-kind families on 1-5 pairs whose subgraphs of edges
    across the sides mix shared, distinct and empty edge sets, with the
    canonical matching planted or not."""
    n = draw(st.integers(1, 5), label="pairs")
    plant = draw(st.booleans(), label="planted")
    pairs = st.tuples(st.integers(0, n - 1), st.integers(n, 2 * n - 1))
    matching = [edge(i, i + n) for i in range(n)]
    shared = [draw(st.frozensets(pairs, min_size=1, max_size=4)) for _ in range(2)]
    choices = ["shared", "distinct"] if plant else ["shared", "distinct", "empty"]
    subs = []
    for i in range(n):
        choice = draw(st.sampled_from(choices), label=f"subgraph {i}")
        if choice == "shared":
            g = shared[draw(st.integers(0, 1))]
        elif choice == "distinct":
            g = draw(st.frozensets(pairs, max_size=4))
        else:
            g = frozenset()
        subs.append(g | {matching[i]} if plant else g)
    family = SubgraphFamily(BaseGraph(2 * n, set().union(matching, *subs)), subs, KIND_PM)
    return family, planted(family.kind, family.num_vertices) if plant else None


def _format_1(obj: dict) -> dict:
    """The format-1 object of a format-2 one: each color's row in place."""
    old = {k: v for k, v in obj.items() if k not in ("format", "rows")}
    old["subgraphs"] = [obj["rows"][i] for i in obj["subgraphs"]]
    return old


@given(instance_families() | matching_families(), st.dictionaries(st.text(max_size=4), st.one_of(
    st.integers(), st.floats(allow_nan=False), st.text(max_size=4)), max_size=3))
def test_instance_text_is_json_dump_and_loads_back(case, metadata):
    family, planted = case
    obj = cli.instance_to_obj(family, planted, metadata)
    text = cli._json_text(obj, 1)
    assert text == json.dumps(obj, indent=1, sort_keys=True)
    # the format-1 text of the same instance loads to the same family
    for loaded_text in (text, json.dumps(_format_1(obj), indent=1)):
        loaded, loaded_planted, _ = cli.instance_from_obj(json.loads(loaded_text))
        assert loaded == family and loaded_planted == planted
        for g in loaded.subgraphs:  # equal rows load as one shared set
            assert all((g is h) == (g == h) for h in loaded.subgraphs)


_NUMBERS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats())
_SCALARS = _NUMBERS | st.text(max_size=4)


@st.composite
def json_values(draw):
    """Nested JSON values, NaN, infinities and non-ASCII text included,
    with rows of numbers as edge lists are, dicts keyed by integers as well
    as by strings, and one list object at several places and depths."""
    shared = draw(st.lists(_SCALARS | st.lists(_NUMBERS, min_size=1, max_size=3), min_size=1, max_size=4))
    rows = st.lists(st.lists(_NUMBERS, min_size=1, max_size=3), min_size=1, max_size=4)
    tree = draw(st.recursive(
        _SCALARS | rows | st.just(shared),
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.tuples(kids, kids),
            st.dictionaries(st.text(max_size=3), kids, max_size=4),
            st.dictionaries(st.integers(), kids, max_size=2),
        ),
        max_leaves=20,
    ))
    return [shared, tree, {"again": [shared, shared]}]


@given(json_values(), st.sampled_from([1, 2]))
def test_json_text_is_json_dumps(value, indent):
    assert cli._json_text(value, indent) == json.dumps(value, indent=indent, sort_keys=True)


@st.composite
def transversal_values(draw):
    """Values holding transversals of both kinds, empty ones included,
    whose edges come from one small pool, so that they share edges, with
    one transversal object at two depths."""
    pool = draw(st.lists(st.tuples(st.integers(-2, 10**6), st.integers(-2, 10**6)), min_size=1, max_size=6))
    transversals = st.builds(
        Transversal,
        st.sampled_from([KIND_HAM, KIND_PM]),
        st.lists(st.tuples(st.sampled_from(pool), st.integers()), max_size=5).map(tuple),
    )
    shared = draw(transversals)
    tree = draw(st.recursive(
        transversals | st.just(shared) | _SCALARS,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.tuples(kids, kids),
            st.dictionaries(st.text(max_size=3), kids, max_size=4),
        ),
        max_leaves=12,
    ))
    return [shared, tree, {"again": [shared, Transversal(KIND_PM, ())]}]


def _as_objs(value):
    if isinstance(value, Transversal):
        return cli.transversal_to_obj(value)
    if isinstance(value, dict):
        return {k: _as_objs(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_objs(v) for v in value]
    return value


@given(transversal_values(), st.sampled_from([1, 2]))
def test_json_text_writes_a_transversal_as_its_obj(value, indent):
    want = json.dumps(_as_objs(value), indent=indent, sort_keys=True)
    assert cli._json_text(value, indent) == want


def test_a_closed_stdout_ends_without_a_traceback():
    src = str(Path(transversals.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "transversals.cli", "bounds", "--id", "lll-cond", "--m", "100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    proc.stdout.close()  # the reader leaves before the report is printed
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


OVER_CAP = [
    "--model planted-ham --n 100000000",
    "--model planted-pm --n 2000000 --extra-degree 1",
    "--model dirac --n 300 --c 0.5",
    "--model regular-all-equal --n 200000 --m 30",
    "--model witness --n 2000000 --set 0,3,6 --d 2",
]
GENERATORS = (
    "gen_planted_ham_family", "gen_planted_pm_family", "gen_dirac_family",
    "gen_regular_all_equal", "gen_witness_instance_ham",
)


@pytest.mark.parametrize("model", OVER_CAP)
def test_gen_exits_2_above_the_edge_cap_before_generating(model, tmp_path, capsys, monkeypatch):
    def generate(*args):
        raise AssertionError("generator reached above the cap")

    for name in GENERATORS:
        monkeypatch.setattr(cli, name, generate)
    path = tmp_path / "big.json"
    assert main(["gen", *model.split(), "--seed", "1", "--out", str(path)]) == 2
    assert f"the cap is {cli.GEN_MAX_EDGES}" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("model, message", [
    ("--model planted-pm --n 0", "InfeasibleDegree: need n >= 1, got 0"),
    ("--model planted-pm --n 3 --extra-degree 5", "InfeasibleDegree: extra_degree 5 outside [0, n-1] for n = 3"),
    ("--model witness --n 2 --set 0 --d 1", "InfeasibleWitness: need n >= 3, got 2"),
])
def test_gen_outside_its_generators_domain_exits_4(model, message, tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["gen", *model.split(), "--seed", "1", "--out", str(path)]) == 4
    assert capsys.readouterr() == ("", f"precondition failed: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("model", GEN_MODELS)
def test_the_gen_cap_bounds_the_edges_the_file_lists(model, tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.json"
    assert main(["gen", *model.split(), "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    # the cap counts each distinct row once, as the file lists it
    listed = len(obj["base_edges"]) + sum(map(len, obj["rows"]))
    listed += len(obj.get("planted", {}).get("edges", ()))
    # a bound below what the file lists would reject this very file
    monkeypatch.setattr(cli, "GEN_MAX_EDGES", listed - 1)
    assert main(["gen", *model.split(), "--out", str(path)]) == 2
    capsys.readouterr()


def test_an_all_equal_file_under_the_cap_is_written(tmp_path, capsys):
    # 10,000 base edges, one 10,000-edge row and 2,000 planted edges: a
    # bound with one row per color would count 20,012,000
    path = tmp_path / "g.json"
    assert main(["gen", "--model", "regular-all-equal", "--n", "2000", "--m", "10",
                 "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    obj = json.loads(path.read_text())
    assert len(obj["rows"]) == 1
    assert len(obj["base_edges"]) + len(obj["rows"][0]) + len(obj["planted"]["edges"]) == 22_000


def _k3_file(tmp_path, rows):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps({"kind": "hamiltonian", "num_vertices": 3, "subgraphs": rows}))
    return str(path)


K3_ROW = [[0, 1], [1, 2], [0, 2]]


@pytest.mark.parametrize("bad_row, message", [
    ([[0, True], [1, 2], [0, 2]], "vertex ids must be integers, got [0, True]"),
    ([[0, 1.0], [1, 2], [0, 2]], "vertex ids must be integers, got [0, 1.0]"),
    ([[0, "1"], [1, 2], [0, 2]], "vertex ids must be integers, got [0, '1']"),
    ([[0, 1, 1], [1, 2], [0, 2]], "too many values to unpack"),
])
def test_a_row_equal_to_an_earlier_row_is_still_type_checked(bad_row, message, tmp_path, capsys):
    path = _k3_file(tmp_path, [K3_ROW, bad_row, K3_ROW])
    assert main(["count", "--in", path]) == 2
    assert message in capsys.readouterr().err


def test_equal_rows_decode_to_one_list_checked_once(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "r.json")
    code, _ = run_cli(capsys, "gen", "--model", "regular-all-equal", "--n", "20", "--m", "6",
                      "--seed", "1", "--out", path)
    assert code == 0
    obj = json.loads(Path(path).read_text())
    assert len(obj["rows"]) == 1 and obj["subgraphs"] == [0] * 20
    checked = []
    check = cli._json_row
    monkeypatch.setattr(cli, "_json_row", lambda g, sets: checked.append(g) or check(g, sets))
    family, _, _ = cli.load_instance(path)
    assert len(checked) == 1
    assert all(g is family.subgraphs[0] for g in family.subgraphs)


@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    '{"kind": "hamiltonian", "num_vertices": 3, "subgraphs": ' + "[" * 200_000 + "]" * 200_000 + "}",
], ids=["top-level", "subgraphs"])
def test_an_over_deep_file_is_an_input_error(text, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["count", "--in", str(path)]) == 2
    assert f"error: cannot parse {path}: maximum recursion depth exceeded" in capsys.readouterr().err


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"kind": "\xff\xfe"}')
    assert main(["count", "--in", str(path)]) == 2
    assert f"error: cannot parse {path}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


def test_repeated_reversed_rows_canonicalise_to_one_set(tmp_path):
    reversed_row = [[1, 0], [2, 1], [2, 0]]
    family, _, _ = cli.load_instance(_k3_file(tmp_path, [reversed_row, reversed_row, K3_ROW]))
    assert family.subgraphs[0] is family.subgraphs[1]
    assert set(family.subgraphs) == {frozenset({(0, 1), (1, 2), (0, 2)})}


def test_a_reversed_pair_outside_the_graph_is_named_in_order(tmp_path, capsys):
    # the base is the union of the rows, so its error names the pair as edge() orders it
    row = [[0, 1], [5, 2]]
    assert main(["count", "--in", _k3_file(tmp_path, [row, row, K3_ROW])]) == 2
    assert "edge (2,5) outside vertex range" in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_loading_restores_the_collector_state(enabled, tmp_path):
    good = _k3_file(tmp_path, [K3_ROW] * 3)
    bad = str(tmp_path / "bad.json")
    Path(bad).write_text("{not json")
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        cli.load_instance(good)
        assert gc.isenabled() is enabled
        with pytest.raises(cli.InputError):
            cli.load_instance(bad)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_sample_set_runs_without_numpy(tmp_path):
    # each sampler draws from the package's own generator, so a process
    # that generates instances and samples with all three methods loads
    # no numpy; the source check in test_source_hygiene covers the rest
    src = str(Path(transversals.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    ham, dirac, pm = (str(tmp_path / f"{name}.json") for name in ("ham", "dirac", "pm"))
    runs = [
        ["gen", "--model", "regular-all-equal", "--n", "60", "--m", "12", "--seed", "3", "--out", ham],
        ["gen", "--model", "dirac", "--n", "10", "--c", "0.8", "--seed", "4", "--find-planted", "--out", dirac],
        ["gen", "--model", "planted-pm", "--n", "6", "--extra-degree", "2", "--seed", "7", "--out", pm],
        ["sample-set", "--in", ham, "--method", "lll-ham", "--seed", "5", "--p", "0.05"],
        ["sample-set", "--in", dirac, "--method", "dirac", "--seed", "1", "--c", "0.6"],
        ["sample-set", "--in", pm, "--method", "pm", "--seed", "1"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from transversals import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0] False"


def test_dirac_gen_with_find_planted(tmp_path, capsys):
    path = str(tmp_path / "d.json")
    code, rep = run_cli(
        capsys,
        "gen", "--model", "dirac", "--n", "10", "--c", "0.8", "--seed", "4",
        "--out", path, "--find-planted",
    )
    assert code == 0
    assert rep["results"]["planted"]
    code, rep = run_cli(capsys, "second", "--in", path, "--set", "0,3,6")
    # the planted cycle may or may not admit that set; accept 0 or 4
    assert code in (0, 4)


STAGES = ("load_instance", "naturally_index")
BUILDS = ("build_full_ryb", "build_full_rb")


@pytest.fixture
def stage_files(tmp_path):
    """A cycle file and a matching file, both planted, and one without."""
    files = {name: str(tmp_path / f"{name}.json") for name in ("ham", "pm", "unplanted")}
    for name, model in (
        ("ham", "--model regular-all-equal --n 30 --m 10 --seed 1"),
        ("pm", "--model planted-pm --n 6 --extra-degree 2 --seed 7"),
        ("unplanted", "--model dirac --n 10 --c 0.8 --seed 4"),
    ):
        assert main(["gen", *model.split(), "--out", files[name]]) == 0
    return files


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls per stage: loading and relabelling through the cli module's
    bindings, a digraph build through every package module that binds one."""
    calls = Counter()
    bindings = [(cli, name) for name in STAGES] + [
        (module, name) for module in (cli, digraphs, exchange, multiplier, sampler)
        for name in BUILDS if hasattr(module, name)]
    for module, name in bindings:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_each_stage_runs_once_per_command(stage_files, stage_calls):
    # second and multiply read the set's support from the family and build
    # no digraph; sample-set's sampler builds the one it reads, once
    ham, pm = stage_files["ham"], stage_files["pm"]
    ham_set, pm_set = "2,6,10,14,17,22,25,28", "x0,x1,x2,x3,x4,x5"
    for build, commands in (
        ("build_full_ryb", [
            ["second", "--in", ham, "--set", ham_set],
            ["sample-set", "--in", ham, "--method", "lll-ham", "--seed", "2"],
            ["multiply", "--in", ham, "--set", ham_set],
        ]),
        ("build_full_rb", [
            ["second", "--in", pm, "--set", pm_set],
            ["sample-set", "--in", pm, "--method", "pm", "--seed", "1"],
            ["multiply", "--in", pm, "--set", pm_set],
        ]),
    ):
        for argv in commands:
            stage_calls.clear()
            assert main(argv) == 0, argv
            built = {build: 1} if argv[0] == "sample-set" else {}
            assert stage_calls == {"load_instance": 1, "naturally_index": 1, **built}, argv


def test_prepare_rejects_before_the_build(stage_files, stage_calls, capsys):
    unplanted = stage_files["unplanted"]
    for argv in (
        ["second", "--in", unplanted, "--set", "0,3"],
        ["sample-set", "--in", unplanted, "--method", "lll-ham", "--seed", "1"],
        ["multiply", "--in", unplanted, "--set", "0,3"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: this command needs an instance file with a planted transversal\n"
        )
    assert stage_calls == {"load_instance": 3}
    for argv, kind in (
        (["sample-set", "--in", stage_files["pm"], "--method", "lll-ham", "--seed", "1"], "hamiltonian"),
        (["sample-set", "--in", stage_files["ham"], "--method", "pm", "--seed", "1"], "perfect_matching"),
    ):
        stage_calls.clear()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: method {argv[4]} needs a {kind} instance\n"
        # checked after the canonical relabelling, before the digraph is built
        assert stage_calls == {"load_instance": 1, "naturally_index": 1}



def _counted(monkeypatch, name, modules):
    """The arguments of each call of ``name`` through each module's binding."""
    calls = []
    for module in modules:
        def counted(*args, _fn=getattr(module, name), **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_multiply_reads_the_support_once(stage_files, capsys, monkeypatch):
    # the reported d is the one the multiplication checked its floor against:
    # one support read in the canonical family's labels, with no tables; a
    # child's read passes its tables
    calls = _counted(monkeypatch, "support", (cli, multiplier))
    for path, members in ((stage_files["ham"], "2,6,10,14,17,22,25,28"), (stage_files["pm"], "x0,x1,x2,x3,x4,x5")):
        calls.clear()
        code, rep = run_cli(capsys, "multiply", "--in", path, "--set", members)
        assert code == 0
        assert len([args for args in calls if len(args) == 2]) == 1
        assert rep["results"]["count"] >= rep["results"]["required"] == math.factorial(rep["results"]["d"] + 1)


def test_second_validates_its_result_once(tmp_path, capsys, monkeypatch):
    # the planted transversal at load and in naturally_index, then the
    # result once, by the exchange, in the file's labels: the report's "valid"
    path = gen_witness_file(tmp_path, capsys)
    calls = _counted(monkeypatch, "validate_transversal", (cli, core, exchange))
    code, rep = run_cli(capsys, "second", "--in", path, "--set", "0,3,6")
    assert code == 0 and rep["results"]["valid"] is True
    assert len(calls) == 3
    assert cli.transversal_to_obj(calls[-1][1]) == rep["results"]["second"]


# SHA-256 of each report (wall_time_s removed, re-serialised as printed)
# and of each file the command writes. The values were captured before
# the exchange, sampler and multiplier results were reshaped, and the
# d=3 and d=4 multiply entries before the matching recursion was
# relabelled once per child; a change in any CLI output shows up here.
# The gen files are format 2; FORMAT_1_PINNED holds their format-1 bytes.
PINNED = [
    ("gen --model witness --n 9 --set 0,3,6 --d 2 --seed 11 --out w.json",
     "0bdb45ea082e71463577f1dfbddb44e92c1e731e04a1dfd64a9fd7ebb9dcf72f",
     {"w.json": "51bd2b71b5b5db8aeacb22b86abb38237a83e85b18c6598a6753801299b2c3df"}),
    ("gen --model planted-pm --n 6 --extra-degree 2 --seed 7 --out pm.json",
     "b4f3f4c2e77d14cb482f23ade39d7ebf4907843fd7e768cdc8733f91a11edde8",
     {"pm.json": "13aa32ecb298760a3eb29fa09ec83509a27949f288853d6a5b9d18c9bcfb8911"}),
    ("gen --model dirac --n 10 --c 0.8 --seed 4 --find-planted --out d.json",
     "4acce0ab4f9e54c1f9511d99f96bad712543b52b17ed4be44ad0c3202efe3c26",
     {"d.json": "0021c89250d4329cc02d5454244b3663be16e1d9086f0abd91ee81208b948503"}),
    ("gen --model regular-all-equal --n 30 --m 10 --seed 1 --out r.json",
     "593f7fcb28ff0ea2e7f1515bf7766805b14df5d1b8547c73a6cbad34540786a4",
     {"r.json": "4d47e15038944c55cc092a00a2c520d7247c35cb1dfc92111c9cdf40fcf32166"}),
    ("second --in w.json --set 0,3,6",
     "be9cfd0428109c115daf662b2b03c891ca978cd50361665510326634bd7b0584", {}),
    ("second --in pm.json --set x0,x1,x2,x3,x4,x5",
     "fa25fe8b28ec35a46910917d9890effcaad6d5f757e3fdfceb828a863b4f79ca", {}),
    ("sample-set --in r.json --method lll-ham --seed 2 --debug-log lll.jsonl",
     "7866108fbb8c14e8731dc5554ad79179b3b5e44e76a238c6803ca0de48267885",
     {"lll.jsonl": "ef7734cc21e7f93438bb2798a4049e4a885da56d78e5431c56976405c05f56d7"}),
    ("sample-set --in pm.json --method pm --seed 1 --debug-log pm.jsonl",
     "6ded9aedfec1c3c55bf04dfa18d6d603b7d584a77f0ce01596d585a731ab5350",
     {"pm.jsonl": "361b0ee523cf75c63713311bcc4858b7b7209b7cc0f2221b28c736196c54bce5"}),
    ("sample-set --in d.json --method dirac --seed 1 --c 0.8 --debug-log dirac.jsonl",
     "c154b1509e6a16a60e69ebac270668ad7a80cac0896b9fc027aaa4b90cf40714",
     {"dirac.jsonl": "cd4d78c3b6bb3427d1a5b36794316cf17f0c71d4ca4047196b0e1591257fc347"}),
    ("multiply --in w.json --set 0,3,6",
     "f86c4d051f17a8f95d6d8f0258bf66558ebca32f2b13086a57f5c01000c461b3", {}),
    ("multiply --in pm.json --set x0,x1,x2,x3,x4,x5",
     "0883411b442705fd1c326fcce01dc42e1836350a09bffcaa479b6b39a27a3c83", {}),
    ("gen --model planted-pm --n 8 --extra-degree 4 --seed 2 --out pm8.json",
     "24be11e6f0c39b26c6e6cd5ef53d1044c54dc6ffdecce0bbbd493a7e952767d7",
     {"pm8.json": "c17f1a6efe8ffc7169c3bc766ac825bebb1f4045d40d9fce2f999ba8fa8e32e3"}),
    ("multiply --in pm8.json --set x0,x1,x2,x3,x4,x5,x6,x7",
     "afa7273accad51d19d7ab98c4638a0c59875aa10f4ecbf5e0efad7987b0bb2aa", {}),
    ("gen --model witness --n 12 --set 0,3,6,9 --d 3 --seed 1 --out w12.json",
     "0f39e737ab88cf88c33feb324ecd5aba58f6c20a2df7c1e15ff5e31ae0e9591d",
     {"w12.json": "ef301752e2c6fdb7efad63b9b215b6d81ddba1e180a518b5b22313c63007a86e"}),
    ("multiply --in w12.json --set 0,3,6,9",
     "f122e381d715ed6f9121be17430b39a58de9abe92789e2d30d15e05dccdd888d", {}),
]


def test_reports_pinned(tmp_path, monkeypatch, capsys):
    # relative paths keep the echoed parameters independent of tmp_path
    monkeypatch.chdir(tmp_path)
    for cmd, report_sha, files in PINNED:
        assert main(cmd.split()) == 0, cmd
        out = capsys.readouterr().out
        rep = json.loads(out)
        # the printed bytes, not only the report they hold
        assert out == json.dumps(rep, indent=2, sort_keys=True) + "\n", cmd
        del rep["wall_time_s"]
        text = json.dumps(rep, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == report_sha, f"{cmd}\n{text}"
        for name, sha in files.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha, (cmd, name)


# SHA-256 of each gen file of PINNED in format 1, as gen wrote it before
# format 2: one edge list per color, no format and no rows
FORMAT_1_PINNED = {
    "w.json": "6ade7b09361bcce91cf65a4cb7a0e3ea5dc8d121490cd60ba8b714c7e0d2532b",
    "pm.json": "22ec057efb3363ab8d8456b2ff6fb0253b07707d7a3846719e6d301289e9773b",
    "d.json": "470c69a549141997e3901cebd629bd1e873809f402024efd2e1849024d4c32a7",
    "r.json": "8a52d4d87908af055f7bc30b0a301f364fa3b715e89f7ee35416c414d2e6428d",
    "pm8.json": "79f5b08e95ad919b923095e5cfd36457b1d049abb69824ef37c9e670e43ec51f",
    "w12.json": "bf57724bea582ebb4f5c9e8636e4044c55eeb824f74f15804c7343668c88588e",
}


def test_format_1_files_give_the_pinned_reports(tmp_path, monkeypatch, capsys):
    # each gen file converted back is the old format-1 file byte for byte;
    # it loads to the same instance, and every other command reports the
    # same bytes from it
    monkeypatch.chdir(tmp_path)
    for cmd, report_sha, files in PINNED:
        assert main(cmd.split()) == 0, cmd
        out = capsys.readouterr().out
        if cmd.startswith("gen"):
            for name in files:
                new = (tmp_path / name).read_text()
                old = json.dumps(_format_1(json.loads(new)), indent=1, sort_keys=True) + "\n"
                assert hashlib.sha256(old.encode()).hexdigest() == FORMAT_1_PINNED[name], name
                (tmp_path / name).write_text(old)
                assert cli.load_instance(name) == cli.instance_from_obj(json.loads(new))
            continue
        rep = json.loads(out)
        del rep["wall_time_s"]
        text = json.dumps(rep, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == report_sha, cmd
        for name, sha in files.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha, (cmd, name)


_K3_FORMAT_2 = {"format": 2, "kind": "hamiltonian", "num_vertices": 3, "rows": [K3_ROW], "subgraphs": [0, 0, 0]}
_DROP = object()  # a change that removes the key


@pytest.mark.parametrize("change, message", [
    ({"subgraphs": [0, 0, -1]}, "a row index must be an integer in [0, 1), got -1"),
    ({"subgraphs": [0, 1, 0]}, "a row index must be an integer in [0, 1), got 1"),
    ({"subgraphs": [0, True, 0]}, "a row index must be an integer in [0, 1), got True"),
    ({"subgraphs": [1.0, 0, 0]}, "a row index must be an integer in [0, 1), got 1.0"),
    ({"subgraphs": ["0", 0, 0]}, "a row index must be an integer in [0, 1), got '0'"),
    ({"format": 3}, "unknown instance format 3; known: 1, 2"),
    ({"format": "2"}, "format must be an integer, got '2'"),
    ({"format": True}, "format must be an integer, got True"),
    ({"rows": None}, "rows must be a list"),
    ({"rows": {"0": K3_ROW}}, "rows must be a list"),
    ({"rows": _DROP}, "malformed instance file: 'rows'"),
])
def test_a_bad_format_2_file_is_an_input_error(change, message, tmp_path, capsys):
    obj = {k: v for k, v in {**_K3_FORMAT_2, **change}.items() if v is not _DROP}
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(obj))
    assert main(["count", "--in", str(path)]) == 2
    assert message in capsys.readouterr().err
    path.write_text(json.dumps(_K3_FORMAT_2))
    assert main(["count", "--in", str(path)]) == 0
    capsys.readouterr()


_K3 = {"kind": "hamiltonian", "num_vertices": 3, "subgraphs": [K3_ROW] * 3}
_K3_PLANTED = {**_K3, "planted": {"edges": K3_ROW, "colors": [0, 1, 2]}}
_K4_PLANTED = {
    "format": 2, "kind": "perfect_matching", "num_vertices": 4, "subgraphs": [0, 0],
    "rows": [[[u, v] for u in range(4) for v in range(u + 1, 4)]],
    "planted": {"edges": [[0, 2], [1, 3]], "colors": [0, 1]},
}
_K6 = {
    "format": 2, "kind": "hamiltonian", "num_vertices": 6, "subgraphs": [0] * 6,
    "rows": [[[u, v] for u in range(6) for v in range(u + 1, 6)]],
}


@pytest.mark.parametrize("obj, argv, message", [
    ({**_K3, "kind": "tree"}, [], "unknown kind 'tree'"),
    ({**_K3, "num_vertices": 0, "subgraphs": []}, [],
     "malformed instance file: subgraphs must be a non-empty list"),
    ({**_K3, "base_edges": [[0, 1], [1, 2]]}, [],
     "invalid family: " + "; ".join(f"edge_not_in_base: subgraph {c} edge (0,2) missing from base" for c in range(3))),
    # two triangles
    ({**_K6, "planted": {"edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]], "colors": list(range(6))}}, [],
     "invalid planted transversal: not_hamiltonian_cycle: edges do not form one cycle through all vertices"),
    ({**_K4_PLANTED, "planted": {"edges": [[0, 1], [1, 2]], "colors": [0, 1]}}, [],
     "invalid planted transversal: not_perfect_matching: edges do not form a perfect matching"),
    ({**_K3, "planted": {"edges": K3_ROW, "colors": [0, 1, 3]}}, [],
     "invalid planted transversal: color_range: edge (0, 2) colored 3, outside 0..2"),
    ({**_K3, "base_edges": K3_ROW, "planted": {"edges": [[0, 1], [1, 2], [0, 0]], "colors": [0, 1, 2]}}, [],
     "invalid planted transversal: bad_edge: edge (0, 0) not a valid vertex pair"),
    # a bad base edge is named before a bad planted color
    ({**_K3, "base_edges": [[0, 1], [1, 2], [0, "x"]], "planted": {"edges": K3_ROW, "colors": [0, 1, 2.5]}}, [],
     "malformed instance file: vertex ids must be integers, got [0, 'x']"),
    (_K3_PLANTED, ["second", "--set", "0,3"], "bad set member '3'"),
    (_K3_PLANTED, ["second", "--set", "-1"], "bad set member '-1'"),
    (_K3_PLANTED, ["second", "--set", " , "], "empty set spec"),
    (_K4_PLANTED, ["second", "--set", "x0,x2"], "bad set member 'x2'"),
    (_K4_PLANTED, ["second", "--set", "y-1"], "bad set member 'y-1'"),
    ({**_K3, "subgraphs": [[*K3_ROW, 5]] * 3}, [], "malformed instance file: cannot unpack non-iterable int object"),
])
def test_a_bad_instance_or_set_exits_2_with_its_message(obj, argv, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    command, *rest = argv or ["count"]
    assert main([command, "--in", str(path), *rest]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sample_set_out_of_resamples_exits_3_and_writes_its_records(tmp_path, capsys):
    path, log = str(tmp_path / "reg.json"), tmp_path / "dbg.jsonl"
    run_cli(capsys, "gen", "--model", "regular-all-equal", "--n", "40", "--m", "8", "--seed", "3", "--out", path)
    # this run needs 2053 resamples
    code, rep = run_cli(capsys, "sample-set", "--in", path, "--method", "lll-ham", "--seed", "1",
                        "--max-resamples", "5", "--debug-log", str(log))
    assert code == 3
    assert rep["results"] == {"status": "budget-exhausted", "resamples": 5}
    assert rep["warnings"] == ["no event-free assignment within 5 resamples"]
    assert [json.loads(line)["step"] for line in log.read_text().splitlines()] == list(range(5))


_LONG_M = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    "--id pm-dirac --n 4000 --c 1.0 --epsilon 0.001",
    "--id ham-dirac --n 10 --c 0.7 --epsilon nan",
    "--id pm-min-degree --m 40 --t nan --alpha 0.5",
    "--id ham-min-degree --m 300 --t inf",
    "--id pm-min-degree --m 40 --t 1e300 --alpha 0.5",
    f"--id lll-cond --m {_LONG_M}",
    f"--id pm-degree-threshold --alpha 0.5 --m {_LONG_M}",
    "--id ham-dirac --n 100000000000 --c 1.0 --epsilon 1",
    "--id pm-dirac --n 4677 --c 1.0 --epsilon 1",
])
def test_a_bound_out_of_range_exits_4(argv, capsys):
    assert main(["bounds", *argv.split()]) == 4
    assert capsys.readouterr().err.startswith("precondition failed: DomainError: ")


def test_the_largest_factorial_bound_prints(capsys):
    code, rep = run_cli(capsys, "bounds", "--id", "pm-dirac", "--n", "4674", "--c", "1.0", "--epsilon", "1")
    assert code == 0
    assert rep["results"]["value"] == math.factorial(sampler.FACTORIAL_MAX_ARG) == math.factorial(1558)


@pytest.mark.parametrize("argv", [["--m", "0"], ["--p", "0.3", "--m", "-3"]])
def test_lll_ham_sampling_below_max_degree_2_exits_4(argv, tmp_path, capsys):
    path = str(tmp_path / "r.json")
    assert main(["gen", "--model", "regular-all-equal", "--n", "30", "--m", "10", "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    assert main(["sample-set", "--in", path, "--method", "lll-ham", "--seed", "1", *argv]) == 4
    assert capsys.readouterr().err == f"precondition failed: DomainError: max degree must be >= 2, got {argv[-1]}\n"


@pytest.mark.parametrize("p", [[], ["--p", "0.3"]])
def test_lll_ham_sampling_with_a_max_degree_too_large_for_a_float_exits_4(p, tmp_path, capsys):
    path = str(tmp_path / "r.json")
    assert main(["gen", "--model", "regular-all-equal", "--n", "30", "--m", "10", "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    assert main(["sample-set", "--in", path, "--method", "lll-ham", "--seed", "1", "--m", str(10**400), *p]) == 4
    err = capsys.readouterr().err
    assert err == "precondition failed: DomainError: max degree m is too large for a float\n"
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def dirac_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("dirac") / "d.json")
    assert main(["gen", "--model", "dirac", "--n", "10", "--c", "0.8", "--seed", "4", "--find-planted",
                 "--out", path]) == 0
    return path


@pytest.mark.parametrize("argv, message", [
    ("--c 8", "step-1 probability c/8 = 1.0 outside (0,1)"),
    ("--c 1.0", "some out-degree (6) is below c*n - 2 = 8.0"),
])
def test_dirac_sampling_out_of_range_exits_4(argv, message, dirac_file, capsys):
    capsys.readouterr()
    assert main(["sample-set", "--in", dirac_file, "--method", "dirac", "--seed", "1", *argv.split()]) == 4
    assert capsys.readouterr().err == f"precondition failed: DomainError: {message}\n"


def test_dirac_sampling_below_the_analyzed_c_warns(dirac_file, capsys):
    capsys.readouterr()
    code, rep = run_cli(capsys, "sample-set", "--in", dirac_file, "--method", "dirac", "--seed", "1", "--c", "0.4")
    assert code == 0
    assert rep["results"]["status"] == "ok"
    assert rep["warnings"] == ["c = 0.4 is below the analyzed range c >= 1/2"]


def test_dirac_sampling_out_of_redraws_exits_3(dirac_file, capsys):
    capsys.readouterr()
    code, rep = run_cli(capsys, "sample-set", "--in", dirac_file, "--method", "dirac", "--seed", "1",
                        "--c", "0.3", "--max-resamples", "0")
    assert code == 3
    assert rep["results"] == {"status": "budget-exhausted", "resamples": 0}


@pytest.mark.parametrize("argv, message", [
    ("gen --model dirac --n 10 --seed 1", "dirac model needs --c"),
    ("gen --model regular-all-equal --n 10 --seed 1", "regular-all-equal model needs --m"),
    ("gen --model witness --n 9 --seed 1 --set 0,3,6", "witness model needs --set and --d"),
    ("gen --model witness --n 9 --seed 1 --d 2", "witness model needs --set and --d"),
    ("bounds --id lll-cond", "lll-cond needs --m"),
    ("bounds --id pm-degree-threshold --m 44", "pm-degree-threshold needs --alpha and --m"),
    ("bounds --id pm-degree-threshold --alpha 0.5", "pm-degree-threshold needs --alpha and --m"),
])
def test_a_missing_flag_exits_2(argv, message, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert main([*argv.split(), *(["--out", str(out)] if argv.startswith("gen") else [])]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_the_pm_degree_threshold_prints(capsys):
    code, rep = run_cli(capsys, "bounds", "--id", "pm-degree-threshold", "--alpha", "0.5", "--m", "44")
    assert code == 0
    assert rep["results"] == {"alpha": 0.5, "m": 44, "threshold": 148.8208186539448}


def test_find_planted_without_a_transversal_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.oracle, "exists_ham_transversal", lambda family: None)
    out = tmp_path / "d.json"
    argv = ["gen", "--model", "dirac", "--n", "6", "--c", "0.8", "--seed", "1", "--find-planted", "--out", str(out)]
    assert main(argv) == 4
    assert capsys.readouterr() == ("", "precondition failed: DomainError: no transversal found to plant\n")
    assert not out.exists()


def test_a_search_budget_exhausted_outside_count_exits_3(tmp_path, capsys, monkeypatch):
    # main's handler, not the command's: gen --find-planted has no budget report of its own
    def exhausted(family):
        raise BudgetExceeded("node budget of 1 spent", nodes=1)

    monkeypatch.setattr(cli.oracle, "exists_ham_transversal", exhausted)
    out = tmp_path / "d.json"
    argv = ["gen", "--model", "dirac", "--n", "10", "--c", "0.8", "--seed", "4", "--find-planted", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exhausted: node budget of 1 spent\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def domain_files(tmp_path_factory):
    """The dense regular-all-equal n=200, m=30 file (out-degrees 28) and
    planted-pm n=8 with extra degree 4 (blue out-degrees 4)."""
    where = tmp_path_factory.mktemp("domain")
    for name, model in (("dense.json", "regular-all-equal --n 200 --m 30 --seed 1"),
                        ("pm8.json", "planted-pm --n 8 --extra-degree 4 --seed 2")):
        assert main(["gen", "--model", *model.split(), "--out", str(where / name)]) == 0
    return where


@pytest.mark.parametrize("argv, message", [
    ("sample-set --in dense.json --method lll-ham --seed 1 --r 0", "out-degree floor r = 0; need r >= 1"),
    ("sample-set --in dense.json --method lll-ham --seed 1 --r 31", "some out-degree (28) is below r = 31"),
    ("sample-set --in pm8.json --method pm --seed 1 --r 0", "escape floor r = 0; need r >= 1"),
    ("sample-set --in pm8.json --method pm --seed 1 --r 99", "some blue out-degree (4) is below r = 99"),
    ("bounds --id pm-degree-threshold --alpha 0.5 --m 1", "max degree must be >= 2, got 1"),
    ("bounds --id pm-degree-threshold --alpha 1.5 --m 10", "alpha must lie in (0,1), got 1.5"),
    ("bounds --id lll-cond --m 2", "need m >= 3, got 2"),
    (f"bounds --id lll-cond --m {10**154}",
     "m is too large for float arithmetic: 2(m-1)^2 exceeds the largest float"),
    ("bounds --id lll-scan --lo 2 --hi 5", "need 3 <= lo <= hi"),
    ("bounds --id ham-min-degree --m 100 --t 500", "need m >= 262, got 100"),
    ("bounds --id pm-min-degree --m 30 --t 10 --alpha 0.5", "need m >= 37, got 30"),
])
def test_a_sampler_or_bound_domain_error_exits_4(argv, message, domain_files, capsys):
    # the samplers' degree floors and the bounds' parameter checks
    args = [str(domain_files / a) if a.endswith(".json") else a for a in argv.split()]
    assert main(args) == cli.EXIT_PRECONDITION == 4
    assert capsys.readouterr() == ("", f"precondition failed: DomainError: {message}\n")
