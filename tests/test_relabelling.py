"""Metamorphic check of the CLI: relabelling an instance's vertices and
colors changes no guarantee.

Generated files are already canonical, so only a relabelled file sends the
CLI through a non-identity ``naturally_index`` and lifts its results back.
Outputs may differ between the two runs, since tie-breaks depend on labels;
what each run guarantees may not.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from transversals import (
    KIND_HAM,
    SubgraphFamily,
    Transversal,
    cli,
    edge,
    enumerate_omega_ham,
    enumerate_omega_pm,
    gen_planted_ham_family,
    gen_planted_pm_family,
    gen_regular_all_equal,
    gen_witness_instance_ham,
    naturally_index,
    validate_transversal,
)

from conftest import random_ham_set, random_pm_set, relabelled


@st.composite
def planted_instances(draw):
    """(family, planted, set) from planted-ham, witness or planted-pm, n <= 8."""
    model = draw(st.sampled_from(["planted-ham", "witness", "planted-pm"]))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    if model == "planted-pm":
        n = draw(st.integers(2, 8), label="pairs")
        family, planted = gen_planted_pm_family(n, draw(st.integers(1, min(2, n - 1))), seed)
        return family, planted, random_pm_set(rng, family, n)
    n = draw(st.integers(6, 8), label="n")
    members = random_ham_set(rng, n, False)
    if model == "witness":
        return (*gen_witness_instance_ham(n, members, 1, seed), members)
    return (*gen_planted_ham_family(n, draw(st.integers(0, 2)), seed), members)


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue())["results"] if code == cli.EXIT_OK else None


def _transversal(kind, obj):
    return Transversal.from_map(kind, {tuple(e): c for e, c in zip(obj["edges"], obj["colors"])})


@settings(max_examples=30, deadline=None)
@given(planted_instances(), st.randoms(use_true_random=False))
def test_relabelling_keeps_every_guarantee(case, rnd):
    family, planted, members = case
    cperm = list(range(family.num_colors))
    rnd.shuffle(cperm)
    if family.kind == KIND_HAM:
        vperm = list(range(family.num_vertices))
        rnd.shuffle(vperm)
    else:
        # a matching file's sides are its low and high labels: keep each
        # side together, or swap the two whole
        n = family.num_pairs
        low, high = list(range(n)), list(range(n, 2 * n))
        rnd.shuffle(low)
        rnd.shuffle(high)
        vperm = high + low if rnd.random() < 0.5 else low + high
    moved_family, moved_planted = relabelled(family, planted, vperm, cperm)
    vback = {v: u for u, v in enumerate(vperm)}
    cback = {c: k for k, c in enumerate(cperm)}
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, fam, t in (("a", family, planted), ("b", moved_family, moved_planted)):
            path = str(Path(tmp) / f"{name}.json")
            Path(path).write_text(cli._json_text(cli.instance_to_obj(fam, t, {}), 1))
            paths.append(path)
        original, moved = paths
        spec = ",".join(map(str, members))
        moved_spec = ",".join(str(vperm[v]) for v in members)

        code, first = _run("second", "--in", original, "--set", spec)
        moved_code, second = _run("second", "--in", moved, "--set", moved_spec)
        assert moved_code == code
        if code == cli.EXIT_OK:
            assert second["valid"] and second["distinct"] and second["omega_member"]
            assert second["value"] == first["value"]

        code, first = _run("multiply", "--in", original, "--set", spec)
        moved_code, second = _run("multiply", "--in", moved, "--set", moved_spec)
        assert moved_code == code
        if code == cli.EXIT_OK:
            assert (second["d"], second["required"]) == (first["d"], first["required"])
            assert second["count"] >= second["required"]
            outputs = [_transversal(family.kind, t) for t in second["transversals"]]
            assert len(set(outputs)) == len(outputs)
            assert all(validate_transversal(moved_family, t).ok for t in outputs)
            enumerate_omega = enumerate_omega_ham if family.kind == KIND_HAM else enumerate_omega_pm
            omega = set(enumerate_omega(family, planted, members))
            for t in outputs:
                back = {edge(vback[u], vback[v]): cback[c] for (u, v), c in t.items}
                assert Transversal.from_map(family.kind, back) in omega

        assert _run("count", "--in", moved) == _run("count", "--in", original)


def test_a_relabelled_all_equal_family_stays_one_shared_subgraph():
    family, planted = gen_regular_all_equal(12, 4, 3)
    rnd = random.Random(5)
    vperm, cperm = list(range(12)), list(range(12))
    rnd.shuffle(vperm)
    rnd.shuffle(cperm)
    moved, moved_planted = relabelled(family, planted, vperm, cperm)
    # every color of an all-equal family maps to the same edge set: share it
    shared = SubgraphFamily(moved.base, [moved.subgraphs[0]] * 12, KIND_HAM)
    fam_c, _ = naturally_index(shared, moved_planted)
    assert fam_c is not shared
    assert all(g is fam_c.subgraphs[0] for g in fam_c.subgraphs)
