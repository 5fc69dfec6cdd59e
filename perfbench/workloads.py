"""The three workloads: seeded inputs, one pass of operations, output checks.

A workload is built once per process from the benchmark seed, in the
process's own working directory. Building it is the set-up: it writes
whatever instance files the workload does not time. A pass is the fixed list of operations the worker repeats until its
time is up; every repeat of an operation has the same inputs, so its
report must repeat too.

Each operation feeds one of the end-to-end slots ``op1_s``, ``op2_s`` and
``op3_s``; ``SLOTS`` says which command fills which slot per workload.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from transversals import cli
from transversals.generators import gen_planted_pm_family
from transversals.multiplier import enumerate_omega_pm, omega_admissibility_matrix

# dense-io: one large all-equal family, re-read by every command.
DENSE_N, DENSE_M, DENSE_SAMPLES = 200, 30, 3
# sparse-multiply: |S| = d + 1, so the witness generator places every chord
# and the recursion has the same shape for every seed; only positions vary.
# Its files are set-up; multiply also runs at n/2.
SPARSE_N, SPARSE_SET, SPARSE_D = 600, 4, 3
# exact-small: many small random instances, because one instance's cost
# swings by about 25% from seed to seed and the mean over a batch does not.
PM_N, PM_EXTRA, PM_FILES = 8, 4, 16
K6_COUNT = 43200  # (5!/2) cycles of K6 times 6! colorings
PERM_N, PERM_EXTRA, PERM_MATRICES = 14, 3, 12

SLOTS = {
    "dense-io": {"op1_s": "gen", "op2_s": "sample-set", "op3_s": "second"},
    "sparse-multiply": {"op1_s": "multiply n=300", "op2_s": "second", "op3_s": "multiply"},
    "exact-small": {"op1_s": "multiply", "op2_s": "count", "op3_s": "permanent"},
}

Check = Callable[[Any, dict], Optional[str]]


@dataclass
class Op:
    """One timed operation: a CLI command, or a permanent when ``matrix`` is set.

    An op may appear more than once in a pass under one key; all its runs
    then share one list of timings and one determinism signature.

    ``argv`` builds the command line from the reports of earlier operations
    in the pass (keyed by op key). ``check`` returns a failure message or
    None. ``writes`` names a file whose bytes join the op's determinism
    signature.
    """

    key: str
    slot: str
    check: Check
    argv: Optional[Callable[[dict], list[str]]] = None
    matrix: Optional[list[list[int]]] = None
    writes: Optional[str] = None


def _results(report: dict) -> dict:
    return report["results"]


def _check_gen(report, reports):
    if not _results(report)["planted"]:
        return "gen wrote no planted transversal"
    return None


def _check_sample_set(report, reports):
    res = _results(report)
    if res["status"] != "ok":
        return f"sample-set status {res['status']}"
    if res["depth"] < res["guarantee"]["depth_floor"]:
        return f"sample-set depth {res['depth']} below floor {res['guarantee']['depth_floor']}"
    if not res["red_independent"]:
        return "sample-set returned a set that is not red-independent"
    return None


def _check_second(report, reports):
    res = _results(report)
    for flag in ("valid", "distinct", "omega_member"):
        if not res[flag]:
            return f"second: {flag} is false"
    return None


def _check_multiply(need_oracle: bool) -> Check:
    def check(report, reports):
        res = _results(report)
        outs = [
            frozenset((tuple(e), c) for e, c in zip(t["edges"], t["colors"]))
            for t in res["transversals"]
        ]
        if res["count"] < res["required"]:
            return f"multiply gave {res['count']} < required {res['required']}"
        if len(outs) != res["count"] or len(set(outs)) != len(outs):
            return "multiply outputs are not pairwise distinct"
        oracle = res.get("oracle")
        if need_oracle and oracle is None:
            return "multiply skipped the omega cross-check"
        if oracle is not None and not oracle["outputs_in_omega"]:
            return "multiply output outside omega"
        return None

    return check


def _check_count_at_least_multiply(multiply_key: str) -> Check:
    def check(report, reports):
        res = _results(report)
        if res["status"] != "exact":
            return f"count status {res['status']}"
        produced = _results(reports[multiply_key])["count"]
        if res["count"] < produced:
            return f"count {res['count']} below {produced} distinct multiply outputs"
        return None

    return check


def _check_k6(report, reports):
    got = _results(report).get("count")
    if got != K6_COUNT:
        return f"K6 count {got} != {K6_COUNT}"
    return None


def _check_permanent(family, base) -> Check:
    expected: list[int] = []

    def check(value, reports):
        if not expected:  # the enumeration is deterministic: run it once
            expected.append(len(enumerate_omega_pm(family, base, range(family.num_pairs))))
        if value != expected[0]:
            return f"permanent {value} != {expected[0]} omega members"
        return None

    return check


def _gen_quietly(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"set-up command failed with exit {code}: {argv}")


def _seeds(rng: random.Random, k: int) -> list[int]:
    return [rng.randrange(2**31) for _ in range(k)]


def dense_io(seed: int) -> list[Op]:
    path = "dense.json"
    gen = ["gen", "--model", "regular-all-equal", "--n", str(DENSE_N),
           "--m", str(DENSE_M), "--seed", str(seed), "--out", path]
    ops = []
    for j, s in enumerate(_seeds(random.Random(seed), DENSE_SAMPLES)):
        # gen once per sampled set, so all three commands get as many timings
        ops.append(Op("gen", "op1_s", _check_gen, argv=lambda r: gen, writes=path))
        sample = ["sample-set", "--in", path, "--method", "lll-ham", "--seed", str(s)]
        ops.append(Op(f"sample-set:{j}", "op2_s", _check_sample_set, argv=lambda r, a=sample: a))
        ops.append(Op(
            f"second:{j}", "op3_s", _check_second,
            argv=lambda r, j=j: ["second", "--in", path, "--set", ",".join(
                map(str, _results(r[f"sample-set:{j}"])["members"]))],
        ))
    return ops


def _spread_set(rng: random.Random, n: int, k: int) -> list[int]:
    """k cycle positions at pairwise circular distance >= 3 (the generator's rule)."""
    while True:
        ms = sorted(rng.sample(range(n), k))
        if all(min(b - a, n - b + a) >= 3 for i, a in enumerate(ms) for b in ms[i + 1:]):
            return ms


def sparse_multiply(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    # the same recursion at two sizes shows how the digraph build scales
    for n, slot in ((SPARSE_N // 2, "op1_s"), (SPARSE_N, "op3_s")):
        spec = ",".join(map(str, _spread_set(rng, n, SPARSE_SET)))
        path = f"witness{n}.json"
        _gen_quietly(["gen", "--model", "witness", "--n", str(n), "--set", spec,
                      "--d", str(SPARSE_D), "--seed", str(rng.randrange(2**31)), "--out", path])
        if n == SPARSE_N:
            ops.append(Op("second", "op2_s", _check_second,
                          argv=lambda r, p=path, m=spec: ["second", "--in", p, "--set", m]))
        ops.append(Op(f"multiply{n}", slot, _check_multiply(need_oracle=False),
                      argv=lambda r, p=path, m=spec: ["multiply", "--in", p, "--set", m]))
    return ops


def exact_small(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    pairs = ",".join(f"x{i}" for i in range(PM_N))
    for j, s in enumerate(_seeds(rng, PM_FILES)):
        path = f"pm{j}.json"
        _gen_quietly(["gen", "--model", "planted-pm", "--n", str(PM_N),
                      "--extra-degree", str(PM_EXTRA), "--seed", str(s), "--out", path])
        ops.append(Op(f"multiply:{j}", "op1_s", _check_multiply(need_oracle=True),
                      argv=lambda r, p=path: ["multiply", "--in", p, "--set", pairs]))
        ops.append(Op(f"count:{j}", "op2_s", _check_count_at_least_multiply(f"multiply:{j}"),
                      argv=lambda r, p=path: ["count", "--in", p]))
    k6 = "k6.json"
    _gen_quietly(["gen", "--model", "dirac", "--n", "6", "--c", "1.0",
                  "--seed", str(rng.randrange(2**31)), "--out", k6])
    ops.append(Op("count:k6", "op2_s", _check_k6, argv=lambda r: ["count", "--in", k6]))
    for j, s in enumerate(_seeds(rng, PERM_MATRICES)):
        family, planted = gen_planted_pm_family(PERM_N, PERM_EXTRA, s)
        matrix = omega_admissibility_matrix(family, range(PERM_N))
        ops.append(Op(f"permanent:{j}", "op3_s", _check_permanent(family, planted), matrix=matrix))
    return ops


WORKLOADS = {"dense-io": dense_io, "sparse-multiply": sparse_multiply, "exact-small": exact_small}
