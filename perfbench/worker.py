"""One workload in one process: set up, print ``ready``, measure, check, report.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``.
With ``--setup-only`` it exits right after ``ready``; ``run.py`` times
several such starts for ``setup_s``. Otherwise it repeats the workload's
pass of operations until ``--seconds`` are used up (the first pass always
completes), then prints a human-readable summary and, as its last line,
one JSON object with the counts and metrics.

Every operation is timed alone, after a garbage collection, between two
speed samples (see calibrate.py), and checked outside its timed interval.
A repeat of an operation must print the same report apart from
``wall_time_s`` (and write the same bytes, for ``gen``). With ``--trace 1``
each operation runs twice in a row, untraced and then traced; the
difference is the tracing overhead, and the traced copy must repeat the
untraced report and, on later passes, its own span counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import transversals
from transversals import cli, oracle

import calibrate
import tracer as tr
import workloads

# A traced operation's span self times must add up to its wall time within
# this tolerance; the gap is the root wrapper and stdout capture.
SELF_SUM_REL_TOL = 0.02
SELF_SUM_ABS_TOL_S = 0.002
MAX_REPORTED_FAILURES = 20


class OpFailed(Exception):
    pass


def _timed(fn, arg):
    """(result, wall seconds, factor to reference speed) of one call."""
    gc.collect()
    before = calibrate.speed_sample()
    t0 = perf_counter()
    out = fn(arg)
    wall = perf_counter() - t0
    return out, wall, calibrate.scale(before, calibrate.speed_sample())


def _cli_main(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code


def execute(op: workloads.Op, reports: dict, wrap=None):
    """Run op once; return (output, wall seconds, factor to reference speed)."""
    if op.matrix is not None:
        fn = oracle.permanent if wrap is None else wrap("oracle.permanent", oracle.permanent, "bench")
        return _timed(fn, op.matrix)
    argv = op.argv(reports)
    fn = _cli_main if wrap is None else wrap("cli.main", _cli_main, "bench")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, wall, factor = _timed(fn, argv)
    if code != cli.EXIT_OK:
        raise OpFailed(f"exit code {code}")
    return json.loads(buf.getvalue()), wall, factor


def signature(op: workloads.Op, out):
    if op.matrix is not None:
        return out
    sig = {k: v for k, v in out.items() if k != "wall_time_s"}
    if op.writes:
        with open(op.writes, "rb") as fh:
            sig["file_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return sig


def span_counts(table: dict) -> dict:
    return {name: (row["calls"], row["count"], row["errors"]) for name, row in table.items()}


def _new_row() -> dict:
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0, "count": 0, "via": defaultdict(int)}


class Run:
    def __init__(self, ops: list[workloads.Op], trace: bool):
        self.ops = ops
        self.per_pass = Counter(op.key for op in ops)  # runs of each key in one pass
        self.tracer = tr.Tracer() if trace else None
        self.times = defaultdict(list)         # key -> seconds at reference speed
        self.wall = defaultdict(list)          # key -> wall seconds
        self.traced_times = defaultdict(list)  # key -> traced seconds at reference speed
        self.traced_wall = defaultdict(list)
        self.tables = defaultdict(list)        # key -> span tables of traced runs
        self.signatures: dict = {}
        self.reports: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.unaccounted = 0.0
        self.passes = 0

    def attempt(self, op: workloads.Op) -> None:
        self.attempted += 1
        try:
            msg = self._attempt(op)
        except (Exception, SystemExit) as exc:
            msg = f"{type(exc).__name__}: {exc}"
        if msg is not None:
            self.failures.append(f"{op.key}: {msg}")

    def _attempt(self, op: workloads.Op):
        out, wall, factor = execute(op, self.reports)
        self.wall[op.key].append(wall)
        self.times[op.key].append(wall * factor)
        if op.matrix is None:
            self.reports[op.key] = out
        msg = op.check(out, self.reports)
        if msg is not None:
            return msg
        sig = signature(op, out)
        if self.signatures.setdefault(op.key, sig) != sig:
            return "report differs from an earlier run of the same inputs"
        if self.tracer is None:
            return None
        return self._traced(op, sig)

    def _traced(self, op: workloads.Op, sig):
        t = self.tracer
        first = len(t.spans)
        t.op = self.attempted
        t.install()
        try:
            out, wall, factor = execute(op, self.reports, wrap=t.wrap)
        finally:
            t.uninstall()
        self.traced_wall[op.key].append(wall)
        self.traced_times[op.key].append(wall * factor)
        table, self_sum = tr.op_stats(t.spans, first)
        for row in table.values():
            row["self_s"] *= factor
            row["total_s"] *= factor
        gap = abs(wall - self_sum)
        self.unaccounted = max(self.unaccounted, gap / wall)
        tables = self.tables[op.key]
        tables.append(table)
        if signature(op, out) != sig:
            return "traced report differs from the untraced one"
        if gap > SELF_SUM_REL_TOL * wall + SELF_SUM_ABS_TOL_S:
            return f"span self times sum to {self_sum:.6f} s of {wall:.6f} s"
        if span_counts(tables[0]) != span_counts(table):
            return "span counts differ from an earlier traced run"
        return None

    def measure(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while True:
            for op in self.ops:
                if self.passes and perf_counter() + self._predicted(op) > deadline:
                    return
                self.attempt(op)
            self.passes += 1

    def _predicted(self, op) -> float:
        return sum(self.wall[op.key][-1:] + self.traced_wall[op.key][-1:])

    # ---- metrics -------------------------------------------------------

    def keys(self, slot: str) -> list[str]:
        return list(dict.fromkeys(op.key for op in self.ops if op.slot == slot))

    def slot_value(self, slot: str, times: dict) -> float:
        """Mean over the slot's inputs of each input's median time (0 if none ran)."""
        medians = [statistics.median(times[k]) for k in self.keys(slot) if times[k]]
        return statistics.fmean(medians) if medians else 0.0

    def slots(self) -> list[str]:
        return sorted({op.slot for op in self.ops})

    def pass_table(self) -> dict:
        """Span table of one pass: per operation the mean over its traced runs."""
        total: dict = defaultdict(_new_row)
        for key, tables in self.tables.items():
            k = self.per_pass[key]
            for name in tables[0]:
                rows = [tb[name] for tb in tables if name in tb]
                row = total[name]
                for field in ("calls", "count", "errors"):
                    row[field] += k * rows[0][field]
                row["self_s"] += k * statistics.fmean(r["self_s"] for r in rows)
                row["total_s"] += k * statistics.fmean(r["total_s"] for r in rows)
                for via, n in rows[0]["via"].items():
                    row["via"][via] += k * n
        return total

    def per_layer(self) -> tuple[dict, dict]:
        F = self.pass_table()

        def self_s(*names):
            return sum(F[n]["self_s"] for n in names if n in F)

        def calls(*names, via=None):
            return sum((F[n]["via"].get(via, 0) if via else F[n]["calls"]) for n in names if n in F)

        def count(*names):
            return sum(F[n]["count"] for n in names if n in F)

        def ratio(a, b):
            return a / b if b else 0.0

        traced = sum(self.per_pass[k] * statistics.median(v) for k, v in self.traced_times.items())
        untraced = sum(self.per_pass[k] * statistics.median(self.times[k]) for k in self.traced_times)
        multiplied = [r["results"] for r in self.reports.values() if r["command"] == "multiply"]
        samplers = ("sampler.sample_set_lll_ham", "sampler.sample_set_dirac", "sampler.sample_set_pm")
        counters = ("oracle.count_ham_transversals", "oracle.count_pm_transversals")
        n_samples, resamples = calls(*samplers), count(*samplers)
        m = {
            "cli.json_load_s": self_s("cli.json_load"),
            "cli.instance_from_obj_s": self_s("cli.instance_from_obj"),
            "core.validate_family_s": self_s("core.validate_family"),
            "core.naturally_index_s": self_s("core.naturally_index"),
            "core.naturally_index.calls": calls("core.naturally_index"),
            "cli.json_dump_s": self_s("cli.json_dump"),
            "cli.instance_to_obj_s": self_s("cli.instance_to_obj"),
            "cli.bytes_written": count("cli.json_dump"),
            "cli.bytes_read": count("cli.json_load"),
            "cli.report_dumps_s": self_s("cli.report_dumps"),
            "cli.transversal_to_obj_s": self_s("cli.transversal_to_obj"),
            "digraphs.build_full_ryb_s": self_s("digraphs.build_full_ryb"),
            "digraphs.build_full_rb_s": self_s("digraphs.build_full_rb"),
            "digraphs.arcs": count("digraphs.build_full_ryb", "digraphs.build_full_rb"),
            "multiplier.nodes": calls("digraphs.d_star", "digraphs.d_cross", via="multiplier"),
            "multiplier.witness_rounds": calls(
                "exchange.second_ham_transversal", "exchange.second_pm_transversal", via="multiplier"),
            "multiplier.outputs": count("multiplier.many_ham_transversals", "multiplier.many_pm_transversals"),
            "multiplier.outputs_over_required": ratio(
                sum(r["count"] for r in multiplied), sum(r["required"] for r in multiplied)),
            "multiplier.many_ham_self_s": self_s("multiplier.many_ham_transversals"),
            "multiplier.many_pm_self_s": self_s("multiplier.many_pm_transversals"),
            "exchange.walk_states": count("exchange.lollipop_walk"),
            "exchange.cycle_length": count("exchange.second_pm_transversal"),
            "exchange.second_ham_s": self_s("exchange.second_ham_transversal"),
            "exchange.second_pm_s": self_s("exchange.second_pm_transversal"),
            "sampler.resamples": resamples,
            "sampler.accept_ratio": ratio(n_samples, n_samples + resamples),
            "sampler.sample_set_lll_ham_s": self_s("sampler.sample_set_lll_ham"),
            "oracle.count_ham_s": self_s("oracle.count_ham_transversals"),
            "oracle.count_pm_s": self_s("oracle.count_pm_transversals"),
            "oracle.results": count(*counters),
            "oracle.results_per_s": ratio(count(*counters), self_s(*counters)),
            "oracle.permanent_s": self_s("oracle.permanent"),
            "trace.overhead_s": traced - untraced,
            "trace.overhead_share": ratio(traced - untraced, untraced),
            "trace.unaccounted_share": self.unaccounted,
            "trace.span_errors": sum(row["errors"] for row in F.values()),
        }
        for layer in tr.LAYERS:
            m[f"{layer}.self_share"] = ratio(self_s(*(n for n in F if n.split(".")[0] == layer)), traced)
        return m, F


def write_spans(t: tr.Tracer, path: str) -> None:
    fields = ("name", "via", "op", "parent", "start", "end", "error", "count")
    with gzip.open(path, "wt") as fh:
        for s in t.spans:
            fh.write(json.dumps(dict(zip(fields, s))) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="working directory for the instance files")
    p.add_argument("--spans", help="gzip JSONL file for the spans of a traced run")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    expected_src = os.path.join(os.getcwd(), "src", "transversals")
    if os.path.dirname(os.path.abspath(transversals.__file__)) != expected_src:
        print(f"error: imported transversals from {transversals.__file__}, not {expected_src}",
              file=sys.stderr)
        return 2
    os.makedirs(args.work, exist_ok=True)
    os.chdir(args.work)  # reports then name instance files the same way in every run
    ops = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    run = Run(ops, trace=bool(args.trace))
    run.measure(args.seconds)
    failed = len(run.failures)
    for msg in run.failures[:MAX_REPORTED_FAILURES]:
        print(f"FAIL {msg}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {run.passes} full passes, "
          f"{run.attempted} operations, {failed} failed, "
          f"error_rate={failed / run.attempted:.4f}")
    # equal at a fixed seed across runs: compare it between two runs
    counted = [run.signatures.get(k) for k in run.per_pass]
    if args.trace:
        counted += [span_counts(t[0]) for t in run.tables.values()]
    digest = hashlib.sha256(json.dumps(counted, sort_keys=True).encode()).hexdigest()[:16]
    print(f"determinism digest of reports{' and span counts' if args.trace else ''}: {digest}")
    result = {"attempted": run.attempted, "failed": failed}
    if args.trace:
        metrics, F = run.per_layer()
        print("per pass, per wrapped function (seconds at reference speed): calls, self_s, total_s, errors")
        for name, row in sorted(F.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:40s} {row['calls']:8d} {row['self_s']:10.4f} "
                  f"{row['total_s']:10.4f} {row['errors']:3d}")
        print("layer self share: " + ", ".join(
            f"{layer} {metrics[layer + '.self_share']:.3f}" for layer in tr.LAYERS))
        print(f"tracing overhead per pass: {metrics['trace.overhead_s']:.4f} s "
              f"({100 * metrics['trace.overhead_share']:.1f}% of the untraced pass); "
              f"span self times match wall time within {100 * metrics['trace.unaccounted_share']:.3f}% "
              f"(tolerance {100 * SELF_SUM_REL_TOL:.0f}% + {1000 * SELF_SUM_ABS_TOL_S:.0f} ms)")
        if args.spans:
            write_spans(run.tracer, args.spans)
            print(f"spans: {len(run.tracer.spans)} written to {args.spans}")
        result["per_layer"] = metrics
    else:
        slots = {slot: run.slot_value(slot, run.times) for slot in run.slots()}
        for slot, command in workloads.SLOTS[args.workload].items():
            keys = run.keys(slot)
            runs = sorted({len(run.times[k]) for k in keys})
            span = f"{runs[0]}" if runs[0] == runs[-1] else f"{runs[0]}-{runs[-1]}"
            print(f"  {slot} = {command:14s} {slots[slot]:.4f} s at reference speed "
                  f"(wall {run.slot_value(slot, run.wall):.4f} s), mean over {len(keys)} inputs "
                  f"of the median of {span} runs each")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["end_to_end"] = {**slots, "peak_rss_mb": rss}
    result["correct"] = failed == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
