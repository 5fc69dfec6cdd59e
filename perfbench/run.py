"""Benchmark of the transversals CLI, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-io --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are listed in BENCHMARK.json at the root;
perfbench/README.md says what each one measures. One worker process
measures the workload (see worker.py); set-up-only worker processes
started before and after it are timed for ``setup_s``. All run one at a
time and single-threaded. It prints the machine context and a summary, and as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Exits with 2, printing no result, when the directory holds no
``src/transversals`` to measure or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
# setup_s is the median over the measuring worker's start and this many
# set-up-only starts on each side of it; the machine's speed drifts over
# a run, and starts at both ends sample more of that drift.
SETUP_PROBES_EACH_SIDE = 4
SETUP_STARTS = 2 * SETUP_PROBES_EACH_SIDE + 1
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
WORKER_TIMEOUT_S = 170.0


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine_context(seed: int) -> str:
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches.append(f"L{level}={_read(f'{index}/size')}")
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return (
        f"machine: nproc={os.cpu_count()} cpu=\"{model}\" {' '.join(caches)} "
        f"python={platform.python_version()} numpy={numpy_version} seed={seed}; "
        f"BLAS/OpenMP threads pinned to 1; instance files are read from a warm "
        f"page cache (the benchmark cannot drop caches)"
    )


def run_worker(argv: list[str], env: dict) -> tuple[float, list[str]]:
    """Start a worker; return (seconds until it printed ``ready``, at reference
    speed as sampled just before the start, and its later lines)."""
    speed = calibrate.speed_sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise RuntimeError(f"worker {argv[2:]} exited with {code}")
    return ready * calibrate.scale(speed, speed), rest


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "transversals", "__init__.py")):
        print("error: no src/transversals here; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    scratch = os.path.join(root, ".perfbench")
    work = os.path.join(scratch, f"run-{os.getpid()}")
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=os.path.join(root, "src"))
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--work", work]
    spans = os.path.join(scratch, f"spans-{args.workload}-{args.seed}.jsonl.gz")
    probe = base + ["--setup-only"]
    try:
        setups = [run_worker(probe, env)[0] for _ in range(SETUP_PROBES_EACH_SIDE)]
        ready, lines = run_worker(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans], env)
        setups.append(ready)
        setups += [run_worker(probe, env)[0] for _ in range(SETUP_PROBES_EACH_SIDE)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    worker = json.loads(lines[-1])
    measured = worker["per_layer"] if args.trace else {**worker["end_to_end"], "setup_s": statistics.median(setups)}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: the worker measured no {', '.join(missing)}", file=sys.stderr)
        return 1

    print(machine_context(args.seed))
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print(f"  setup_s    {measured['setup_s']:.4f} s at reference speed, median of {SETUP_STARTS} "
              f"worker starts (interpreter, imports, set-up files)")
        print(f"  peak_rss_mb {measured['peak_rss_mb']:.1f} MB")
    print(json.dumps({
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
