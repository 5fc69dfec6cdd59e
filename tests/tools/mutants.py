"""Mutation check: each listed mutant must make tier-1 fail.

Each mutant replaces one exact piece of source text. The script copies the
checkout to a temporary directory, applies one mutant there, runs tier-1
with ``-x`` and reports whether a test failed (the mutant is killed) or
all passed (it survived). The checkout itself is never edited. Tier-1 does
not collect this file.

    python tests/tools/mutants.py            # every mutant
    python tests/tools/mutants.py --list     # names only
    python tests/tools/mutants.py NAME ...   # the named ones

The exit status is 0 when every mutant run was killed, 1 when one
survived, and 2 when a mutant's text no longer occurs exactly once.
Only the standard library is used; tier-1 needs pytest and hypothesis.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ORACLE = "src/transversals/oracle.py"
MULTIPLIER = "src/transversals/multiplier.py"
EXCHANGE = "src/transversals/exchange.py"
DIGRAPHS = "src/transversals/digraphs.py"
# the arc rule as support_through's lookup applies it
_LOOKUP = "_arcs(cycle, n, c, [(t, h) for h in candidates])"

# name -> (file, text, replacement)
MUTANTS = {
    "pm-key-without-matched": (
        ORACLE, "lambda: used << n | matched", "lambda: used << n",
    ),
    "pm-key-without-colors": (
        ORACLE, "lambda: used << n | matched", "lambda: matched",
    ),
    "hit-guard-strict": (
        ORACLE,
        "self.nodes + nodes <= self.budget.max_nodes",
        "self.nodes + nodes < self.budget.max_nodes",
    ),
    "hit-guard-without-result-cap": (
        ORACLE,
        "self.nodes + nodes <= self.budget.max_nodes and (cap is None or self.found + found < cap)",
        "self.nodes + nodes <= self.budget.max_nodes",
    ),
    "floor-d-factorial": (
        MULTIPLIER,
        "len(out) < math.factorial(d + 1)",
        "len(out) < math.factorial(d)",
    ),
    "lll-scan-cap-doubled": (
        "src/transversals/cli.py",
        "args.hi > LLL_SCAN_MAX_HI",
        "args.hi > 2 * LLL_SCAN_MAX_HI",
    ),
    "depth-drop-by-two": (MULTIPLIER, "d2 < d - 1", "d2 < d - 2"),
    "d-targets-suffice": (MULTIPLIER, "len(branches) < d + 1", "len(branches) < d"),
    "memo-key-without-set": (MULTIPLIER, "key = len(vinv), subs2, ms2", "key = len(vinv), subs2"),
    "expansion-drops-branch-pair": (
        MULTIPLIER, "[cmap[k] for k in cinv], fixed + pairs)", "[cmap[k] for k in cinv], fixed)",
    ),
    "sampled-floor-minus-one": ("src/transversals/sampler.py", "if d < floor:", "if d < floor - 1:"),
    "exchange-may-return-base": (EXCHANGE, "if out == base:", "if False:"),
    "multiply-skips-entry-validation": (MULTIPLIER, "if not report.ok:", "if False:"),
    "kernel-accepts-recolored-path": (MULTIPLIER, "if e in paths and c != paths[e][0]:", "if False:"),
    "multiply-skips-output-validation": (MULTIPLIER, "if not check.ok:", "if False:"),
    "kernel-paths-unchecked": (MULTIPLIER, "    _check_paths(family, kfam, K, paths)\n", ""),
    "kernel-paths-untiled": (MULTIPLIER, "if total != n:", "if False:"),
    "kernel-expansion-skips-contracted-edges": (MULTIPLIER, "if missing:", "if False:"),
    "kernel-expansion-skips-root-membership": (MULTIPLIER, "if f not in base or f not in subs[fc]:", "if False:"),
    "multiply-skips-omega-check": (
        MULTIPLIER,
        "if family.kind == KIND_HAM and not all(omega_member_ham(kbase, kms, t) for t in out):",
        "if False:",
    ),
    "cycle-lookup-counts-own-member": (
        DIGRAPHS, _LOOKUP, f"({_LOOKUP} if not cycle else [(t, h) for h in candidates])",
    ),
    "matching-lookup-counts-partner": (
        DIGRAPHS, _LOOKUP, f"({_LOOKUP} if cycle else [(t, h) for h in candidates if (t < n) != (h < n)])",
    ),
    "memo-key-from-tables": (MULTIPLIER, "key = len(vinv), subs2, ms2", "key = vt2, ct2, ms2"),
    "kernel-splice-unsorted": (
        MULTIPLIER, "Transversal._canonical(KIND_HAM, _spliced(run, kept))", "Transversal._canonical(KIND_HAM, (*run, *kept))",
    ),
    "coloring-memo-without-signature": (ORACLE, "lambda: (number, used)", "lambda: used"),
    "negative-row-index": ("src/transversals/cli.py", "not 0 <= i < len(out)", "not i < len(out)"),
    "second-skips-omega-check": ("src/transversals/cli.py", "if not omega_ok:", "if False:"),
}

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench")


def run(name: str) -> tuple[bool, str]:
    """Apply one mutant to a fresh copy and run tier-1: whether it was
    killed, and the failing test with pytest's last line."""
    file, text, replacement = MUTANTS[name]
    source = (ROOT / file).read_text()
    if source.count(text) != 1:
        raise LookupError(f"{name}: {text!r} occurs {source.count(text)} times in {file}")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        (copy / file).write_text(source.replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    failed = [line.split(" - ")[0].removeprefix("FAILED ") for line in lines if line.startswith("FAILED ")]
    return done.returncode != 0, "; ".join(failed + lines[-1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(MUTANTS))
    if unknown:
        parser.error(f"unknown mutant {', '.join(unknown)}; --list names them")
    if args.list:
        print("\n".join(MUTANTS))
        return 0
    survived = 0
    for name in args.names or MUTANTS:
        start = time.perf_counter()
        try:
            killed, summary = run(name)
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        survived += not killed
        verdict = "killed" if killed else "SURVIVED"
        print(f"{name}: {verdict} ({summary}; {time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
