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
SAMPLER = "src/transversals/sampler.py"
RNG = "src/transversals/_rng.py"
# the arc rule as support applies it: a cycle's lookups, a matching's row filter
_CYCLE_LOOKUP = "_arcs(True, n, c, [(t, h) for h in ms])"
_MATCHING_FILTER = "_arcs(False, n, m % n, [(m, h) for h in row])"
# a child's memo key, either kind; a matching child's support is filtered from it
_CHILD_KEY = "key = len(vinv), rows2, ms2"

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
    "memo-key-without-set": (MULTIPLIER, _CHILD_KEY, "key = len(vinv), rows2"),
    "expansion-drops-branch-pair": (
        MULTIPLIER, "[cmap[k] for k in cinv], fixed + pairs)", "[cmap[k] for k in cinv], fixed)",
    ),
    "sampled-floor-minus-one": (SAMPLER, "if d < floor:", "if d < floor - 1:"),
    "exchange-may-return-base": (EXCHANGE, "if out == base:", "if False:"),
    "exchange-skips-result-validation": (EXCHANGE, "if not report.ok:", "if False:"),
    "multiply-skips-entry-validation": (MULTIPLIER, "if not report.ok:", "if False:"),
    "kernel-accepts-recolored-path": (MULTIPLIER, "if e in paths and c != paths[e][0]:", "if False:"),
    "multiply-skips-output-validation": (MULTIPLIER, "if not check.ok:", "if False:"),
    "kernel-paths-unchecked": (MULTIPLIER, "    _check_paths(family, kfam, K, paths)\n", ""),
    "kernel-paths-untiled": (MULTIPLIER, "if total != n:", "if False:"),
    "kernel-expansion-skips-contracted-edges": (MULTIPLIER, "if missing:", "if False:"),
    "kernel-expansion-skips-root-membership": (MULTIPLIER, "if f not in base or f not in subs[fc]:", "if False:"),
    "multiply-skips-omega-check": (
        MULTIPLIER,
        "if not all(in_omega(kms, t) for t in out):",
        "if False:",
    ),
    "omega-ham-boundary-color": (
        DIGRAPHS,
        "for v, c in (((m - 1) % n, (m - 1) % n), ((m + 1) % n, m)):",
        "for v, c in (((m - 1) % n, (m - 1) % n), ((m + 1) % n, (m + 1) % n)):",
    ),
    "omega-pm-ignores-member-color": (
        DIGRAPHS, "if (u in s) == (v in s) or (u if u in s else v) % n != c:", "if (u in s) == (v in s):",
    ),
    "prune-accepts-neighbour-head": (EXCHANGE, "if (h - t) % n in (0, 1, n - 1):", "if False:"),
    "cycle-lookup-counts-own-member": (DIGRAPHS, _CYCLE_LOOKUP, "[(t, h) for h in ms]"),
    "matching-lookup-counts-partner": (
        DIGRAPHS, _MATCHING_FILTER, "[(m, h) for h in row if (m < n) != (h < n)]",
    ),
    "matching-support-maps-one-end": (
        DIGRAPHS, "mapped = [new[b] for b in far if 0 <= b < len(new)]", "mapped = [new[b] for b in far]",
    ),
    "child-support-ignores-tables": (
        MULTIPLIER, "admissible_rows(family, ms2, (vt2, ct2))", "admissible_rows(family, ms2)",
    ),
    "cycle-child-support-ignores-tables": (
        MULTIPLIER, "heads2 = support(family, ms2, (vt2, ct2))", "heads2 = support(family, ms2)",
    ),
    "memo-key-from-tables": (MULTIPLIER, _CHILD_KEY, "key = vt2, ct2, ms2"),
    "memo-key-reads-rows-in-wrong-colors": (
        MULTIPLIER, _CHILD_KEY,
        "key = len(vinv), rows2 if ham else admissible_rows(family, ms2, (vt2, ct2[1:] + ct2[:1])), ms2",
    ),
    "kernel-splice-unsorted": (
        MULTIPLIER, "Transversal._canonical(KIND_HAM, _spliced(run, kept))", "Transversal._canonical(KIND_HAM, (*run, *kept))",
    ),
    "coloring-memo-without-signature": (ORACLE, "lambda: (number, used)", "lambda: used"),
    "permanent-prunes-a-row-ahead": (ORACLE, "zip(rows, later[1:])", "zip(rows, later[2:] + [0])"),
    "permanent-takes-a-column-twice": (
        ORACLE, "                if used & bit:  # each column is taken once\n                    continue\n", "",
    ),
    "negative-row-index": ("src/transversals/cli.py", "not 0 <= i < len(out)", "not i < len(out)"),
    "second-skips-omega-check": ("src/transversals/cli.py", "if not omega_ok:", "if False:"),
    "transversal-rows-without-depth": ("src/transversals/cli.py", "rows.setdefault(p0, {})", "rows.setdefault(unit, {})"),
    "pcg-xsl-without-rotation": (RNG, "return (x >> rot | x << (64 - rot)) & _M64", "return x"),
    "rng-half-word-dropped-per-call": (RNG, "out = []", "out, self._high = [], None"),
    "lll-ham-flip-skips-blue-counts": (SAMPLER, "for counts, low in colors:", "for counts, low in colors[:1]:"),
    "pm-flip-skips-the-end-that-leaves": (
        SAMPLER, "for v, d in ((i + n * (1 - b), -1), (i + n * b, 1)):", "for v, d in ((i + n * b, 1),):",
    ),
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
