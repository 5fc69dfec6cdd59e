"""Line coverage of tier-1: the statement lines of the package that never ran.

The script runs tier-1 in a subprocess whose ``PYTHONPATH`` starts with a
temporary directory holding a ``sitecustomize`` module. That module
installs a ``sys.settrace`` line collector for the files of
``src/transversals/`` before anything is imported, and writes what it saw
when the process exits. So a test that runs the CLI as a subprocess and
keeps ``PYTHONPATH`` counts too; one that replaces it (the demo tests)
does not. For each module the script then prints the statement lines
that never ran: lines that start a statement and carry bytecode, with
docstrings left out. Tier-1 does not collect this file.

    python tests/tools/uncovered.py                      # all of tier-1
    python tests/tools/uncovered.py tests/test_cli.py    # pytest arguments

The exit status is pytest's. Only the standard library is used; tier-1
needs pytest and hypothesis.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "transversals"

# the collector each traced process loads; {package} and {out} are filled in
_SITECUSTOMIZE = """\
import atexit, json, os, sys, threading

_PACKAGE, _OUT = {package!r}, {out!r}
_hits = {{}}


def _line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name.startswith(_PACKAGE):
        _hits.setdefault(name, set())
        return _line
    return None


def _dump():
    sys.settrace(None)
    with open(os.path.join(_OUT, f"{{os.getpid()}}.json"), "w") as fh:
        json.dump({{name: sorted(lines) for name, lines in _hits.items()}}, fh)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
"""


def statement_lines(path: Path) -> set[int]:
    """Lines of path that start a statement other than a docstring and
    that the compiler gives bytecode."""
    source = path.read_text()
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt) and node not in docstrings}
    with_code, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return starts & with_code


def ranges(lines: list[int]) -> str:
    """Sorted lines as comma-separated runs, such as ``3, 7-9``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv=None) -> int:
    pytest_args = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory(prefix="uncovered-") as tmp:
        site, out = Path(tmp) / "site", Path(tmp) / "out"
        site.mkdir()
        out.mkdir()
        package = str(PACKAGE.resolve()) + os.sep
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(package=package, out=str(out)))
        path = os.pathsep.join(filter(None, [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
             *pytest_args],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        )
        ran: dict[str, set[int]] = {}
        for dump in out.glob("*.json"):
            for name, lines in json.loads(dump.read_text()).items():
                ran.setdefault(str(Path(name).resolve()), set()).update(lines)
    for module in sorted(PACKAGE.glob("*.py")):
        statements = statement_lines(module)
        missed = sorted(statements - ran.get(str(module.resolve()), set()))
        print(f"{module.relative_to(ROOT)}: {len(missed)} of {len(statements)} statement lines never ran"
              + (f": {ranges(missed)}" if missed else ""))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
