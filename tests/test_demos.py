"""Each script in demos/ runs to completion as a user would run it."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    done = _run(demo, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert "Traceback" not in done.stderr


def test_oracle_demo_permanent_equals_enumeration(tmp_path):
    out = _run(ROOT / "demos" / "oracle_counts.py", tmp_path).stdout
    enumerated = re.search(r"^enumerated members: (\d+)$", out, re.M)
    perm = re.search(r"^permanent of the admissibility matrix: (\d+)$", out, re.M)
    assert enumerated and perm, out
    assert enumerated.group(1) == perm.group(1)


def test_readme_library_example_runs(tmp_path):
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library example"):]
    start = section.index("```python\n") + len("```python\n")
    example = tmp_path / "readme_example.py"
    example.write_text(section[start:section.index("```", start)])
    done = _run(example, tmp_path)
    assert done.returncode == 0, done.stderr
    depth, last = done.stdout.splitlines()
    d, count = last.split()
    assert depth == d == "2" and int(count) >= 6
