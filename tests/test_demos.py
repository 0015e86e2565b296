"""Every demo script, and README's Quick start, runs to completion against
the source tree."""

import itertools
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    _run([str(demo)])


def test_readme_quick_start_prints_its_comments():
    # each print line commented with numbers (``# 2.338, 6.496``) prints
    # those numbers at the comment's decimals; the commented prints come
    # first, one output line each
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    comments = [re.match(r"\s*([-\d.]+(?:,\s*[-\d.]+)*)", line.partition("#")[2])
                for line in code.splitlines() if line.startswith("print(")]
    expected = [m.group(1).split(",") for m in itertools.takewhile(bool, comments)]
    assert expected
    out = _run(["-c", code]).splitlines()
    for line, numbers in zip(out, expected):
        got = line.split()
        assert len(got) == len(numbers), line
        for value, number in zip(got, numbers):
            decimals = len(number.strip().partition(".")[2])
            assert f"{float(value):.{decimals}f}" == number.strip(), line
