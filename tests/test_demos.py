"""Smoke tests: the demos run and report matching sides."""

import os
import re
import subprocess
import sys

from mpmath import mpf

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_demo(*argv):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", argv[0])]
                          + list(argv[1:]), cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_tables_demo():
    out = _run_demo("01_reproduce_tables.py")
    matched = re.findall(r"-> (\d+)/(\d+) cells matched", out)
    assert len(matched) == 2, out
    for passed, total in matched:
        assert passed == total and int(total) > 0


def test_theorem_walkthrough_demo():
    out = _run_demo("02_theorem_walkthrough.py", "0.5", "0.9", "30")
    diffs = re.findall(r"\|diff\|\s*=\s*(\S+)", out)
    assert len(diffs) == 8, out
    assert all(mpf(d) < mpf(10) ** -25 for d in diffs), diffs


def test_integral_identities_demo():
    out = _run_demo("03_integral_identities.py", "20")
    diffs = re.findall(r"\|diff\|\s+(\S+)", out)
    assert len(diffs) == 4, out
    assert all(mpf(d) < mpf(10) ** -15 for d in diffs), diffs
    assert "j)" not in out
