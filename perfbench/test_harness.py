"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of the checkout::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

TINY = {
    "verify-all": lambda seed: {
        "kind": "cli", "seed": seed, "digits": 20, "jobs": 2, "records": 4, "pass_s": 1,
        "argv": ["verify", "--suite", "sun-h2", "--digits", "20", "--jobs", "2",
                 "--format", "json", "--seed", str(seed)]},
    "verify-core-100": lambda seed: {
        "kind": "suites", "seed": seed, "digits": 20, "jobs": 1, "records": 8, "pass_s": 1,
        "suites": ["sun-h2", "h2-variants"]},
    "theorem-points": lambda seed: dict(
        workloads.theorem_points(seed), records=16,
        points=[{"re": "0", "im": "1.3", "digits": 20},
                {"re": "0.5", "im": "1.1", "digits": 20}]),
}


def _run(monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(argv)
    assert rc == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def test_listed_workloads_exist():
    # verify-all is runnable but not listed; its harness path is tested below
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS) == set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(monkeypatch, name, trace):
    out = _run(monkeypatch, ["--workload", name, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace)])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {k: v["unit"] for k, v in out["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if not trace:
        assert out["metrics"]["pass_frac"]["value"] == 1.0


def test_wrong_rhs_is_counted_as_failed():
    modzeta = worker._import_program(ROOT)
    spec = TINY["verify-core-100"](modzeta.DEFAULT_SEED)
    rec = modzeta.get_records("sun-h2", spec["seed"])[0]
    rhs = rec.rhs
    object.__setattr__(rec, "rhs", lambda ctx: rhs(ctx) + 1e-12)
    try:
        res = worker._run_suites(spec, None)
    finally:
        object.__setattr__(rec, "rhs", rhs)
    checker = run.Checker(spec)
    checker.check(res)
    assert (checker.attempted, checker.failed) == (8, 1)
    assert checker.min_margin < 0


def test_points_checker_counts_missing_and_wrong_pairs():
    spec = TINY["theorem-points"](1)
    good = [["q_ratios.q1_lhs", "1e-40"]] * 8
    bad = good[:5] + [["h3_linear.lhs2", "1e-3"]]
    checker = run.Checker(spec)
    checker.check({"rc": 0, "points": [
        {"ms": 1.0, "digits": 20, "pairs": good, "error": None},
        {"ms": 1.0, "digits": 20, "pairs": bad, "error": "Traceback\nValueError: x"}]})
    assert (checker.attempted, checker.failed) == (16, 3)
    assert checker.problems == ["ValueError: x"]


def test_points_are_seeded_fresh_and_admissible():
    a, b = workloads.theorem_points(7), workloads.theorem_points(7)
    assert a == b and a != workloads.theorem_points(8)
    pts = a["points"]
    assert len(pts) == 102 and len({(p["re"], p["im"]) for p in pts}) == 102
    for p in pts:
        lo, hi = {"0": (0.65, 1.8), "0.5": (0.75, 1.5)}[p["re"]]
        assert lo <= float(p["im"]) <= hi and p["digits"] in (30, 50, 100)


def test_tracer_rebinds_every_alias():
    code = (
        "import sys, types; sys.path[:0] = [%r, %r]\n"
        "import modzeta, tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "orig = {id(f) for f in t.installed.values()}\n"
        "left = [(n, a) for n, m in list(sys.modules.items())\n"
        "        if n.startswith('modzeta') for a, v in vars(m).items() if id(v) in orig]\n"
        "assert not left, left\n"
        "assert 'series.binom3_series' in t.installed\n"
        "assert modzeta.verify.registry.binom3_series is modzeta.series.binom3_series\n"
        % (os.path.join(ROOT, "src"), HERE))
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem-points",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
