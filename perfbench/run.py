"""modzeta benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a modzeta checkout::

    python3 perfbench/run.py --workload verify-core-100 --seed 1 --seconds 35 --trace 0

Every pass of the workload runs in a fresh process (``worker.py``), so no
memo survives from one pass to the next.  With ``--trace 0`` the run makes
as many passes as fit in ``--seconds`` at the workload's nominal pass time
(at least one), and the end-to-end metrics are medians over passes.  With ``--trace 1`` one traced pass gives the
per-layer metrics; the verify workloads also run one untraced pass, whose
report rows give the runner metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from decimal import Decimal

from workloads import ALL_SUITES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"  # span files of traced runs, under the checkout
SETUP_PROBES = 5            # fresh processes per run that only set up
DEADLINE_S = 170.0          # a run must finish within 180 s

SERIES_FNS = {
    "binom3_series": ("binom3_series",),
    "binom2_series": ("binom2_series",),
    "ell_k": ("ell_k", "ell_k_comp"),
    "cvz_alt_sum": ("cvz_alt_sum",),
    "hyp_lambert": ("hyp_lambert",),
    "eli": ("eli",),
}


class PassFailed(Exception):
    pass


def run_worker(spec: dict, root: str, deadline: float) -> dict:
    """Run one pass in a fresh process group; kill the whole group on timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.Popen([sys.executable, WORKER], cwd=root, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(spec),
                                    timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed("pass exceeded the run deadline")
    finally:
        # pool workers left behind by a crashed pass share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed("worker exited with %s: %s" % (proc.returncode, err.strip()[-2000:]))
    return json.loads(lines[-1])


# -- correctness --------------------------------------------------------------

def _margin(resid: str, digits: int):
    """Digits by which a residual clears the 10^-(digits-5) bar (None if exactly 0)."""
    r = Decimal(resid)
    if r == 0:
        return None
    return float(-r.log10()) - (digits - 5)


class Checker:
    """Independent pass/fail accounting against the bar 10^-(digits-5).

    The bar does not use the program's own ``tol_exponent``.  Failures are
    counted, never raised: they feed ``pass_frac`` and ``min_margin_digits``.
    """

    def __init__(self, spec: dict):
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.min_margin = math.inf
        self.problems: list = []

    def _identity(self, ok: bool, resid: str, digits: int) -> None:
        self.attempted += 1
        m = _margin(resid, digits)
        if m is not None:
            self.min_margin = min(self.min_margin, m)
        if not (ok and (m is None or m > 0)):
            self.failed += 1

    def whole_pass_failed(self, why: str) -> None:
        self.problems.append(why)
        self.attempted += self.spec["records"]
        self.failed += self.spec["records"]

    def check(self, res: dict) -> None:
        spec = self.spec
        if "error" in res:
            self.whole_pass_failed(res["error"].strip().splitlines()[-1])
            return
        if spec["kind"] == "points":
            for p in res["points"]:
                if p["error"]:
                    self.problems.append(p["error"].strip().splitlines()[-1])
                for _, resid in p["pairs"]:
                    self._identity(True, resid, p["digits"])
                missing = 8 - len(p["pairs"])
                self.attempted += missing
                self.failed += missing
            return
        rows = res["rows"]
        failed_before = self.failed
        for r in rows:
            self._identity(r["pass"], r["abs_residual"], spec["digits"])
        missing = spec["records"] - len(rows)
        if missing:
            self.problems.append("%d records reported, %d expected"
                                 % (len(rows), spec["records"]))
            self.attempted += max(0, missing)
            self.failed += abs(missing)
        if res["rc"] != 0 and self.failed == failed_before:
            self.problems.append("exit status %d with every identity passing"
                                 % res["rc"])
            self.failed += 1


# -- metrics -------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at least (1-q)*n samples lie at or above it."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def latency_percentiles(spec: dict, good: list):
    """(p50, p90, samples) of request latency in ms, pooled over all passes.

    A request is one theorem point on theorem-points and one registry record
    (its report row time) on the verify workloads.
    """
    if spec["kind"] == "points":
        lat = [p["ms"] for res in good for p in res["points"]]
    else:
        lat = [r["elapsed_ms"] for res in good for r in res["rows"]]
    return percentile(lat, 0.5), percentile(lat, 0.9), len(lat)


def end_to_end(spec: dict, passes: list, setups: list, checker: Checker) -> dict:
    good = [p for p in passes if "error" not in p]
    if not good:
        raise PassFailed("no pass completed")
    p50, p90, samples = latency_percentiles(spec, good)
    print("%s seed=%d: %d pass(es), %d setups, %d latency samples"
          % (spec["name"], spec["seed"], len(passes), len(setups), samples))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in good), "s"),
        "point_ms_p50": (p50, "ms"),
        "point_ms_p90": (p90, "ms"),
        "pass_frac": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
        "min_margin_digits": (checker.min_margin, "digits"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in good), "MB"),
    }


def runner_layer(spec: dict, untraced) -> dict:
    """Runner metrics from the report rows of an untraced pass (zero without one)."""
    rows = untraced["rows"] if untraced else []
    ms = [r["elapsed_ms"] for r in rows]
    out = {"runner.suite_s.%s" % s:
           (sum(r["elapsed_ms"] for r in rows if r["suite"] == s) / 1000.0, "s")
           for s in ALL_SUITES}
    out["runner.record_ms_p50"] = (percentile(ms, 0.5) if ms else 0.0, "ms")
    out["runner.record_ms_p95"] = (percentile(ms, 0.95) if ms else 0.0, "ms")
    out["runner.critical_record_s"] = (max(ms, default=0.0) / 1000.0, "s")
    out["runner.parallel_eff"] = (
        sum(ms) / 1000.0 / (spec["jobs"] * untraced["wall_s"]) if rows else 0.0, "ratio")
    return out


def per_layer(spec: dict, traced: dict, untraced) -> dict:
    t = traced["trace"]
    calls, self_s = t["calls"], t["self_s"]
    layer_self, layer_incl = t["layer_self_s"], t["layer_incl_s"]

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def own(*names):
        return sum(self_s.get(x, 0.0) for x in names)

    out = runner_layer(spec, untraced)
    out["registry.build_s"] = (layer_incl.get("registry", 0.0), "s")
    out["theorems.calls"] = (sum(c for k, c in calls.items()
                                 if k.startswith("theorems.")), "count")
    out["theorems.self_s"] = (layer_self.get("theorems", 0.0), "s")
    out["theorems.repeat_ratio"] = (t["repeat"]["theorems"], "ratio")
    for key, fns in SERIES_FNS.items():
        names = ["series.%s" % f for f in fns]
        out["series.%s.calls" % key] = (n(*names), "count")
        out["series.%s.self_s" % key] = (own(*names), "s")
    out["series.self_s"] = (layer_self.get("series", 0.0), "s")
    out["quadrature.tanh_sinh.calls"] = (n("quadrature.tanh_sinh"), "count")
    out["quadrature.integrand_calls"] = (t["integrand_calls"], "count")
    out["quadrature.levels_max"] = (t["levels_max"], "count")
    out["quadrature.unconverged"] = (t["unconverged"], "count")
    out["quadrature.incl_s"] = (layer_incl.get("quadrature", 0.0), "s")
    out["quadrature.self_s"] = (layer_self.get("quadrature", 0.0), "s")
    out["eichler.calls"] = (n("eichler.eichler4", "eichler.eichler6"), "count")
    out["eichler.self_s"] = (layer_self.get("eichler", 0.0), "s")
    out["eichler.repeat_ratio"] = (t["repeat"]["eichler"], "ratio")
    for f in ("eta", "eisenstein", "lambda_fn"):
        out["modular.%s.self_s" % f] = (own("modular.%s" % f), "s")
    out["modular.self_s"] = (layer_self.get("modular", 0.0), "s")
    out["arith.dirichlet_l.calls"] = (n("arith.dirichlet_l"), "count")
    out["arith.dirichlet_l.repeat_ratio"] = (t["repeat"]["dirichlet_l"], "ratio")
    out["arith.epstein2.self_s"] = (own("arith.epstein2"), "s")
    out["arith.self_s"] = (layer_self.get("arith", 0.0), "s")
    out["mpcore.const_zeta.calls"] = (n("mpcore.const_zeta"), "count")
    out["mpcore.const_zeta.repeat_ratio"] = (t["repeat"]["const_zeta"], "ratio")
    out["mpcore.hurwitz_zeta_raw.self_s"] = (own("mpcore.hurwitz_zeta_raw"), "s")
    out["mpcore.self_s"] = (layer_self.get("mpcore", 0.0), "s")
    out["trace.overhead_frac"] = (t["spans"] * t["span_cost_s"] / t["traced_s"], "ratio")
    out["trace.coverage"] = (t["covered_s"] / t["traced_s"], "ratio")
    return out


# -- runs ------------------------------------------------------------------------

def timed_run(spec: dict, root: str, seconds: int, checker: Checker, deadline: float):
    # a fixed number of passes for a given --seconds, so that a faster
    # program is measured on the same work
    n_passes = max(1, round(seconds / spec["pass_s"]))
    setups, passes = [], []
    for _ in range(n_passes):
        # set-up probes are spread over the run, so their median sees the
        # same machine conditions as the passes
        setups += [run_worker(dict(spec, probe=True), root, deadline)["setup_s"]
                   for _ in range(max(1, SETUP_PROBES // n_passes))]
        try:
            res = run_worker(spec, root, deadline)
        except PassFailed as exc:
            res = {"error": str(exc)}
        else:
            setups.append(res["setup_s"])
        checker.check(res)
        passes.append(res)
    return end_to_end(spec, passes, setups, checker)


def traced_run(spec: dict, root: str, checker: Checker, deadline: float):
    untraced = None
    if spec["kind"] != "points":
        untraced = run_worker(spec, root, deadline)
        checker.check(untraced)
        if "error" in untraced:
            untraced = None
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    span_file = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (spec["name"], spec["seed"]))
    traced = run_worker(dict(spec, trace=True, span_file=span_file), root, deadline)
    checker.check(traced)
    if "error" in traced:
        raise PassFailed(traced["error"])
    print("%s seed=%d: traced pass %.1f s, %d spans written to %s"
          % (spec["name"], spec["seed"], traced["trace"]["traced_s"],
             traced["trace"]["spans"], span_file))
    return per_layer(spec, traced, untraced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "modzeta", "__init__.py")):
        print("perfbench: run from the root of a modzeta checkout "
              "(no src/modzeta under %s)" % root, file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    spec = dict(WORKLOADS[args.workload](args.seed), name=args.workload)
    checker = Checker(spec)
    try:
        if args.trace:
            metrics = traced_run(spec, root, checker, deadline)
        else:
            metrics = timed_run(spec, root, args.seconds, checker, deadline)
    except PassFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    for why in checker.problems[:20]:
        print("check failed: %s" % why)
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
