"""One pass of a workload in a fresh process.

Run as ``python3 perfbench/worker.py`` from the root of a modzeta checkout,
with the pass spec as JSON on standard input.  The last line of standard
output is the pass result as JSON.  The spec is built by ``workloads.py``;
this file only executes it, times it, and reports what the program returned.
The parent (``run.py``) does all correctness checking.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from tracer import Tracer

# the four theorem evaluators and the lhs/rhs pairs each one returns
THEOREM_PAIRS = {
    "q_ratios": (("q1_lhs", "q1_rhs"), ("q2_lhs", "q2_rhs")),
    "r_linear": (("r1_lhs", "r1_rhs"), ("r2_lhs", "r2_rhs")),
    "h3_ratios": (("lhs1", "rhs1"), ("lhs2", "rhs2")),
    "h3_linear": (("lhs1", "rhs1"), ("lhs2", "rhs2")),
}


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import modzeta
    if not os.path.abspath(modzeta.__file__).startswith(src + os.sep):
        raise ImportError("modzeta imported from %s, not from %s"
                          % (modzeta.__file__, src))
    return modzeta


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _row(r: dict) -> dict:
    return {k: r[k] for k in ("id", "suite", "pass", "abs_residual", "elapsed_ms")}


def _run_cli(spec: dict, tracer) -> dict:
    from modzeta.cli import main
    argv = list(spec["argv"])
    if tracer is not None:
        # pool workers are separate processes the tracer cannot reach
        argv[argv.index("--jobs") + 1] = "1"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    report = json.loads(buf.getvalue())
    return {"rc": rc, "rows": [_row(r) for r in report["identities"]]}


def _run_suites(spec: dict, tracer) -> dict:
    from modzeta import PrecisionCtx, run_suite
    ctx = PrecisionCtx(spec["digits"])
    rows, rc = [], 0
    for suite in spec["suites"]:
        report = run_suite(suite, ctx, jobs=1, seed=spec["seed"])
        rows.extend(_row(r) for r in report.rows)
        rc |= 0 if report.all_pass else 1
    return {"rc": rc, "rows": rows}


def _run_points(spec: dict, tracer) -> dict:
    import mpmath as mp
    from modzeta import PrecisionCtx
    from modzeta import verify
    points = []
    for i, p in enumerate(spec["points"]):
        if tracer is not None:
            tracer.request = "pt%d" % i
        t0 = time.perf_counter()
        ctx = PrecisionCtx(p["digits"])
        pairs, error = [], None
        try:
            with ctx.working():
                z = mp.mpc(mp.mpf(p["re"]), mp.mpf(p["im"]))
                for fname, keys in THEOREM_PAIRS.items():
                    sides = getattr(verify, fname)(z, ctx)
                    for lk, rk in keys:
                        resid = abs(mp.mpc(sides[lk]) - mp.mpc(sides[rk]))
                        pairs.append(["%s.%s" % (fname, lk), mp.nstr(resid, 8)])
        except Exception:  # a failed point counts against fail checks, never aborts
            error = traceback.format_exc(limit=3)
        points.append({"ms": (time.perf_counter() - t0) * 1000.0,
                       "digits": p["digits"], "pairs": pairs, "error": error})
    return {"rc": 0, "points": points}


RUNNERS = {"cli": _run_cli, "suites": _run_suites, "points": _run_points}


def _tag_records(get_records, tracer, seed):
    # Spans of one registry record share its id as request id.  The records are
    # the runner's cached objects, so the runner evaluates these wrappers.
    for rec in get_records("all", seed):
        for side in ("lhs", "rhs"):
            fn = getattr(rec, side)

            def tagged(ctx, fn=fn, rid=rec.id):
                tracer.request = rid
                return fn(ctx)
            object.__setattr__(rec, side, tagged)


def run_pass(spec: dict, root: str) -> dict:
    """Set up, run the workload once, and return timings and raw outcomes."""
    t0 = time.perf_counter()
    modzeta = _import_program(root)
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
    if spec["kind"] != "points":
        modzeta.get_records("all", spec["seed"])
        if tracer is not None:
            _tag_records(modzeta.get_records, tracer, spec["seed"])
    t1 = time.perf_counter()
    out = {"setup_s": t1 - t0}
    if spec.get("probe"):
        return out
    try:
        out.update(RUNNERS[spec["kind"]](spec, tracer))
    except Exception:  # reported to the parent, which counts the whole pass failed
        out["error"] = traceback.format_exc(limit=5)
    t2 = time.perf_counter()
    out["wall_s"] = t2 - t1
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        out["trace"] = _trace_summary(tracer, t2 - t0)
        if spec.get("span_file"):
            tracer.dump(os.path.join(root, spec["span_file"]))
    return out


def _trace_summary(tracer, traced_s: float) -> dict:
    calls, self_s, layer_self, layer_incl = tracer.summary()
    return {
        "traced_s": traced_s,
        "calls": dict(calls),
        "self_s": dict(self_s),
        "layer_self_s": dict(layer_self),
        "layer_incl_s": dict(layer_incl),
        # the runner encloses a whole verify workload, so it is left out
        "covered_s": tracer.covered(exclude_layers=("runner",)),
        "spans": len(tracer.spans),
        "span_cost_s": tracer.overhead_per_span(),
        "repeat": {
            "theorems": tracer.repeat_ratio(
                ["theorems.%s" % f for f in THEOREM_PAIRS]),
            "eichler": tracer.repeat_ratio(["eichler.eichler4", "eichler.eichler6"]),
            "const_zeta": tracer.repeat_ratio(["mpcore.const_zeta"]),
            "dirichlet_l": tracer.repeat_ratio(["arith.dirichlet_l"]),
        },
        "integrand_calls": tracer.integrand_calls,
        "levels_max": max((lv for lv, _ in tracer.quad_results), default=0),
        "unconverged": sum(1 for _, ok in tracer.quad_results if not ok),
    }


if __name__ == "__main__":
    result = run_pass(json.loads(sys.stdin.read()), os.getcwd())
    sys.stdout.write(json.dumps(result) + "\n")
