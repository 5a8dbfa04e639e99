"""Layer benchmark of the hot kernels: the walks, the AGM, tanh-sinh, Hurwitz zeta and the q-series.

Times ``modzeta.series._binom_sums``, ``modzeta.modular._nome_chains``
(bypassing its memo) and ``modzeta.series.ell_k`` / ``ell_k_comp`` on fixed
inputs at 30, 50, 100 and 250 digits, and reports per layer and digit level
the call count, total seconds and ms per call.  Each layer runs REPEATS
times in its process, each time from an empty memo with its inputs built
again untimed, and reads the fastest run: the first run alone pays for
mpmath's cached constants, and a layer no longer depends on what the
layers before it left in the memo.  The walk inputs are the nine
theorem sums at seven admissible points, four more interior rates, the two
boundary rates -1/64 (four weights under 4k + 1) and -1/16 (binom2), and the
nomes of z, 2z, 4z and z + 1/2 at the same points.  The AGM inputs are the
tanh-sinh nodes of levels 0-6 on [0, 1] (``ell_k_comp``) and on [0, 1/2]
(both functions), and the upward ray of ``h3mix2_tail_integral`` from
t = 0.3 + 0.05i over the same nodes.  The ``quad`` layer runs the three
integral identities (zeta(5), zeta(7), L_{-4}(4)), which share one memoized
walk over the nodes, and the NU2 and H3INT2 lemma integrals at t = 0.1,
with the tanh-sinh nodes built beforehand; the ``sec4_quad`` layer runs the
three integral identities alone, with zeta(7) built beforehand too.  The
``hurwitz`` layer calls ``arith.hurwitz_zeta`` at the (s, a) pairs of the
L-values and zeta values that a 100-digit pass of every suite but
lemma-oracles reads.  The
``eta`` layer calls ``modular.eta`` at z/2, z and 2z of the theorem points;
the ``hyp_lambert`` and ``eli`` layers call ``series.hyp_lambert`` and
``series.eli`` with the arguments of the sec4 records: the four Lambert
sums of the squared-binomial analogues at 0.8i, 1.1i and 0.5 + 0.9i, the
half-odd nome sums of the inverse-square records at t = 0.25, 0.5, 0.09,
and the notebook entries rn2p277 (z = iy and -1/(2z), y = 0.6, 1.0, 1.4)
and rn2p277p (the alternating odd sum and the three ELi values at
q = e^(-pi y), y = 1, 2, 0.5).  The ``nodes`` layer builds the tanh-sinh
nodes of levels 0-6 (``quadrature._nodes``, bypassing its memo), which
every process that integrates pays once per precision.  The
``modular_record`` layer calls ``verify.theorems._modular_data`` at the
theorem points, bypassing its memo, RECORD_REPEATS times each, after one
warm call that leaves the point's nome walks, the Eichler prefactors and
zeta(3) in the memo: it times the record's own reads and arithmetic.  The
``point_q`` layer runs ``verify.theorems._series_plan`` and then
``_modular_data`` at the theorem points, RECORD_REPEATS times each, each
time from a memo that holds only the zeta constants: it times a fresh
point's q-expansions, alpha4, R_{-1/2}, the Lambert walks and the record,
without the binomial walk.  The ``point_re0`` and ``point_re_half`` layers
run the theorem points on Re z = 0 and on Re z = 1/2 through the four
evaluators (``q_ratios``, ``r_linear``, ``h3_ratios``, ``h3_linear``),
RECORD_REPEATS times each, each time from a memo that holds only the zeta
constants: a fresh point, both routes.  The ``import``
layer, reported under the key "import" in place of a digit level, starts
IMPORT_RUNS fresh processes that each time ``import modzeta`` and
``get_records("all")`` and report their peak RSS (``ru_maxrss``); the
interpreter's own start-up is not counted.

    python3 scripts/bench_walks.py                          # this checkout
    python3 scripts/bench_walks.py --root PATH              # another checkout
    python3 scripts/bench_walks.py --baseline PATH > BENCH_qpoint.json

``--root`` imports modzeta from ``PATH/src``, so a parent tree can be
measured with this script.  The walk inputs read the theorem points' rates
and nine requests from ``verify.theorems._series_plan``, so the measured tree
must have it.  With ``--baseline`` the script runs ROUNDS
alternating pairs of fresh processes, one per tree, switching which goes
first; the report holds every round, the per-tree medians, quartiles and
least totals, the ratios of the baseline's median and least total seconds
to the root tree's and, per layer and digit level, in how many pairs the
root tree was faster.  The host's speed can shift by 1.5-1.8x for whole
processes at a time, which the in-process repeats cannot remove; the ratio
of the least totals compares the fastest process of each tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

DIGITS = (30, 50, 100, 250)
ROUNDS = 10  # alternating pairs with --baseline
IMPORT_RUNS = 5  # fresh processes per measurement of the import layer
RECORD_REPEATS = 10  # timed calls per point of the modular_record layer
REPEATS = 3  # in-process runs per layer and digit level; a layer reads the fastest
# admissible theorem points (Re z, Im z)
POINTS = (("0", "0.55"), ("0", "0.7"), ("0", "1.0"), ("0", "1.5"),
          ("0.5", "0.75"), ("0.5", "1.0"), ("0.5", "1.3"))


def _walk_calls(ctx):
    """(binomial calls, nome calls) at one precision, as (function, arguments) pairs."""
    from fractions import Fraction

    from mpmath import mpc, mpf
    from modzeta import modular, series
    from modzeta.series import W_ONE, LinearFactor, WeightSpec
    from modzeta.verify.theorems import (W_H2_DIFF, W_H2_PLAIN, W_H3_DIFF, W_H3_PLAIN,
                                         _series_plan)

    weights = [W_H2_DIFF, W_H2_PLAIN, W_H3_DIFF, W_H3_PLAIN]
    every = [WeightSpec.combo({"H3MIX": 2, "INVSQ_2K1": Fraction(1, 3), "H1_2K": 1}),
             WeightSpec.combo({"H2_2K_TIMES_DH1": 1, "H2_K_TIMES_DH1": -1,
                               "H3_2K": 1, "H1_K": 5, "H2_2K": -1})]
    one = LinearFactor(0, 1)
    walk, nome_walk = series._binom_sums, modular._nome_chains.__wrapped__
    binom, nome = [], []
    with ctx.working():
        for re, im in POINTS:
            z = mpc(re, im)
            plan = _series_plan(z, ctx)
            binom.append((walk, (plan["x"], 3, plan["requests"], ctx)))
            nome += [(nome_walk, (w, ctx)) for w in (z, 2 * z, 4 * z, z + mpf(1) / 2)]
        sun = [(LinearFactor(42, 5), W_ONE)] + [(LinearFactor(42, 5), w) for w in weights]
        binom.append((walk, (mpf(1) / 4096, 3, sun, ctx)))
        binom.append((walk, (mpf(-1) / 512, 3, sun, ctx)))
        binom.append((walk, (mpc("0.64", "0.512") / 64, 3,
                             [(LinearFactor(mpc(1, 1), 2), w) for w in every], ctx)))
        binom.append((walk, (mpc("0.01", "0.03"), 2, [(one, w) for w in every], ctx)))
        # the boundary rates, summed by CVZ
        binom.append((walk, (mpf(-1) / 64, 3,
                             [(LinearFactor(4, 1), w) for w in weights], ctx)))
        binom.append((walk, (mpf(-1) / 16, 2, [(one, w) for w in every], ctx)))
    return binom, nome


def _agm_calls(ctx):
    """ell_k / ell_k_comp calls at one precision, as (function, arguments) pairs."""
    from mpmath import mpc, mpf
    from modzeta.quadrature import _nodes
    from modzeta.series import ell_k, ell_k_comp

    calls = []
    with ctx.working():
        deltas = [d for level in range(7) for d, _ in _nodes(level, ctx)]
        half, t = mpf(1) / 2, mpc("0.3", "0.05")
        for d in deltas:
            calls += [(ell_k_comp, (d / 2, ctx)), (ell_k_comp, (1 - d / 2, ctx))]
            for s in (d / 4, half - d / 4):
                calls += [(ell_k, (s, ctx)), (ell_k_comp, (s, ctx))]
            for u in (d / 2, 1 - d / 2):  # s = t + i(1-u)/u, as h3mix2_tail_integral
                s = t + mpc(0, 1) * (1 - u) / u
                calls += [(ell_k, (s, ctx)), (ell_k_comp, (s, ctx))]
    return calls


def _quad_calls(ctx):
    """The integral identities and two lemma integrals, as (function, arguments) pairs."""
    from mpmath import mpf
    from modzeta.quadrature import (_nodes, lemma_integral, lminus4_4_integral,
                                    zeta5_integral, zeta7_integral)

    for level in range(9):  # the nodes are memoized; build them untimed
        _nodes(level, ctx)
    with ctx.working():
        t = mpf("0.1")
    return [(zeta5_integral, (ctx,)), (zeta7_integral, (ctx,)),
            (lminus4_4_integral, (ctx,)),
            (lemma_integral, ("NU2", t, ctx)), (lemma_integral, ("H3INT2", t, ctx))]


def _sec4_calls(ctx):
    """The three integral identities alone, as (function, arguments) pairs,
    with the tanh-sinh nodes and zeta(7) built beforehand."""
    from modzeta.mpcore import const_zeta
    from modzeta.quadrature import _nodes, lminus4_4_integral, zeta5_integral, zeta7_integral

    for level in range(9):
        _nodes(level, ctx)
    const_zeta(7, ctx)
    return [(zeta5_integral, (ctx,)), (zeta7_integral, (ctx,)), (lminus4_4_integral, (ctx,))]


# (d, s) of the L_d(s) values a 100-digit pass of every suite but
# lemma-oracles reads, and the s of its zeta(s) values
DIRICHLET = ((-4, 2), (-4, 3), (-4, 4), (-8, 2), (-3, 2), (-7, 2), (-7, 3),
             (28, 2), (28, 3))
ZETA = (2, 3, 4, 5, 6, 7)


def _hurwitz_calls(ctx):
    """zeta(s, a/m) at the terms of the Hurwitz decompositions of DIRICHLET,
    as ``dirichlet_l`` takes them, and zeta(s, 1) for ZETA, as (function,
    arguments) pairs."""
    from mpmath import mpf
    from modzeta.arith import hurwitz_zeta, kronecker

    calls = []
    with ctx.working():
        for d, s in DIRICHLET:
            m = abs(d) if d % 4 in (0, 1) else 4 * abs(d)
            calls += [(hurwitz_zeta, (s, mpf(a) / m, ctx))
                      for a in range(1, m + 1) if kronecker(d, a)]
        calls += [(hurwitz_zeta, (s, 1, ctx)) for s in ZETA]
    return calls


def _qseries_calls(ctx):
    """(eta calls, hyp_lambert calls, eli calls) at one precision, as (function,
    arguments) pairs."""
    from mpmath import mpc, mpf
    import mpmath as mp
    from modzeta.modular import eta
    from modzeta.series import HypKernel, ell_k, ell_k_comp, eli, hyp_lambert

    i = mpc(0, 1)
    with ctx.working():
        etas = [(eta, (mpc(re, im) * f, ctx)) for re, im in POINTS
                for f in (mpf(1) / 2, 1, 2)]
        hyp = [(hyp_lambert, (mpc(re, im), HypKernel(kind, parity, 2), ctx))
               for re, im in (("0", "0.8"), ("0", "1.1"), ("0.5", "0.9"))
               for kind, parity in (("COSH_SQ", "ODD"), ("COSH_1", "ALL"), ("COSH_SQ", "ALL"))]
        for t in (mpf("0.25"), mpf("0.5"), mpf("0.09")):
            zq = i * ell_k_comp(t, ctx) / (2 * ell_k(t, ctx))
            hyp.append((hyp_lambert, (zq, HypKernel("HALF_ODD_COSH", "ODD", 2), ctx)))
        for y in ("0.6", "1.0", "1.4"):
            z = mpc(0, y)
            hyp += [(hyp_lambert, (z, HypKernel("COSH_1", "ALL", 2), ctx)),
                    (hyp_lambert, (-1 / (2 * z), HypKernel("EXPM1_ALT", "ODD", 2), ctx))]
        elis = []
        for y in ("1.0", "2.0", "0.5"):
            hyp.append((hyp_lambert, (mpc(0, y), HypKernel("EXPM1_ALT", "ODD", 2), ctx)))
            q = mp.exp(-mp.pi * mpf(y))
            elis += [(eli, (0, 2, 1, i, q, ctx)), (eli, (0, 2, 1, 1, q ** 2, ctx)),
                     (eli, (0, 2, 1, 1, q ** 4, ctx))]
    return etas, hyp, elis


def _record_calls(ctx):
    """The modular record at each theorem point, as (function, arguments) pairs,
    each point warmed by one memoized call first."""
    from mpmath import mpc
    from modzeta.verify import theorems

    calls = []
    with ctx.working():
        for re, im in POINTS:
            z = mpc(re, im)
            theorems._modular_data(z, ctx)
            calls += [(theorems._modular_data.__wrapped__, (z, ctx))] * RECORD_REPEATS
    return calls


def _zeta_memo_only():
    """Empty the memo but for the zeta constants."""
    from modzeta import mpcore

    zeta = mpcore.const_zeta.__wrapped__
    mpcore._memo = {key: v for key, v in mpcore._memo.items() if key[0] is zeta}


def _point_q(z, ctx):
    """One fresh theorem point's series plan and modular record."""
    from modzeta.verify import theorems

    _zeta_memo_only()
    theorems._series_plan(z, ctx)
    theorems._modular_data(z, ctx)


def _point(z, ctx):
    """One fresh theorem point through the four evaluators."""
    from modzeta.verify import theorems

    _zeta_memo_only()
    for evaluate in (theorems.q_ratios, theorems.r_linear, theorems.h3_ratios,
                     theorems.h3_linear):
        evaluate(z, ctx)


def _fresh_point_calls(ctx, fn, lines=("0", "0.5")):
    """``fn`` at each theorem point on the lines Re z in ``lines``, as
    (function, arguments) pairs, with zeta(3) in the memo first."""
    from mpmath import mpc
    from modzeta.mpcore import const_zeta

    const_zeta(3, ctx)
    with ctx.working():
        return [(fn, (mpc(re, im), ctx)) for re, im in POINTS if re in lines] * RECORD_REPEATS


def _node_calls(ctx):
    """The tanh-sinh node levels 0-6 at one precision, as (function, arguments) pairs."""
    from modzeta.quadrature import _nodes

    return [(_nodes.__wrapped__, (level, ctx)) for level in range(7)]


# run in a fresh process: seconds for the import and the registry, and peak RSS
_IMPORT = """\
import resource, time
t0 = time.perf_counter()
import modzeta
modzeta.get_records("all")
t = time.perf_counter() - t0
print(modzeta.__file__, t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def measure_import(root: str) -> dict:
    """The import layer: IMPORT_RUNS fresh processes importing modzeta from root/src."""
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src)
    secs, rss = [], []
    for _ in range(IMPORT_RUNS):
        done = subprocess.run([sys.executable, "-c", _IMPORT], env=env, cwd=root,
                              capture_output=True, text=True, check=True)
        path, t, mb = done.stdout.split()
        if not path.startswith(src + os.sep):
            raise RuntimeError("modzeta imported from %s, not from %s" % (path, src))
        secs.append(float(t))
        rss.append(float(mb))
    total = sum(secs)
    return {"calls": IMPORT_RUNS, "total_s": round(total, 4),
            "ms_per_call": round(1000 * total / IMPORT_RUNS, 3),
            "peak_rss_mb": round(statistics.median(rss), 1)}


# each layer's call list, built untimed at one precision
LAYERS = {
    "binom_sums": lambda ctx: _walk_calls(ctx)[0],
    "nome_chains": lambda ctx: _walk_calls(ctx)[1],
    "agm": _agm_calls,
    "quad": _quad_calls,
    "sec4_quad": _sec4_calls,
    "hurwitz": _hurwitz_calls,
    "eta": lambda ctx: _qseries_calls(ctx)[0],
    "hyp_lambert": lambda ctx: _qseries_calls(ctx)[1],
    "eli": lambda ctx: _qseries_calls(ctx)[2],
    "nodes": _node_calls,
    "modular_record": _record_calls,
    "point_q": lambda ctx: _fresh_point_calls(ctx, _point_q),
    "point_re0": lambda ctx: _fresh_point_calls(ctx, _point, ("0",)),
    "point_re_half": lambda ctx: _fresh_point_calls(ctx, _point, ("0.5",)),
}


def measure(root: str) -> dict:
    from modzeta import PrecisionCtx, mpcore
    out = {"import": {"import": measure_import(root)}}
    for digits in DIGITS:
        ctx = PrecisionCtx(digits)
        row = {}
        for name, build in LAYERS.items():
            best = float("inf")
            for _ in range(REPEATS):
                mpcore._memo.clear()
                calls = build(ctx)
                t0 = time.perf_counter()
                for fn, args in calls:
                    fn(*args)
                best = min(best, time.perf_counter() - t0)
            row[name] = {"calls": len(calls), "total_s": round(best, 4),
                         "ms_per_call": round(1000 * best / len(calls), 3)}
        out[str(digits)] = row
    return out


def _run_tree(root: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--root", root]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)["results"]


def _commit(root: str):
    try:
        return subprocess.run(["git", "-C", root, "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _summary(runs: list) -> dict:
    """Median, quartiles and least of total seconds, and median ms per call,
    per layer and digit level, with the median peak RSS where a layer
    reports it."""
    out = {}
    for digits in runs[0]:
        out[digits] = {}
        for name, first in runs[0][digits].items():
            totals = [r[digits][name]["total_s"] for r in runs]
            q1, med, q3 = statistics.quantiles(totals, n=4)
            out[digits][name] = {"calls": first["calls"], "total_s": round(med, 4),
                                 "total_s_q1_q3": [round(q1, 4), round(q3, 4)],
                                 "total_s_min": round(min(totals), 4),
                                 "ms_per_call": round(1000 * med / first["calls"], 3)}
            if "peak_rss_mb" in first:
                out[digits][name]["peak_rss_mb"] = round(statistics.median(
                    r[digits][name]["peak_rss_mb"] for r in runs), 1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="checkout whose src/ is measured")
    ap.add_argument("--baseline", help="checkout to compare against, run alternately")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    if args.baseline is None:
        sys.path.insert(0, os.path.join(root, "src"))
        report = {"results": measure(root)}
    else:
        base = os.path.abspath(args.baseline)
        runs = {"baseline": [], "root": []}
        for i in range(ROUNDS):
            order = (("baseline", base), ("root", root))
            for label, tree in (order if i % 2 == 0 else order[::-1]):
                runs[label].append(_run_tree(tree))
        med = {label: _summary(r) for label, r in runs.items()}
        ratio, ratio_min = ({d: {name: round(med["baseline"][d][name][key]
                                             / med["root"][d][name][key], 2)
                                 for name in med["root"][d]}
                             for d in med["root"]}
                            for key in ("total_s", "total_s_min"))
        wins = {d: {name: sum(r[d][name]["total_s"] < b[d][name]["total_s"]
                              for b, r in zip(runs["baseline"], runs["root"]))
                    for name in med["root"][d]}
                for d in med["root"]}
        report = {"baseline": {"commit": _commit(base), "median": med["baseline"],
                               "rounds": runs["baseline"]},
                  "root": {"commit": _commit(root), "median": med["root"],
                           "rounds": runs["root"]},
                  "speedup_total_s": ratio, "speedup_min_total_s": ratio_min,
                  "root_wins_of_%d" % ROUNDS: wins}
    import mpmath
    report["host"] = {"machine": platform.machine(), "cpus": os.cpu_count(),
                      "python": platform.python_version(),
                      "mpmath": mpmath.__version__, "backend": mpmath.libmp.BACKEND}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
