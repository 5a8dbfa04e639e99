"""Layer benchmark of the two hot walks: the binomial walk and the nome walk.

Times ``modzeta.series._binom_sums`` and ``modzeta.modular._nome_chains``
(bypassing its memo) on fixed inputs at 30, 50, 100 and 250 digits, and
reports per walk and digit level the call count, total seconds and ms per
call.  The inputs are the nine theorem sums at seven admissible points,
three registry-style rates, and the nomes of z, 2z, 4z and z + 1/2 at the
same points.

    python3 scripts/bench_walks.py                          # this checkout
    python3 scripts/bench_walks.py --root PATH              # another checkout
    python3 scripts/bench_walks.py --baseline PATH > BENCH_walks.json

``--root`` imports modzeta from ``PATH/src``, so a parent tree can be
measured with this script.  With ``--baseline`` the script runs ROUNDS
alternating pairs of fresh processes, one per tree, switching which goes
first; the report holds every round, the per-tree medians and quartiles, the
ratio of the baseline's median total seconds to the root tree's and, per
walk and digit level, in how many pairs the root tree was faster.
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
# admissible theorem points (Re z, Im z)
POINTS = (("0", "0.55"), ("0", "0.7"), ("0", "1.0"), ("0", "1.5"),
          ("0.5", "0.75"), ("0.5", "1.0"), ("0.5", "1.3"))


def _inputs(digits: int):
    """(binomial calls, nome calls) at one digit level, as argument tuples."""
    from fractions import Fraction

    import mpmath as mp
    from mpmath import mpc, mpf
    from modzeta import PrecisionCtx
    from modzeta.modular import alpha4, r_half
    from modzeta.series import W_ONE, LinearFactor, WeightSpec

    ctx = PrecisionCtx(digits)
    weights = [WeightSpec.combo(w) for w in (
        {"H2_2K": 1, "H2_K": Fraction(-1, 4)}, {"H2_K": 1},
        {"H3_2K": 1, "H3_K": Fraction(-1, 8)}, {"H3_K": 1})]
    every = [WeightSpec.combo({"H3MIX": 2, "INVSQ_2K1": Fraction(1, 3), "H1_2K": 1}),
             WeightSpec.combo({"H2_2K_TIMES_DH1": 1, "H2_K_TIMES_DH1": -1,
                               "H3_2K": 1, "H1_K": 5, "H2_2K": -1})]
    one = LinearFactor(0, 1)
    binom, nome = [], []
    with ctx.working():
        for re, im in POINTS:
            z = mpc(re, im)
            a4 = alpha4(z, ctx)
            fac = LinearFactor(2 * (1 - 2 * a4) / z.imag, r_half(z, ctx) / z.imag)
            reqs = [(one, W_ONE)] + [(one, w) for w in weights] + [(fac, w) for w in weights]
            binom.append((a4 * (1 - a4) / 16, 3, reqs, ctx))
            nome += [(w, ctx) for w in (z, 2 * z, 4 * z, z + mpf(1) / 2)]
        sun = [(LinearFactor(42, 5), W_ONE)] + [(LinearFactor(42, 5), w) for w in weights]
        binom.append((mpf(1) / 4096, 3, sun, ctx))
        binom.append((mpf(-1) / 512, 3, sun, ctx))
        binom.append((mpc("0.64", "0.512") / 64, 3,
                      [(LinearFactor(mpc(1, 1), 2), w) for w in every], ctx))
        binom.append((mpc("0.01", "0.03"), 2, [(one, w) for w in every], ctx))
    return binom, nome


def measure() -> dict:
    from modzeta import modular, series
    walks = {"binom_sums": series._binom_sums,
             "nome_chains": modular._nome_chains.__wrapped__}
    out = {}
    for digits in DIGITS:
        binom, nome = _inputs(digits)
        row = {}
        for name, calls in (("binom_sums", binom), ("nome_chains", nome)):
            fn = walks[name]
            t0 = time.perf_counter()
            for args in calls:
                fn(*args)
            total = time.perf_counter() - t0
            row[name] = {"calls": len(calls), "total_s": round(total, 4),
                         "ms_per_call": round(1000 * total / len(calls), 3)}
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
    """Median and quartiles of total seconds, and median ms per call, per
    walk and digit level."""
    out = {}
    for digits in runs[0]:
        out[digits] = {}
        for name, first in runs[0][digits].items():
            totals = [r[digits][name]["total_s"] for r in runs]
            q1, med, q3 = statistics.quantiles(totals, n=4)
            out[digits][name] = {"calls": first["calls"], "total_s": round(med, 4),
                                 "total_s_q1_q3": [round(q1, 4), round(q3, 4)],
                                 "ms_per_call": round(1000 * med / first["calls"], 3)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="checkout whose src/ is measured")
    ap.add_argument("--baseline", help="checkout to compare against, run alternately")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    if args.baseline is None:
        sys.path.insert(0, os.path.join(root, "src"))
        report = {"results": measure()}
    else:
        base = os.path.abspath(args.baseline)
        runs = {"baseline": [], "root": []}
        for i in range(ROUNDS):
            order = (("baseline", base), ("root", root))
            for label, tree in (order if i % 2 == 0 else order[::-1]):
                runs[label].append(_run_tree(tree))
        med = {label: _summary(r) for label, r in runs.items()}
        ratio = {d: {name: round(med["baseline"][d][name]["total_s"]
                                 / med["root"][d][name]["total_s"], 2)
                     for name in med["root"][d]}
                 for d in med["root"]}
        wins = {d: {name: sum(r[d][name]["total_s"] < b[d][name]["total_s"]
                              for b, r in zip(runs["baseline"], runs["root"]))
                    for name in med["root"][d]}
                for d in med["root"]}
        report = {"baseline": {"commit": _commit(base), "median": med["baseline"],
                               "rounds": runs["baseline"]},
                  "root": {"commit": _commit(root), "median": med["root"],
                           "rounds": runs["root"]},
                  "speedup_total_s": ratio, "root_wins_of_%d" % ROUNDS: wins}
    import mpmath
    report["host"] = {"machine": platform.machine(), "cpus": os.cpu_count(),
                      "python": platform.python_version(),
                      "mpmath": mpmath.__version__, "backend": mpmath.libmp.BACKEND}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
