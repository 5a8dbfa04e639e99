"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is pinned from the project contract: 10^-45 for plain
50-digit runs, the conditionally convergent boundary series (rate -1/64,
CVZ-accelerated) included, 40 digits for the theorem identities at
non-special points, 35 for table cells, 25 for quadrature-vs-series oracles,
30 for the integral identities, and 10^-6 for the float64 lattice oracle.
"""

import os
import time
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import mpc, mpf

from modzeta import (LinearFactor, PrecisionCtx, WeightSpec, alpha4,
                     binom3_series, eichler4, eichler6, eisenstein, epstein2,
                     epstein3, const_zeta, dirichlet_l,
                     legendre_dnu2, lminus4_4_integral, run_suite,
                     zeta5_integral, zeta7_integral)
from modzeta.series import W_ONE
from oracles import epstein_lattice, legendre_p_def

I = mpc(0, 1)
JOBS = min(8, os.cpu_count() or 1)


def report(num, label, ok, detail=""):
    print("ACCEPTANCE %2d %s: %s %s" % (num, "PASS" if ok else "FAIL", label, detail))
    assert ok, "%s %s" % (label, detail)


def test_01_classical_series():
    ctx = PrecisionCtx(50)
    with ctx.working():
        t0 = time.perf_counter()
        v = binom3_series(mpf(1) / 4096, LinearFactor(42, 5), W_ONE, ctx)
        resid = abs(v - 16 / mp.pi)
        dt = time.perf_counter() - t0
    report(1, "classical 4096-rate series to 50 digits",
           resid < mpf(10) ** -45 and dt < 1.0,
           "residual=%s time=%.3fs" % (mp.nstr(resid, 3), dt))


def test_02_sun_conjectures():
    ctx = PrecisionCtx(50)
    rep = run_suite("sun-h2", ctx)
    rows = {r["id"]: mpf(r["abs_residual"]) for r in rep.rows}
    ok = all(rows[k] < mpf(10) ** -45 for k in ("sun1", "sun2", "sun3", "sun4"))
    report(2, "Sun bracketed series vanish",
           ok, "max=%s" % rep.summary["max_residual"])


def test_03_h2_variants():
    ctx = PrecisionCtx(50)
    rep = run_suite("h2-variants", ctx)
    rows = {r["id"]: mpf(r["abs_residual"]) for r in rep.rows}
    ok = all(rows[k] < mpf(10) ** -45
             for k in ("h2var.-64", "h2var.256", "h2var.-512", "h2var.4096"))
    report(3, "second-order harmonic variants",
           ok, "max=%s" % rep.summary["max_residual"])


def test_04_h3_family():
    ctx = PrecisionCtx(50)
    rep = run_suite("h3", ctx)
    rows = {r["id"]: mpf(r["abs_residual"]) for r in rep.rows}
    ok = all(rows[k] < mpf(10) ** -45
             for k in ("h3.a", "h3.b", "h3.c", "h3.d", "h3.e", "h3.weixu"))
    report(4, "third-order harmonic family",
           ok, "max=%s" % rep.summary["max_residual"])


def test_05_theorems_at_random_points():
    ctx = PrecisionCtx(50)
    t0 = time.perf_counter()
    rep = run_suite("theorems-random", ctx, jobs=JOBS)
    dt = time.perf_counter() - t0
    worst = max(mpf(r["abs_residual"]) for r in rep.rows)
    ok = worst < mpf(10) ** -40 and dt < 60.0 and rep.summary["total"] == 48
    report(5, "both theorems at six admissible points",
           ok, "worst=%s wall=%.1fs jobs=%d" % (mp.nstr(worst, 3), dt, JOBS))


def test_06_tables():
    ctx = PrecisionCtx(40)
    worst = mpf(0)
    total = 0
    for suite in ("table-h2", "table-h3"):
        rep = run_suite(suite, ctx, jobs=JOBS)
        total += rep.summary["total"]
        worst = max(worst, max(mpf(r["abs_residual"]) for r in rep.rows))
    ok = worst < mpf(10) ** -35 and total == 48
    report(6, "all table cells vs closed forms",
           ok, "cells=%d worst=%s" % (total, mp.nstr(worst, 3)))


def test_07_functional_equations_twenty_points():
    import random
    ctx = PrecisionCtx(50)
    rng = random.Random(71830)
    worst = mpf(0)
    with ctx.working():
        z3 = const_zeta(3, ctx)
        z5 = const_zeta(5, ctx)
        half = mpf(1) / 2
        for _ in range(20):
            re = rng.choice((0.0, 0.5, round(rng.uniform(-0.45, 0.45), 4)))
            im = round(rng.uniform(0.6, 1.6), 4)
            z = mpf(str(re)) + I * mpf(str(im))
            res = []
            res.append(abs(eichler4(z, 0, ctx) - z ** 2 * eichler4(-1 / z, 0, ctx)
                           - (-(z ** 4 - 5 * z ** 2 + 1) / (3 * z)
                              - 30 * z3 * (z ** 2 - 1) / (mp.pi ** 3 * I))))
            res.append(abs(eichler6(z, 0, ctx) - z ** 4 * eichler6(-1 / z, 0, ctx)
                           - (-(z ** 2 + 1) * (2 * z ** 4 - 9 * z ** 2 + 2) / (10 * z)
                              - 189 * z5 * (z ** 4 - 1) / (mp.pi ** 5 * I))))
            res.append(abs(eichler4(z, 2, ctx) - eichler4(-1 / z, 2, ctx) / z ** 2
                           - 2 * eichler4(-1 / z, 0, ctx)
                           - 2 * eichler4(-1 / z, 1, ctx) / z
                           - (-2 / (3 * z ** 3) - 2 * z
                              - 60 * z3 / (mp.pi ** 3 * I))))
            res.append(abs(eisenstein(z + half, 4, ctx) + eisenstein(z, 4, ctx)
                           - 18 * eisenstein(2 * z, 4, ctx)
                           + 16 * eisenstein(4 * z, 4, ctx)))
            res.append(abs(eisenstein(z + half, 6, ctx) + eisenstein(z, 6, ctx)
                           - 66 * eisenstein(2 * z, 6, ctx)
                           + 64 * eisenstein(4 * z, 6, ctx)))
            res.append(abs(4 * eichler4(z + half, 0, ctx) + 4 * eichler4(z, 0, ctx)
                           - 9 * eichler4(2 * z, 0, ctx) + eichler4(4 * z, 0, ctx)))
            res.append(abs(16 * eichler6(z + half, 0, ctx) + 16 * eichler6(z, 0, ctx)
                           - 33 * eichler6(2 * z, 0, ctx) + eichler6(4 * z, 0, ctx)))
            res.append(abs(2 * epstein2(z + half, ctx) + 2 * epstein2(z, ctx)
                           - 9 * epstein2(2 * z, ctx) + 2 * epstein2(4 * z, ctx)))
            res.append(abs(4 * epstein3(z + half, ctx) + 4 * epstein3(z, ctx)
                           - 33 * epstein3(2 * z, ctx) + 4 * epstein3(4 * z, ctx)))
            res.append(abs(alpha4(z, ctx) + alpha4(-1 / (4 * z), ctx) - 1))
            res.append(abs(epstein2(z, ctx) - epstein2(-1 / z, ctx)))
            res.append(abs(epstein3(z, ctx) - epstein3(-1 / z, ctx)))
            worst = max(worst, *res)
    report(7, "functional equations at 20 seeded points",
           worst < mpf(10) ** -45, "worst=%s" % mp.nstr(worst, 3))


def test_08_oracle_equivalences():
    ctx = PrecisionCtx(30)
    # (a) float64 lattice sum vs Lambert production path at five points
    pts = (I, 2 * I, mpf(1) / 2 + I, mpc("0.3", "1.1"), mpc(0, "1.7"))
    with ctx.working():
        lattice_ok = True
        lattice_worst = 0.0
        for z in pts:
            box = epstein_lattice(z, 2, 2000, ctx)
            diff = abs(box.value - float(epstein2(z, ctx)))
            lattice_worst = max(lattice_worst, diff)
            lattice_ok &= diff < 1e-6
    # (b) finite-difference parameter derivatives vs harmonic-weighted series
    digits = 50
    ctx50, ctx100 = PrecisionCtx(digits), PrecisionCtx(2 * digits)
    fd_ok = True
    for tv in ("0.1", "0.3"):
        t = mpf(tv)
        with ctx100.working():
            h = mpf(10) ** (-(digits // 4))
            fd = (legendre_p_def(mpf(-1) / 2 + h, 0, t, ctx100)
                  - 2 * legendre_p_def(mpf(-1) / 2, 0, t, ctx100)
                  + legendre_p_def(mpf(-1) / 2 - h, 0, t, ctx100)) / h ** 2
        with ctx50.working():
            fd_ok &= abs(fd - legendre_dnu2(t, ctx50)) < mpf(10) ** (-(digits // 2))
    # (c) quadrature vs series for every lemma-oracle record
    rep = run_suite("lemma-oracles", PrecisionCtx(32), jobs=JOBS)
    quad_worst = max(mpf(r["abs_residual"]) for r in rep.rows)
    quad_ok = quad_worst < mpf(10) ** -25
    report(8, "oracle equivalences (lattice, finite differences, quadrature)",
           lattice_ok and fd_ok and quad_ok,
           "lattice<=%.2e fd_ok=%s quad<=%s" % (lattice_worst, fd_ok,
                                                mp.nstr(quad_worst, 3)))


def test_09_integral_identities():
    ctx = PrecisionCtx(40)
    with ctx.working():
        checks = []
        t0 = time.perf_counter()
        checks.append((abs(zeta5_integral(ctx).value - const_zeta(5, ctx)),
                       time.perf_counter() - t0))
        t0 = time.perf_counter()
        checks.append((abs(zeta7_integral(ctx).value - const_zeta(7, ctx)),
                       time.perf_counter() - t0))
        t0 = time.perf_counter()
        checks.append((abs(lminus4_4_integral(ctx).value - dirichlet_l(-4, 4, ctx)),
                       time.perf_counter() - t0))
    ok = all(r < mpf(10) ** -30 and dt < 30.0 for r, dt in checks)
    report(9, "zeta(5), zeta(7), L_{-4}(4) recovered from quadrature",
           ok, " ".join("res=%s/%.1fs" % (mp.nstr(r, 3), dt) for r, dt in checks))


def test_10_section4_suite():
    ctx = PrecisionCtx(50)
    rep = run_suite("sec4", ctx, jobs=JOBS)
    worst = max(mpf(r["abs_residual"]) for r in rep.rows)
    ok = rep.all_pass and worst < mpf(10) ** -40
    report(10, "squared-binomial / notebook / polylog / integral suite",
           ok, "records=%d worst=%s" % (rep.summary["total"], mp.nstr(worst, 3)))


@pytest.mark.slow
def test_full_registry_gate():
    # the whole registry at digits=50: every record passes 10^-45, the
    # CVZ-accelerated boundary family included
    ctx = PrecisionCtx(50)
    t0 = time.perf_counter()
    rep = run_suite("all", ctx, jobs=JOBS)
    dt = time.perf_counter() - t0
    bad = [r["id"] for r in rep.rows if not r["pass"]]
    print("ACCEPTANCE -- %s: full registry %d/%d in %.1fs (max %s at %s)"
          % ("PASS" if not bad else "FAIL", rep.summary["passed"],
             rep.summary["total"], dt, rep.summary["max_residual"],
             rep.summary["max_residual_id"]))
    assert not bad, bad
