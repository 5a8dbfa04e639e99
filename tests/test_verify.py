"""Registry integrity, runner behavior, report serialization."""

import functools
import json
import os
import types

import mpmath as mp
import pytest
from mpmath import mpc, mpf

from modzeta import (DomainError, PrecisionCtx, all_suites, eichler4,
                     epstein2, eta, get_records, h3_linear, h3_ratios,
                     q_ratios, r_linear, run_suite, s_r, t_r, u_check)
from modzeta import modular, mpcore, quadrature
from modzeta.verify import DEFAULT_SEED, SUITES
from modzeta.verify import registry, runner, theorems

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_strings_50.json")


def test_registry_ids_unique():
    recs = get_records("all")
    ids = [r.id for r in recs]
    assert len(ids) == len(set(ids))
    assert all(r.suite in SUITES for r in recs)


def test_all_suites_nonempty():
    for suite in SUITES:
        assert get_records(suite), suite


def test_unknown_suite():
    with pytest.raises(DomainError):
        get_records("nope")


def test_run_small_suite_passes(ctx50):
    rep = run_suite("ramanujan-classical", ctx50)
    assert rep.all_pass
    assert rep.summary["total"] == 4
    for row in rep.rows:
        assert mpf(row["abs_residual"]) < mpf(10) ** -45


def test_report_json_round_trip(ctx50):
    rep = run_suite("h2-variants", ctx50)
    blob = json.loads(rep.to_json())
    assert blob["summary"]["passed"] == 4
    for row in blob["identities"]:
        # residual exponents survive the round trip as decimal strings
        assert mpf(row["abs_residual"]) < mpf(10) ** -40
        assert isinstance(row["lhs"], str) and isinstance(row["rhs"], str)


def test_report_text_format(ctx50):
    rep = run_suite("ramanujan-classical", ctx50)
    text = rep.to_text()
    assert "rama4" in text
    assert "4/4 passed" in text


def test_empty_report_shape():
    from modzeta.verify.runner import Report
    rep = Report(suite="x", digits=50, seed=0, rows=[])
    assert rep.all_pass
    assert rep.summary["total"] == 0


def test_parallel_matches_serial(ctx50):
    serial = run_suite("sun-h2", ctx50, jobs=1)
    parallel = run_suite("sun-h2", ctx50, jobs=2)
    assert [r["id"] for r in serial.rows] == [r["id"] for r in parallel.rows]
    for a, b in zip(serial.rows, parallel.rows):
        assert a["lhs"] == b["lhs"]
        assert a["pass"] and b["pass"]


def test_seeded_registry_reproducible():
    a = [r.id for r in get_records("sum-rules", seed=123)]
    b = [r.id for r in get_records("sum-rules", seed=123)]
    assert a == b


def test_residual_monotonicity_in_digits():
    # doubling digits must not increase any residual's leading exponent
    lo = run_suite("ramanujan-classical", PrecisionCtx(25))
    hi = run_suite("ramanujan-classical", PrecisionCtx(50))
    for a, b in zip(lo.rows, hi.rows):
        ra, rb = mpf(a["abs_residual"]), mpf(b["abs_residual"])
        assert rb <= ra * mpf(10) ** 2 + mpf(10) ** -46


def test_unconverged_quadrature_fails_its_record(monkeypatch, ctx30):
    # with refinement capped at level 2 no integral converges: each integral
    # record fails with its error, every other row still passes, and the
    # suite runs to the end
    capped = functools.partial(quadrature.tanh_sinh, max_level=2)
    monkeypatch.setattr(quadrature, "tanh_sinh", capped)
    for call in (lambda: quadrature.lemma_integral("NU2", mpf("0.3"), ctx30),
                 lambda: quadrature.h3mix2_tail_integral(mpc("0.3", "0.05"), ctx30)):
        with pytest.raises(DomainError, match="did not converge"):
            call()
    rows = run_suite("sec4", ctx30).rows
    failed = {r["id"] for r in rows if not r["pass"]}
    assert failed == {"s4.zeta5int", "s4.zeta7int", "s4.lm44int"}
    for r in rows:
        if r["id"] in failed:
            assert r["abs_residual"] == "inf" and "did not converge" in r["error"]
        else:
            assert "error" not in r
    assert len(rows) == len(get_records("sec4"))


def test_q_ratios_requires_admissible(ctx30):
    with pytest.raises(DomainError):
        q_ratios(mp.mpc("0.3", "1.0"), ctx30)
    with pytest.raises(DomainError):
        q_ratios(mp.mpc("0.5", "0.6"), ctx30)


def test_q_ratios_independent_sides(ctx40):
    out = q_ratios(mp.mpc(0, "1.3"), ctx40)
    with ctx40.working():
        assert abs(out["q1_lhs"] - out["q1_rhs"]) < ctx40.tolerance()
        assert abs(out["q2_lhs"] - out["q2_rhs"]) < ctx40.tolerance()


def test_s_t_u_values(ctx40):
    from fractions import Fraction
    with ctx40.working():
        z = mp.sqrt(3) * mp.mpc(0, 1) / 2
        assert abs(s_r(z, Fraction(1, 16), ctx40)
                   - 11 * mp.pi ** 2 / 96) < ctx40.tolerance()
        assert abs(t_r(z, Fraction(1, 16), ctx40) - mp.pi / 36) < ctx40.tolerance()
        z3 = mp.zeta(3)
        assert abs(u_check(z, Fraction(1, 64), ctx40)
                   - 25 * z3 / (24 * mp.pi)) < ctx40.tolerance()


# the CVZ boundary family (rate -1/64) and the records that once carried a
# relaxed bar with it: each must pass the plain 10^-(digits-5) bar
BOUNDARY_FAMILY = (
    "rama1", "h2var.-64", "sun1", "h3.a",
    "th2.r3.q1q2", "th2.r3.tr", "th2.r4.q1q2", "th2.r4.tr", "th3.r3.ut", "th3.r4.ut",
) + tuple("thm.%s.05_1sqrt2" % n for n in ("q1", "q2", "r1", "r2", "hq1", "hq2", "hr1", "hr2"))


def test_boundary_family_meets_full_bar():
    recs = {r.id: r for r in get_records("all", seed=DEFAULT_SEED)}
    for digits in (15, 50, 100, 250):
        ctx = PrecisionCtx(digits)
        for rid in BOUNDARY_FAMILY:
            row = runner._evaluate(recs[rid], ctx)
            assert row["tol_exponent"] == digits - 5
            assert row["pass"], (digits, rid, row["abs_residual"])


def test_binomial_walk_suites_pass_at_15_and_250_digits():
    # every suite whose records read the binomial walk, at both ends of the
    # supported digit range
    suites = ("ramanujan-classical", "h2-variants", "sun-h2", "h3", "table-h2",
              "table-h3", "theorems-random")
    for digits in (15, 250):
        ctx = PrecisionCtx(digits)
        for suite in suites:
            for rec in get_records(suite):
                row = runner._evaluate(rec, ctx)
                assert row["pass"], (digits, rec.id, row["abs_residual"], row.get("error"))


def test_lemma_oracles_pass_at_100_digits():
    ctx = PrecisionCtx(100)
    recs = get_records("lemma-oracles")
    assert len(recs) == 11
    for rec in recs:
        row = runner._evaluate(rec, ctx)
        assert row["pass"], (rec.id, row["abs_residual"], row.get("error"))


def test_h3int2_residuals_stay_below_working_precision():
    # lem.h3int2.t01 and .t03 integrate K(sqrt s)^2 - (pi/2)^2 from s = 0,
    # so a K^2 that cancels digits near s = 0 shows in their residuals
    recs = {r.id: r for r in get_records("lemma-oracles")}
    for digits in (15, 50, 100):
        ctx = PrecisionCtx(digits)
        for rid in ("lem.h3int2.t01", "lem.h3int2.t03"):
            row = runner._evaluate(recs[rid], ctx)
            assert mpf(row["abs_residual"]) < mpf(10) ** -(digits + 14), (digits, rid, row)


def test_registry_rows_read_the_evaluators_at_run_time(monkeypatch):
    # every row side names its evaluators as module globals, so rebinding them
    # after get_records has cached the registry (as a tracer does) sees every
    # call: each lhs reaches a wrapper, except sr.zk's, which is the input z;
    # a rate series row makes exactly one walk
    recs = get_records("all")
    seen = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)
        return wrapper
    evaluators = [name for name, fn in vars(registry).items()
                  if isinstance(fn, types.FunctionType) and fn.__module__ != registry.__name__
                  and fn.__module__.startswith("modzeta.")]
    assert {"binom3_sums", "eichler4", "epstein2", "q_ratios", "_h3_epstein"} <= set(evaluators)
    for name in evaluators:
        monkeypatch.setattr(registry, name, counting(name, getattr(registry, name)))
    ctx = PrecisionCtx(20)
    unreached = []
    with ctx.working():
        for rec in recs:
            seen.clear()
            rec.lhs(ctx)
            if not seen:
                unreached.append(rec.id)
            if rec.suite in ("ramanujan-classical", "h2-variants", "sun-h2", "h3"):
                assert seen.count("binom3_sums") == 1, rec.id
    assert unreached == ["sr.zk.z0", "sr.zk.z1", "sr.zk.z2"]
    reached = {"eichler4": set(), "eichler6": set()}
    for rec in get_records("eichler-special"):
        seen.clear()
        assert runner._evaluate(rec, ctx)["pass"], rec.id
        for name in reached:
            if name in seen:
                reached[name].add(rec.id)
    ids = [r.id for r in get_records("eichler-special")]
    assert reached["eichler4"] == {i for i in ids if i.startswith("es.e4")} | {"es.h3ratio.256"}
    assert reached["eichler6"] == {i for i in ids if i.startswith(("es.e6.", "es.p33."))}
    assert len(reached["eichler6"]) == 9


def test_theorem_evaluators_share_one_walk(monkeypatch, ctx30):
    # the four evaluators read one memoized nine-sum walk per (point, precision)
    walks = []
    real = theorems.binom3_sums

    def counting(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(theorems, "binom3_sums", counting)
    monkeypatch.setattr(mpcore, "_memo", {})
    z = mp.mpc("0.5", "0.9137")
    for _ in range(2):
        sides = [f(z, ctx30) for f in (q_ratios, r_linear, h3_ratios, h3_linear)]
        assert len(walks) == 1
    with ctx30.working():
        for out in sides:
            lhs = [v for k, v in out.items() if "lhs" in k]
            rhs = [v for k, v in out.items() if "rhs" in k]
            for a, b in zip(lhs, rhs):
                assert abs(a - b) < ctx30.tolerance()
    q_ratios(z, PrecisionCtx(35))
    assert len(walks) == 2


def test_four_evaluators_make_one_walk_per_nome(monkeypatch, ctx30):
    # nomes of z+1/2, 2z, z and 4z; r_linear reuses q_ratios' right-hand
    # sides, and q_ratios and h3_linear read only the Lambert terms of their
    # Epstein pairs, never a whole epstein2; Euler-Maclaurin runs once per
    # (n, workdps)
    em_runs, epstein_calls, lambert_calls = [], [], []
    real_em, real_epstein = mpcore.hurwitz_zeta_raw, theorems.epstein2
    real_lambert = theorems._epstein2_lambert

    def counting_em(s, a):
        em_runs.append((s, a, mp.mp.dps))
        return real_em(s, a)

    def counting_epstein(z, ctx):
        epstein_calls.append(z)
        return real_epstein(z, ctx)

    def counting_lambert(z, ctx):
        lambert_calls.append(z)
        return real_lambert(z, ctx)
    monkeypatch.setattr(mpcore, "hurwitz_zeta_raw", counting_em)
    monkeypatch.setattr(theorems, "epstein2", counting_epstein)
    monkeypatch.setattr(theorems, "_epstein2_lambert", counting_lambert)
    monkeypatch.setattr(mpcore, "_memo", {})
    walk = modular._nome_chains.__wrapped__
    for im in ("0.9137", "1.0721"):
        before = sum(key[0] is walk for key in mpcore._memo)
        for f in (q_ratios, r_linear, h3_ratios, h3_linear):
            f(mp.mpc("0.5", im), ctx30)
        assert sum(key[0] is walk for key in mpcore._memo) - before == 4
    assert len(epstein_calls) == 0
    assert len(lambert_calls) == 8
    assert len(em_runs) == 1


def test_points_convert_at_working_precision(monkeypatch, ctx30):
    # two points 1e-20 apart, built at working precision and passed from
    # outside it, stay apart and evaluate as they would inside it
    with ctx30.working():
        z1 = mp.mpc(0, "1.3")
        z2 = z1 + mp.mpc(0, "1e-20")
    ops = {"q_ratios": lambda z: q_ratios(z, ctx30)["q1_rhs"],
           "eichler4": lambda z: eichler4(z, 0, ctx30),
           "epstein2": lambda z: epstein2(z, ctx30),
           "eta": lambda z: eta(z, ctx30)}
    for name, op in ops.items():
        outside = [op(z1), op(z2)]
        monkeypatch.setattr(mpcore, "_memo", {})
        with ctx30.working():
            inside = [op(z1), op(z2)]
            assert outside[0] != outside[1], name
        assert outside == inside, name


def test_golden_strings_50_digits():
    # lhs/rhs strings of every non-quadrature record, recorded before the
    # series walks, the nome walks and the registry rows were merged: each
    # must stay byte-identical, or its residual must not grow by more than
    # one unit in the last working digit (the fixed-point walks round
    # differently from the mpf walks the strings were recorded with)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    ctx = PrecisionCtx(golden["digits"])
    for suite, recorded in golden["suites"].items():
        rows = {r["id"]: r for r in run_suite(suite, ctx).rows}
        assert set(rows) == set(recorded), suite
        for rid, old in recorded.items():
            new = rows[rid]
            if (new["lhs"], new["rhs"]) != (old["lhs"], old["rhs"]):
                assert (mpf(new["abs_residual"])
                        <= mpf(old["abs_residual"]) + mpf(10) ** -65), rid
