"""Registry integrity, runner behavior, report serialization."""

import functools
import json
import os
import random
import subprocess
import sys
import types
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import mpc, mpf

from modzeta import (DomainError, PrecisionCtx, all_suites, eichler4,
                     epstein2, eta, get_records, h3_linear, h3_ratios,
                     q_ratios, r_linear, run_suite, s_r, t_r, u_check)
from modzeta import modular, mpcore, quadrature
from modzeta.verify import DEFAULT_SEED, SUITES
from modzeta.verify import registry, runner, theorems
from oracles import modular_record

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
    # the process pool, imported on the jobs > 1 branch only, gives the
    # serial rows apart from their timings
    def rows(suite, ctx, jobs):
        return [{k: v for k, v in row.items() if k != "elapsed_ms"}
                for row in run_suite(suite, ctx, jobs=jobs).rows]
    for suite, ctx in (("sun-h2", ctx50), ("h2-variants", PrecisionCtx(15))):
        serial = rows(suite, ctx, 1)
        assert serial and all(row["pass"] for row in serial)
        assert rows(suite, ctx, 2) == serial


def test_import_loads_neither_numpy_nor_the_process_pool():
    # numpy serves only epstein_lattice and the pool only run_suite(jobs > 1):
    # a fresh process that imports the package and builds the registry loads neither
    src = os.path.dirname(os.path.dirname(modular.__file__))
    code = ("import sys, modzeta; modzeta.get_records('all'); "
            "print([m for m in ('numpy', 'concurrent.futures.process', "
            "'multiprocessing') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


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
    # suite runs to the end; the memo starts empty, so that the memoized
    # section-4 integrals reach the capped tanh_sinh
    capped = functools.partial(quadrature.tanh_sinh, max_level=2)
    monkeypatch.setattr(quadrature, "tanh_sinh", capped)
    monkeypatch.setattr(mpcore, "_memo", {})
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
    with ctx40.working():
        z = mp.sqrt(3) * mp.mpc(0, 1) / 2
        assert abs(s_r(z, Fraction(1, 16), ctx40)
                   - 11 * mp.pi ** 2 / 96) < ctx40.tolerance()
        assert abs(t_r(z, Fraction(1, 16), ctx40) - mp.pi / 36) < ctx40.tolerance()
        z3 = mp.zeta(3)
        assert abs(u_check(z, Fraction(1, 64), ctx40)
                   - 25 * z3 / (24 * mp.pi)) < ctx40.tolerance()
    # the three read the modular record alone, so they serve any point the
    # nome walk serves, inside the theorem hypothesis or not, and raise
    # below Im z = 0.03
    for f, r in ((s_r, Fraction(1, 16)), (t_r, Fraction(1, 16)), (u_check, Fraction(1, 64))):
        assert mp.isfinite(f(mp.mpc("0.3", "0.9"), r, ctx40))
        with pytest.raises(DomainError):
            f(mp.mpc("0.3", "0.02"), r, ctx40)


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("point,served", [
    ("0.517i", False), ("0.52i", True), ("1/2+0.7078i", False), ("1/2+0.708i", True),
    ("1/2+i/sqrt2", True), ("i/2", False)])
def test_theorem_evaluators_serve_their_stated_strip(point, served, digits):
    # the binomial plan's cap of 400 workdps terms ends the served strip
    # where |64x| passes about 10^(-1/400), inside the theorem hypothesis:
    # a served point agrees with its modular side, an edge point raises;
    # the rate -1/64 at 1/2 + i/sqrt2 goes through CVZ, and i/2 (64x = +1)
    # is a non-alternating boundary rate
    ctx = PrecisionCtx(digits)
    with ctx.working():
        z = {"0.517i": mpc(0, "0.517"), "0.52i": mpc(0, "0.52"),
             "1/2+0.7078i": mpc("0.5", "0.7078"), "1/2+0.708i": mpc("0.5", "0.708"),
             "1/2+i/sqrt2": mpf(1) / 2 + mpc(0, 1) / mp.sqrt(2), "i/2": mpc(0, "0.5")}[point]
    if not served:
        with pytest.raises(DomainError):
            q_ratios(z, ctx)
        return
    out = q_ratios(z, ctx)
    with ctx.working():
        for n in (1, 2):
            assert abs(out["q%d_lhs" % n] - out["q%d_rhs" % n]) < ctx.tolerance()


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
    for digits in (15, 50, 100, 250):
        ctx = PrecisionCtx(digits)
        for rid in ("lem.h3int2.t01", "lem.h3int2.t03"):
            row = runner._evaluate(recs[rid], ctx)
            assert mpf(row["abs_residual"]) < mpf(10) ** -(digits + 14), (digits, rid, row)


def test_registry_rows_read_the_evaluators_at_run_time(monkeypatch):
    # every row side names its evaluators as module globals, so rebinding them
    # after get_records has cached the registry (as a tracer does) sees every
    # call: each lhs reaches a wrapper, except sr.zk's, which is the input z,
    # and each rhs does, except the closed forms in pi, square roots and
    # rationals and the literal zeros listed here; a rate series row makes
    # exactly one walk
    recs = get_records("all")
    closed = [r.id for r in recs if r.id.startswith((
        "rama", "h2var.", "sun", "sr.sumE", "sr.ez2add.", "sr.ez3add.", "sr.lam.",
        "es.s.", "es.t.", "es.e6.sqrt3.1"))
        or r.id.startswith("th2.") and r.id.endswith((".rate", ".lin", ".rhalf", ".tr"))]
    assert len(closed) == 61
    seen = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)
        return wrapper
    evaluators = [name for name, fn in vars(registry).items()
                  if isinstance(fn, types.FunctionType) and fn.__module__ != registry.__name__
                  and fn.__module__.startswith("modzeta.")]
    assert {"binom3_sums", "_binom_sums", "eichler4", "epstein2", "_series_data",
            "_series_plan", "_modular_data", "_h3_epstein"} <= set(evaluators)
    for name in evaluators:
        monkeypatch.setattr(registry, name, counting(name, getattr(registry, name)))
    ctx = PrecisionCtx(20)
    unreached = {"lhs": [], "rhs": []}
    with ctx.working():
        for rec in recs:
            for side in unreached:
                seen.clear()
                getattr(rec, side)(ctx)
                if not seen:
                    unreached[side].append(rec.id)
                if side == "lhs" and rec.suite in (
                        "ramanujan-classical", "h2-variants", "sun-h2", "h3"):
                    assert seen.count("binom3_sums") == 1, rec.id
    assert unreached["lhs"] == ["sr.zk.z0", "sr.zk.z1", "sr.zk.z2"]
    assert unreached["rhs"] == closed
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
    # the four evaluators read one memoized nine-sum walk and one modular
    # record per (point, precision), and check the point once, in the walk's
    # series plan; the record reads the point's one theorem record of the
    # Lambert walk once; s_r, t_r and u_check then read that record and add
    # no walk, no memo entry and no check, and alone make that one walk
    walks, reads, checks = [], [], []

    def counting(real, calls):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(theorems, "binom3_sums", counting(theorems.binom3_sums, walks))
    monkeypatch.setattr(theorems, "_nome_chains", counting(theorems._nome_chains, reads))
    monkeypatch.setattr(theorems, "_require_admissible",
                        counting(theorems._require_admissible, checks))
    monkeypatch.setattr(mpcore, "_memo", {})
    record = theorems._modular_data.__wrapped__
    z = mp.mpc("0.5", "0.9137")
    for _ in range(2):
        sides = [f(z, ctx30) for f in (q_ratios, r_linear, h3_ratios, h3_linear)]
        assert len(walks) == 1
        assert len(reads) == 1
        assert len(checks) == 1
        assert sum(key[0] is record for key in mpcore._memo) == 1
    assert reads == [(z, ctx30, (1, 2, 4))]
    with ctx30.working():
        for out in sides:
            lhs = [v for k, v in out.items() if "lhs" in k]
            rhs = [v for k, v in out.items() if "rhs" in k]
            for a, b in zip(lhs, rhs):
                assert abs(a - b) < ctx30.tolerance()
    entries = len(mpcore._memo)
    for f, r in ((s_r, Fraction(1, 16)), (t_r, Fraction(1, 16)), (u_check, Fraction(1, 64))):
        f(z, r, ctx30)
    assert len(mpcore._memo) == entries
    assert len(walks) == 1 and len(reads) == 1 and len(checks) == 1
    q_ratios(z, PrecisionCtx(35))
    assert len(walks) == 2 and len(checks) == 2
    assert sum(key[0] is record for key in mpcore._memo) == 2
    # called alone, each of s_r, t_r and u_check makes the point's one walk
    walk = modular._nome_chains.__wrapped__
    for f, r in ((s_r, Fraction(1, 16)), (t_r, Fraction(1, 16)), (u_check, Fraction(1, 64))):
        mpcore._memo.clear()
        f(z, r, ctx30)
        assert [key[3] for key in mpcore._memo if key[0] is walk] == [((1, 2, 4),)]


def test_table_h2_cells_read_one_series_plan(monkeypatch, ctx30):
    # the rate, lin and rhalf cells of a tabulated point read alpha4 and
    # R_{-1/2} from the series plan that its q1q2 and tr cells walk, so these
    # five cells take one alpha4, three pentagonal sums at the powers q, q^2
    # and q^4 of one nome exponential, and one Lambert walk, which takes the
    # other; the ezh and e2z cells read the public epstein2 at z + 1/2 and
    # 2z, one walk each at its own nome
    nomes, sum_nomes = [], []
    real_nome, real_sum = modular._nome, modular._pentagonal

    def counting_nome(z):
        nomes.append(z)
        return real_nome(z)

    def counting_sum(q, ctx):
        sum_nomes.append(q)
        return real_sum(q, ctx)
    monkeypatch.setattr(modular, "_nome", counting_nome)
    monkeypatch.setattr(modular, "_pentagonal", counting_sum)
    monkeypatch.setattr(mpcore, "_memo", {})
    walk = modular._nome_chains.__wrapped__
    recs = [r for r in get_records("table-h2") if r.id.startswith("th2.r1.")]
    epstein = [r for r in recs if r.id.endswith(("ezh", "e2z"))]
    assert len(recs) == 7 and len(epstein) == 2
    for rec in [r for r in recs if r not in epstein]:
        assert runner._evaluate(rec, ctx30)["pass"], rec.id
    assert [key[1:] for key in mpcore._memo if key[0] is walk] == [
        ((nomes[0],), ctx30.workdps, ((1, 2, 4),))]
    assert len(nomes) == 2 and nomes[0] == nomes[1]
    assert len(sum_nomes) == 3
    with mp.workdps(60):
        assert abs(sum_nomes[2] - sum_nomes[1] ** 2) < mpf(10) ** -50
        assert abs(sum_nomes[1] - sum_nomes[0] ** 2) < mpf(10) ** -50
    for rec in epstein:
        assert runner._evaluate(rec, ctx30)["pass"], rec.id
    assert sum(key[0] is walk for key in mpcore._memo) == 3
    assert len(nomes) == 4 and len(sum_nomes) == 3


def test_four_evaluators_make_one_walk_per_point(monkeypatch, ctx30):
    # the chains at the nomes of z+1/2, 2z, z and 4z come from one Lambert
    # walk over the powers of q; the four evaluators read one modular record,
    # which reads that walk's record once, and whose Q and plain-H3 linear
    # sides read only the Lambert terms of their Epstein pairs, never a whole
    # epstein2; Euler-Maclaurin runs once per (n, workdps)
    em_runs, epstein_calls, nome_reads = [], [], []
    real_em, real_epstein = mpcore.hurwitz_zeta_raw, theorems.epstein2
    real_nome = theorems._nome_chains

    def counting_em(s, a):
        em_runs.append((s, a, mp.mp.dps))
        return real_em(s, a)

    def counting_epstein(z, ctx):
        epstein_calls.append(z)
        return real_epstein(z, ctx)

    def counting_nome(z, ctx, powers=(1,)):
        nome_reads.append(z)
        return real_nome(z, ctx, powers)
    monkeypatch.setattr(mpcore, "hurwitz_zeta_raw", counting_em)
    monkeypatch.setattr(theorems, "epstein2", counting_epstein)
    monkeypatch.setattr(theorems, "_nome_chains", counting_nome)
    monkeypatch.setattr(mpcore, "_memo", {})
    walk = modular._nome_chains.__wrapped__
    for im in ("0.9137", "1.0721"):
        before = sum(key[0] is walk for key in mpcore._memo)
        for f in (q_ratios, r_linear, h3_ratios, h3_linear):
            f(mp.mpc("0.5", im), ctx30)
        assert sum(key[0] is walk for key in mpcore._memo) - before == 1
    assert len(epstein_calls) == 0
    assert len(nome_reads) == len(set(nome_reads)) == 2
    assert len(em_runs) == 1


@pytest.mark.parametrize("digits", [30, 100])
def test_theorem_rhs_agree_with_40_more_digits(digits):
    # every right-hand side is within half a unit of 10^-workdps of the same
    # evaluator at +40 digits on the same rounded z, at the theorems-random
    # points but the boundary point 1/2 + i/sqrt2 (rounded at the lower
    # precision, it lies off the boundary at the higher one) and at
    # 1/2 + 1.200266i, where a nome walk cut at 10^-workdps before the
    # Eichler prefactors lost 2 units in r2_rhs at 30 digits
    ctx, fine = PrecisionCtx(digits), PrecisionCtx(digits + 40)
    unit = mpf(10) ** -ctx.workdps
    for re, im in (("0", "1.05"), ("0", "1.3"), ("0", "2.0"), ("0.5", "0.75"),
                   ("0.5", "1.4"), ("0.5", "1.200266")):
        with ctx.working():
            z = mpc(mpf(re), mpf(im))
        for f in (q_ratios, r_linear, h3_ratios, h3_linear):
            out, ref = f(z, ctx), f(z, fine)
            with fine.working():
                for key in (k for k in out if "rhs" in k):
                    assert abs(out[key] - ref[key]) <= unit / 2, (re, im, f.__name__, key)


@pytest.mark.parametrize("digits", [30, 100])
def test_modular_record_matches_its_oracle(digits):
    # the record and s_r, t_r and u_check agree with the same sides
    # assembled from the public eichler4, eichler6 and epstein2 at 10 more
    # digits, within 4 units of 10^-workdps relative to max(1, |v|), at the
    # four table points with their r and rc and at three random points
    ctx, fine = PrecisionCtx(digits), PrecisionCtx(digits + 10)
    rng = random.Random(7)
    with ctx.working():
        points = [(p.z(), p.r, p.rc) for p in registry._POINTS]
        points += [(mpc(re, lo + (hi - lo) * rng.random()), Fraction(1, 16), Fraction(1, 64))
                   for re, lo, hi in (("0", 0.65, 1.8), ("0.5", 0.75, 1.5), ("0", 0.65, 1.8))]
    unit = mpf(10) ** -ctx.workdps
    for z, r, rc in points:
        record, ref = theorems._modular_data(z, ctx), modular_record(z, fine)
        with fine.working():
            lin = ref["linear"]
            r_, rc_ = (mpf(f.numerator) / f.denominator for f in (r, rc))
            pairs = [(record[kind][w], ref[kind][w]) for kind in ("ratio", "linear")
                     for w in ref[kind]]
            pairs += list(zip(record["s"], ref["s"])) + [(record["u"], ref["u"])]
            pairs += [(s_r(z, r, ctx), ref["s"][0] - r_ * ref["s"][1]),
                      (t_r(z, r, ctx), lin[theorems.W_H2_DIFF] - r_ * lin[theorems.W_H2_PLAIN]),
                      (u_check(z, rc, ctx), lin[theorems.W_H3_DIFF] + rc_ * ref["u"])]
            for i, (v, w) in enumerate(pairs):
                assert abs(v - w) <= 4 * unit * max(1, abs(w)), (z, i, v, w)


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
