"""Tanh-sinh quadrature and the K-product integral identities."""

import json
import os

import mpmath as mp
import pytest
from mpmath import mpc, mpf

from modzeta import (DomainError, LinearFactor, PrecisionCtx, WeightSpec,
                     binom3_series, const_zeta, dirichlet_l, lemma_integral,
                     lminus4_4_integral, mpcore, quadrature, series, tanh_sinh,
                     zeta5_integral, zeta7_integral)
from modzeta.series import W_ONE, _k_ratio, ell_k, ell_k_comp
from modzeta.verify import get_records, runner
from fractions import Fraction

W_EPS = WeightSpec.combo({"H2_K": 1})
W_NU = WeightSpec.combo({"H2_2K": 1, "H2_K": Fraction(-1, 4)})
W_H31 = WeightSpec.combo({"H3_2K": 1, "H3_K": Fraction(-1, 8)})
W_H32 = WeightSpec.combo({"H3_K": 1})


def test_unit_integral(ctx30):
    with ctx30.working():
        res = tanh_sinh(lambda t: mpf(1), mpf(0), mpf(1), ctx30)
        assert res.converged
        assert abs(res.value - 1) < mpf(10) ** -(ctx30.workdps - 9)


def test_polynomial(ctx30):
    with ctx30.working():
        res = tanh_sinh(lambda t: t * t, mpf(0), mpf(1), ctx30)
        assert abs(res.value - mpf(1) / 3) < mpf(10) ** -(ctx30.workdps - 9)


def test_log_endpoint_singularity(ctx30):
    with ctx30.working():
        res = tanh_sinh(lambda t: mp.log(t), mpf(0), mpf(1), ctx30)
        assert res.converged
        assert abs(res.value + 1) < mpf(10) ** -(ctx30.workdps - 9)


def test_level_doubling_error_shrinks(ctx30):
    # the error estimate must shrink at least quadratically per extra level
    with ctx30.working():
        errs = []
        for lv in (4, 5, 6):
            res = tanh_sinh(lambda t: mp.sqrt(t) * mp.log(t + mpf(1) / 7),
                            mpf(0), mpf(1), ctx30, max_level=lv)
            errs.append(res.err_estimate)
        assert errs[1] < errs[0] ** 2 * mpf(10) ** 6 or errs[1] < mpf(10) ** -35
        assert errs[2] <= errs[1]


def test_non_convergence_flag(ctx30):
    with ctx30.working():
        res = tanh_sinh(lambda t: mp.cos(300 * t), mpf(0), mpf(1), ctx30,
                        max_level=3)
        assert not res.converged


def test_real_segment_stays_real(ctx30):
    # real endpoints give mpf points, an mpf sum and an mpf value; the K
    # integrands then run in mpf arithmetic
    seen = []

    def f(t):
        seen.append(t)
        return t * ell_k(t, ctx30) * ell_k_comp(t, ctx30)
    res = tanh_sinh(f, 0, mpf(1) / 2, ctx30)
    assert res.converged and isinstance(res.value, mpf)
    assert all(isinstance(t, mpf) for t in seen)
    assert isinstance(tanh_sinh(lambda t: mpc(t, 1), 0, 1, ctx30).value, mpc)
    assert isinstance(lemma_integral("NU2", mpf("0.1"), ctx30), mpf)


def test_vector_integrand_matches_its_components(ctx30):
    # a tuple-valued f gives one result per component, each the same as the
    # component integrated alone: it stops on its own rule (the polynomial
    # at level 4, the log-weighted root at 5) while the other runs on
    parts = (lambda t: t * t, lambda t: mp.sqrt(t) * mp.log(t + mpf(1) / 7))
    calls = []

    def f(t):
        calls.append(t)
        return tuple(p(t) for p in parts)
    with ctx30.working():
        both = tanh_sinh(f, mpf(0), mpf(1), ctx30)
        alone = [tanh_sinh(p, mpf(0), mpf(1), ctx30) for p in parts]
    assert both == tuple(alone)
    assert (both.levels_used, both.converged) == (5, True)
    assert [r.levels_used for r in alone] == [4, 5]
    # one call per node through level 5, the midpoint once
    assert len(calls) == sum(2 * len(quadrature._nodes(lv, ctx30)) for lv in range(6)) - 1
    capped = tanh_sinh(f, mpf(0), mpf(1), ctx30, max_level=4)
    assert [r.converged for r in capped] == [True, False]
    assert [r.levels_used for r in capped] == [4, 4]
    assert (capped.levels_used, capped.converged) == (4, False)


@pytest.mark.parametrize("digits", (15, 100, 250))
def test_k_ratio_matches_two_agms(digits):
    # one AGM gives K(sqrt t) and, through the nome limit, K(sqrt(1-t))/K(sqrt t)
    ctx = PrecisionCtx(digits)
    with ctx.working():
        wp = mp.mp.prec
        for t in (mpf("1e-300"), mpf("1e-40"), mpf("0.01"), mpf("0.3"), mpf("0.5")):
            k, r = (mpf(v) / 2 ** wp for v in _k_ratio(t, wp))
            kt = ell_k(t, ctx)
            for got, want in ((k, kt), (r, ell_k_comp(t, ctx) / kt)):
                assert abs(got - want) <= 2 * ctx.tiny() * want, (t, got, want)
        for t in (mpf(0), mpf("-0.1"), mpf("0.5") + ctx.tiny(), mpf(1), mp.inf, mp.nan):
            with pytest.raises(DomainError, match="0 < t <= 1/2"):
                _k_ratio(t, wp)


def test_sec4_integrals_take_one_agm_per_node(monkeypatch):
    # from an empty memo the three section-4 records share one walk over the
    # nodes of [0, 1/2] through level 6: one _k_ratio call per point (741 at
    # 100 digits) and no ell_k / ell_k_comp AGM
    counts = {"_k_ratio": 0, "_agm_k": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)
    counted(quadrature, "_k_ratio")
    counted(series, "_agm_k")
    monkeypatch.setattr(mpcore, "_memo", {})
    ctx = PrecisionCtx(100)
    for rec in get_records("sec4"):
        if rec.id in QUAD_RECORDS:
            assert runner._evaluate(rec, ctx)["pass"], rec.id
    assert counts == {"_k_ratio": 741, "_agm_k": 0}


@pytest.mark.parametrize("digits", (15, 100, 250))
def test_k_ratio_near_one_half_matches_two_agms(digits):
    # within 2^-10 of t = 1/2 the series of K(sqrt(1/2 + u)) takes the
    # place of the AGM and the log; on both sides of the switch K and r
    # are within a unit of 2^-wp of two AGMs (ell_k, ell_k_comp) at 10 more
    # digits
    ctx, fine = PrecisionCtx(digits), PrecisionCtx(digits + 10)
    with ctx.working():
        wp = mp.mp.prec
        half = mpf(1) / 2
        points = (half - mpf(2) ** -9, half - mpf(2) ** -11, half - mpf(10) ** -30, half)
    for t in points:
        with ctx.working():
            k, r = _k_ratio(t, wp)
        with fine.working():
            kt = ell_k(t, fine)
            want = (kt, ell_k_comp(t, fine) / kt)
            for got, v in zip((k, r), want):
                assert abs(got - v * 2 ** wp) <= 1, (t, got, v)


def test_sec4_walk_takes_the_series_near_one_half(monkeypatch):
    # at 100 digits 279 of the 741 points lie within 2^-10 of t = 1/2 and
    # take the series; the other 462 run an AGM and the fixed-point log, and
    # f_0 = K(1/sqrt 2) takes one AGM more.  The walk adds no entry to
    # mpmath's log cache, which an mpf log per point filled with 219
    from mpmath.libmp import libelefun
    counts = {"_agm_means": 0, "_ln_fixed": 0}

    def counted(name):
        fn = getattr(series, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(series, name, wrapper)
    for name in counts:
        counted(name)
    monkeypatch.setattr(mpcore, "_memo", {})
    cached = len(libelefun.log_taylor_cache)
    quadrature._sec4_integrals(PrecisionCtx(100))
    assert counts == {"_agm_means": 463, "_ln_fixed": 462}
    assert len(libelefun.log_taylor_cache) == cached


SEC4_REF = os.path.join(os.path.dirname(__file__), "data", "sec4_integrals_ref.json")


@pytest.mark.parametrize("digits", (15, 50, 100, 250))
def test_sec4_integrals_match_the_mpf_log_walk(digits):
    # the three folded integrals of commit 4160d04, which took an mpf log
    # per point and built the nodes in mpf, at the same levels and within
    # 0.03 units of 10^-workdps
    with open(SEC4_REF) as fh:
        ref = json.load(fh)[str(digits)]
    ctx = PrecisionCtx(digits)
    res = quadrature._sec4_integrals(ctx)
    assert [r.levels_used for r in res] == ref["levels"]
    with mp.workdps(ctx.workdps + 10):
        for r, want in zip(res, map(mpf, ref["values"])):
            assert abs(r.value - want) <= mpf("0.03") * mpf(10) ** -ctx.workdps * abs(want)


# (integral, levels used at 100 digits): one level before the old stop
# d_L < 10^-(workdps-8) max(1, |S|), which doubled the integrand calls.  The
# folded zeta(5) and zeta(7) integrands on [0, 1/2] read K(sqrt t), whose
# branch point t = 1 lies 1/2 past the end, so they take level 6 as L_{-4}(4)
# does, on the same nodes
STOP_LEVELS_100 = ((zeta5_integral, 6), (zeta7_integral, 6), (lminus4_4_integral, 6))


@pytest.mark.parametrize("integral,levels", STOP_LEVELS_100)
def test_squared_difference_stop(integral, levels):
    # the stop d_L^2 <= 10^-workdps max(1, |S_L|)^2 leaves each value
    # within a few units of 10^-workdps of the same integral at 40 more digits
    ctx = PrecisionCtx(100)
    res = integral(ctx)
    assert res.converged and res.levels_used == levels
    ref = integral(PrecisionCtx(140)).value
    with ctx.working():
        assert abs(res.value - ref) <= 4 * ctx.tiny() * max(1, abs(ref))


QUAD_RECORDS = ("s4.zeta5int", "s4.zeta7int", "s4.lm44int")


@pytest.mark.slow
@pytest.mark.parametrize("digits", (15, 250))
def test_quadrature_records_pass_at_15_and_250_digits(digits):
    recs = get_records("lemma-oracles") + [r for r in get_records("sec4")
                                           if r.id in QUAD_RECORDS]
    assert len(recs) == 14
    ctx = PrecisionCtx(digits)
    for rec in recs:
        row = runner._evaluate(rec, ctx)
        assert row["pass"], (digits, rec.id, row["abs_residual"], row.get("error"))


def test_zeta5_integral(ctx40):
    with ctx40.working():
        res = zeta5_integral(ctx40)
        assert res.converged
        assert abs(res.value - const_zeta(5, ctx40)) < mpf(10) ** -30


def test_zeta7_integral(ctx40):
    with ctx40.working():
        res = zeta7_integral(ctx40)
        assert abs(res.value - const_zeta(7, ctx40)) < mpf(10) ** -30


def test_lminus4_4_integral(ctx40):
    with ctx40.working():
        res = lminus4_4_integral(ctx40)
        assert abs(res.value - dirichlet_l(-4, 4, ctx40)) < mpf(10) ** -30
        # the bracket (K'^2/K^2 - 1)^3 vanishes at t=1/2, keeping the
        # integrand finite there; self-consistency across precisions
        lo = PrecisionCtx(15)
        with lo.working():
            res_lo = lminus4_4_integral(lo)
        assert abs(res.value - res_lo.value) < mpf(10) ** -12


@pytest.mark.parametrize("which,w", [
    ("NU2", W_NU), ("EPS2", W_EPS), ("H3INT1", W_H31), ("H3INT2", W_H32),
])
@pytest.mark.parametrize("tv", ["0.1", "0.3", "0.2+0.1j"])
def test_lemma_integrals_match_series(ctx30, which, w, tv):
    # the complex t integrates on a complex segment from the base point
    with ctx30.working():
        t = mp.mpmathify(tv)
        quad = lemma_integral(which, t, ctx30)
        series = binom3_series(t * (1 - t) / 16, LinearFactor(0, 1), w, ctx30)
        assert abs(quad - series) <= 4 * ctx30.tiny() * max(1, abs(series))


def test_nu2_at_zero(ctx30):
    # the empty range returns before the walk that NU2, H3INT1 and H3INT2 share
    with ctx30.working():
        for which in ("NU2", "H3INT1", "H3INT2"):
            assert lemma_integral(which, mpf(0), ctx30) == 0, which


def test_lemma_integrals_share_one_walk(monkeypatch, ctx30):
    # NU2, H3INT1 and H3INT2 at one (t, ctx) read one memoized walk over
    # [0, t]; EPS2 walks its own segment from 1/2
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return tanh_sinh(*args, **kwargs)
    monkeypatch.setattr(quadrature, "tanh_sinh", counted)
    monkeypatch.setattr(mpcore, "_memo", {})
    with ctx30.working():
        t = mpf("0.3")
    for which in ("NU2", "H3INT1", "H3INT2"):
        lemma_integral(which, t, ctx30)
    assert calls == [(0, t)]
    lemma_integral("EPS2", t, ctx30)
    assert calls == [(0, t), (mpf(1) / 2, t)]


@pytest.mark.parametrize("digits", (15, 100))
@pytest.mark.parametrize("tv", ["0.1", "0.2+0.1j"])
def test_shared_lemma_walk_against_40_more_digits(digits, tv):
    # each component of the shared walk, scaled as lemma_integral returns
    # it, is within a unit of 10^-workdps of itself at 40 more digits
    ctx, hi = PrecisionCtx(digits), PrecisionCtx(digits + 40)
    for which in ("NU2", "H3INT1", "H3INT2"):
        with ctx.working():
            got = lemma_integral(which, mp.mpmathify(tv), ctx)
        with hi.working():
            want = lemma_integral(which, mp.mpmathify(tv), hi)
            assert abs(got - want) <= ctx.tiny() * max(1, abs(want)), which


def test_complex_path(ctx30):
    # straight complex segment: int_0^(1+i) z^2 dz = (1+i)^3/3
    with ctx30.working():
        res = tanh_sinh(lambda z: z * z, mpf(0), mpc(1, 1), ctx30)
        assert abs(res.value - mpc(1, 1) ** 3 / 3) < mpf(10) ** -(ctx30.workdps - 10)


def test_h3mix2_tail_integral_rejects_real_t(ctx30):
    # the ray leaves t upward or downward by the sign of Im t; a real t has none
    from modzeta import DomainError, h3mix2_tail_integral
    for t in (mpf("0.3"), mpf("-0.5")):
        with pytest.raises(DomainError, match="h3mix2_tail_integral requires Im t != 0"):
            h3mix2_tail_integral(t, ctx30)


@pytest.mark.parametrize("digits", (50, 100, 250))
def test_small_s_ksq_series_meets_working_precision(digits):
    # K(sqrt s)^2 - (pi/2)^2 must keep full relative precision on both sides
    # of |s| = 1e-6, for real, negative and complex s, and down to s = 1e-200:
    # tanh-sinh nodes come within about 10^(-1.5 workdps) of s = 0
    from modzeta.quadrature import _k_and_ksq_excess
    ctx = PrecisionCtx(digits)
    for s in (mpf("9.99e-7"), mpc("-7e-7", "7e-7"), mpf("-3e-9"), mpf("1e-9"),
              mpf("1.01e-6"), mpf("1e-5"), mpf("1e-3"), mpf("0.05"), mpf("0.3"),
              mpf("0.5"), mpc("0.1", "0.05"), mpc("0.3", "-0.2"),
              mpf("1e-60"), mpf("1e-200")):
        with ctx.working():
            got = _k_and_ksq_excess(mpc(s), ctx)[1]
        # the difference cancels about log10(1/|s|) digits in the reference too
        with mp.workdps(ctx.workdps + 60 + max(0, -int(mp.log10(abs(s))))):
            want = mp.ellipk(s) ** 2 - mp.pi ** 2 / 4
            assert abs(got - want) <= mpf(10) ** -(ctx.workdps - 3) * abs(want), s
    with ctx.working():
        assert _k_and_ksq_excess(mpc(0), ctx)[1] == 0
