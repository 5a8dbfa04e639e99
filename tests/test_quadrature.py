"""Tanh-sinh quadrature and the K-product integral identities."""

import mpmath as mp
import pytest
from mpmath import mpc, mpf

from modzeta import (LinearFactor, PrecisionCtx, WeightSpec, binom3_series,
                     const_zeta, dirichlet_l, lemma_integral,
                     lminus4_4_integral, tanh_sinh, zeta5_integral,
                     zeta7_integral)
from modzeta.series import W_ONE, ell_k, ell_k_comp
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


# (integral, levels used at 100 digits): one level before the old stop
# d_L < 10^-(workdps-8) max(1, |S|), which doubled the integrand calls
STOP_LEVELS_100 = ((zeta5_integral, 5), (zeta7_integral, 5), (lminus4_4_integral, 6))


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
        assert abs(quad - series) < mpf(10) ** -25


def test_nu2_at_zero(ctx30):
    with ctx30.working():
        assert abs(lemma_integral("NU2", mpf(0), ctx30)) < mpf(10) ** -25


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
