"""Series engines: binomial sums, CVZ, AGM, hyperbolic kernels, ELi."""

import time
from fractions import Fraction
from itertools import islice
from math import comb

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf

from modzeta import (DomainError, HypKernel, LinearFactor, PrecisionCtx,
                     WeightSpec, binom2_series, binom3_series, eli, ell_k,
                     ell_k_comp, hyp_lambert, inv_binom2_series, legendre_dnu2)
from modzeta import alpha4, eichler4, eta, lambda_fn
from modzeta.modular import _pentagonal
from modzeta.series import _BASIS, W_ONE, _binom_guard, _binom_steps, binom3_sums
from oracles import gamma_one_plus, legendre_p_def

I = mpc(0, 1)

# K(sqrt(1/2)) frozen from 2F1(1/2,1/2;1;1/2) partial sums (30 digits)
K_HALF_30 = "1.85407467730137191843385034720"
# direct-summation oracle for the inverse-square binomial sum at t=1/2
INV_SQR_HALF_30 = "2.67457640729806918701575056705"

W_H2DIFF = WeightSpec.combo({"H2_2K": 1, "H2_K": Fraction(-1, 4)})
# CVZ sums at the boundary rate -1/64 and 30 digits: C^3 (0k+1), C^3 (4k+1)
# = 2/pi, C^3 W_H2DIFF; test_binom3_sums_domain also checks each against a
# 60-digit reference
CVZ_30 = {(0, 1, W_ONE): "0.909172794546929700739778854282651225720527299596",
          (4, 1, W_ONE): "0.636619772367581343075535053490057448137838582945",
          (0, 1, W_H2DIFF): "-0.0875992280020186921295926813195343506450184063723"}


# ---------------------------------------------------------------------------
# binom3_series
# ---------------------------------------------------------------------------

def test_binom3_rama4(ctx50):
    with ctx50.working():
        v = binom3_series(mpf(1) / 4096, LinearFactor(42, 5), W_ONE, ctx50)
        assert abs(v - 16 / mp.pi) < ctx50.tolerance()


def test_binom3_weighted_4096(ctx50):
    with ctx50.working():
        w = WeightSpec.combo({"H2_2K": 1, "H2_K": Fraction(-25, 92)})
        v = binom3_series(mpf(1) / 4096, LinearFactor(42, 5), w, ctx50)
        assert abs(v - 2 * mp.pi / 69) < ctx50.tolerance()


def test_binom3_at_zero(ctx30):
    with ctx30.working():
        assert binom3_series(0, LinearFactor(7, 3), W_ONE, ctx30) == 3
        assert binom3_series(0, LinearFactor(7, 3),
                             WeightSpec.combo({"H2_K": 1}), ctx30) == 0


def test_binom3_boundary_accelerated(ctx50):
    # the rate -1/64 is seen as a boundary rate and summed by CVZ
    with ctx50.working():
        v = binom3_series(mpf(-1) / 64, LinearFactor(4, 1), W_ONE, ctx50)
        assert abs(v - 2 / mp.pi) < mpf(10) ** -45


def test_binom3_errors(ctx30):
    with pytest.raises(DomainError):
        binom3_series(mpf("0.02"), LinearFactor(0, 1), W_ONE, ctx30)
    with pytest.raises(DomainError):  # positive boundary is unsupported
        binom3_series(mpf(1) / 64, LinearFactor(0, 1), W_ONE, ctx30)
    with ctx30.working():  # the unflagged boundary call is the CVZ sum
        assert (binom3_series(mpf(-1) / 64, LinearFactor(0, 1), W_ONE, ctx30)
                == mpf(CVZ_30[0, 1, W_ONE]))


def test_binom3_kk_identity(ctx40):
    # sum C^3 (t(1-t)/16)^k = (2K(sqrt t)/pi)^2 at t = 0.3
    with ctx40.working():
        t = mpf("0.3")
        lhs = binom3_series(t * (1 - t) / 16, LinearFactor(0, 1), W_ONE, ctx40)
        assert abs(lhs - (2 * ell_k(t, ctx40) / mp.pi) ** 2) < ctx40.tolerance()


@pytest.mark.parametrize("k", [1, 7, 19])
def test_incremental_terms_match_scratch(k, ctx30):
    # term k of the fixed-point step (incremental binomial and harmonic
    # updates) equals the same term recomputed from scratch factorials and
    # harmonic sums
    with ctx30.working():
        x = mpf(1) / 300
        w = WeightSpec.combo({"H3_2K": 1, "H2_K": Fraction(-1, 3), "INVSQ_2K1": 2})
        a, b = mpf(3), mpf(2)

        def scratch(j):
            h32k = mp.fsum(mpf(1) / n ** 3 for n in range(1, 2 * j + 1))
            h2k = mp.fsum(mpf(1) / n ** 2 for n in range(1, j + 1))
            wt = h32k - h2k / 3 + 2 / mpf(2 * j + 1) ** 2
            return mpf(comb(2 * j, j)) ** 3 * (a * j + b) * wt * x ** j

        wp = mp.mp.prec + _binom_guard(ctx30)
        steps = _binom_steps(x, 3, [basis for _, basis in w.terms], wp, 0)
        tr, ti, h = next(islice(steps, k, None))
        assert ti == 0
        wt = sum(c * h[basis] for c, basis in w.terms)
        incremental = (mpf(tr) * (a * k + b) * wt.numerator / wt.denominator
                       / mpf(2) ** (2 * wp))
        assert abs(incremental - scratch(k)) < abs(scratch(k)) * ctx30.tiny() * 100
        # and the summed series agrees with a long scratch partial sum
        full = binom3_series(x, LinearFactor(a, b), w, ctx30)
        partial = mp.fsum(scratch(j) for j in range(60))
        assert abs(full - partial) < abs(scratch(59)) / (1 - 64 * x) + ctx30.tiny()


# ---------------------------------------------------------------------------
# binom3_sums: one walk for many (LinearFactor, WeightSpec) requests
# ---------------------------------------------------------------------------

def _scratch_basis(basis, k, h):
    # h[p][n] = H^(p)_n, summed directly; the definitions of WeightSpec
    d = h[1][2 * k] - h[1][k]
    return {
        "ONE": 1, "H1_K": h[1][k], "H1_2K": h[1][2 * k],
        "H2_K": h[2][k], "H2_2K": h[2][2 * k],
        "H3_K": h[3][k], "H3_2K": h[3][2 * k],
        "INVSQ_2K1": mpf(1) / (2 * k + 1) ** 2,
        "H2_2K_TIMES_DH1": h[2][2 * k] * d, "H2_K_TIMES_DH1": h[2][k] * d,
        "H3MIX": h[3][k] - 3 * h[2][k] * d,
    }[basis]


def _scratch_binom3(x, factor, w, n):
    """Partial sum over k < n from exact binomials and direct harmonic sums.

    Also returns the scale of the rounding a working-precision walk may
    make: term k carries O(k) roundings from the term recurrence and each
    addition rounds the partial sum, every rounding below tiny/10.
    """
    h = {p: [mpf(0)] for p in (1, 2, 3)}
    for m in range(1, 2 * n):
        for p in (1, 2, 3):
            h[p].append(h[p][-1] + mpf(1) / mpf(m) ** p)
    total, scale = mpc(0), mpf(1)
    for k in range(n):
        wt = mp.fsum(mpf(c.numerator) / c.denominator * _scratch_basis(b, k, h)
                     for c, b in w.terms)
        term = mpf(comb(2 * k, k)) ** 3 * (factor.a * k + factor.b) * wt * x ** k
        total += term
        scale += (k + 10) * abs(term) + abs(total)
    return total, scale


_weights = st.dictionaries(
    st.sampled_from(sorted(_BASIS)),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    min_size=1, max_size=3).map(WeightSpec.combo)
_factors = st.builds(
    lambda ar, ai, b: LinearFactor(mpc(ar, ai), b),
    st.floats(-3, 3), st.floats(-1, 1), st.integers(-3, 3))


@settings(max_examples=25, deadline=None)
@given(st.floats(0, 0.9), st.floats(-1, 1),
       st.lists(st.tuples(_factors, _weights), min_size=1, max_size=4))
def test_binom3_sums_match_alone_and_scratch(rho, theta, requests):
    ctx = PrecisionCtx(15)
    with ctx.working():
        x = mpf(rho) * mp.expjpi(mpf(theta)) / 64
        sums = binom3_sums(x, requests, ctx)
        assert len(sums) == len(requests)
        # terms fall like rho^k k^(-3/2) times a polynomial in k and log k
        n = 12 if rho == 0 else int(ctx.workdps * 2.31 / -mp.log(rho)) + 60
    for value, (factor, w) in zip(sums, requests):
        with ctx.working():
            # each request keeps its own certificate, so it stops where it
            # would stop alone
            assert value == binom3_series(x, factor, w, ctx)
        with mp.workdps(ctx.workdps + 20):
            scratch, scale = _scratch_binom3(x, factor, w, n)
            assert abs(value - scratch) < ctx.tiny() * scale


def test_binom3_sums_boundary_matches_single(ctx30):
    h3 = WeightSpec.combo({"H3_2K": 1})
    requests = [(LinearFactor(4, 1), W_ONE), (LinearFactor(0, 1), h3),
                (LinearFactor(4, 1), h3), (LinearFactor(0, 1), W_H2DIFF)]
    with ctx30.working():
        x = mpf(-1) / 64
        sums = binom3_sums(x, requests, ctx30)
        for value, (factor, w) in zip(sums, requests):
            assert value == binom3_series(x, factor, w, ctx30)
        assert abs(sums[0] - 2 / mp.pi) < ctx30.tolerance()


def test_binom3_sums_domain(ctx30):
    req = [(LinearFactor(4, 1), W_ONE), (LinearFactor(0, 1), W_H2DIFF)]
    with ctx30.working():
        with pytest.raises(DomainError):  # |64x| > 1
            binom3_sums(mpf("0.02"), req, ctx30)
        # the boundary walk uses real parts only; dust above the slack
        # (10^-(workdps-6) = 1e-39 here) is refused, dust below it is dropped
        x = mpf(-1) / 64
        clean = binom3_sums(x, req, ctx30)
        assert clean == [mpf(CVZ_30[f.a, f.b, w]) for f, w in req]

        def fuzzy(dust):
            return (mpc(x, dust), [(LinearFactor(mpc(4, dust), 1), W_ONE),
                                   (LinearFactor(0, mpc(1, dust)), W_H2DIFF)])
        x_big, req_big = fuzzy("1e-30")
        for args in ((x_big, req), (x, req_big)):
            with pytest.raises(DomainError):
                binom3_sums(*args, ctx30)
        assert binom3_sums(*fuzzy("1e-45"), ctx30) == clean
    # each boundary sum lies within 10^-45 of an independent 60-digit
    # reference: Clausen's (2K(sqrt t)/pi)^2 at t(1-t)/16 = -1/64, 2/pi, and
    # the same CVZ sum
    sums = binom3_sums(x, [(LinearFactor(0, 1), W_ONE)] + req, ctx30)
    ctx60 = PrecisionCtx(60)
    with ctx60.working():
        t = (1 - mp.sqrt(2)) / 2
        refs = [(2 * ell_k(t, ctx60) / mp.pi) ** 2, 2 / mp.pi,
                binom3_series(x, LinearFactor(0, 1), W_H2DIFF, ctx60)]
        for value, ref in zip(sums, refs):
            assert abs(value - ref) < mpf(10) ** -45


# ---------------------------------------------------------------------------
# binom2 / inverse-square series
# ---------------------------------------------------------------------------

def test_binom2_trivial(ctx30):
    with ctx30.working():
        assert binom2_series(0, W_ONE, ctx30) == 1


def test_binom2_is_k(ctx40):
    with ctx40.working():
        t = mpf("0.37")
        lhs = binom2_series(t / 16, W_ONE, ctx40)
        assert abs(lhs - 2 * ell_k(t, ctx40) / mp.pi) < ctx40.tolerance()


def test_binom2_divergence(ctx30):
    with pytest.raises(DomainError):
        binom2_series(mpf("0.07"), W_ONE, ctx30)
    with pytest.raises(DomainError):  # the non-alternating boundary rate
        binom2_series(mpf(1) / 16, W_ONE, ctx30)


def _reference_binom2(x, w, ctx):
    # binom2_series as its own loop summed it, with the harmonic numbers and
    # the basis values written out
    with ctx.working():
        x = mpc(x)
        tiny = ctx.tiny()
        r = abs(16 * x)
        h1k = h12k = h2k = h22k = h3k = h32k = mpf(0)
        acc = mpc(0)
        term_base = mpc(1)
        k = 0
        while True:
            dh1 = h12k - h1k
            basis = {"ONE": mpf(1), "H1_K": h1k, "H1_2K": h12k, "H2_K": h2k,
                     "H2_2K": h22k, "H3_K": h3k, "H3_2K": h32k,
                     "INVSQ_2K1": 1 / mpf(2 * k + 1) ** 2,
                     "H2_2K_TIMES_DH1": h22k * dh1, "H2_K_TIMES_DH1": h2k * dh1,
                     "H3MIX": h3k - 3 * h2k * dh1}
            wt = mpf(0)
            for c, b in w.terms:
                wt += (mpf(c.numerator) / c.denominator) * basis[b]
            acc += term_base * wt
            if k >= 8:
                grow = r * (1 + mpf(6) / k)
                if grow < 1:
                    guard = (1 + mpf(2) / max(k, 2)) ** 2
                    bound = abs(term_base) * 16 * abs(x) * (abs(wt) + 1) * guard
                    if bound * grow / (1 - grow) + bound < tiny:
                        return acc
            term_base *= mpf(2 * (2 * k + 1)) ** 2 / mpf(k + 1) ** 2 * x
            k += 1
            kk = mpf(k)
            h1k += 1 / kk
            h2k += 1 / kk ** 2
            h3k += 1 / kk ** 3
            a, b = mpf(2 * k - 1), mpf(2 * k)
            h12k += 1 / a + 1 / b
            h22k += 1 / a ** 2 + 1 / b ** 2
            h32k += 1 / a ** 3 + 1 / b ** 3


BINOM2_WEIGHTS = (
    W_ONE, W_H2DIFF,
    WeightSpec.combo({"H3MIX": 2, "INVSQ_2K1": Fraction(1, 3), "H1_2K": 1}),
    WeightSpec.combo({"H2_2K_TIMES_DH1": 1, "H2_K_TIMES_DH1": -1,
                      "H3_2K": Fraction(1, 7), "H1_K": 5, "H3_K": 1, "ONE": -2}),
)


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_binom2_matches_its_own_loop(digits):
    # binom2_series runs on the fixed-point binom3 engine at power 2: every
    # value must be the one its own loop gave, to rounding
    ctx = PrecisionCtx(digits)
    with ctx.working():
        rates = (mpf(1) / 32, mpf(-1) / 40, mpc("0.01", "0.03"),
                 mpc("-0.03", "0.02"))
        for x in rates:
            for w in BINOM2_WEIGHTS:
                ref = _reference_binom2(x, w, ctx)
                diff = abs(binom2_series(x, w, ctx) - ref)
                assert diff <= mpf(10) ** -(ctx.workdps - 3) * max(1, abs(ref)), (x, w)


@pytest.mark.parametrize("digits", [30, 100])
def test_binom2_boundary_rate_is_gauss_constant(digits):
    # sum C(2k,k)^2 (-1/16)^k = 2F1(1/2,1/2;1;-1) = 1/agm(1, sqrt 2), summed
    # by CVZ at the boundary rate
    ctx = PrecisionCtx(digits)
    with ctx.working():
        v = binom2_series(mpf(-1) / 16, W_ONE, ctx)
        assert abs(v - 1 / mp.agm(1, mp.sqrt(2))) < mpf(10) ** -digits


def test_inv_binom2_leading_term(ctx30):
    with ctx30.working():
        t = mpf(10) ** -12
        v = inv_binom2_series(t, ctx30)
        assert abs(v - 4 * t) < 20 * t ** 2


def test_inv_binom2_frozen_value(ctx30):
    with ctx30.working():
        v = inv_binom2_series(mpf(1) / 2, ctx30)
        assert abs(v - mpf(INV_SQR_HALF_30)) < mpf(10) ** -28
        # independent scratch oracle with exact binomials
        direct = mp.fsum(mpf(8) ** k / (k ** 2 * mpf(comb(2 * k, k)) ** 2)
                         for k in range(1, 120))
        assert abs(v - direct) < mpf(10) ** -28


def test_inv_binom2_domain(ctx30):
    with pytest.raises(DomainError):
        inv_binom2_series(mpf("1.0"), ctx30)


def _inv_binom2_loop(t, ctx):
    # the summation that tests its stop in mpf after every summand: the
    # function plans the same last index in floats and adds the same summands
    with ctx.working():
        t, acc, term, k = mpf(t), mpf(0), 4 * mpf(t), 1
        while True:
            acc += term / mpf(k) ** 2
            term *= 16 * t * mpf(k + 1) ** 2 / mpf(2 * (2 * k + 1)) ** 2
            k += 1
            if term / mpf(k) ** 2 / (1 - t) < ctx.tiny():
                return acc


@pytest.mark.parametrize("digits", [15, 50])
@pytest.mark.parametrize("t", ["0.09", "0.5", "0.97"])
def test_inv_binom2_planned_length_sums_the_loops_summands(digits, t):
    ctx = PrecisionCtx(digits)
    with ctx.working():
        assert inv_binom2_series(mpf(t), ctx) == _inv_binom2_loop(t, ctx)


@pytest.mark.parametrize("t", ["0.98", "1 - 10^-20"])
def test_inv_binom2_beyond_served_range_raises_before_summing(ctx30, t):
    # the plan passes 100 workdps terms above t = 0.977; 1 - 10^-20 is below 1
    # at working precision and would take about 10^21 summands
    with ctx30.working():
        t = 1 - mpf(10) ** -20 if t.startswith("1 -") else mpf(t)
        assert t < 1
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="needs more than 4500 terms"):
            inv_binom2_series(t, ctx30)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("call, message", [
    (lambda ctx: inv_binom2_series(mpf("0.98"), ctx), "inv_binom2_series needs more than 4500 terms"),
    (lambda ctx: hyp_lambert(mpc(0, "1e-4"), HypKernel("EXPM1"), ctx),
     "hyp_lambert needs more than 4500 terms"),
], ids=["inv_binom2_series", "hyp_lambert"])
def test_walk_cap_error_names_the_walk(ctx30, call, message):
    with ctx30.working(), pytest.raises(DomainError) as info:
        call(ctx30)
    assert str(info.value) == message


_INF, _NAN = mpf("inf"), mpf("nan")


@pytest.mark.parametrize("call", [
    lambda ctx: eta(mpc(0, _INF), ctx),
    lambda ctx: eta(mpc(_NAN, 1), ctx),
    lambda ctx: alpha4(mpc(_INF, 1), ctx),
    lambda ctx: lambda_fn(mpc(0, _NAN), ctx),
    lambda ctx: eichler4(mpc(0, _INF), 0, ctx),
    lambda ctx: _pentagonal(mpc(_NAN, 0), ctx),
    lambda ctx: _pentagonal(mpc(0, _INF), ctx),
    lambda ctx: ell_k(_NAN, ctx),
    lambda ctx: ell_k(mpc(0, _INF), ctx),
    lambda ctx: ell_k_comp(_INF, ctx),
    lambda ctx: ell_k_comp(mpc(_NAN, 1), ctx),
    lambda ctx: binom2_series(_NAN, W_ONE, ctx),
    lambda ctx: binom3_series(mpc(0, _INF), LinearFactor(), W_ONE, ctx),
], ids=["eta-inf", "eta-nan", "alpha4-inf", "lambda-nan", "eichler4-inf",
        "pentagonal-nan", "pentagonal-inf", "ell_k-nan", "ell_k-inf", "ell_k_comp-inf",
        "ell_k_comp-nan", "binom2-nan", "binom3-inf"])
def test_non_finite_input_raises_domain_error(ctx30, call):
    # a NaN or infinite part is outside every contract: DomainError, before
    # any float plan could raise a bare ValueError
    with pytest.raises(DomainError, match="finite"):
        call(ctx30)


# ---------------------------------------------------------------------------
# elliptic integrals
# ---------------------------------------------------------------------------

def test_ell_k_zero(ctx30):
    with ctx30.working():
        assert abs(ell_k(0, ctx30) - mp.pi / 2) < ctx30.tiny() * 10


def test_ell_k_half_vs_2f1(ctx30):
    with ctx30.working():
        v = ell_k(mpf(1) / 2, ctx30)
        assert abs(v - mpf(K_HALF_30)) < mpf(10) ** -28
        # 2F1 partial-sum oracle
        acc, c = mpf(0), mpf(1)
        for n in range(250):
            acc += c
            c *= (mpf(2 * n + 1) / (2 * n + 2)) ** 2 / 2
        assert abs(v - mp.pi / 2 * acc) < mpf(10) ** -28


def test_ell_k_branch_cut(ctx30):
    with pytest.raises(DomainError):
        ell_k(mpf("1.5"), ctx30)
    with pytest.raises(DomainError):
        ell_k_comp(mpf("-0.5"), ctx30)


def test_ell_k_comp_consistency(ctx40):
    with ctx40.working():
        t = mpf("0.3")
        assert abs(ell_k_comp(t, ctx40) - ell_k(1 - t, ctx40)) < ctx40.tiny() * 100
        tiny_t = mpf(10) ** -30
        # the stable form keeps working where 1-t rounds to 1
        v = ell_k_comp(tiny_t, ctx40)
        assert abs(v - (mp.log(4) - mp.log(mp.sqrt(tiny_t)))) < mpf(10) ** -25


def test_zkratio(ctx40):
    from modzeta import lambda_fn
    with ctx40.working():
        z = mpc("0.21", "1.37")
        lam = lambda_fn(z, ctx40)
        rhs = I * ell_k(1 - lam, ctx40) / ell_k(lam, ctx40)
        assert abs(z - rhs) < ctx40.tolerance()


# ---------------------------------------------------------------------------
# hyperbolic Lambert sums (oracle: direct cosh/sinh partial sums)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,parity,a", [
    ("EXPM1", "ALL", 3), ("COSH_SQ", "ODD", 2), ("SINH_SQ", "ALL", 2),
    ("COSH_1", "ALL", 2), ("EXPM1_ALT", "ODD", 2), ("HALF_ODD_COSH", "ODD", 2),
])
def test_hyp_lambert_against_bruteforce(ctx30, kind, parity, a):
    with ctx30.working():
        z = mpc("0.13", "0.81")
        got = hyp_lambert(z, HypKernel(kind, parity, a), ctx30)

        def summand(idx, wt_idx, sign):
            th = idx * mp.pi * z / I
            if kind == "EXPM1":
                v = 1 / (mp.exp(th) - 1)
            elif kind == "EXPM1_ALT":
                v = sign / (mp.exp(th) - 1)
            elif kind == "COSH_SQ":
                v = 1 / mp.cosh(th) ** 2
            elif kind == "SINH_SQ":
                v = 1 / mp.sinh(th) ** 2
            elif kind == "COSH_1":
                v = 1 / mp.cosh(th)
            else:  # HALF_ODD_COSH
                v = 1 / (2 * mp.cosh(th))
            return v / mpf(wt_idx) ** a

        if parity == "ALL":
            brute = mp.fsum(summand(2 * n, n, 1) for n in range(1, 60))
        else:
            brute = mp.fsum(summand(2 * n + 1, 2 * n + 1, (-1) ** n) for n in range(60))
        assert abs(got - brute) < ctx30.tolerance()


def test_hyp_lambert_decay(ctx30):
    with ctx30.working():
        v = hyp_lambert(mpc(0, 60), HypKernel("COSH_SQ", "ODD", 2), ctx30)
        assert abs(v) < mpf(10) ** -100


def test_hyp_lambert_validation(ctx30):
    with pytest.raises(DomainError):
        HypKernel("NOPE", "ODD", 2)
    with pytest.raises(DomainError):
        HypKernel("EXPM1", "EVEN", 2)
    with pytest.raises(DomainError):
        hyp_lambert(I, HypKernel("EXPM1_ALT", "ALL", 2), ctx30)


# ---------------------------------------------------------------------------
# elliptic polylogarithm
# ---------------------------------------------------------------------------

def test_eli_zero_cases(ctx30):
    with ctx30.working():
        assert eli(1, 2, 0, 1, mpf("0.3"), ctx30) == 0
        assert eli(1, 2, 1, 1, 0, ctx30) == 0


def test_eli_lambert_form(ctx40):
    with ctx40.working():
        q = mp.exp(-2 * mp.pi)
        got = eli(0, 2, 1, 1, q, ctx40)
        brute = mp.fsum(q ** k / (k ** 2 * (1 - q ** k)) for k in range(1, 80))
        assert abs(got - brute) < ctx40.tolerance()


def test_eli_domain(ctx30):
    with pytest.raises(DomainError):
        eli(0, 2, 3, 1, mpf("0.5"), ctx30)  # |xq| >= 1
    with pytest.raises(DomainError):
        eli(-1, 2, 1, 1, mpf("0.5"), ctx30)


# ---------------------------------------------------------------------------
# deformed Legendre functions
# ---------------------------------------------------------------------------

def test_legendre_at_one(ctx30):
    with ctx30.working():
        assert abs(legendre_p_def(mpf("0.37"), 0, 0, ctx30) - 1) == 0


def test_legendre_is_k(ctx40):
    with ctx40.working():
        t = mpf("0.2")
        lhs = legendre_p_def(mpf(-1) / 2, 0, t, ctx40)
        assert abs(lhs - 2 * ell_k(t, ctx40) / mp.pi) < ctx40.tolerance()


def test_gamma_one_plus(ctx40):
    with ctx40.working():
        for e in ("0.3", "-0.13", "0.49"):
            assert abs(gamma_one_plus(mpf(e), ctx40)
                       - mp.gamma(1 + mpf(e))) < ctx40.tiny() * 1000


def test_gamma_domain(ctx30):
    with pytest.raises(DomainError):
        gamma_one_plus(mpf("0.5"), ctx30)


def test_legendre_eps_derivative_identity():
    # d/deps P^{+eps}_{-1/2}(1-2t) at eps=0 equals
    # K(sqrt(1-t)) - (2K(sqrt t)/pi)(gamma0 + 2 log 2); the exponent of the
    # implementation's P^{-eps} flips the finite-difference sign
    digits = 40
    ctx = PrecisionCtx(digits)
    ctx2 = PrecisionCtx(2 * digits)
    t = mpf("0.3")
    with ctx2.working():
        h = mpf(10) ** (-(digits // 2))
        fd = (legendre_p_def(mpf(-1) / 2, -h, t, ctx2)
              - legendre_p_def(mpf(-1) / 2, h, t, ctx2)) / (2 * h)
    with ctx.working():
        target = (ell_k_comp(t, ctx) - 2 * ell_k(t, ctx) / mp.pi
                  * (+mp.euler + 2 * mp.log(2)))
        assert abs(fd - target) < mpf(10) ** (-(digits - 8))


@pytest.mark.parametrize("t", ["0.1", "0.3"])
def test_dnu2_series_vs_finite_difference(t):
    digits = 40
    ctx = PrecisionCtx(digits)
    ctx2 = PrecisionCtx(2 * digits)
    t = mpf(t)
    with ctx2.working():
        h = mpf(10) ** (-(digits // 2))
        fd = (legendre_p_def(mpf(-1) / 2 + h, 0, t, ctx2)
              - 2 * legendre_p_def(mpf(-1) / 2, 0, t, ctx2)
              + legendre_p_def(mpf(-1) / 2 - h, 0, t, ctx2)) / h ** 2
    with ctx.working():
        assert abs(fd - legendre_dnu2(t, ctx)) < mpf(10) ** (-(digits // 2))


@pytest.mark.parametrize("t", ["0.1", "0.3"])
def test_clausen_type_second_nu_derivative(t):
    # the 3F2 of Clausen's type equals P_nu^2, so its second nu-derivative at
    # nu=-1/2 (finite differences) matches -8 x the weighted cubed series
    digits = 40
    ctx = PrecisionCtx(digits)
    ctx2 = PrecisionCtx(2 * digits)
    t = mpf(t)
    with ctx2.working():
        h = mpf(10) ** (-(digits // 2))

        def p2(nu):
            return legendre_p_def(nu, 0, t, ctx2) ** 2
        fd = (p2(mpf(-1) / 2 + h) - 2 * p2(mpf(-1) / 2) + p2(mpf(-1) / 2 - h)) / h ** 2
    with ctx.working():
        series = -8 * binom3_series(t * (1 - t) / 16, LinearFactor(0, 1),
                                    W_H2DIFF, ctx)
        assert abs(fd / 2 - series / 2) < mpf(10) ** (-(digits // 2))


def test_legendre_eps_domain(ctx30):
    with pytest.raises(DomainError):
        legendre_p_def(mpf(-1) / 2, mpf("0.6"), mpf("0.2"), ctx30)


def test_weight_spec_validation():
    with pytest.raises(DomainError):
        WeightSpec(((Fraction(1), "NOT_A_BASIS"),))


def test_weight_envelopes_bound_every_basis():
    # each basis's envelope (s, l) bounds it, |basis(k)| <= s + l k, against
    # harmonic sums added directly in mpf for k <= 3000, and the rational
    # constants lie above the limits they stand for
    def frac(v):
        v = Fraction(v)
        return mpf(v.numerator) / v.denominator

    with mp.workdps(30):
        z2, z3, log2 = mp.zeta(2), mp.zeta(3), mp.log(2)
        for basis, limit in (("H2_K", z2), ("H2_2K", z2), ("H3_K", z3), ("H3_2K", z3),
                             ("H2_2K_TIMES_DH1", z2 * log2), ("H2_K_TIMES_DH1", z2 * log2),
                             ("H3MIX", max(z3, 3 * z2 * log2))):
            _, s, l, _ = _BASIS[basis]
            assert l == 0 and limit < frac(s), basis
        h = {p: [mpf(0)] for p in (1, 2, 3)}
        for m in range(1, 6001):
            for p in (1, 2, 3):
                h[p].append(h[p][-1] + 1 / mpf(m) ** p)
        envelopes = {basis: (frac(s), frac(l)) for basis, (_, s, l, _) in _BASIS.items()}
        for k in range(3001):
            for basis, (s, l) in envelopes.items():
                assert abs(_scratch_basis(basis, k, h)) <= s + l * k, (basis, k)

def test_binom2_h2_weight_at_half_alpha(ctx40):
    # x = 1/32 is the squared-binomial rate where alpha4 = 1/2 (z = i/2);
    # the weighted ratio must match the hyperbolic-sum representation there
    with ctx40.working():
        z = mpc(0, "0.5")
        den = binom2_series(mpf(1) / 32, W_ONE, ctx40)
        num = binom2_series(mpf(1) / 32, WeightSpec.combo({"H2_K": 1}), ctx40)
        rhs = (2 * hyp_lambert(z, HypKernel("COSH_1", "ALL", 2), ctx40)
               - hyp_lambert(z, HypKernel("COSH_SQ", "ALL", 2), ctx40))
        assert abs(num / den - rhs) < ctx40.tolerance()
