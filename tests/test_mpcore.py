"""Constants, Bernoulli numbers, and the Euler-Maclaurin engine."""

from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import mpf

from modzeta import (DomainError, PrecisionCtx, bernoulli, const_catalan,
                     const_zeta, dirichlet_l)
from modzeta import mpcore
from modzeta.mpcore import BERNOULLI_CAP, _em_plan, hurwitz_zeta_raw

# Catalan reference prefix (20 digits)
G_20 = "0.91596559417721901505"
# zeta(3) by direct summation with an Euler-Maclaurin tail (frozen oracle)
ZETA3_20 = "1.2020569031595942854"


def close(a, b, exp10):
    return abs(mpf(a) - mpf(b)) < mpf(10) ** exp10


def test_precision_ctx_validation():
    with pytest.raises(DomainError):
        PrecisionCtx(9)
    with pytest.raises(DomainError):
        PrecisionCtx(20, -1)
    assert PrecisionCtx(12).workdps == 27


def test_zeta_euler_identities():
    ctx = PrecisionCtx(40)
    with ctx.working():
        pi = +mp.pi
        assert close(const_zeta(2, ctx), pi ** 2 / 6, -(ctx.workdps - 3))
        assert close(const_zeta(4, ctx), pi ** 4 / 90, -(ctx.workdps - 3))


def test_zeta3_value():
    ctx = PrecisionCtx(30)
    with ctx.working():
        assert close(const_zeta(3, ctx), mpf(ZETA3_20), -19)
        # independent oracle: mpmath's own zeta implementation
        assert close(const_zeta(3, ctx), mp.zeta(3), -(ctx.workdps - 2))


def test_memoized_constants_key_on_args_and_precision():
    ctx, finer = PrecisionCtx(30), PrecisionCtx(31)
    assert const_zeta(3, ctx=ctx) is const_zeta(3, ctx)
    assert dirichlet_l(d=-4, s=2, ctx=ctx) is dirichlet_l(-4, 2, ctx)
    assert const_zeta(3, finer) is not const_zeta(3, ctx)
    assert const_zeta(5, ctx) is not const_zeta(3, ctx)


def test_zeta_domain():
    ctx = PrecisionCtx(20)
    with pytest.raises(DomainError):
        const_zeta(1, ctx)


def test_catalan():
    ctx = PrecisionCtx(30)
    with ctx.working():
        assert close(const_catalan(ctx), mpf(G_20), -19)
        # defining alternating series, brute partial sums + bracket bound
        n = 200000
        partial = mp.fsum(mpf(-1) ** k / (2 * k + 1) ** 2 for k in range(n))
        assert abs(const_catalan(ctx) - partial) < mpf(1) / (2 * n) ** 2


@pytest.mark.parametrize("n,expect", [
    (0, Fraction(1)),
    (2, Fraction(1, 6)),
    (4, Fraction(-1, 30)),
    (12, Fraction(-691, 2730)),
])
def test_bernoulli_values(n, expect):
    assert bernoulli(n) == expect


def test_bernoulli_recurrence():
    # sum_{k<=n} C(n+1,k) B_k = 0 for n >= 1, the defining recurrence
    from math import comb
    for n in (2, 6, 13, 20):
        acc = sum(Fraction(comb(n + 1, k)) * bernoulli(k) for k in range(n + 1))
        assert acc == 0


def test_bernoulli_cap():
    with pytest.raises(DomainError):
        bernoulli(514)


def test_hurwitz_engine_matches_reference():
    with mp.workdps(45):
        for s, a in ((mpf(2), mpf(1)), (mpf(3), mpf("0.25")), (mpf("2.5"), mpf("0.7"))):
            assert abs(hurwitz_zeta_raw(s, a) - mp.zeta(s, a)) < mpf(10) ** -42


def test_em_plan_meets_its_bound_within_the_bernoulli_cap():
    # Johansson's remainder bound for the planned (N, M), relative to
    # zeta(s, a) >= (a+N)^(1-s)/(s-1), recomputed at 30 digits from the
    # rising factorial: below 10^-(dps+2) at M, not yet at M - 1
    def log10_bound(s, n, m):
        with mp.workdps(30):
            return mp.log10(4 * (s - 1) * mp.rf(s, 2 * m)
                            / ((2 * mp.pi * n) ** (2 * m) * (s + 2 * m - 1)))
    for s in [mpf(k) / 2 for k in range(4, 17)]:
        for dps in range(25, 1016, 10):
            n, m = _em_plan(s, dps)
            assert n >= 10 and 1 <= m <= BERNOULLI_CAP // 2, (s, dps)
            assert log10_bound(s, n, m) < -(dps + 2), (s, dps)
            assert m == 1 or log10_bound(s, n, m - 1) >= -(dps + 2), (s, dps)


def test_hurwitz_engine_at_1000_digits():
    # past the Bernoulli cap, where the plan raises N
    with mp.workdps(1000):
        a = mpf(1) / 28
        got = hurwitz_zeta_raw(mpf(2), a)
    with mp.workdps(1020):
        want = mp.zeta(2, a)
        assert abs(got - want) <= mpf("0.2") * mpf(10) ** -1000 * want


@pytest.mark.parametrize("dps", (15, 50, 100, 250))
def test_hurwitz_engine_meets_working_precision(dps, monkeypatch):
    # 0.2 units of 10^-dps, relative, against mpmath's zeta at 20 more
    # digits on the same rounded a: the truncation is below 10^-(dps+2), the
    # sum runs at extra bits and is rounded once (at most 0.11 units at
    # 15 digits); the largest error measured over this grid is 0.103 units.
    # One coefficient table per (s, precision) serves every a
    monkeypatch.setattr(mpcore, "_memo", {})
    table = mpcore._em_coefficients.__wrapped__
    for s in (2, 3, 4, 5, 7):
        for a in (Fraction(1, 7), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            with mp.workdps(dps):
                a = mpf(a.numerator) / a.denominator
                got = hurwitz_zeta_raw(mpf(s), a)
            with mp.workdps(dps + 20):
                want = mp.zeta(s, a)
                assert abs(got - want) <= mpf("0.2") * mpf(10) ** -dps * abs(want), (s, a)
    assert sum(key[0] is table for key in mpcore._memo) == 5


def pi(ctx):
    with ctx.working():
        return +mp.pi


@pytest.mark.parametrize("op", [pi, const_catalan, lambda c: const_zeta(3, c)])
def test_precision_monotonicity(op):
    # the 40-digit result truncated to 20 digits equals the 20-digit result
    lo, hi = PrecisionCtx(20, 5), PrecisionCtx(40, 5)
    with hi.working():
        assert abs(op(lo) - op(hi)) < mpf(10) ** -20
