"""Constants, the tangent numbers, and the Euler-Maclaurin L-value sum."""

import functools
import math
import time
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import mpf

from modzeta import (DomainError, PrecisionCtx, const_catalan, const_zeta,
                     dirichlet_l)
from modzeta import mpcore
from modzeta.mpcore import _em_plan
from oracles import bernoulli

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
    with pytest.raises(DomainError):
        const_zeta(mp.inf, ctx)


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


def test_em_plan_meets_its_bound():
    # Johansson's remainder bound for the planned (N, M), relative to
    # zeta(s, a) >= (a+N)^(1-s)/(s-1), recomputed at 30 digits from the
    # rising factorial: below 10^-(dps+2) at M, not yet at M - 1; N stays
    # max(10, 0.6 dps + 2) at every precision, with M above 256 too
    def log10_bound(s, n, m):
        with mp.workdps(30):
            return mp.log10(4 * (s - 1) * mp.rf(s, 2 * m)
                            / ((2 * mp.pi * n) ** (2 * m) * (s + 2 * m - 1)))
    for s in [mpf(k) / 2 for k in range(4, 17)]:
        for dps in range(25, 1016, 10):
            n, m = _em_plan(s, dps)
            assert n == max(10, int(0.6 * dps) + 2) and m >= 1, (s, dps)
            assert log10_bound(s, n, m) < -(dps + 2), (s, dps)
            assert m == 1 or log10_bound(s, n, m - 1) >= -(dps + 2), (s, dps)
    assert _em_plan(2, 1015) == (611, 501)


def test_em_plan_raises_n_for_large_s():
    # at s = 500 no M up to pi N0 meets the bound at N0 = 20; N doubles
    n, m = _em_plan(500, 30)
    assert n > 20 and n % 20 == 0 and m >= 1


def test_em_plan_refuses_s_past_its_cap(monkeypatch):
    # N doubles at most four times and M stays within pi N0: at 30 working
    # digits (N0 = 20) every s below 50 N0 is served, s = 999 with
    # N = 16 N0, and zeta(999) is exact to the last unit; past the cap
    # const_zeta raises at once
    monkeypatch.setattr(mpcore, "_memo", {})
    ctx = PrecisionCtx(15)
    assert _em_plan(999, ctx.workdps) == (16 * 20, 59) and 59 <= math.pi * 20
    got = const_zeta(999, ctx)
    with ctx.working():
        assert got == +mp.zeta(999)
    with pytest.raises(DomainError):
        _em_plan(1100, 30)
    for digits in (30, 500):
        for s in (10 ** 7, 10 ** 9, 10 ** 400):
            t0 = time.perf_counter()
            with pytest.raises(DomainError):
                const_zeta(s, PrecisionCtx(digits))
            assert time.perf_counter() - t0 < 1, (digits, s)


def pi(ctx):
    with ctx.working():
        return +mp.pi


@pytest.mark.parametrize("op", [pi, const_catalan, lambda c: const_zeta(3, c)])
def test_precision_monotonicity(op):
    # the 40-digit result truncated to 20 digits equals the 20-digit result
    lo, hi = PrecisionCtx(20, 5), PrecisionCtx(40, 5)
    with hi.working():
        assert abs(op(lo) - op(hi)) < mpf(10) ** -20


# the discriminants of the L-value grid: the pass reads -3, -4, -7, -8 and
# 28; 1 is zeta itself, 5, 8 and -20 add even and composite moduli, and
# 2 and -6 (d = 2 mod 4) the period 4|d|
L_DISCRIMINANTS = (1, -3, -4, -7, -8, 5, 8, 28, -20, 2, -6)


@functools.lru_cache(maxsize=None)
def _l_reference(d: int, s: int):
    """L_d(s) by mpmath's Hurwitz decomposition at 305 digits, 40 past the
    working precision of 250 digits."""
    from modzeta.arith import kronecker
    m = abs(d) if d % 4 in (0, 1) else 4 * abs(d)
    with mp.workdps(305):
        return mp.fsum(kronecker(d, a) * mp.zeta(s, mpf(a) / m)
                       for a in range(1, m + 1)) / mpf(m) ** s


@pytest.mark.parametrize("digits", (15, 50, 100, 250))
def test_l_values_meet_working_precision(digits, monkeypatch):
    # L_d(s) and zeta(s), each one integer Euler-Maclaurin sum, are within
    # 0.5 units of 10^-workdps, relative, of mpmath's Hurwitz decomposition
    # at 40 or more further digits; the largest error over this grid is
    # about 0.12 units
    monkeypatch.setattr(mpcore, "_memo", {})
    ctx = PrecisionCtx(digits)
    unit = mpf("0.5") * mpf(10) ** -ctx.workdps
    for d in L_DISCRIMINANTS:
        for s in range(2, 8):
            got = dirichlet_l(d, s, ctx)
            with mp.workdps(305):
                want = _l_reference(d, s)
                assert abs(got - want) <= unit * abs(want), (d, s)
    for s in range(2, 8):
        assert const_zeta(s, ctx) == dirichlet_l(1, s, ctx)


def test_l_value_is_one_integer_sum(monkeypatch):
    # one sum over the residues, one coefficient table per (s, precision)
    # for every d
    monkeypatch.setattr(mpcore, "_memo", {})
    ctx = PrecisionCtx(30)
    for d in (-4, -7, 28):
        dirichlet_l(d, 2, ctx)
    const_zeta(2, ctx)
    table = mpcore._em_table.__wrapped__
    assert [key[1] for key in mpcore._memo if key[0] is table] == [(2,)]


def test_em_plan_caps_the_corrections():
    # M stays within N0 + 40 (and pi N0), and N rises instead: at 1000
    # digits s = 30099 (N0 = 602) takes N = 64 N0, where the uncapped plan
    # took 16 N0 and M = 1801; an s of 50 N0 or more is refused at once
    n0 = int(0.6 * 1000) + 2
    n, m = _em_plan(30099, 1000)
    assert m <= n0 + 40 and n % n0 == 0 and n > 16 * n0
    for dps in (30, 100, 265, 1000):
        n0 = max(10, int(0.6 * dps) + 2)
        assert _em_plan(50 * n0 - 1, dps)[1] <= min(math.pi * n0, n0 + 40)
        t0 = time.perf_counter()
        with pytest.raises(DomainError):
            _em_plan(50 * n0, dps)
        assert time.perf_counter() - t0 < 0.01, dps
