"""Precision contexts, fixed-point helpers, fundamental constants, and the
Euler-Maclaurin zeta engine.

Every public operation in this package takes a :class:`PrecisionCtx` and
returns values accurate to at least ``ctx.digits`` decimal digits.  Internally
all arithmetic runs at ``digits + guard`` decimal digits of working precision,
and every infinite series or product is truncated only once a stated tail
bound (geometric, polynomial-geometric, or monotone-alternating) certifies the
remainder below ``10**-(digits+guard)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from inspect import signature

import mpmath as mp
from mpmath import mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

__all__ = [
    "DomainError",
    "PrecisionCtx",
    "bernoulli",
    "const_catalan",
    "const_zeta",
    "ensure_finite",
    "hurwitz_zeta_raw",
]

BERNOULLI_CAP = 512


class DomainError(ValueError):
    """An argument violated an operation's stated precondition."""


@dataclass(frozen=True)
class PrecisionCtx:
    """Requested decimal digits plus guard-digit policy.

    ``digits`` is what callers may rely on; ``guard`` extra digits absorb
    rounding across composite expressions.  Working precision is
    ``digits + guard`` decimal digits (converted to binary by mpmath).
    """

    digits: int = 50
    guard: int = 15

    def __post_init__(self) -> None:
        if self.digits < 10:
            raise DomainError("digits must be >= 10, got %r" % (self.digits,))
        if self.guard < 0:
            raise DomainError("guard must be >= 0, got %r" % (self.guard,))

    @property
    def workdps(self) -> int:
        return self.digits + self.guard

    def working(self):
        """Context manager switching mpmath to this context's working precision."""
        return mp.workdps(self.workdps)

    def tiny(self) -> mpf:
        """Series truncation threshold: 10**-(digits+guard)."""
        return mpf(10) ** (-self.workdps)

    def tolerance(self) -> mpf:
        """Default residual tolerance for identity checks: 10**-(digits-5)."""
        return mpf(10) ** (-(self.digits - 5))


def ensure_finite(x):
    """Reject NaN/infinite results; those indicate a domain violation upstream."""
    if isinstance(x, mpc):
        if not (mp.isfinite(x.real) and mp.isfinite(x.imag)):
            raise DomainError("non-finite complex value produced")
        return x
    if not mp.isfinite(x):
        raise DomainError("non-finite value produced")
    return x


def _real_or_complex(x):
    """x at the current precision: an mpf if x is real, an mpc if it is complex."""
    return mpc(x) if isinstance(x, (mpc, complex)) else mpf(x)


# ---------------------------------------------------------------------------
# Fixed-point complex numbers
# ---------------------------------------------------------------------------
# The hot walks hold each complex value as an (re, im) pair of Python
# integers, as mpmath's own series kernels do: the real part scaled by 2**wp
# and the imaginary part by 2**(wp+s), where s >= 0 is the gap between the
# parts of the walk's input.  A value that is real up to rounding dust, such
# as the nome or the rate at a point on Re z = 1/2, then keeps that dust to
# full relative precision, as an mpc does.

def _dust_bits(v: mpc, wp: int) -> int:
    """The extra scale s of the imaginary parts of a walk at 2**wp whose input is v.

    A gap wider than wp bits is capped: the working precision cannot see it.
    """
    if not (v.real and v.imag):
        return 0
    return min(wp, max(0, int(mp.mag(v.real) - mp.mag(v.imag))))


def _to_fixed(v, wp: int, s: int = 0) -> tuple:
    """(re, im) of the number v as integers scaled by 2**wp and 2**(wp+s), rounded down."""
    v = mpc(v)
    return to_fixed(v.real._mpf_, wp), to_fixed(v.imag._mpf_, wp + s)


def _from_fixed(re: int, im: int, wp: int, s: int = 0) -> mpc:
    """re / 2**wp + i im / 2**(wp+s), rounded to nearest at the current precision."""
    prec = mp.mp.prec
    return mp.make_mpc((from_man_exp(re, -wp, prec, round_nearest),
                        from_man_exp(im, -wp - s, prec, round_nearest)))


def _cmul(ar: int, ai: int, br: int, bi: int, wp: int, s: int = 0) -> tuple:
    """The product of two fixed-point complex pairs, real parts at scale 2**wp
    and imaginary parts at scale 2**(wp+s).

    Each part is rounded toward zero, so a repeated product of modulus below
    1 never grows by rounding and a vanishing one reaches 0.
    """
    re, im = ar * br - (ai * bi >> 2 * s), ar * bi + ai * br
    return (re >> wp if re >= 0 else -(-re >> wp),
            im >> wp if im >= 0 else -(-im >> wp))


def _cinv(re: int, im: int, wp: int, s: int = 0) -> tuple:
    """1 / (re + i im) of a nonzero fixed-point pair, with one integer division.

    conj(d) / |d|^2: the reciprocal of |d|^2 is taken once, at scale 2**wp,
    and multiplies both parts, each floored; each part is off by a few units
    of its scale, more as |d| shrinks.
    """
    inv = (1 << 3 * wp) // (re * re + (im * im >> 2 * s))
    return re * inv >> wp, -im * inv >> wp


# ---------------------------------------------------------------------------
# The shared memo
# ---------------------------------------------------------------------------

_memo: dict = {}
_MEMO_CAP = 4096


def _memoized(fn):
    """Memoize ``fn(*args, ctx)`` on (fn, args, ctx.workdps) in one bounded dict.

    Callers pass arguments already taken at working precision (points through
    ``modular._as_z(z, ctx)``), so a key never holds a value rounded at the
    caller's precision.  The memo is cleared wholesale when it fills.
    """
    sig = signature(fn)

    @wraps(fn)
    def wrapped(*args, **kwargs):
        if kwargs:
            args = sig.bind(*args, **kwargs).args
        key = (fn, args[:-1], args[-1].workdps)
        hit = _memo.get(key)
        if hit is None:
            hit = fn(*args)
            if len(_memo) >= _MEMO_CAP:
                _memo.clear()
            _memo[key] = hit
        return hit
    return wrapped


# ---------------------------------------------------------------------------
# Fundamental constants
# ---------------------------------------------------------------------------

def const_catalan(ctx: PrecisionCtx) -> mpf:
    """Catalan's constant G = sum (-1)^n/(2n+1)^2."""
    with ctx.working():
        return +mp.catalan


@_memoized
def const_zeta(n: int, ctx: PrecisionCtx) -> mpf:
    """Riemann zeta at an integer point n >= 2, by Euler-Maclaurin."""
    if int(n) != n or n < 2:
        raise DomainError("const_zeta requires an integer n >= 2, got %r" % (n,))
    with ctx.working():
        return hurwitz_zeta_raw(mpf(int(n)), mpf(1))


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact rationals, via tangent numbers)
# ---------------------------------------------------------------------------

def _tangent_numbers(m: int) -> list[int]:
    """[T_1, T_3, ..., T_(2m-1)], the first m tangent numbers (Knuth-Buckholtz triangle)."""
    t = [0] * (m + 1)
    t[1] = 1
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact rational, for 0 <= n <= BERNOULLI_CAP.

    B_2j = (-1)^(j+1) 2j T_(2j-1) / (4^j (4^j - 1)) from the tangent numbers.
    """
    if int(n) != n or n < 0:
        raise DomainError("bernoulli requires an integer n >= 0")
    if n > BERNOULLI_CAP:
        raise DomainError("bernoulli cap exceeded: n=%d > %d" % (n, BERNOULLI_CAP))
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    if n == 0:
        return Fraction(1)
    half = n // 2
    sign = 1 if half % 2 == 1 else -1
    return Fraction(sign * n * _tangent_numbers(half)[-1], (4 ** half) * (4 ** half - 1))


# ---------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin (the engine behind const_zeta and L_d)
# ---------------------------------------------------------------------------

def _em_plan(s, dps: int) -> tuple:
    """(N, M): the direct terms and corrections of ``hurwitz_zeta_raw`` at s.

    Johansson's bound over zeta(s, a) >= (a+N)^(1-s)/(s-1), with a + N >= N,
    is 4 (s-1) (s)_2M / ((2 pi N)^2M (s+2M-1)) for every a > 0; its log is
    taken in floats through ``math.lgamma``.  N is max(10, 0.6 dps + 2), or,
    where no M <= BERNOULLI_CAP/2 brings that bound below 10^-(dps+2)
    (above about 500 digits), the least N at which M = BERNOULLI_CAP/2 does;
    M is the least count that does at that N.
    """
    cap = BERNOULLI_CAP // 2
    goal = -(dps + 2) * math.log(10)
    s1, s = float(s - 1), float(s)

    def log_bound(m: int, n: int = 1) -> float:
        return (math.log(4 * s1) + math.lgamma(s + 2 * m) - math.lgamma(s)
                - math.log(s1 + 2 * m) - 2 * m * math.log(2 * math.pi * n))

    def least_m(n: int):
        return next((m for m in range(1, cap + 1) if log_bound(m, n) < goal), None)

    n = max(10, int(0.6 * dps) + 2)
    if least_m(n) is None:
        n = int(math.exp((log_bound(cap) - goal) / (2 * cap))) + 1
    return n, least_m(n) or cap  # "or cap" guards the float rounding of that N


@_memoized
def _em_coefficients(s: mpf, ctx: PrecisionCtx) -> tuple:
    """(N, (c_1(s), ..., c_M(s))) for (N, M) = ``_em_plan(s, ctx.workdps)``, at
    ctx's precision, from one pass of tangent numbers:

        c_j(s) = B_2j (s)_{2j-1} / (2j)!
               = (-1)^(j+1) T_(2j-1) (s)_{2j-1} / (4^j (4^j - 1) (2j-1)!).

    The coefficients do not depend on a, so one table serves every a.
    """
    n, m = _em_plan(s, ctx.workdps)
    with ctx.working():
        coeffs, poch, fact = [], s, 1  # (s)_{2j-1} and (2j-1)!
        for j, t in enumerate(_tangent_numbers(m), 1):
            coeffs.append((-1) ** (j + 1) * poch * t / (4 ** j * (4 ** j - 1) * fact))
            poch *= (s + 2 * j - 1) * (s + 2 * j)
            fact *= 2 * j * (2 * j + 1)
        return n, tuple(coeffs)


def hurwitz_zeta_raw(s: mpf, a: mpf) -> mpf:
    """zeta(s, a) for real s > 1, a > 0, at the current mpmath precision.

    Euler-Maclaurin with N direct terms and M corrections, x = (a+N)^-2:

        zeta(s, a) = sum_{k<N} (a+k)^-s
                     + (a+N)^(1-s) (1/(s-1) + 1/(2(a+N)) + sum_{j=1..M} c_j(s) x^j)
                     + R_M.

    Johansson ("Rigorous high-precision computation of the Hurwitz zeta
    function and its derivatives", Numer. Algorithms 2015, Theorem 1) bounds
    |R_M| <= 4 (s)_{2M} (a+N)^(1-s-2M) / ((2 pi)^2M (s+2M-1)) for real s > 1.
    N and M are planned before the sum (``_em_plan``) so that this bound is
    below 10^-(dps+2) relative, whatever a is; ``_em_coefficients`` holds N
    and c_1..c_M per (s, precision).  The N powers and the corrections (by
    Horner's rule in x) are summed straight through at N.bit_length() + 4
    extra bits, and the result is rounded once: the rounding of the sum
    stays a fraction of the last bit.
    """
    s, a = mpf(s), mpf(a)
    if not s > 1:
        raise DomainError("hurwitz zeta requires s > 1")
    if not a > 0:
        raise DomainError("hurwitz zeta requires a > 0")
    n, coeffs = _em_coefficients(s, PrecisionCtx(max(10, mp.mp.dps), 0))
    with mp.extraprec(n.bit_length() + 4):
        acc = mp.fsum((a + k) ** -s for k in range(n))
        big = a + n
        x = 1 / (big * big)
        tail = mpf(0)
        for c in reversed(coeffs):
            tail = (tail + c) * x
        acc += big ** (1 - s) * (1 / (s - 1) + 1 / (2 * big) + tail)
    return ensure_finite(+acc)
