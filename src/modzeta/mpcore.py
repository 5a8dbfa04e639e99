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
    "const_pi",
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

def const_pi(ctx: PrecisionCtx) -> mpf:
    """pi at working precision."""
    with ctx.working():
        return +mp.pi


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

_tangent_cache: list[int] = []


def _tangent_numbers(m: int) -> list[int]:
    # Knuth-Buckholtz triangle; integer-only, cached incrementally.
    global _tangent_cache
    if len(_tangent_cache) >= m:
        return _tangent_cache
    t = [0] * (m + 1)
    t[1] = 1
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    _tangent_cache = t[1:]
    return _tangent_cache


def bernoulli(n: int, cap: int = BERNOULLI_CAP) -> Fraction:
    """Bernoulli number B_n as an exact rational, for even n >= 0 (and n=1)."""
    if int(n) != n or n < 0:
        raise DomainError("bernoulli requires an integer n >= 0")
    if n > cap:
        raise DomainError("bernoulli cap exceeded: n=%d > %d" % (n, cap))
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    half = n // 2
    t = _tangent_numbers(half)[half - 1]
    sign = 1 if half % 2 == 1 else -1
    return Fraction(sign * n * t, (4 ** half) * (4 ** half - 1))


# ---------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin (the engine behind const_zeta and L_d)
# ---------------------------------------------------------------------------

@_memoized
def _em_coefficients(s: mpf, ctx: PrecisionCtx) -> list:
    """[c_1(s), c_2(s), ...] with c_j(s) = B_2j / (2j)! * (s)_{2j-1}, at ctx's precision.

    The Euler-Maclaurin coefficients of zeta(s, a) do not depend on a, so one
    table serves every a; ``hurwitz_zeta_raw`` extends it as it needs terms.
    """
    with ctx.working():
        return [s / 12]


def hurwitz_zeta_raw(s: mpf, a: mpf) -> mpf:
    """zeta(s, a) for real s > 1, a > 0, at the current mpmath precision.

    Euler-Maclaurin: with N direct terms and M corrections,

        zeta(s, a) = sum_{k<N} (a+k)^-s + (a+N)^(1-s)/(s-1) + (a+N)^-s / 2
                     + sum_{j=1..M} c_j(s) (a+N)^(1-s-2j) + R_M,

    c_j(s) = B_2j / (2j)! * (s)_{2j-1}, read from the table of
    ``_em_coefficients`` for (s, precision).  For real s > 1, Johansson
    ("Rigorous high-precision computation of the Hurwitz zeta function and
    its derivatives", Numer. Algorithms 2015, Theorem 1) bounds
    |R_M| <= 4 (s)_{2M} (a+N)^(1-s-2M) / ((2 pi)^2M (s+2M-1)), and
    |B_2M| / (2M)! >= 2 / (2 pi)^2M makes that at most twice the last term
    kept.  So the corrections stop once a term falls below
    10^-(dps+2) max(1, |sum|), which truncates by less than 2 10^-(dps+2)
    relative to max(1, |zeta|); the rounding of the N direct terms adds a
    few units of the last digit.  If the terms start to grow first, the
    asymptotic series cannot reach the stop at this N, and N is enlarged.
    """
    s = mpf(s)
    a = mpf(a)
    if not s > 1:
        raise DomainError("hurwitz zeta requires s > 1")
    if not a > 0:
        raise DomainError("hurwitz zeta requires a > 0")
    coeffs = _em_coefficients(s, PrecisionCtx(max(10, mp.mp.dps), 0))
    prec_goal = mpf(10) ** (-(mp.mp.dps + 2))
    n_direct = max(10, int(0.6 * mp.mp.dps) + 2)
    while True:
        acc = mpf(0)
        for k in range(n_direct):
            acc += (a + k) ** (-s)
        big = a + n_direct
        acc += big ** (1 - s) / (s - 1)
        acc += big ** (-s) / 2
        scale = big ** (-s - 1)  # (a+N)^(1-s-2j) at j = 1
        big2 = big * big
        prev = mp.inf
        ok = False
        for j in range(1, BERNOULLI_CAP // 2):
            if j > len(coeffs):
                r = bernoulli(2 * j) / (bernoulli(2 * j - 2) * (2 * j - 1) * 2 * j)
                coeffs.append(coeffs[-1] * ((s + 2 * j - 3) * (s + 2 * j - 2))
                              * r.numerator / r.denominator)
            term = coeffs[j - 1] * scale
            acc += term
            at = abs(term)
            if at < prec_goal * max(mpf(1), abs(acc)):
                ok = True
                break
            if at > prev:
                break  # asymptotic divergence reached before target: enlarge N
            prev = at
            scale /= big2
        if ok:
            return ensure_finite(acc)
        n_direct = int(n_direct * 1.8) + 4
