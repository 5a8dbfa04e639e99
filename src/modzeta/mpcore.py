"""Precision contexts, fixed-point helpers, fundamental constants, and the
Euler-Maclaurin sum of zeta and Dirichlet L-values on integers.

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
from functools import wraps
from inspect import signature

import mpmath as mp
from mpmath import mpc, mpf
from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest, to_fixed

__all__ = [
    "DomainError",
    "PrecisionCtx",
    "const_catalan",
    "const_zeta",
    "ensure_finite",
]


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
# parts of the walk's input.  An input that is real up to a dust of its own,
# such as the rate 0.3 + 1e-40 i or the nome of a point just off the line
# Re z = 1/2, then keeps that dust to full relative precision, as an mpc
# does.  The nome of a point on Re z in (1/2)Z is an exact real
# (``modular._nome``), and so is everything a theorem point walks on: s is 0
# and every imaginary part stays 0.

def _dust_bits(v: mpc, wp: int) -> int:
    """The extra scale s of the imaginary parts of a walk at 2**wp whose input is v.

    A gap wider than wp bits is capped: the working precision cannot see it.
    """
    if not (v.real and v.imag):
        return 0
    return min(wp, max(0, int(mp.mag(v.real) - mp.mag(v.imag))))


def _log2_abs(v) -> float:
    """log2 |v| of an mpf or mpc v, in floats from the mantissas and exponents
    of its parts: -inf for 0, inf if a part is infinite or NaN."""
    logs = [math.log2(man) + exp if man else (math.inf if exp else -math.inf)
            for _, man, exp, _ in (v._mpc_ if isinstance(v, mpc) else (v._mpf_,))]
    top = max(logs)
    if len(logs) == 1 or top in (math.inf, -math.inf):
        return top
    return top + math.log2(sum(4.0 ** (v - top) for v in logs)) / 2


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
    1 never grows by rounding and a vanishing one reaches 0.  Two real pairs
    take one integer product.
    """
    if not (ai or bi):
        re = ar * br
        return (re >> wp if re >= 0 else -(-re >> wp)), 0
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
    """Riemann zeta at an integer point n >= 2: the L-value sum of ``_l_value``
    with chi = 1."""
    if not 2 <= n < mp.inf or int(n) != n:
        raise DomainError("const_zeta requires an integer n >= 2, got %r" % (n,))
    return _l_value((1,), int(n), ctx)


# ---------------------------------------------------------------------------
# Tangent numbers (the exact Bernoulli numbers of the Euler-Maclaurin table)
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


# ---------------------------------------------------------------------------
# Euler-Maclaurin: the plan, the coefficient table and the L-value sum
# ---------------------------------------------------------------------------

# an s at or past this many N0 has no plan (``_em_plan``)
_EM_S_CAP = 50
# the corrections are capped at N0 + _EM_M_SLACK (and at pi N0)
_EM_M_SLACK = 40


def _em_plan(s: int, dps: int) -> tuple:
    """(N, M): the direct terms and corrections of an Euler-Maclaurin sum at
    an integer s >= 2.

    Johansson's bound over zeta(s, a) >= (a+N)^(1-s)/(s-1), with a + N >= N,
    is 4 (s-1) (s)_2M / ((2 pi N)^2M (s+2M-1)) for every a > 0; its log is
    taken in floats through ``math.lgamma``.  N is N0 = max(10, 0.6 dps + 2)
    and M the least count up to min(pi N0, N0 + 40) that brings that bound
    below 10^-(dps+2).  The cap, N0 + 40 from 29 digits on, keeps the
    tangent triangle of a table to O(dps^2) steps.  The bound falls
    only while s + 2M < 2 pi N, so for s of about N0 or more no such M may
    exist; then N is doubled, up to 128 N0.  Every s below 50 N0 (at least
    500, about 30 dps) is served so; an s of 50 N0 or more raises DomainError
    at once.  Every plan at s <= 8 keeps N = N0, at any precision.
    """
    n0 = max(10, int(0.6 * dps) + 2)
    if s < _EM_S_CAP * n0:
        goal = -(dps + 2) * math.log(10)
        log4s1, s1, s = math.log(4) + math.log(s - 1), float(s - 1), float(s)
        cap = min(int(math.pi * n0), n0 + _EM_M_SLACK)

        def log_bound(m: int, n: int) -> float:
            return (log4s1 + math.lgamma(s + 2 * m) - math.lgamma(s)
                    - math.log(s1 + 2 * m) - 2 * m * math.log(2 * math.pi * n))

        for n in (n0 << k for k in range(8)):
            m = next((m for m in range(1, cap + 1) if log_bound(m, n) < goal), None)
            if m is not None:
                return n, m
    raise DomainError("no Euler-Maclaurin plan for s = %s at %d digits"
                      % (mp.nstr(mpf(s), 5), dps))


def _em_terms(s: int, m: int):
    """The M corrections' coefficients c_j(s) = B_2j (s)_{2j-1} / (2j)!, as
    (numerator, denominator) pairs from one pass of tangent numbers:

        c_j(s) = (-1)^(j+1) T_(2j-1) (s)_{2j-1} / (4^j (4^j - 1) (2j-1)!).
    """
    poch, fact = s, 1  # (s)_{2j-1} and (2j-1)!
    for j, t in enumerate(_tangent_numbers(m), 1):
        yield (-1) ** (j + 1) * poch * t, 4 ** j * (4 ** j - 1) * fact
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= 2 * j * (2 * j + 1)


@_memoized
def _em_table(s: int, ctx: PrecisionCtx) -> tuple:
    """(N, M, V, (c_1(s) 2^V, ..., c_M(s) 2^V)) for an integer s >= 2, with
    (N, M) = ``_em_plan(s, ctx.workdps)``.

    The c_j(s) of ``_em_terms`` are exact rationals; each is rounded to the
    nearest integer at scale 2^V, V = prec + bitlen(N + M) + 8 for ctx's
    precision of prec bits.
    """
    n, m = _em_plan(s, ctx.workdps)
    v = dps_to_prec(ctx.workdps) + (n + m).bit_length() + 8
    coeffs = []
    for num, den in _em_terms(s, m):
        c = ((abs(num) << (v + 1)) // den + 1) >> 1
        coeffs.append(c if num > 0 else -c)
    return n, m, v, tuple(coeffs)


def _l_value(chi: tuple, s: int, ctx: PrecisionCtx) -> mpf:
    """sum_{n>=1} chi(n) n^-s for an integer s >= 2 and a character chi of
    period m = len(chi), given as (chi(1), ..., chi(m)), at ctx's precision.

    One sum on integers at scale 2^W, W = prec + bitlen(N m + M m) + 8, with
    (N, M, V, c_j 2^V) from ``_em_table``.  The direct terms are 2^W // n^s
    for n <= N m, by residue a = n mod m; n^s only grows, so a residue's
    terms stop at the first that is 0.  Each residue a with chi(a) != 0 then
    adds its Euler-Maclaurin tail sum_{k>=N} (a + k m)^-s
    = m^-s zeta(s, a/m + N), with B = a + N m:

        (1/(s-1) + m/(2B) + sum_j c_j (m/B)^(2j)) / (m B^(s-1)),

    its bracket taken at 2^V by Horner's rule in x = (m/B)^2.  a/m + N >= N,
    so ``_em_plan``'s bound holds for every residue.  Each direct term is off
    by under a unit of 2^-W; a bracket by about M + s units of 2^-V, which
    the division by m B^(s-1) >= m N shrinks to a few units of 2^-W, since
    2^(W-V) <= 2m.  That is under (N + M) m units of 2^-W in all, and the
    sum, |L| >= zeta(2s)/zeta(s) > 1/2 for a real character, is rounded once,
    within 2^-8 of its last bit plus the rounding.
    """
    n, big_m, v, coeffs = _em_table(s, ctx)
    m = len(chi)
    prec = dps_to_prec(ctx.workdps)
    w = prec + (n * m + big_m * m).bit_length() + 8
    one, nm = 1 << w, n * m
    inv = (1 << v) // (s - 1)
    acc = 0
    for a, c in enumerate(chi, 1):
        if not c:
            continue
        part = 0
        for k in range(a, nm + 1, m):
            q = one // k ** s
            if not q:
                break
            part += q
        big = a + nm
        x = (m * m << v) // (big * big)
        tail = 0
        for cj in reversed(coeffs):
            tail = (tail + cj) * x >> v
        bracket = inv + (m << v) // (2 * big) + tail
        acc += c * (part + (bracket << (w - v)) // (m * big ** (s - 1)))
    return ensure_finite(mp.make_mpf(from_man_exp(acc, -w, prec, round_nearest)))
