"""q-expansion evaluation of eta, lambda, alpha4, E2/E4/E6, R_{-1/2}, and the
Lambert nome walk shared with the Eichler integrals.

Conventions: the nome is q = exp(2*pi*i*z) with Im z > 0, so |q| < 1.  All
q-series are truncated at an index N with a certified polynomial-geometric
tail bound below the working threshold; N therefore grows as Im z shrinks.
Eta's pentagonal series and the nome walk keep their certified tail bounds
down to Im z = 0.03 (23 pentagonal indices at 65-digit precision, 550 nome
walk steps); below that both raise DomainError, since no modular
transformations are applied to rescue convergence.

A point is any complex-like value; every function takes it through
``_as_z``, which converts it at working precision and rejects Im z <= 0.

One memoized walk per (nome, precision), ``_nome_chains``, sums every Lambert
series at that nome: the E2/E4/E6 chains that ``eisenstein`` reads and the
Eichler chains that ``eichler`` and ``arith.epstein2`` read.

The walk runs on Python integers scaled by 2^wp: u = q^n is an (re, im)
integer pair, one integer division per n gives r = 1/(1-u), every kernel is
a product of u, r and 1 + u or 1 + 4u + u^2, the Eisenstein chains multiply
u r by the integer n^p and the Eichler chains floor-divide their kernel by
n^e.  ``eta`` sums Euler's pentagonal series on the same integer pairs, and
``series.hyp_lambert`` and ``series.eli`` the hyperbolic sums and ELi.

Every stop rule of these walks reads only moduli and the index n, so each
walk plans its lengths before it sums a term: ``_walk_length`` returns the
first n at which a rule, evaluated in floats in log2 form, holds, and raises
DomainError past 100 workdps terms.  The walk then runs a plain loop over
the planned range, with guard bits sized from that length.  The binomial
walk (``series._binom_sums``) plans too, every request in one float scan,
with its own cap of 400 workdps terms.
"""

from __future__ import annotations

from math import ceil, expm1, log, log2, pi

import mpmath as mp
from mpmath import mpc, mpf

from .mpcore import (DomainError, PrecisionCtx, _cinv, _cmul, _dust_bits,
                     _from_fixed, _memoized, _to_fixed, ensure_finite)

__all__ = [
    "alpha4",
    "eisenstein",
    "eisenstein_eta_form",
    "eta",
    "lambda_fn",
    "r_half",
]


def _as_z(z, ctx: PrecisionCtx) -> mpc:
    # convert at working precision: a point built at higher precision than the
    # caller's must not be rounded before it is evaluated or used as a memo key
    with ctx.working():
        z = mpc(z)
    if not mp.im(z) > 0:
        raise DomainError("point must satisfy Im z > 0, got %s" % (z,))
    return z


def _nome(z: mpc) -> mpc:
    # q = exp(2*pi*i*z); |q| = exp(-2*pi*Im z) < 1
    return mp.exp(mpc(0, 2) * mp.pi * z)


def _nome_logs(z: mpc) -> tuple:
    """log2|q| and log2(1-|q|) in floats, from |q| = exp(-2 pi Im z)."""
    x = 2 * pi * float(mp.im(z))
    return -x / log(2), log2(-expm1(-x))


# Im z below which eta and the nome walk raise DomainError, as a decimal string
# each check takes as an mpf at its own precision
_IM_FLOOR = "0.03"


def _walk_length(stop, start: int, ctx: PrecisionCtx) -> int:
    """The first n >= start at which a walk's float stop rule ``stop(n)`` holds.

    The scan ends at 100 workdps: a longer walk raises DomainError before it
    sums a term.
    """
    cap = 100 * ctx.workdps
    for n in range(start, cap + 1):
        if stop(n):
            return n
    raise DomainError("the q-series walk needs more than %d terms" % cap)


# ---------------------------------------------------------------------------
# Dedekind eta and the lambda function
# ---------------------------------------------------------------------------

def eta(z, ctx: PrecisionCtx) -> mpc:
    """Dedekind eta by Euler's pentagonal series, q^(1/24) sum_k (-1)^k q^(k(3k-1)/2).

    The sum over k in Z is 1 + sum_{k>=1} (-1)^k q^P(k) (1 + q^k) with
    P(k) = k(3k-1)/2.  P(k+1) = P(k) + 3k + 1, so index k takes its powers
    from a running q^(3k+1) and a running q^k: four products of fixed-point
    pairs (module docstring), the imaginary parts at the ``_dust_bits``
    scale of q.

    Tail bound: both terms of an index k > K are at most |q|^P(k), and
    P(k) >= P(K+1) + k - K - 1, so the rest after index K is at most
    2 |q|^P(K+1) / (1-|q|).  The sum is prod_n (1 - q^n), whose modulus is
    at least exp(-(pi^2/6) |q|/(1-|q|)), since
    -log prod_n (1 - x^n) = sum_m x^m / (m (1 - x^m)) <= sum_m x / (m^2 (1 - x)).
    Writing c = (pi^2/6) |q| / ((1-|q|) ln 2) for the bits that bound takes,
    the walk plans K as the first index with
    1 + P(K+1) log2|q| - log2(1-|q|) + c < log2 tiny, in floats, so the sum
    is cut at a relative error below tiny.

    Guard bits: the series' cancellation takes at most log2(2/(1-|q|)) + c
    bits (the terms add up to at most 2/(1-|q|)), about 15 at Im z = 0.03.
    Each index rounds each of the four running products once, and an error
    in a power carries into the later ones, so the K indices leave at most
    about K^2 units: wp carries that cancellation, 2 log2 K and 6 bits
    beyond the working precision.  The sum times q^(1/24) is rounded once,
    to the working precision.
    """
    z = _as_z(z, ctx)
    with ctx.working():
        if mp.im(z) < mpf(_IM_FLOOR):
            raise DomainError("eta is out of contract for Im z < %s" % _IM_FLOOR)
        q = _nome(z)
        lq, l1q = _nome_logs(z)
        low = pi ** 2 / 6 * 2 ** (lq - l1q) / log(2)  # c
        lim = -ctx.workdps * log2(10) - 1 + l1q - low  # stop once P(K+1) log2|q| < lim
        k_end = _walk_length(lambda k: (k + 1) * (3 * k + 2) // 2 * lq < lim, 1, ctx)
        wp = mp.mp.prec + ceil(1 - l1q + low) + 2 * k_end.bit_length() + 6
        s = _dust_bits(q, wp)
        one = 1 << wp
        qf = _to_fixed(q, wp, s)
        q3 = _cmul(*_cmul(*qf, *qf, wp, s), *qf, wp, s)
        lead, step, qk = (one, 0), qf, (one, 0)  # q^P(k), q^(3k+1), q^k at k = 0
        sr, si = one, 0
        for k in range(1, k_end + 1):
            lead = _cmul(*lead, *step, wp, s)
            step = _cmul(*step, *q3, wp, s)
            qk = _cmul(*qk, *qf, wp, s)
            tr, ti = _cmul(*lead, one + qk[0], qk[1], wp, s)
            if k % 2:
                sr, si = sr - tr, si - ti
            else:
                sr, si = sr + tr, si + ti
        pre = mp.exp(mpc(0, 1) * mp.pi * z / 12)  # q^(1/24)
        with mp.workprec(wp):  # times the sum, rounded once to the working precision
            val = pre * _from_fixed(sr, si, wp, s)
        return ensure_finite(+val)


def _lambda_of_etas(e_half, e_one, e_two) -> mpc:
    """lambda(z) = 2^4 eta(z/2)^8 eta(2z)^16 / eta(z)^24 from the three etas."""
    return ensure_finite(16 * e_half ** 8 * e_two ** 16 / e_one ** 24)


def lambda_fn(z, ctx: PrecisionCtx) -> mpc:
    """Modular lambda via the eta quotient 2^4 eta(z/2)^8 eta(2z)^16 / eta(z)^24."""
    z = _as_z(z, ctx)
    with ctx.working():
        return _lambda_of_etas(eta(z / 2, ctx), eta(z, ctx), eta(2 * z, ctx))


def alpha4(z, ctx: PrecisionCtx) -> mpc:
    """alpha_4(z) = lambda(2z)."""
    with ctx.working():
        return lambda_fn(2 * _as_z(z, ctx), ctx)


# ---------------------------------------------------------------------------
# The Lambert nome walk and the Eisenstein series
# ---------------------------------------------------------------------------

_EIS_COEFF = {2: -24, 4: 240, 6: -504}
# n-power p of each Eisenstein chain sum n^p q^n/(1-q^n)
_EIS_POWER = {"E2": 1, "E4": 3, "E6": 5}
# (weight, order) of every Eichler chain the Eichler integrals and epstein2 read
_CHAINS = ((4, 0), (4, 1), (4, 2), (6, 0), (6, 1), (6, 2), (6, 3))


@_memoized
def _nome_chains(z: mpc, ctx: PrecisionCtx) -> dict:
    """Every Lambert chain at the nome q of z, from one walk over n.

    Eisenstein chain "E<weight>" is sum_n n^p q^n/(1-q^n) with p = 1, 3, 5
    for weight 2, 4, 6; its tail after term n is at most
    6^p (n+1)^p |q|^(n+1) / (1-|q|)^(p+2), so its length is the first n with
    p log2(6(n+1)) + (n+1) log2|q| - (p+2) log2(1-|q|) < log2 tiny.

    Eichler chain (weight, order) is sum_n n^(order-weight+1) * K_order(q^n),
    with K_0(u) = u/(1-u), K_1(u) = u/(1-u)^2, K_2(u) = u(1+u)/(1-u)^3,
    K_3(u) = u(1+4u+u^2)/(1-u)^4.  The n-exponent is <= -1 for every Eichler
    chain, so one tail bound, sum_{m>n} |q|^m * 6/(1-|q|)^4 with the crude
    kernel bound |K(u)| <= 6|u|/(1-|q|)^4 for |u| <= |q|, gives all seven one
    length: the first n with
    log2 6 + (n+1) log2|q| - 5 log2(1-|q|) < log2 tiny.
    The walk plans these four lengths (``_walk_length``) and runs to the
    longest; each chain sums its own terms.

    tiny is 2^-9 * 10^-workdps, not 10^-workdps: the readers of the chains
    multiply them by up to 504 (the E6 coefficient) and 3024/pi^2, about 306
    (the Eichler prefactors), both below 2^9, so each tail cut stays below
    10^-workdps in every value read.

    Guard bits: each kernel value is off by a few units of 2^-wp, times
    (1-|q|)^-4 for K_3; the E6 chain multiplies its rounding by n^5 and adds
    up to N terms, N^6 units in all, N the walk's length.  So wp carries
    6 log2 N + 4 log2(1/(1-|q|)) + 8 bits beyond the working precision.

    The walk is out of contract for Im z < 0.03, as ``eta`` is: its length
    grows like 1/Im z.  The terms are summed in fixed point (module
    docstring).  The stop rules are evaluated in floats; their rounding is
    far below the slack of the constants 6^p and 6.
    """
    if mp.im(z) < mpf(_IM_FLOOR):
        raise DomainError("the Lambert nome walk is out of contract for Im z < %s" % _IM_FLOOR)
    with ctx.working():
        q = _nome(z)
        lq, l1q = _nome_logs(z)
        lt = -ctx.workdps * log2(10) - 9
        ends = {key: _walk_length(lambda n, p=p: p * log2(6 * (n + 1)) + (n + 1) * lq
                                  - (p + 2) * l1q < lt, 1, ctx)
                for key, p in _EIS_POWER.items()}
        n_eichler = _walk_length(lambda n: log2(6) + (n + 1) * lq - 5 * l1q < lt, 1, ctx)
        n_end = max(n_eichler, *ends.values())
        wp = mp.mp.prec + 6 * n_end.bit_length() + 4 * ceil(-l1q) + 8
        one = 1 << wp
        s = _dust_bits(q, wp)
        qr, qi = _to_fixed(q, wp, s)
        acc = dict.fromkeys(_CHAINS + tuple(_EIS_POWER), (0, 0))
        ur, ui = one, 0
        for n in range(1, n_end + 1):
            ur, ui = _cmul(ur, ui, qr, qi, wp, s)  # u = q^n
            rr, ri = _cinv(one - ur, -ui, wp, s)  # r = 1/(1-u)
            k0r, k0i = _cmul(ur, ui, rr, ri, wp, s)  # u/(1-u)
            for key, p in _EIS_POWER.items():
                if n <= ends[key]:
                    m = n ** p
                    sr, si = acc[key]
                    acc[key] = (sr + m * k0r, si + m * k0i)
            if n <= n_eichler:
                k1 = _cmul(k0r, k0i, rr, ri, wp, s)
                k1r = _cmul(*k1, rr, ri, wp, s)  # u/(1-u)^3
                poly = _cmul(ur, ui, ur + 4 * one, ui, wp, s)  # 4u + u^2
                ker = ((k0r, k0i), k1,
                       _cmul(*k1r, one + ur, ui, wp, s),
                       _cmul(*_cmul(*k1r, rr, ri, wp, s), one + poly[0], poly[1], wp, s))
                for weight, order in _CHAINS:
                    m = n ** (weight - 1 - order)
                    kr, ki = ker[order]
                    sr, si = acc[weight, order]
                    acc[weight, order] = (sr + kr // m, si + ki // m)
        return {key: _from_fixed(sr, si, wp, s) for key, (sr, si) in acc.items()}


def eisenstein(z, weight: int, ctx: PrecisionCtx) -> mpc:
    """E2 (with its -3/(pi Im z) completion), E4, or E6 as Lambert q-series.

    The Lambert sum is the chain "E<weight>" of the memoized nome walk, which
    raises DomainError below Im z = 0.03.
    """
    if weight not in _EIS_COEFF:
        raise DomainError("eisenstein weight must be 2, 4 or 6")
    z = _as_z(z, ctx)
    chains = _nome_chains(z, ctx)
    with ctx.working():
        return ensure_finite(_eisenstein_of(chains, weight, mp.im(z)))


def _eisenstein_of(chains: dict, weight: int, y) -> mpc:
    """E<weight> from the nome record ``chains`` of a point with Im z = y, at
    the current precision: 1 + c times the chain, less 3/(pi y) for E2."""
    val = 1 + _EIS_COEFF[weight] * chains["E%d" % weight]
    if weight == 2:
        val -= 3 / (mp.pi * y)
    return val


def eisenstein_eta_form(z, weight: int, ctx: PrecisionCtx) -> mpc:
    """E4 or E6 from eta quotients and lambda; an independent route for tests."""
    z = _as_z(z, ctx)
    with ctx.working():
        e_half, e_one, e_two = eta(z / 2, ctx), eta(z, ctx), eta(2 * z, ctx)
        lam = _lambda_of_etas(e_half, e_one, e_two)
        pair = e_two * e_half
        if weight == 4:
            return ensure_finite(e_one ** 40 * (1 - lam + lam ** 2) / pair ** 16)
        if weight == 6:
            return ensure_finite(
                e_one ** 60 * (1 + lam) * (2 - lam) * (1 - 2 * lam) / (2 * pair ** 24)
            )
    raise DomainError("eta-quotient form exists for weights 4 and 6 only")


# ---------------------------------------------------------------------------
# Legendre-Ramanujan function
# ---------------------------------------------------------------------------

def r_half(z, ctx: PrecisionCtx) -> mpc:
    """R_{-1/2}(1 - 2*alpha_4(z)) from completed E2 and E4.

    Implements
        -(16 E2(4z)^2 - 16 E4(4z) - E2(z)^2 + E4(z)) / (2 (4 E2(4z) - E2(z))^2)
    and raises DomainError when the denominator vanishes.  The four values
    are those of ``eisenstein``, read from the nome records of z and 4z.
    """
    z = _as_z(z, ctx)
    with ctx.working():
        y, c_z, c_4z = mp.im(z), _nome_chains(z, ctx), _nome_chains(4 * z, ctx)
        e2_z, e4_z = _eisenstein_of(c_z, 2, y), _eisenstein_of(c_z, 4, y)
        e2_4z, e4_4z = _eisenstein_of(c_4z, 2, 4 * y), _eisenstein_of(c_4z, 4, 4 * y)
        den = 4 * e2_4z - e2_z
        if abs(den) < mpf(10) ** (-(ctx.workdps // 2)):
            raise DomainError("4 E2(4z) - E2(z) vanishes at z=%s" % (z,))
        num = 16 * e2_4z ** 2 - 16 * e4_4z - e2_z ** 2 + e4_z
        return ensure_finite(-num / (2 * den ** 2))
