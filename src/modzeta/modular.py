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
``_as_z``, which converts it at working precision and rejects a non-finite
part and Im z <= 0.

One memoized walk over the powers of q, ``_nome_chains``, sums the Lambert
series a request names at the powers of q it names, by one rule for every
request: q to a unit of the walk's precision, and the chains at -q, the
nome of z + 1/2, derived exactly whenever the powers cover q, q^2 and q^4.
``eisenstein``, ``eichler`` and ``arith.epstein2`` ask for every chain at q
(``_AT_Q``).  A theorem point asks for the chains its readers take at q,
q^2 and q^4 (``_THEOREM_RECORD``): every right-hand side of the main
theorems (``verify.theorems._modular_data``) and R_{-1/2} read that one
record.  Eta, lambda and alpha4 take one exponential too: alpha4(z) =
lambda(2z) is an eta quotient at q, q^2 and q^4, three pentagonal sums
(``_pentagonal``) at the powers of one nome.

The walk runs on Python integers scaled by 2^wp: u = q^n is an (re, im)
integer pair, one integer division per n gives r = 1/(1-u), every kernel is
a product of u, r and 1 + u or 1 + 4u + u^2, the Eisenstein chains multiply
u r by the integer n^p and the Eichler chains floor-divide their kernel by
n^e.  ``_pentagonal`` sums Euler's pentagonal series on the same integer
pairs, and ``series.hyp_lambert`` and ``series.eli`` the hyperbolic sums and
ELi.

Every stop rule of these walks reads only moduli and the index n, so each
walk plans its lengths before it sums a term: ``_walk_length`` returns the
first n at which a rule, evaluated in floats in log2 form, holds, and raises
DomainError, naming the walk, past 100 workdps terms.  The walk then runs a
plain loop over the planned range, with guard bits sized from that length.
The binomial walk (``series._binom_sums``) plans too, every request in one
float scan, with its own cap of 400 workdps terms.
"""

from __future__ import annotations

from math import ceil, expm1, log, log2, pi

import mpmath as mp
from mpmath import mpc, mpf

from .mpcore import (DomainError, PrecisionCtx, _cinv, _cmul, _dust_bits, _from_fixed,
                     _log2_abs, _memoized, _to_fixed, ensure_finite)

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
    if not mp.isfinite(z):
        raise DomainError("point must be finite, got %s" % (z,))
    if not mp.im(z) > 0:
        raise DomainError("point must satisfy Im z > 0, got %s" % (z,))
    return z


def _nome(z: mpc) -> mpc:
    """q = exp(2 pi i z) at the current precision: the modulus
    exp(-2 pi Im z) times the phase exp(2 pi i Re z), rounded once.

    mpmath's ``expjpi`` reduces its argument 2 Re z exactly, so the phase is
    exactly +-1 on Re z in (1/2)Z, the lines of the main theorems, and
    exactly +-i on Re z in 1/4 + (1/2)Z.  There q is an exact real or an
    exact imaginary, and every walk at q and its powers keeps its other
    integers exactly 0 (``mpcore._dust_bits`` is 0); elsewhere the phase is
    rounded once.  Both factors are taken at 10 + mag(Im z) extra bits, so
    the rounding of the exponent 2 pi Im z costs q about 2^-7 of a unit,
    and each part of q is within about half a unit of the current
    precision, relative to |q|: within half a unit of 10^-dps.
    """
    y = mp.im(z)
    with mp.extraprec(10 + max(0, mp.mag(y))):
        q = mp.exp(-2 * mp.pi * y) * mp.expjpi(2 * mp.re(z))
    return +q


def _nome_logs(z: mpc) -> tuple:
    """log2|q| and log2(1-|q|) in floats, from |q| = exp(-2 pi Im z)."""
    x = 2 * pi * float(mp.im(z))
    return -x / log(2), log2(-expm1(-x))


# Im z below which eta and the nome walk raise DomainError, as a decimal string
# each check takes as an mpf at its own precision
_IM_FLOOR = "0.03"


def _walk_length(name: str, stop, start: int, ctx: PrecisionCtx) -> int:
    """The first n >= start at which the float stop rule ``stop(n)`` of the
    walk ``name`` holds.

    The scan ends at 100 workdps: a longer walk raises DomainError, naming
    the walk, before it sums a term.
    """
    cap = 100 * ctx.workdps
    for n in range(start, cap + 1):
        if stop(n):
            return n
    raise DomainError("%s needs more than %d terms" % (name, cap))


# ---------------------------------------------------------------------------
# Dedekind eta and the lambda function
# ---------------------------------------------------------------------------

def _pentagonal(q, ctx: PrecisionCtx) -> mpc:
    """prod_n (1 - q^n) by Euler's pentagonal series sum_k (-1)^k q^(k(3k-1)/2),
    for |q| < 1, rounded at the walk's precision wp, at least 9 bits beyond
    the working precision: the caller rounds what it builds from it.  Call
    at ctx's working precision.

    The sum over k in Z is 1 + sum_{k>=1} (-1)^k q^P(k) (1 + q^k) with
    P(k) = k(3k-1)/2.  P(k+1) = P(k) + 3k + 1, so index k takes its powers
    from a running q^(3k+1) and a running q^k: four products of fixed-point
    pairs (module docstring), the imaginary parts at the ``_dust_bits``
    scale of q.  q is taken as passed, to a unit of 2^-wp, so a caller may
    take it beyond the working precision.

    Tail bound: both terms of an index k > K are at most |q|^P(k), and
    P(k) >= P(K+1) + k - K - 1, so the rest after index K is at most
    2 |q|^P(K+1) / (1-|q|).  The sum is prod_n (1 - q^n), whose modulus is
    at least exp(-(pi^2/6) |q|/(1-|q|)), since
    -log prod_n (1 - x^n) = sum_m x^m / (m (1 - x^m)) <= sum_m x / (m^2 (1 - x)).
    Writing c = (pi^2/6) |q| / ((1-|q|) ln 2) for the bits that bound takes,
    the walk plans K as the first index with
    1 + P(K+1) log2|q| - log2(1-|q|) + c < log2 tiny, in floats, so the sum
    is cut at a relative error below tiny.  log2|q| is read from the
    mantissas and exponents of q (``mpcore._log2_abs``); a q with a
    non-finite part or |q| >= 1 raises DomainError.

    Guard bits: the series' cancellation takes at most log2(2/(1-|q|)) + c
    bits (the terms add up to at most 2/(1-|q|)), about 15 at Im z = 0.03.
    Each index rounds each of the four running products once, and an error
    in a power carries into the later ones, so the K indices leave at most
    about K^2 units: wp carries that cancellation, 2 log2 K and 6 bits
    beyond the working precision.
    """
    lq = _log2_abs(q)
    if not lq < 0:
        raise DomainError("the pentagonal series needs a finite q with |q| < 1, got %s" % (q,))
    l1q = log2(-expm1(lq * log(2)))
    low = pi ** 2 / 6 * 2 ** (lq - l1q) / log(2)  # c
    lim = -ctx.workdps * log2(10) - 1 + l1q - low  # stop once P(K+1) log2|q| < lim
    k_end = _walk_length("the pentagonal series",
                         lambda k: (k + 1) * (3 * k + 2) // 2 * lq < lim, 1, ctx)
    wp = mp.mp.prec + ceil(1 - l1q + low) + 2 * k_end.bit_length() + 6
    s = _dust_bits(q, wp)
    one = 1 << wp
    with mp.workprec(wp):
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
    with mp.workprec(wp):
        return _from_fixed(sr, si, wp, s)


def _squared(v, k: int):
    """v^(2^k) by k roundings of squares: mpmath's integer power of an mpc
    multiplies out exactly first, several times slower at these exponents."""
    for _ in range(k):
        v *= v
    return v


# decimal digits beyond the working precision at which the eta quotients
# take their nome and pentagonal sums and form their powers
_ETA_EXTRA = 3


def _eta_sums(z: mpc, ctx: PrecisionCtx) -> tuple:
    """(alpha4(z), S(q), S(q^2), S(q^4)) from the one nome q of z, S the
    pentagonal sum (``_pentagonal``), at ``_ETA_EXTRA`` digits beyond the
    working precision.

    eta(m z) = q^(m/24) S(q^m), so alpha4(z) = lambda(2z) =
    16 eta(z)^8 eta(4z)^16 / eta(2z)^24 = 16 q (S(q) S(q^4)^2 / S(q^2)^3)^8:
    the powers of q^(1/24) cancel to q.  Its powers multiply the relative
    errors of the sums by up to 48 (E6's eta form by up to 108), below
    10^3, so q, its squares, the sums (their tails cut at the smaller
    tiny) and the quotient are all taken at 3 more digits, and the caller
    rounds the quotient once.  Im z below 0.03 raises DomainError.
    """
    if mp.im(z) < mpf(_IM_FLOOR):
        raise DomainError("eta is out of contract for Im z < %s" % _IM_FLOOR)
    fine = PrecisionCtx(ctx.digits, ctx.guard + _ETA_EXTRA)
    with fine.working():
        q = _nome(z)
        q2 = q * q
        s1, s2, s4 = (_pentagonal(v, fine) for v in (q, q2, q2 * q2))
        return 16 * q * _squared(s1 * s4 * s4 / (s2 * s2 * s2), 3), s1, s2, s4


def eta(z, ctx: PrecisionCtx) -> mpc:
    """Dedekind eta, q^(1/24) times Euler's pentagonal series (``_pentagonal``).

    q is taken at 8 extra bits, q^(1/24) at the working precision, and their
    product with the sum at 8 extra bits, rounded once: eta is within half a
    unit of 10^-workdps of its value, relative to |eta|.  Im z below 0.03
    raises DomainError.
    """
    z = _as_z(z, ctx)
    with ctx.working():
        if mp.im(z) < mpf(_IM_FLOOR):
            raise DomainError("eta is out of contract for Im z < %s" % _IM_FLOOR)
        with mp.extraprec(8):
            q = _nome(z)
        pre = mp.exp(mpc(0, 1) * mp.pi * z / 12)  # q^(1/24)
        val = _pentagonal(q, ctx)
        with mp.extraprec(8):
            val *= pre
        return ensure_finite(+val)


def alpha4(z, ctx: PrecisionCtx) -> mpc:
    """alpha_4(z) = lambda(2z), the eta quotient at q, q^2 and q^4 of one
    nome q (``_eta_sums``), rounded once: within half a unit of 10^-workdps
    of its value, relative to |alpha4|.  Im z below 0.03 raises DomainError."""
    z = _as_z(z, ctx)
    with ctx.working():
        return ensure_finite(+_eta_sums(z, ctx)[0])


def lambda_fn(z, ctx: PrecisionCtx) -> mpc:
    """Modular lambda, lambda(z) = alpha4(z/2): the eta quotient
    2^4 eta(z/2)^8 eta(2z)^16 / eta(z)^24 at the nome of z/2."""
    z = _as_z(z, ctx)
    with ctx.working():
        return alpha4(z / 2, ctx)


# ---------------------------------------------------------------------------
# The Lambert nome walk and the Eisenstein series
# ---------------------------------------------------------------------------

_EIS_COEFF = {2: -24, 4: 240, 6: -504}
# n-power p of each Eisenstein chain sum n^p q^n/(1-q^n)
_EIS_POWER = {"E2": 1, "E4": 3, "E6": 5}
# (weight, order) of every Eichler chain the Eichler integrals and epstein2 read
_CHAINS = ((4, 0), (4, 1), (4, 2), (6, 0), (6, 1), (6, 2), (6, 3))
# The two requests (powers of q, chains) of the nome walk.  ``eisenstein``,
# ``eichler4``/``eichler6`` and ``arith.epstein2`` read every chain at q.  A theorem point
# reads E2 and E4 at q and q^4 (R_{-1/2}) and these Eichler chains at q,
# q^2, q^4 and -q (the right-hand sides).
_AT_Q = ((1,), tuple(_EIS_POWER) + _CHAINS)
_THEOREM_RECORD = ((1, 2, 4), ("E2", "E4", (4, 0), (4, 1), (4, 2), (6, 2), (6, 3)))


@_memoized
def _nome_chains(z: mpc, request: tuple, ctx: PrecisionCtx) -> dict:
    """The chains of ``request`` = (powers, chains) at the nomes q^m of z,
    m in powers, from one walk over the powers q^n of q, as {m: chains}.

    Eisenstein chain "E<weight>" is sum_n n^p q^n/(1-q^n) with p = 1, 3, 5
    for weight 2, 4, 6; its tail after term n is at most
    6^p (n+1)^p |q|^(n+1) / (1-|q|)^(p+2), so its length is the first n with
    p log2(6(n+1)) + (n+1) log2|q| - (p+2) log2(1-|q|) < log2 tiny.

    Eichler chain (weight, order) is sum_n n^(order-weight+1) * K_order(q^n),
    with K_0(u) = u/(1-u), K_1(u) = u/(1-u)^2, K_2(u) = u(1+u)/(1-u)^3,
    K_3(u) = u(1+4u+u^2)/(1-u)^4.  The n-exponent is <= -1 for every Eichler
    chain, so one tail bound, sum_{m>n} |q|^m * 6/(1-|q|)^4 with the crude
    kernel bound |K(u)| <= 6|u|/(1-|q|)^4 for |u| <= |q|, gives every
    Eichler chain one length: the first n with
    log2 6 + (n+1) log2|q| - 5 log2(1-|q|) < log2 tiny.

    The chains at q^m take the kernels of the walk at the indices n = m k,
    with index k: u = (q^m)^k is the u the walk holds at n.  Each power
    plans the lengths above at its own nome q^m (``_walk_length``), in k;
    the walk runs to n = the largest m k, and each chain sums its own terms.

    When the powers include 1, 2 and 4, the walk also holds every chain at
    -q, the nome of z + 1/2, under the key "-q".  A chain C of terms
    n^e K_j(q^n) (an Eisenstein chain has e = p and j = 0; an Eichler chain
    e = order - weight + 1 and j = order) is at -q, since
    K_j(-u) = 2^(j+1) K_j(u^2) - K_j(u),
        C(-q) = -C(q) + (2^(e+1) + 2^(j+1)) C(q^2) - 2^(j+e+1) C(q^4),
    an exact identity, formed in the walk's integers (scaled by 2^t,
    t = max(0, -e-1), so each coefficient is an integer) before the one
    rounding.  It multiplies the errors of the three chains by at most
    1 + 66 + 64 = 131 (the E6 chain, e = 5 and j = 0, has the largest
    factor), below 2^8, so then every tail is cut 8 bits lower and wp takes
    8 more bits: the chains at -q keep the tail bound and the rounding of a
    walk at z + 1/2.

    tiny is 2^-9 * 10^-workdps, not 10^-workdps: the readers of the chains
    multiply them by up to 504 (the E6 coefficient) and 3024/pi^2, about 306
    (the Eichler prefactors), both below 2^9, so each tail cut stays below
    10^-workdps in every value read.

    Guard bits: each kernel value is off by a few units of 2^-wp, times
    (1-|q|)^-4 for K_3; the asked-for Eisenstein chain of the highest power
    p multiplies its rounding by n^p and adds up to N terms, N^(p+1) units
    in all, N the walk's length.  An Eichler chain, whose n-exponent is
    negative, adds up at most N units, so p is 0 when no Eisenstein chain is
    asked for.  wp carries (p+1) log2 N + 4 log2(1/(1-|q|)) + 8 bits beyond the
    working precision.  q itself is taken to a unit of 2^-wp, so each chain,
    at every power and at -q, lies within its last rounding plus 2^-7 units
    of 10^-workdps of its value at the point as given: within half a unit of
    10^-workdps, relative to max(1, |value|).

    The walk is out of contract for Im z < 0.03, as ``eta`` is: its length
    grows like 1/Im z.  The terms are summed in fixed point (module
    docstring).  The stop rules are evaluated in floats; their rounding is
    far below the slack of the constants 6^p and 6.
    """
    if mp.im(z) < mpf(_IM_FLOOR):
        raise DomainError("the Lambert nome walk is out of contract for Im z < %s" % _IM_FLOOR)
    powers, chains = request
    eis = {key: _EIS_POWER[key] for key in chains if key in _EIS_POWER}
    eichler = [key for key in chains if key not in eis]
    extra = 8 if {1, 2, 4} <= set(powers) else 0  # bits the chains at -q take
    name = "the Lambert nome walk"
    with ctx.working():
        lq, l1q = _nome_logs(z)
        lt = -ctx.workdps * log2(10) - (9 + extra)
        plans = []  # (m, {Eisenstein key: last k}, last Eichler k) per power
        for m in powers:
            lqm, l1qm = m * lq, log2(-expm1(m * lq * log(2)))  # log2|q^m|, log2(1-|q^m|)
            ends = {key: _walk_length(name, lambda k, p=p: p * log2(6 * (k + 1)) + (k + 1) * lqm
                                      - (p + 2) * l1qm < lt, 1, ctx)
                    for key, p in eis.items()}
            k_eichler = _walk_length(name, lambda k: log2(6) + (k + 1) * lqm - 5 * l1qm < lt,
                                     1, ctx)
            plans.append((m, ends, k_eichler))
        n_end = max(m * max([k_eichler, *ends.values()]) for m, ends, k_eichler in plans)
        wp = (mp.mp.prec + (max(eis.values(), default=0) + 1) * n_end.bit_length()
              + 4 * ceil(-l1q) + 8 + extra)
        with mp.workprec(wp):  # q to a unit of 2^-wp, see the docstring
            q = _nome(z)
            s = _dust_bits(q, wp)
            qr, qi = _to_fixed(q, wp, s)
        one = 1 << wp
        acc = {m: dict.fromkeys(chains, (0, 0)) for m in powers}
        ur, ui = one, 0
        for n in range(1, n_end + 1):
            ur, ui = _cmul(ur, ui, qr, qi, wp, s)  # u = q^n
            rr, ri = _cinv(one - ur, -ui, wp, s)  # r = 1/(1-u)
            k0r, k0i = _cmul(ur, ui, rr, ri, wp, s)  # u/(1-u)
            ker = None
            for m, ends, k_eichler in plans:
                k, rest = divmod(n, m)
                if rest:
                    continue
                sums = acc[m]
                for key, p in eis.items():
                    if k <= ends[key]:
                        c = k ** p
                        sr, si = sums[key]
                        sums[key] = (sr + c * k0r, si + c * k0i)
                if k > k_eichler:
                    continue
                if ker is None:
                    k1 = _cmul(k0r, k0i, rr, ri, wp, s)
                    k1r = _cmul(*k1, rr, ri, wp, s)  # u/(1-u)^3
                    poly = _cmul(ur, ui, ur + 4 * one, ui, wp, s)  # 4u + u^2
                    ker = ((k0r, k0i), k1,
                           _cmul(*k1r, one + ur, ui, wp, s),
                           _cmul(*_cmul(*k1r, rr, ri, wp, s), one + poly[0], poly[1], wp, s))
                for weight, order in eichler:
                    c = k ** (weight - 1 - order)
                    kr, ki = ker[order]
                    sr, si = sums[weight, order]
                    sums[weight, order] = (sr + kr // c, si + ki // c)
        if extra:
            acc["-q"] = {}
            for key in chains:
                j, e = (0, eis[key]) if key in eis else (key[1], key[1] - key[0] + 1)
                t = max(0, -e - 1)
                a2, a4 = (1 << e + 1 + t) + (1 << j + 1 + t), 1 << j + e + 1 + t
                acc["-q"][key] = tuple((a2 * v2 - a4 * v4 - (v1 << t)) >> t
                                       for v1, v2, v4 in zip(acc[1][key], acc[2][key],
                                                             acc[4][key]))
        return {m: {key: _from_fixed(sr, si, wp, s) for key, (sr, si) in sums.items()}
                for m, sums in acc.items()}


def eisenstein(z, weight: int, ctx: PrecisionCtx) -> mpc:
    """E2 (with its -3/(pi Im z) completion), E4, or E6 as Lambert q-series.

    The Lambert sum is the chain "E<weight>" of the memoized nome walk at z,
    which raises DomainError below Im z = 0.03.
    """
    if weight not in _EIS_COEFF:
        raise DomainError("eisenstein weight must be 2, 4 or 6")
    z = _as_z(z, ctx)
    chains = _nome_chains(z, _AT_Q, ctx)[1]
    with ctx.working():
        return ensure_finite(_eisenstein_of(chains, weight, mp.im(z)))


def _eisenstein_of(chains: dict, weight: int, y) -> mpc:
    """E<weight> from the chains of one nome of a point with Im z = y, at
    the current precision: 1 + c times the chain, less 3/(pi y) for E2."""
    val = 1 + _EIS_COEFF[weight] * chains["E%d" % weight]
    if weight == 2:
        val -= 3 / (mp.pi * y)
    return val


def eisenstein_eta_form(z, weight: int, ctx: PrecisionCtx) -> mpc:
    """E4 or E6 from eta quotients and lambda; an independent route for tests.

    E4 = eta(z)^40 (1 - lam + lam^2) / (eta(2z) eta(z/2))^16 and
    E6 = eta(z)^60 (1 + lam)(2 - lam)(1 - 2 lam) / (2 (eta(2z) eta(z/2))^24),
    lam = lambda(z).  At the nome q of z/2 the powers of q^(1/24) cancel, so
    both are quotients of the three pentagonal sums S(q), S(q^2) = eta(z)
    q^(-1/12) and S(q^4), with lam = alpha4(z/2) (``_eta_sums``), formed at
    its extra digits and rounded once.
    """
    if weight not in (4, 6):
        raise DomainError("eta-quotient form exists for weights 4 and 6 only")
    z = _as_z(z, ctx)
    with ctx.working():
        lam, s_half, s_one, s_two = _eta_sums(z / 2, ctx)
        with mp.extradps(_ETA_EXTRA):
            pair = s_two * s_half
            w4 = _squared(s_one * _squared(s_one, 2) / (pair * pair), 2)  # eta(z)^20 / pair^8
            if weight == 4:
                val = w4 * w4 * (1 - lam + lam ** 2)
            else:
                val = w4 * w4 * w4 * (1 + lam) * (2 - lam) * (1 - 2 * lam) / 2
        return ensure_finite(+val)


# ---------------------------------------------------------------------------
# Legendre-Ramanujan function
# ---------------------------------------------------------------------------

def r_half(z, ctx: PrecisionCtx) -> mpc:
    """R_{-1/2}(1 - 2*alpha_4(z)) from completed E2 and E4.

    Implements
        -(16 E2(4z)^2 - 16 E4(4z) - E2(z)^2 + E4(z)) / (2 (4 E2(4z) - E2(z))^2)
    and raises DomainError when the denominator vanishes.  The four values
    are read from the chains at q and q^4 of the theorem record of z,
    ``_nome_chains(z, _THEOREM_RECORD, ctx)``, which the modular side of the
    main theorems reads too.
    """
    z = _as_z(z, ctx)
    with ctx.working():
        record = _nome_chains(z, _THEOREM_RECORD, ctx)
        y, c_z, c_4z = mp.im(z), record[1], record[4]
        e2_z, e4_z = _eisenstein_of(c_z, 2, y), _eisenstein_of(c_z, 4, y)
        e2_4z, e4_4z = _eisenstein_of(c_4z, 2, 4 * y), _eisenstein_of(c_4z, 4, 4 * y)
        den = 4 * e2_4z - e2_z
        if abs(den) < mpf(10) ** (-(ctx.workdps // 2)):
            raise DomainError("4 E2(4z) - E2(z) vanishes at z=%s" % (z,))
        num = 16 * e2_4z ** 2 - 16 * e4_4z - e2_z ** 2 + e4_z
        return ensure_finite(-num / (2 * den ** 2))
