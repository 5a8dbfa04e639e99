"""Reference functions that only the tests use.

``tail_poly_geom`` is the polynomial-geometric tail bound of the mpf nome
walk oracles; ``gamma_one_plus`` and ``legendre_p_def`` are the deformed
Legendre function P_nu^{-eps} by its direct 2F1 series, the finite-difference
oracle of ``legendre_dnu2``; ``epstein3_imag_residue`` is the imaginary part
of the Eichler term inside ``epstein3``, which vanishes iff 2 Re z is an
integer; ``bernoulli`` is B_n from the tangent numbers that the
Euler-Maclaurin table reads.
"""

from fractions import Fraction

import mpmath as mp
from mpmath import mpc, mpf

from modzeta.arith import _epstein3_braced
from modzeta.modular import _as_z
from modzeta.mpcore import (DomainError, PrecisionCtx, _tangent_numbers, const_zeta,
                            ensure_finite)


def tail_poly_geom(xabs: mpf, n_last: int, deg: int) -> mpf:
    """Safe overestimate of sum_{n>n_last} n^deg * xabs^n for 0 <= xabs < 1.

    Uses n^deg <= (n_last+1)^deg * deg! * C(j+deg, deg) for n = n_last+1+j,
    giving a closed geometric-series bound with a crude deg! <= 6^deg factor.
    """
    if xabs >= 1:
        raise DomainError("tail bound requires |x| < 1")
    bound = mpf(n_last + 1) ** deg * xabs ** (n_last + 1) / (1 - xabs) ** (deg + 1)
    return bound * (6 ** deg if deg else 1)


def gamma_one_plus(eps, ctx: PrecisionCtx) -> mpf:
    """Gamma(1+eps) for |eps| < 1/2, via exp(-gamma0 eps + sum (-1)^k zeta(k) eps^k / k)."""
    with ctx.working():
        eps = mpf(eps) if mp.im(mpc(eps)) == 0 else mpc(eps)
        if abs(eps) >= mpf(1) / 2:
            raise DomainError("gamma_one_plus requires |eps| < 1/2")
        if eps == 0:
            return mpf(1)
        tiny = ctx.tiny()
        acc = -mp.euler * eps
        ek = -eps  # tracks (-eps)^k, so (-1)^k eps^k comes out right
        k = 1
        while True:
            k += 1
            ek *= -eps
            acc += const_zeta(k, ctx) * ek / k
            if 2 * abs(ek) / (k * (1 - abs(eps))) < tiny:
                break
        return ensure_finite(mp.exp(acc))


def legendre_p_def(nu, eps, t, ctx: PrecisionCtx) -> mpc:
    """Associated Legendre P_nu^{-eps}(1-2t) for |eps| < 1/2.

    (1/Gamma(1+eps)) * 2F1(-nu, 1+nu; 1+eps; t) * (t/(1-t))^(eps/2),
    with the 2F1 summed directly (the lemmas' domain keeps |t| < 1).
    """
    with ctx.working():
        nu = mpf(nu)
        eps = mpf(eps)
        t = mpc(t)
        if abs(eps) >= mpf(1) / 2:
            raise DomainError("legendre_p_def requires |eps| < 1/2")
        if abs(t) >= mpf("0.999"):
            raise DomainError("legendre_p_def: |t| too close to 1 for the series")
        tiny = ctx.tiny()
        acc = mpc(0)
        c = mpc(1)
        n = 0
        ta = abs(t)
        while True:
            acc += c
            c *= (-nu + n) * (1 + nu + n) / ((1 + eps + n) * (n + 1)) * t
            n += 1
            # successive ratio tends to |t| from (1 + O(1/n)) above
            if n > 8 and 2 * abs(c) / (1 - min(ta * (1 + mpf(2) / n), mpf("0.9995"))) < tiny:
                break
        f21 = acc
        if eps == 0:
            return ensure_finite(f21)
        pref = mp.power(t / (1 - t), eps / 2)
        return ensure_finite(f21 * pref / gamma_one_plus(eps, ctx))


def epstein3_imag_residue(z, ctx: PrecisionCtx) -> mpf:
    """Imaginary part of the braced term in epstein3 (diagnostic; 0 iff 2*Re z in Z)."""
    z = _as_z(z, ctx)
    with ctx.working():
        return mp.im(_epstein3_braced(z, ctx))


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact rational, for n >= 0.

    B_2j = (-1)^(j+1) 2j T_(2j-1) / (4^j (4^j - 1)) from the tangent numbers.
    """
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    if n == 0:
        return Fraction(1)
    j = n // 2
    return Fraction((-1) ** (j + 1) * n * _tangent_numbers(j)[-1], 4 ** j * (4 ** j - 1))
