"""Reference functions that only the tests use.

``tail_poly_geom`` is the polynomial-geometric tail bound of the mpf nome
walk oracles; ``gamma_one_plus`` and ``legendre_p_def`` are the deformed
Legendre function P_nu^{-eps} by its direct 2F1 series, the finite-difference
oracle of ``legendre_dnu2``; ``epstein3_imag_residue`` is the imaginary part
of the Eichler term inside ``epstein3``, which vanishes iff 2 Re z is an
integer; ``bernoulli`` is B_n from the tangent numbers that the
Euler-Maclaurin table reads; ``epstein_lattice`` is the float64 truncated
lattice sum of E(z, s), the slow independent oracle of ``epstein2`` and
``epstein3`` and the only use of numpy; ``modular_record`` assembles the
right-hand sides of the main theorems from the public ``eichler4``,
``eichler6`` and ``epstein2``, the oracle of ``theorems._modular_data``.
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath import mpc, mpf

from modzeta import eichler4, eichler6, epstein2
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


@dataclass(frozen=True)
class LatticeSum:
    value: float
    err_estimate: float
    radius: int


def epstein_lattice(z, s: int, radius: int, ctx: PrecisionCtx) -> LatticeSum:
    """Truncated lattice sum oracle for E(z,s), in float64 via numpy.

    Sums (Im z)^s / |m z + n|^(2s) over 0 < max(|m|,|n|) <= radius and divides
    by 2 zeta(2s).  The tail decays like radius^(2-2s); the attached error
    estimate comes from comparing against the half-radius sum (empirical
    constant times radius^(2-2s)), plus float64 accumulation slop.
    """
    if s not in (2, 3):
        raise DomainError("epstein_lattice supports s in {2, 3}")
    if radius < 10:
        raise DomainError("epstein_lattice requires radius >= 10")
    z = _as_z(z, ctx)
    x = float(mp.re(z))
    y = float(mp.im(z))

    def boxed(r: int) -> float:
        ms = np.arange(-r, r + 1, dtype=np.float64)
        total = 0.0
        chunk = max(1, int(4e6 / (2 * r + 1)))
        ns = np.arange(-r, r + 1, dtype=np.float64)
        for i in range(0, len(ms), chunk):
            mblock = ms[i:i + chunk][:, None]
            norm = (mblock * x + ns[None, :]) ** 2 + (mblock * y) ** 2
            with np.errstate(divide="ignore"):
                inv = norm ** (-s)
            m_idx = np.nonzero(mblock[:, 0] == 0)[0]
            if m_idx.size:
                inv[m_idx[0], r] = 0.0  # drop (m,n) = (0,0)
            total += float(inv.sum())
        return total * y ** s

    with ctx.working():
        norm_const = 2 * float(const_zeta(2 * s, ctx))
    full = boxed(radius) / norm_const
    half = boxed(radius // 2) / norm_const
    # tail(r) ~ C r^(2-2s): difference of the two truncations calibrates C
    ratio = 1.0 - 2.0 ** (2 - 2 * s)
    err = abs(full - half) / max(ratio, 1e-9) * 2.0 ** (2 - 2 * s) + 1e-12 * abs(full)
    return LatticeSum(value=full, err_estimate=err, radius=radius)


def modular_record(z, ctx: PrecisionCtx) -> dict:
    """Every right-hand side of the main theorems at z, in the shape of
    ``theorems._modular_data``: "ratio" and "linear" keyed by weight, the
    Epstein-free parts "s" of Q1 and Q2 and "u" of the plain-H3 linear side.

    Ten Eichler integrals from ``eichler4`` and ``eichler6``; the Lambert
    terms of E(w,2) as ``epstein2(w)`` less Im(w)^2 and
    45 zeta(3)/(pi^3 Im w).  That difference cancels up to Im(w)^2 against
    a value near 0, so evaluate at more digits than the record it checks.
    """
    from modzeta.verify.theorems import W_H2_DIFF, W_H2_PLAIN, W_H3_DIFF, W_H3_PLAIN

    z = _as_z(z, ctx)
    with ctx.working():
        y = mp.im(z)
        z3 = const_zeta(3, ctx)
        zh = z + mpf(1) / 2

        def lam(w):
            yw = mp.im(w)
            return epstein2(w, ctx) - yw ** 2 - 45 * z3 / (mp.pi ** 3 * yw)
        f_zh, f_2z = eichler4(zh, 0, ctx), eichler4(2 * z, 0, ctx)
        g_zh, g_2z = eichler4(zh, 2, ctx), eichler4(2 * z, 2, ctx)
        e2_zh, e2_2z = eichler6(zh, 2, ctx), eichler6(2 * z, 2, ctx)
        e3_zh, e3_2z = eichler6(zh, 3, ctx), eichler6(2 * z, 3, ctx)
        lam_zh, lam_2z, lam_4z, lam_z = (lam(w) for w in (zh, 2 * z, 4 * z, z))
        q1 = (7 * z3 / (4 * mp.pi * y), -mp.pi ** 2 * 1j * (8 * f_zh - f_2z) / (120 * y))
        q2 = (-2 * mp.pi ** 2 * y ** 2 / 3 - 2 * z3 / (mp.pi * y),
              -mp.pi ** 2 * 1j * (f_zh - 2 * f_2z) / (15 * y))
        q1r = q1[1] - mp.pi ** 2 * (4 * lam_zh - lam_2z) / 90
        q2r = q2[1] - 2 * mp.pi ** 2 * (lam_zh - 4 * lam_2z) / 45
        r1r = q1r / (mp.pi * y ** 2) - mp.pi * 1j * (2 * g_zh - g_2z) / (30 * y)
        r2r = q2r / (mp.pi * y ** 2) - mp.pi * 1j * (g_zh - 8 * g_2z) / (15 * y)
        h1 = mp.pi ** 3 * 1j * (e2_2z - 8 * e2_zh) / 1512
        h2 = (mp.pi ** 3 * 1j * (e2_zh - 8 * e2_2z) / 189
              - mp.pi ** 3 * 1j * (4 * eichler4(z, 0, ctx) - eichler4(4 * z, 0, ctx)) / 15)
        g1 = (mp.pi ** 2 * 1j * (e2_2z - 8 * e2_zh) / (1512 * y ** 2)
              + mp.pi ** 2 * (e3_2z - 4 * e3_zh) / (756 * y))
        g2 = (8 * mp.pi ** 2 * y / 3, -6 * z3 / (mp.pi * y ** 2),
              mp.pi ** 2 * 1j * (e2_zh - 8 * e2_2z) / (189 * y ** 2),
              mp.pi ** 2 * (e3_zh - 16 * e3_2z) / (189 * y))
        g2r = g2[2] + g2[3] - 8 * mp.pi ** 2 * (lam_4z - lam_z) / (45 * y)
        weights = (W_H2_DIFF, W_H2_PLAIN, W_H3_DIFF, W_H3_PLAIN)
        return {"ratio": dict(zip(weights, (q1r, q2r, h1, h2))),
                "linear": dict(zip(weights, (r1r, r2r, g1, g2r))),
                "s": (sum(q1), sum(q2)), "u": sum(g2)}
