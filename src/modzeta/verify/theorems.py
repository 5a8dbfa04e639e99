"""Theorem-level composite evaluators.

Each function returns both sides of a main-theorem identity computed by
disjoint routes: the LHS route sums central-binomial harmonic series at the
modular rate alpha4(z)(1-alpha4(z))/16, while the RHS route assembles Epstein
zeta values, Eichler integrals, and zeta constants.  Neither side ever sees
the other's closed-form constant.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp
from mpmath import mpc, mpf

from ..arith import _epstein2_lambert, epstein2
from ..eichler import eichler4, eichler6
from ..modular import _as_z, alpha4, r_half
from ..mpcore import DomainError, PrecisionCtx, _memoized, const_zeta
from ..series import LinearFactor, W_ONE, WeightSpec, binom3_sums

__all__ = [
    "W_H2_DIFF", "W_H2_PLAIN", "W_H3_DIFF", "W_H3_PLAIN",
    "h3_linear", "h3_ratios", "q_ratios", "r_linear", "s_r", "t_r", "u_check",
]

W_H2_DIFF = WeightSpec.combo({"H2_2K": 1, "H2_K": Fraction(-1, 4)})
W_H2_PLAIN = WeightSpec.combo({"H2_K": 1})
W_H3_DIFF = WeightSpec.combo({"H3_2K": 1, "H3_K": Fraction(-1, 8)})
W_H3_PLAIN = WeightSpec.combo({"H3_K": 1})


def _require_admissible(z, ctx: PrecisionCtx) -> mpc:
    """z at working precision (through ``_as_z``), if the main theorems hold there.

    They hold on two lines: Re z = 0 with Im z >= 1/2, and Re z = 1/2 with
    Im z >= 1/sqrt(2).  Each comparison allows 10^-(workdps-5) of slack, so
    boundary points built from rounded square roots still qualify.  Any other
    point raises DomainError.
    """
    z = _as_z(z, ctx)
    with ctx.working():
        tol = mpf(10) ** (-(ctx.workdps - 5))
        x, y = mp.re(z), mp.im(z)
        if not ((abs(x) <= tol and y >= mpf(1) / 2 - tol)
                or (abs(x - mpf(1) / 2) <= tol and y >= 1 / mp.sqrt(2) - tol)):
            raise DomainError("z=%s is outside the theorem hypothesis "
                              "(need 2z/i >= 1, or Re z = 1/2 with Im z >= 1/sqrt(2))"
                              % (z,))
    return z


_THEOREM_WEIGHTS = (W_H2_DIFF, W_H2_PLAIN, W_H3_DIFF, W_H3_PLAIN)


@_memoized
def _series_data(z, ctx: PrecisionCtx) -> dict:
    """The series side at an admissible z: every ratio and linear sum, one walk.

    Nine sums at the rate x = alpha4(1-alpha4)/16: the denominator (weight 1)
    and each theorem weight, once with factor 1 and once with the linear
    factor 2(1-2 alpha4)/Im z * k + R_{-1/2}/Im z.
    """
    with ctx.working():
        a4 = alpha4(z, ctx)
        x = a4 * (1 - a4) / 16
        y = mp.im(z)
        one = LinearFactor(0, 1)
        fac = LinearFactor(2 * (1 - 2 * a4) / y, r_half(z, ctx) / y)
        sums = binom3_sums(x, [(one, W_ONE)]
                           + [(one, w) for w in _THEOREM_WEIGHTS]
                           + [(fac, w) for w in _THEOREM_WEIGHTS], ctx)
        den = sums[0]
        n = len(_THEOREM_WEIGHTS)
        return {"ratio": {w: s / den for w, s in zip(_THEOREM_WEIGHTS, sums[1:1 + n])},
                "linear": dict(zip(_THEOREM_WEIGHTS, sums[1 + n:]))}


def _q_free(z, ctx: PrecisionCtx):
    """The Epstein-free parts of Q1 and Q2: the zeta(3), Im z and Eichler terms."""
    with ctx.working():
        y = mp.im(z)
        z3 = const_zeta(3, ctx)
        f_zh = eichler4(z + mpf(1) / 2, 0, ctx)
        f_2z = eichler4(2 * z, 0, ctx)
        q1 = 7 * z3 / (4 * mp.pi * y) - mp.pi ** 2 * 1j * (8 * f_zh - f_2z) / (120 * y)
        q2 = (-2 * mp.pi ** 2 * y ** 2 / 3 - 2 * z3 / (mp.pi * y)
              - mp.pi ** 2 * 1j * (f_zh - 2 * f_2z) / (15 * y))
        return q1, q2


@_memoized
def _q_rhs(z, ctx: PrecisionCtx):
    q1, q2 = _q_free(z, ctx)
    with ctx.working():
        e_zh = epstein2(z + mpf(1) / 2, ctx)
        e_2z = epstein2(2 * z, ctx)
        return (q1 - mp.pi ** 2 * (4 * e_zh - e_2z) / 90,
                q2 - 2 * mp.pi ** 2 * (e_zh - 4 * e_2z) / 45)


def _r_rhs(z, ctx: PrecisionCtx):
    with ctx.working():
        y = mp.im(z)
        q1r, q2r = _q_rhs(z, ctx)
        g_zh = eichler4(z + mpf(1) / 2, 2, ctx)
        g_2z = eichler4(2 * z, 2, ctx)
        r1r = q1r / (mp.pi * y ** 2) - mp.pi * 1j * (2 * g_zh - g_2z) / (30 * y)
        r2r = q2r / (mp.pi * y ** 2) - mp.pi * 1j * (g_zh - 8 * g_2z) / (15 * y)
        return r1r, r2r


def q_ratios(z, ctx: PrecisionCtx) -> dict:
    """Both sides of the weight-2 ratio identities at an admissible z."""
    z = _require_admissible(z, ctx)
    ratio = _series_data(z, ctx)["ratio"]
    q1r, q2r = _q_rhs(z, ctx)
    return {"q1_lhs": ratio[W_H2_DIFF], "q1_rhs": q1r,
            "q2_lhs": ratio[W_H2_PLAIN], "q2_rhs": q2r}


def r_linear(z, ctx: PrecisionCtx) -> dict:
    """Both sides of the weight-2 linear-factor identities at an admissible z."""
    z = _require_admissible(z, ctx)
    linear = _series_data(z, ctx)["linear"]
    r1r, r2r = _r_rhs(z, ctx)
    return {"r1_lhs": linear[W_H2_DIFF], "r1_rhs": r1r,
            "r2_lhs": linear[W_H2_PLAIN], "r2_rhs": r2r}


def s_r(z, r, ctx: PrecisionCtx) -> mpc:
    """The Epstein-free part of Q1 - r Q2, which collapses to a rational multiple of pi^2."""
    q1, q2 = _q_free(_as_z(z, ctx), ctx)
    with ctx.working():
        r = mpf(Fraction(r).numerator) / Fraction(r).denominator
        return q1 - r * q2


def t_r(z, r, ctx: PrecisionCtx) -> mpc:
    """R1(z) - r R2(z) through the Epstein/Eichler route (no series)."""
    z = _require_admissible(z, ctx)
    r1r, r2r = _r_rhs(z, ctx)
    with ctx.working():
        r = mpf(Fraction(r).numerator) / Fraction(r).denominator
        return r1r - r * r2r


def _h3_rhs(z, ctx: PrecisionCtx):
    with ctx.working():
        e2_zh = eichler6(z + mpf(1) / 2, 2, ctx)
        e2_2z = eichler6(2 * z, 2, ctx)
        h1 = mp.pi ** 3 * 1j * (e2_2z - 8 * e2_zh) / 1512
        h2 = (mp.pi ** 3 * 1j * (e2_zh - 8 * e2_2z) / 189
              - mp.pi ** 3 * 1j * (4 * eichler4(z, 0, ctx)
                                   - eichler4(4 * z, 0, ctx)) / 15)
        return h1, h2


def h3_ratios(z, ctx: PrecisionCtx) -> dict:
    """Both sides of the weight-3 ratio identities at an admissible z."""
    z = _require_admissible(z, ctx)
    ratio = _series_data(z, ctx)["ratio"]
    h1r, h2r = _h3_rhs(z, ctx)
    return {"lhs1": ratio[W_H3_DIFF], "rhs1": h1r,
            "lhs2": ratio[W_H3_PLAIN], "rhs2": h2r}


def _h3_linear_free(z, ctx: PrecisionCtx):
    """The weight-3 linear-factor sides without the Epstein term of the second.

    The second side comes as its four terms, 8 pi^2 y/3 and -6 zeta(3)/(pi y^2)
    first: ``h3_linear`` cancels those two against the Epstein difference.
    """
    # Second identity: the E6'''-bracket denominators are 756*Im z and
    # 189*Im z (power one); this follows from differentiating the ratio
    # identities and is confirmed by the tabulated specializations.
    with ctx.working():
        y = mp.im(z)
        z3 = const_zeta(3, ctx)
        e2_zh = eichler6(z + mpf(1) / 2, 2, ctx)
        e2_2z = eichler6(2 * z, 2, ctx)
        e3_zh = eichler6(z + mpf(1) / 2, 3, ctx)
        e3_2z = eichler6(2 * z, 3, ctx)
        g1 = (mp.pi ** 2 * 1j * (e2_2z - 8 * e2_zh) / (1512 * y ** 2)
              + mp.pi ** 2 * (e3_2z - 4 * e3_zh) / (756 * y))
        g2 = (8 * mp.pi ** 2 * y / 3, -6 * z3 / (mp.pi * y ** 2),
              mp.pi ** 2 * 1j * (e2_zh - 8 * e2_2z) / (189 * y ** 2),
              mp.pi ** 2 * (e3_zh - 16 * e3_2z) / (189 * y))
        return g1, g2


def _h3_epstein(z, ctx: PrecisionCtx) -> mpc:
    """The Epstein term 8 pi^2 (E(4z,2) - E(z,2)) / (45 Im z) of the plain-H3 side."""
    with ctx.working():
        return 8 * mp.pi ** 2 * (epstein2(4 * z, ctx) - epstein2(z, ctx)) / (45 * mp.im(z))


def h3_linear(z, ctx: PrecisionCtx) -> dict:
    """Both sides of the weight-3 linear-factor identities at an admissible z."""
    z = _require_admissible(z, ctx)
    linear = _series_data(z, ctx)["linear"]
    g1r, g2 = _h3_linear_free(z, ctx)
    with ctx.working():
        # E(w,2) = Im(w)^2 + 45 zeta(3)/(pi^3 Im w) + its Lambert terms, so the
        # y^2 and zeta(3) terms of the Epstein term 8 pi^2 (E(4z,2) -
        # E(z,2))/(45 y) are 8 pi^2 y/3 - 6 zeta(3)/(pi y^2), the first two
        # terms of g2: the four cancel exactly and are left out of the sum
        lam = [sum(_epstein2_lambert(w, ctx)) for w in (4 * z, z)]
        g2r = g2[2] + g2[3] - 8 * mp.pi ** 2 * (lam[0] - lam[1]) / (45 * mp.im(z))
    return {"lhs1": linear[W_H3_DIFF], "rhs1": g1r,
            "lhs2": linear[W_H3_PLAIN], "rhs2": g2r}


def u_check(z, rc, ctx: PrecisionCtx) -> mpc:
    """The weight-3 combination that collapses to a rational multiple of zeta(3)/pi.

    G1 + rc G2 of the linear-factor identities, without the Epstein
    difference term of the plain-H3 identity.
    """
    g1, g2 = _h3_linear_free(_as_z(z, ctx), ctx)
    with ctx.working():
        rc = mpf(Fraction(rc).numerator) / Fraction(rc).denominator
        return g1 + rc * sum(g2)
