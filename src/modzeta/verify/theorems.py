"""Theorem-level composite evaluators.

Each identity of the main theorems has two sides computed by disjoint routes:
the LHS route sums central-binomial harmonic series at the modular rate
alpha4(z)(1-alpha4(z))/16, while the RHS route assembles Epstein zeta values,
Eichler integrals, and zeta constants.  Neither side ever sees the other's
closed-form constant.

Each route of a point is one memoized record per (point, precision):
``_series_data`` holds every left-hand side from one binomial walk over the
requests of ``_series_plan``, and ``_modular_data`` holds every right-hand
side from one theorem record of the Lambert walk, the chains at q, q^2, q^4
and -q of one walk over the powers of q.  The plan, also
memoized, checks the point against the theorem hypothesis and holds alpha4,
R_{-1/2}, the rate and the nine requests; the registry's table-h2 cells read
alpha4 and R_{-1/2} from it.  The table ``_IDENTITIES`` names each of the
eight identities once: its evaluator, its keys, its registry id stem and
description, and its (kind, weight) entry of the two records.  The four
evaluators are built from it as views of both records, and so are the
registry's ``theorems-random`` rows, whose lhs reads only the series record
and whose rhs only the modular one.  ``s_r``, ``t_r``
and ``u_check`` read the modular record alone, so they need no theorem
hypothesis, only Im z >= 0.03.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp
from mpmath import mpc, mpf

from ..arith import _epstein2_lambert, epstein2
from ..modular import _THEOREM_RECORD, _as_z, _nome_chains, alpha4, r_half
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

    The series walk serves a narrower strip: its plan raises DomainError where
    it would pass 400 workdps terms, which is where |64x| passes about
    10^(-1/400) = 0.99426.  At 30 and 100 digits the evaluators raise at
    0.517i and at 1/2 + 0.7078i, and serve 0.52i and 1/2 + 0.708i.  The
    point 1/2 + i/sqrt2 has the rate -1/64, summed by CVZ; i/2 has 64x = +1,
    a non-alternating boundary rate, and raises.
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


_H2 = (W_H2_DIFF, W_H2_PLAIN)
_H3 = (W_H3_DIFF, W_H3_PLAIN)


def _to_mpf(r) -> mpf:
    """The rational r (a Fraction, an int or a string such as "-1/64") as an mpf."""
    r = Fraction(r)
    return mpf(r.numerator) / r.denominator


@_memoized
def _series_plan(z, ctx: PrecisionCtx) -> dict:
    """The series route's inputs at an admissible z, before any walk.

    "a4" is alpha4(z), "rhalf" R_{-1/2}(1 - 2 alpha4), "x" the rate
    alpha4(1-alpha4)/16, and "requests" the nine (LinearFactor, WeightSpec)
    sums at it: the denominator (weight 1) and each theorem weight, once with
    factor 1 and once with the linear factor 2(1-2 alpha4)/Im z * k +
    R_{-1/2}/Im z.  Any other z raises DomainError.
    """
    _require_admissible(z, ctx)
    with ctx.working():
        a4, rhalf, y = alpha4(z, ctx), r_half(z, ctx), mp.im(z)
        one = LinearFactor(0, 1)
        fac = LinearFactor(2 * (1 - 2 * a4) / y, rhalf / y)
        return {"a4": a4, "rhalf": rhalf, "x": a4 * (1 - a4) / 16,
                "requests": ((one, W_ONE), *((one, w) for w in _H2 + _H3),
                             *((fac, w) for w in _H2 + _H3))}


@_memoized
def _series_data(z, ctx: PrecisionCtx) -> dict:
    """The series side at an admissible z: every ratio and linear sum, one
    walk over the nine requests of ``_series_plan``."""
    plan = _series_plan(z, ctx)
    with ctx.working():
        sums = binom3_sums(plan["x"], plan["requests"], ctx)
        return {"ratio": {w: s / sums[0] for w, s in zip(_H2 + _H3, sums[1:5])},
                "linear": dict(zip(_H2 + _H3, sums[5:]))}


@_memoized
def _modular_data(z, ctx: PrecisionCtx) -> dict:
    """The modular side at a point: every right-hand side, one read of each term.

    "ratio" and "linear" hold the right-hand sides by weight, as
    ``_series_data`` holds the left-hand sides.  E(w,2) = Im(w)^2 +
    45 zeta(3)/(pi^3 Im w) + its Lambert terms, and in every right-hand side
    the y^2 and zeta(3) terms of its Epstein combination cancel exactly
    against terms of its Epstein-free part, so neither is formed: a side adds
    only the Lambert terms.  "s" holds the Epstein-free parts of Q1 and Q2,
    and "u" that of the plain-H3 linear side, which ``s_r`` and ``u_check``
    combine.

    The record reads the theorem record of the Lambert walk once,
    ``modular._nome_chains(z, _THEOREM_RECORD, ctx)``: one walk over the
    powers of q = exp(2 pi i z) that sums the chains asked for at q, q^2 and
    q^4 and so derives them at -q too.  Every term comes from its chains at
    the nomes -q, q^2, q^4 and q of z + 1/2, 2z, 4z and z.  ``r_half``, and
    so the series plan, makes the same request and reads the same memo
    entry.  The
    Lambert terms of E(w,2) come from ``arith._epstein2_lambert``, as
    ``epstein2`` takes them.  An Eichler integral is its chain times
    c i (2i)^order / pi^(weight-1-order) (``eichler``): 60i/pi^3 for (4,0),
    -240i/pi for (4,2), -1512i/pi^3 for (6,2) and 3024/pi^2 for (6,3).  The
    sides are the paper's, in Eichler integrals, with those factors
    multiplied out, so each Eichler term is a rational combination of chains
    over 1, y or pi y^k; ``tests/oracles.py`` assembles the sides as written,
    from ``eichler4``, ``eichler6`` and ``epstein2``.
    """
    with ctx.working():
        y = mp.im(z)
        pi = +mp.pi
        pi2, piy = pi * pi, pi * y
        z3 = const_zeta(3, ctx)
        record = _nome_chains(z, _THEOREM_RECORD, ctx)
        c_zh, c_2z, c_4z, c_z = record["-q"], record[2], record[4], record[1]
        lam_zh, lam_2z, lam_4z, lam_z = (sum(_epstein2_lambert(c, m * y))
                                         for c, m in ((c_zh, 1), (c_2z, 2), (c_4z, 4), (c_z, 1)))
        # Each side as the paper writes it in the Eichler integrals F4 and F6
        # (primes are z-derivatives), then with the factors multiplied out.
        # Q1 and Q2 as pairs: the zeta(3) and Im z terms, then the F4 terms
        # -pi^2 i (8 F4(z+1/2) - F4(2z)) / (120 y) and
        # -pi^2 i (F4(z+1/2) - 2 F4(2z)) / (15 y)
        q1 = (7 * z3 / (4 * piy), (8 * c_zh[4, 0] - c_2z[4, 0]) / (2 * piy))
        q2 = (-2 * pi2 * y * y / 3 - 2 * z3 / piy, 4 * (c_zh[4, 0] - 2 * c_2z[4, 0]) / piy)
        q1r = q1[1] - pi2 * (4 * lam_zh - lam_2z) / 90
        q2r = q2[1] - 2 * pi2 * (lam_zh - 4 * lam_2z) / 45
        # R1 and R2: Q1 and Q2 over pi y^2, less
        # pi i (2 F4''(z+1/2) - F4''(2z)) / (30 y) and
        # pi i (F4''(z+1/2) - 8 F4''(2z)) / (15 y)
        r1r = q1r / (piy * y) - 8 * (2 * c_zh[4, 2] - c_2z[4, 2]) / y
        r2r = q2r / (piy * y) - 16 * (c_zh[4, 2] - 8 * c_2z[4, 2]) / y
        # H1 = pi^3 i (F6''(2z) - 8 F6''(z+1/2)) / 1512 and
        # H2 = pi^3 i (F6''(z+1/2) - 8 F6''(2z)) / 189 - pi^3 i (4 F4(z) - F4(4z)) / 15
        h1 = c_2z[6, 2] - 8 * c_zh[6, 2]
        d8 = 8 * (c_zh[6, 2] - 8 * c_2z[6, 2])
        h2 = d8 + 4 * (4 * c_z[4, 0] - c_4z[4, 0])
        # The weight-3 linear sides: G1 = H1 / (pi y^2) +
        # pi^2 (F6'''(2z) - 4 F6'''(z+1/2)) / (756 y), and G2 with the terms
        # pi^2 i (F6''(z+1/2) - 8 F6''(2z)) / (189 y^2) and
        # pi^2 (F6'''(z+1/2) - 16 F6'''(2z)) / (189 y).  The F6''' denominators
        # are 756*Im z and 189*Im z (power one); this follows from
        # differentiating the ratio identities and is confirmed by the
        # tabulated specializations.  The first two terms of g2 are the y^2 and
        # zeta(3) terms of 8 pi^2 (E(4z,2) - E(z,2))/(45 y) with the sign reversed.
        g1 = h1 / (piy * y) + 4 * (c_2z[6, 3] - 4 * c_zh[6, 3]) / y
        g2 = (8 * pi2 * y / 3, -6 * z3 / (piy * y), d8 / (piy * y),
              16 * (c_zh[6, 3] - 16 * c_2z[6, 3]) / y)
        g2r = g2[2] + g2[3] - 8 * pi2 * (lam_4z - lam_z) / (45 * y)
        return {"ratio": dict(zip(_H2 + _H3, (q1r, q2r, h1, h2))),
                "linear": dict(zip(_H2 + _H3, (r1r, r2r, g1, g2r))),
                "s": (sum(q1), sum(q2)), "u": sum(g2)}


# The eight identities: evaluator, lhs key, rhs key, registry id stem and
# description, and the (kind, weight) entry of the series and modular records.
_IDENTITIES = (
    ("q_ratios", "q1_lhs", "q1_rhs", "q1", "q identity 1", "ratio", W_H2_DIFF),
    ("q_ratios", "q2_lhs", "q2_rhs", "q2", "q identity 2", "ratio", W_H2_PLAIN),
    ("r_linear", "r1_lhs", "r1_rhs", "r1", "r identity 1", "linear", W_H2_DIFF),
    ("r_linear", "r2_lhs", "r2_rhs", "r2", "r identity 2", "linear", W_H2_PLAIN),
    ("h3_ratios", "lhs1", "rhs1", "hq1", "hq identity 1", "ratio", W_H3_DIFF),
    ("h3_ratios", "lhs2", "rhs2", "hq2", "hq identity 2", "ratio", W_H3_PLAIN),
    ("h3_linear", "lhs1", "rhs1", "hr1", "hr identity 1", "linear", W_H3_DIFF),
    ("h3_linear", "lhs2", "rhs2", "hr2", "hr identity 2", "linear", W_H3_PLAIN),
)


def _evaluator(name: str, identities: str):
    """The public evaluator ``name``: both sides of each of its rows of
    ``_IDENTITIES`` at an admissible z, keyed by the rows' lhs and rhs keys."""
    rows = [row for row in _IDENTITIES if row[0] == name]

    def evaluate(z, ctx: PrecisionCtx) -> dict:
        z = _as_z(z, ctx)
        lhs, rhs = _series_data(z, ctx), _modular_data(z, ctx)
        out = {}
        for _, lkey, rkey, _, _, kind, w in rows:
            out[lkey], out[rkey] = lhs[kind][w], rhs[kind][w]
        return out
    evaluate.__name__ = evaluate.__qualname__ = name
    evaluate.__doc__ = "Both sides of the %s identities at an admissible z." % identities
    return evaluate


q_ratios = _evaluator("q_ratios", "weight-2 ratio")
r_linear = _evaluator("r_linear", "weight-2 linear-factor")
h3_ratios = _evaluator("h3_ratios", "weight-3 ratio")
h3_linear = _evaluator("h3_linear", "weight-3 linear-factor")


def s_r(z, r, ctx: PrecisionCtx) -> mpc:
    """The Epstein-free part of Q1 - r Q2, which collapses to a rational multiple of pi^2.

    Defined wherever the nome walk serves the modular record, Im z >= 0.03.
    """
    q1, q2 = _modular_data(_as_z(z, ctx), ctx)["s"]
    with ctx.working():
        return q1 - _to_mpf(r) * q2


def t_r(z, r, ctx: PrecisionCtx) -> mpc:
    """R1(z) - r R2(z) through the Epstein/Eichler route (no series).

    Defined wherever the nome walk serves the modular record, Im z >= 0.03.
    """
    linear = _modular_data(_as_z(z, ctx), ctx)["linear"]
    with ctx.working():
        return linear[W_H2_DIFF] - _to_mpf(r) * linear[W_H2_PLAIN]


def u_check(z, rc, ctx: PrecisionCtx) -> mpc:
    """The weight-3 combination that collapses to a rational multiple of zeta(3)/pi.

    G1 + rc G2 of the linear-factor identities, without the Epstein
    difference term of the plain-H3 identity.  Defined wherever the nome
    walk serves the modular record, Im z >= 0.03.
    """
    data = _modular_data(_as_z(z, ctx), ctx)
    with ctx.working():
        return data["linear"][W_H3_DIFF] + _to_mpf(rc) * data["u"]


def _h3_epstein(z, ctx: PrecisionCtx) -> mpc:
    """The Epstein term 8 pi^2 (E(4z,2) - E(z,2)) / (45 Im z) of the plain-H3 side."""
    with ctx.working():
        return 8 * mp.pi ** 2 * (epstein2(4 * z, ctx) - epstein2(z, ctx)) / (45 * mp.im(z))
