"""q-expansion evaluation of eta, lambda, alpha4, E2/E4/E6 and R_{-1/2}.

Conventions: the nome is q = exp(2*pi*i*z) with Im z > 0, so |q| < 1.  All
q-series are truncated at an index N with a certified polynomial-geometric
tail bound below the working threshold; N therefore grows as Im z shrinks.
The eta product keeps its certified tail bound down to Im z = 0.03 (about
550 factors at 65-digit precision); below that it is out of contract, since
no modular transformations are applied to rescue convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from mpmath import mpc, mpf

from .mpcore import DomainError, PrecisionCtx, ensure_finite, tail_poly_geom

__all__ = [
    "DegeneratePointError",
    "UhpPoint",
    "alpha4",
    "eisenstein",
    "eisenstein_eta_form",
    "eta",
    "lambda_fn",
    "r_half",
    "uhp",
]


class DegeneratePointError(DomainError):
    """A modular expression hit a vanishing denominator at this point."""


@dataclass(frozen=True)
class UhpPoint:
    """A point z in the upper half-plane."""

    z: mpc

    def __post_init__(self) -> None:
        if not mp.im(self.z) > 0:
            raise DomainError("UhpPoint requires Im z > 0, got %s" % (self.z,))

    @property
    def re(self) -> mpf:
        return mp.re(self.z)

    @property
    def im(self) -> mpf:
        return mp.im(self.z)

    def nome(self) -> mpc:
        """q = exp(2*pi*i*z); |q| = exp(-2*pi*Im z) < 1."""
        return mp.exp(2j * mp.pi * self.z)

    def admissible_h2(self, tol: mpf | None = None) -> bool:
        """Hypothesis of the two main theorems.

        True iff z is purely imaginary with Im z >= 1/2, or Re z = 1/2 with
        Im z >= 1/sqrt(2).  Comparisons allow ``tol`` slack (default: a few
        ulps at the current precision) so boundary points built from rounded
        square roots still qualify.
        """
        if tol is None:
            tol = mpf(10) ** (-(mp.mp.dps - 5))
        x, y = self.re, self.im
        if abs(x) <= tol:
            return y >= mpf(1) / 2 - tol
        if abs(x - mpf(1) / 2) <= tol:
            return y >= 1 / mp.sqrt(2) - tol
        return False


def uhp(z) -> UhpPoint:
    """Coerce a complex-like value to a UhpPoint."""
    if isinstance(z, UhpPoint):
        return z
    return UhpPoint(mpc(z))


def _as_z(z, ctx: PrecisionCtx) -> mpc:
    # convert at working precision: a point built at higher precision than the
    # caller's must not be rounded before it is evaluated or used as a memo key
    if isinstance(z, UhpPoint):
        return z.z
    with ctx.working():
        z = mpc(z)
    if not mp.im(z) > 0:
        raise DomainError("point must satisfy Im z > 0, got %s" % (z,))
    return z


def _nome(z: mpc, scale: int = 2) -> mpc:
    # exp(scale*pi*i*z); scale=2 gives the standard nome, scale=1 its square root.
    return mp.exp(mpc(0, scale) * mp.pi * z)


# ---------------------------------------------------------------------------
# Dedekind eta and the lambda function
# ---------------------------------------------------------------------------

def eta(z, ctx: PrecisionCtx) -> mpc:
    """Dedekind eta: exp(pi*i*z/12) * prod_{n>=1} (1 - q^n)."""
    z = _as_z(z, ctx)
    with ctx.working():
        if mp.im(z) < mpf("0.03"):
            raise DomainError("eta is out of contract for Im z < 0.03")
        q = _nome(z)
        qa = abs(q)
        tiny = ctx.tiny()
        prod = mpc(1)
        qn = mpc(1)
        n = 0
        while True:
            n += 1
            qn *= q
            prod *= 1 - qn
            # |log(tail)| <= sum_{m>n} |q|^m/(1-|q|) = |q|^(n+1)/(1-|q|)^2
            if qa ** (n + 1) / (1 - qa) ** 2 < tiny:
                break
        return ensure_finite(mp.exp(mpc(0, 1) * mp.pi * z / 12) * prod)


def lambda_fn(z, ctx: PrecisionCtx) -> mpc:
    """Modular lambda via the eta quotient 2^4 eta(z/2)^8 eta(2z)^16 / eta(z)^24."""
    z = _as_z(z, ctx)
    with ctx.working():
        e_half = eta(z / 2, ctx)
        e_one = eta(z, ctx)
        e_two = eta(2 * z, ctx)
        return ensure_finite(16 * e_half ** 8 * e_two ** 16 / e_one ** 24)


def alpha4(z, ctx: PrecisionCtx) -> mpc:
    """alpha_4(z) = lambda(2z)."""
    with ctx.working():
        return lambda_fn(2 * _as_z(z, ctx), ctx)


# ---------------------------------------------------------------------------
# Eisenstein series
# ---------------------------------------------------------------------------

_EIS_COEFF = {2: -24, 4: 240, 6: -504}
_EIS_POWER = {2: 1, 4: 3, 6: 5}


def eisenstein(z, weight: int, ctx: PrecisionCtx) -> mpc:
    """E2 (with its -3/(pi Im z) completion), E4, or E6 as Lambert q-series."""
    if weight not in (2, 4, 6):
        raise DomainError("eisenstein weight must be 2, 4 or 6")
    z = _as_z(z, ctx)
    with ctx.working():
        q = _nome(z)
        qa = abs(q)
        tiny = ctx.tiny()
        p = _EIS_POWER[weight]
        acc = mpc(0)
        qn = mpc(1)
        n = 0
        while True:
            n += 1
            qn *= q
            acc += mpf(n) ** p * qn / (1 - qn)
            if tail_poly_geom(qa, n, p) / (1 - qa) < tiny:
                break
        val = 1 + _EIS_COEFF[weight] * acc
        if weight == 2:
            val -= 3 / (mp.pi * mp.im(z))
        return ensure_finite(val)


def eisenstein_eta_form(z, weight: int, ctx: PrecisionCtx) -> mpc:
    """E4 or E6 from eta quotients and lambda; an independent route for tests."""
    z = _as_z(z, ctx)
    with ctx.working():
        lam = lambda_fn(z, ctx)
        e_one = eta(z, ctx)
        pair = eta(2 * z, ctx) * eta(z / 2, ctx)
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
    and raises DegeneratePointError when the denominator vanishes.
    """
    z = _as_z(z, ctx)
    with ctx.working():
        e2_z = eisenstein(z, 2, ctx)
        e2_4z = eisenstein(4 * z, 2, ctx)
        e4_z = eisenstein(z, 4, ctx)
        e4_4z = eisenstein(4 * z, 4, ctx)
        den = 4 * e2_4z - e2_z
        if abs(den) < mpf(10) ** (-(ctx.workdps // 2)):
            raise DegeneratePointError("4 E2(4z) - E2(z) vanishes at z=%s" % (z,))
        num = 16 * e2_4z ** 2 - 16 * e4_4z - e2_z ** 2 + e4_z
        return ensure_finite(-num / (2 * den ** 2))
