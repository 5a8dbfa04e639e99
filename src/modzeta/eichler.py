"""Eichler integrals of weights 4 and 6 and their z-derivatives.

Production path is termwise differentiation of the Lambert-Ramanujan series

    E4-integral(z) = (60 i / pi^3) * sum_{n>=1} q^n / (n^3 (1-q^n)),
    E6-integral(z) = (378 i / pi^5) * sum_{n>=1} q^n / (n^5 (1-q^n)),

with q = exp(2*pi*i*z); each derivative in z multiplies a term by 2*pi*i*n and
turns the rational kernel in q^n into the next one in the chain
u/(1-u) -> u/(1-u)^2 -> u(1+u)/(1-u)^3 -> u(1+4u+u^2)/(1-u)^4.
The seven sums (weight 4, orders 0-2; weight 6, orders 0-3) are chains of
``modular._nome_chains``, the one memoized walk over the powers of the nome
that also serves the Eisenstein series and ``arith.epstein2``; all three
ask it for every chain at q (``modular._AT_Q``).  This module only applies
the prefactors, which ``verify.theorems._modular_data`` multiplies out from
the chains of a theorem record.  Finite differences are deliberately not used
here (they live in the tests).
"""

from __future__ import annotations

import mpmath as mp
from mpmath import mpc

from .modular import _AT_Q, _as_z, _nome_chains
from .mpcore import DomainError, PrecisionCtx, ensure_finite

__all__ = ["eichler4", "eichler6"]


def _eichler(z, weight: int, order: int, ctx: PrecisionCtx) -> mpc:
    s = _nome_chains(_as_z(z, ctx), _AT_Q, ctx)[1][weight, order]
    with ctx.working():
        # the docstring's c i / pi^(weight-1), times 2 pi i per derivative
        pref = mpc(0, 60 if weight == 4 else 378) * (2j) ** order / mp.pi ** (weight - 1 - order)
        return ensure_finite(pref * s)


def eichler4(z, order: int, ctx: PrecisionCtx) -> mpc:
    """Order-th z-derivative of the weight-4 Eichler integral (order 0..2),
    for Im z >= 0.03: below it the nome walk raises DomainError."""
    if order not in (0, 1, 2):
        raise DomainError("eichler4 order must be 0, 1 or 2")
    return _eichler(z, 4, order, ctx)


def eichler6(z, order: int, ctx: PrecisionCtx) -> mpc:
    """Order-th z-derivative of the weight-6 Eichler integral (order 0..3),
    for Im z >= 0.03: below it the nome walk raises DomainError."""
    if order not in (0, 1, 2, 3):
        raise DomainError("eichler6 order must be 0, 1, 2 or 3")
    return _eichler(z, 6, order, ctx)
