"""Eichler integrals of weights 4 and 6 and their z-derivatives.

Production path is termwise differentiation of the Lambert-Ramanujan series

    E4-integral(z) = (60 i / pi^3) * sum_{n>=1} q^n / (n^3 (1-q^n)),
    E6-integral(z) = (378 i / pi^5) * sum_{n>=1} q^n / (n^5 (1-q^n)),

with q = exp(2*pi*i*z); each derivative in z multiplies a term by 2*pi*i*n and
turns the rational kernel in q^n into the next one in the chain
u/(1-u) -> u/(1-u)^2 -> u(1+u)/(1-u)^3 -> u(1+4u+u^2)/(1-u)^4.
One walk over n per nome sums all seven chains (weight 4, orders 0-2; weight
6, orders 0-3) and is memoized per (z, precision), so every Eichler value and
``arith.epstein2`` at that nome read the same walk.
Finite differences are deliberately not used here (they live in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from mpmath import mpc, mpf

from .mpcore import DomainError, PrecisionCtx, _memoized, ensure_finite
from .modular import _as_z

__all__ = ["EichlerValue", "eichler4", "eichler6"]


@dataclass(frozen=True)
class EichlerValue:
    family: str  # "E4" or "E6"
    order: int
    at: mpc
    value: mpc


# (weight, order) of every chain the Eichler integrals and epstein2 read
_CHAINS = ((4, 0), (4, 1), (4, 2), (6, 0), (6, 1), (6, 2), (6, 3))


@_memoized
def _nome_chains(z: mpc, ctx: PrecisionCtx) -> dict:
    """Every Lambert chain at the nome q of z, from one walk over n.

    Chain (weight, order) is sum_n n^(order-weight+1) * K_order(q^n), with
    K_0(u) = u/(1-u), K_1(u) = u/(1-u)^2, K_2(u) = u(1+u)/(1-u)^3,
    K_3(u) = u(1+4u+u^2)/(1-u)^4.  The n-exponent is <= -1 for every chain,
    so one tail bound, sum_{m>n} |q|^m * 6/(1-|q|)^4 with the crude kernel
    bound |K(u)| <= 6|u|/(1-|q|)^4 for |u| <= |q|, stops all of them.
    """
    with ctx.working():
        q = mp.exp(2j * mp.pi * z)
        qa = abs(q)
        tiny = ctx.tiny()
        kb = 6 / (1 - qa) ** 4
        acc = dict.fromkeys(_CHAINS, mpc(0))
        u = mpc(1)
        n = 0
        while True:
            n += 1
            u *= q  # u = q^n
            d = 1 - u
            ker = (u / d, u / d ** 2, u * (1 + u) / d ** 3,
                   u * (1 + 4 * u + u * u) / d ** 4)
            npow = {p: mpf(n) ** p for p in range(-5, 0)}
            for weight, order in _CHAINS:
                acc[weight, order] += npow[order - weight + 1] * ker[order]
            if qa ** (n + 1) / (1 - qa) * kb < tiny:
                break
    return acc


_E4_PREF = {0: lambda: mpc(0, 60) / mp.pi ** 3,
            1: lambda: mpf(-120) / mp.pi ** 2,
            2: lambda: mpc(0, -240) / mp.pi}
_E6_PREF = {0: lambda: mpc(0, 378) / mp.pi ** 5,
            1: lambda: mpf(-756) / mp.pi ** 4,
            2: lambda: mpc(0, -1512) / mp.pi ** 3,
            3: lambda: mpf(3024) / mp.pi ** 2}


def _eichler(z, weight: int, order: int, ctx: PrecisionCtx) -> mpc:
    s = _nome_chains(_as_z(z, ctx), ctx)[weight, order]
    with ctx.working():
        pref = (_E4_PREF if weight == 4 else _E6_PREF)[order]()
        return ensure_finite(pref * s)


def eichler4(z, order: int, ctx: PrecisionCtx) -> mpc:
    """Order-th z-derivative of the weight-4 Eichler integral (order 0..2)."""
    if order not in (0, 1, 2):
        raise DomainError("eichler4 order must be 0, 1 or 2")
    return _eichler(z, 4, order, ctx)


def eichler6(z, order: int, ctx: PrecisionCtx) -> mpc:
    """Order-th z-derivative of the weight-6 Eichler integral (order 0..3)."""
    if order not in (0, 1, 2, 3):
        raise DomainError("eichler6 order must be 0, 1, 2 or 3")
    return _eichler(z, 6, order, ctx)
