"""Kronecker symbols, Hurwitz zeta, Dirichlet L-values, and Epstein zeta.

L_d(s) goes through the Hurwitz decomposition

    L_d(s) = m^-s * sum_{a=1..m} (d/a) * zeta(s, a/m),

with m = |d| when d = 0, 1 (mod 4) and m = 4|d| otherwise, so the cost is
uniform in the precision and independent of the sign of d.

E(z,2) and E(z,3) use the rapidly convergent Lambert / Eichler representations
(real parts taken, see the module notes on epstein3); the brute-force lattice
sum is kept only as a deliberately slow low-precision oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath import mpc, mpf

from .eichler import eichler6
from .modular import _as_z, _nome_chains
from .mpcore import (
    DomainError,
    PrecisionCtx,
    _memoized,
    const_zeta,
    ensure_finite,
    hurwitz_zeta_raw,
)

__all__ = [
    "LatticeSum",
    "dirichlet_l",
    "epstein2",
    "epstein3",
    "epstein_lattice",
    "hurwitz_zeta",
    "kronecker",
]


# ---------------------------------------------------------------------------
# Kronecker symbol
# ---------------------------------------------------------------------------

_KR_MOD8 = {1: 1, 7: 1, 3: -1, 5: -1}


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 0, with (d/0) = 0 unless |d| = 1."""
    d = int(d)
    n = int(n)
    if d == 0:
        raise DomainError("kronecker requires a nonzero d")
    if n < 0:
        raise DomainError("kronecker here is defined for n >= 0")
    if n == 0:
        return 1 if abs(d) == 1 else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    sign = 1
    # factor out 2s from n; each contributes (d/2)
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if d % 2 == 0:
            return 0
        if v % 2:
            sign *= _KR_MOD8[d % 8]
    # now n odd > 0: Jacobi symbol (d/n) with reciprocity
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:  # both odd at this point
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


# ---------------------------------------------------------------------------
# Hurwitz zeta and Dirichlet L
# ---------------------------------------------------------------------------

def hurwitz_zeta(s, a, ctx: PrecisionCtx) -> mpf:
    """zeta(s, a) for real s > 1 and 0 < a <= 1, by Euler-Maclaurin."""
    with ctx.working():
        s = mpf(s)
        a = mpf(a)
        if not s > 1:
            raise DomainError("hurwitz_zeta requires s > 1")
        if not (0 < a <= 1):
            raise DomainError("hurwitz_zeta requires 0 < a <= 1")
        return hurwitz_zeta_raw(s, a)


@_memoized
def dirichlet_l(d: int, s: int, ctx: PrecisionCtx) -> mpf:
    """L_d(s) = sum_n (d/n) n^-s for integer s >= 2, via Hurwitz decomposition."""
    d = int(d)
    if int(s) != s or s < 2:
        raise DomainError("dirichlet_l requires an integer s >= 2")
    if d == 0:
        raise DomainError("dirichlet_l requires d != 0")
    m = abs(d) if d % 4 in (0, 1) else 4 * abs(d)
    with ctx.working():
        s = mpf(int(s))
        acc = mpf(0)
        for a in range(1, m + 1):
            chi = kronecker(d, a)
            if chi:
                acc += chi * hurwitz_zeta_raw(s, mpf(a) / m)
        return ensure_finite(acc / mpf(m) ** s)


# ---------------------------------------------------------------------------
# Epstein zeta E(z, s) for s = 2, 3
# ---------------------------------------------------------------------------

def epstein2(z, ctx: PrecisionCtx) -> mpf:
    """E(z,2) from its Lambert representation; valid for all Im z > 0.

    E(z,2) = y^2 + 45 zeta(3)/(pi^3 y)
             + (90/(pi^3 y)) Re sum q^n/(n^3 (1-q^n))
             + (180/pi^2)    Re sum q^n/(n^2 (1-q^n)^2),    y = Im z.

    The two sums are the weight-4 Eichler chains of orders 0 and 1, read from
    the memoized walk at the nome of z that ``eichler4`` shares.
    """
    z = _as_z(z, ctx)
    lam3, lam2 = _epstein2_lambert(z, ctx)
    with ctx.working():
        y = mp.im(z)
        val = y ** 2 + 45 * const_zeta(3, ctx) / (mp.pi ** 3 * y) + lam3 + lam2
        return ensure_finite(val)


def _epstein2_lambert(z, ctx: PrecisionCtx) -> tuple:
    """The two Lambert terms of E(z,2), the part without y^2 and zeta(3)."""
    z = _as_z(z, ctx)
    chains = _nome_chains(z, ctx)
    with ctx.working():
        return (90 * mp.re(chains[4, 0]) / (mp.pi ** 3 * mp.im(z)),
                180 * mp.re(chains[4, 1]) / mp.pi ** 2)


def _epstein3_braced(z, ctx: PrecisionCtx) -> mpc:
    # i*E6int(z) + E6int'(z)*y - i*E6int''(z)*y^2/3, the weight-6 analogue of
    # the integral kernel (w-z)^2 (w-zbar)^2.
    y = mp.im(z)
    return (mpc(0, 1) * eichler6(z, 0, ctx) + eichler6(z, 1, ctx) * y
            - mpc(0, 1) * eichler6(z, 2, ctx) * y ** 2 / 3)


def epstein3(z, ctx: PrecisionCtx) -> mpf:
    """E(z,3) assembled from the weight-6 Eichler integral and zeta(5).

    E(z,3) = y^3 + 2835 zeta(5)/(8 pi^5 y^2) - (15/(8 y^2)) Re{braced},
    where braced = i*E6int(z) + E6int'(z)*y - i*E6int''(z)*y^2/3.  The real
    part is exact for 2*Re z integral; elsewhere it is still E(z,3).
    """
    z = _as_z(z, ctx)
    with ctx.working():
        y = mp.im(z)
        val = (y ** 3 + 2835 * const_zeta(5, ctx) / (8 * mp.pi ** 5 * y ** 2)
               - 15 * mp.re(_epstein3_braced(z, ctx)) / (8 * y ** 2))
        return ensure_finite(val)


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
