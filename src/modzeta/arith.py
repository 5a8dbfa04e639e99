"""Kronecker symbols, Dirichlet L-values, and Epstein zeta.

L_d(s) is one sum of chi(n) n^-s with chi = (d/.), periodic mod m, where
m = |d| when d = 0, 1 (mod 4) and m = 4|d| when d = 2 (mod 4); for
d = 3 (mod 4), (d/.) has no period and ``dirichlet_l`` refuses it.
``mpcore._l_value`` takes the direct terms n <= N m on integers and adds
one Euler-Maclaurin tail per residue a mod m, so the cost is uniform in the
precision and independent of the sign of d.  ``const_zeta`` is the case
m = 1.

E(z,2) and E(z,3) use the rapidly convergent Lambert / Eichler representations
(real parts taken, see the module notes on epstein3); the brute-force lattice
sum, a deliberately slow low-precision oracle, lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import mpmath as mp
from mpmath import mpc, mpf

from .eichler import eichler6
from .modular import _AT_Q, _as_z, _nome_chains
from .mpcore import (
    DomainError,
    PrecisionCtx,
    _l_value,
    _memoized,
    const_zeta,
    ensure_finite,
)

__all__ = [
    "dirichlet_l",
    "epstein2",
    "epstein3",
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
# Dirichlet L
# ---------------------------------------------------------------------------

@_memoized
def dirichlet_l(d: int, s: int, ctx: PrecisionCtx) -> mpf:
    """L_d(s) = sum_n (d/n) n^-s for a nonzero d = 0, 1 or 2 (mod 4) and an
    integer s >= 2, as one integer Euler-Maclaurin sum over the residues
    mod m (``mpcore._l_value``).

    For d = 3 (mod 4), (d/.) is not periodic ((-1/2) = 1 but (-1/6) = -1),
    so it is no character: such a d raises DomainError.
    """
    d = int(d)
    if int(s) != s or s < 2:
        raise DomainError("dirichlet_l requires an integer s >= 2")
    if d == 0 or d % 4 == 3:
        raise DomainError("dirichlet_l requires a nonzero d = 0, 1 or 2 (mod 4), got %d" % d)
    m = abs(d) if d % 4 in (0, 1) else 4 * abs(d)
    return _l_value(tuple(kronecker(d, a) for a in range(1, m + 1)), int(s), ctx)


# ---------------------------------------------------------------------------
# Epstein zeta E(z, s) for s = 2, 3
# ---------------------------------------------------------------------------

def epstein2(z, ctx: PrecisionCtx) -> mpf:
    """E(z,2) from its Lambert representation, for Im z >= 0.03.

    E(z,2) = y^2 + 45 zeta(3)/(pi^3 y)
             + (90/(pi^3 y)) Re sum q^n/(n^3 (1-q^n))
             + (180/pi^2)    Re sum q^n/(n^2 (1-q^n)^2),    y = Im z.

    The two sums are the weight-4 Eichler chains of orders 0 and 1, read from
    the memoized walk at the nome of z that ``eichler4`` shares; that walk
    raises DomainError below Im z = 0.03.
    """
    z = _as_z(z, ctx)
    chains = _nome_chains(z, _AT_Q, ctx)[1]
    with ctx.working():
        y = mp.im(z)
        lam3, lam2 = _epstein2_lambert(chains, y)
        val = y ** 2 + 45 * const_zeta(3, ctx) / (mp.pi ** 3 * y) + lam3 + lam2
        return ensure_finite(val)


def _epstein2_lambert(chains: dict, y) -> tuple:
    """The two Lambert terms of E(z,2), the part without y^2 and zeta(3), from
    the chains ``chains`` at the nome of z, y = Im z, at the current precision."""
    return (90 * mp.re(chains[4, 0]) / (mp.pi ** 3 * y), 180 * mp.re(chains[4, 1]) / mp.pi ** 2)


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
    Like ``eichler6``, it raises DomainError below Im z = 0.03.
    """
    z = _as_z(z, ctx)
    with ctx.working():
        y = mp.im(z)
        val = (y ** 3 + 2835 * const_zeta(5, ctx) / (8 * mp.pi ** 5 * y ** 2)
               - 15 * mp.re(_epstein3_braced(z, ctx)) / (8 * y ** 2))
        return ensure_finite(val)
