#!/usr/bin/env python3
"""Integral identities: zeta(5), zeta(7), L_{-4}(4), and a series oracle.

Tanh-sinh quadrature over products of complete elliptic integrals recovers
zeta(5), zeta(7), and L_{-4}(4); the same quadrature engine then reproduces a
harmonic-weighted series from its variation-of-parameters integral
representation at t = 0.3.

Run:  python demos/03_integral_identities.py [digits]
"""

import sys
import time
from fractions import Fraction

import mpmath as mp
from mpmath import mpf

from modzeta import (LinearFactor, PrecisionCtx, WeightSpec, binom3_series,
                     const_zeta, dirichlet_l, lemma_integral,
                     lminus4_4_integral, zeta5_integral, zeta7_integral)


def line(name, got, want, dt, levels):
    print("%-10s %s" % (name, mp.nstr(got, 32)))
    print("%-10s %s" % ("target", mp.nstr(want, 32)))
    print("%-10s %s   (%.2fs, %d refinement levels)\n"
          % ("|diff|", mp.nstr(abs(got - want), 4), dt, levels))


def main() -> None:
    digits = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    ctx = PrecisionCtx(digits)
    with ctx.working():
        for name, quad, want in (
            ("zeta(5)", zeta5_integral, const_zeta(5, ctx)),
            ("zeta(7)", zeta7_integral, const_zeta(7, ctx)),
            ("L_-4(4)", lminus4_4_integral, dirichlet_l(-4, 4, ctx)),
        ):
            t0 = time.perf_counter()
            res = quad(ctx)
            line(name, res.converged_value(), want, time.perf_counter() - t0,
                 res.levels_used)

        t = mpf("0.3")
        w = WeightSpec.combo({"H3_2K": 1, "H3_K": Fraction(-1, 8)})
        t0 = time.perf_counter()
        quad_side = lemma_integral("H3INT1", t, ctx)
        series_side = binom3_series(t * (1 - t) / 16, LinearFactor(0, 1), w, ctx).real
        print("weight-3 integral representation at t = 0.3")
        print("  quadrature %s" % mp.nstr(quad_side, 32))
        print("  series     %s" % mp.nstr(series_side, 32))
        print("  |diff|     %s   (%.2fs)"
              % (mp.nstr(abs(quad_side - series_side), 4),
                 time.perf_counter() - t0))


if __name__ == "__main__":
    main()
