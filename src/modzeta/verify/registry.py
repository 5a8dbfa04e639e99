"""The identity registry: every explicit identity the package can verify.

Each record pairs two independent evaluators.  The sides-independence policy:
a closed-form constant (an L-value, a zeta value, a rational multiple of a
power of pi) appears on exactly one side, and series/modular machinery on the
other; L-values always enter through the Dirichlet-L module, never hard-coded
decimals.  Every record passes at 10^-(digits-5); the conditionally
convergent -1/64 rate family needs no flag, because the series engine sees the
boundary rate and sums it by CVZ acceleration.

The registry is data over the evaluators.  Every record is a row of a
module-level table, (id, suite, description, lhs(p, ctx), rhs(p, ctx)),
crossed with a tuple of points p: the four tabulated points of the
special-value tables (whose cells name their closed form in ``p.forms``
instead of a rhs), seeded or fixed points z, parameters t, or ``_ONCE`` for
single records.  A point's fields fill the %-fields of the id and the
description; ``build_registry`` is one loop binding each point to each row of
its table.  A side names its evaluators as module globals, so they are looked
up when the record is evaluated and a rebound module attribute (a tracer's
wrapper) sees every call; no table holds an evaluator.  The ``theorems-random``
rows are built from ``theorems._IDENTITIES``: each lhs reads the series record
``_series_data`` of its point and each rhs the modular record
``_modular_data``, through ``_theorem``; the table-h2 rate, lin and rhalf
cells read alpha4, R_{-1/2} and the rate from the point's series plan
``_series_plan``, through ``_plan``, and derive none of them again.  Points
and parameters stay strings or builders (``_Z``, ``_mk_z``) until then,
exact at the caller's precision.  The runner evaluates both sides at the
context's working precision; no row sets precision itself.

Random-z suites draw their points from a fixed seed (DEFAULT_SEED) so reports
are reproducible; the coordinates are rounded to short decimals and stored as
strings, making them exact inputs at any precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

import mpmath as mp
from mpmath import mpc, mpf

from ..arith import dirichlet_l, epstein2, epstein3
from ..eichler import eichler4, eichler6
from ..modular import _as_z, alpha4, eisenstein, eisenstein_eta_form, lambda_fn
from ..mpcore import PrecisionCtx, const_catalan, const_zeta
from ..quadrature import (h3mix2_tail_integral, lemma_integral,
                          lminus4_4_integral, zeta5_integral, zeta7_integral)
from ..series import (HypKernel, LinearFactor, W_ONE, WeightSpec, _binom_sums,
                      binom3_series, binom3_sums, ell_k, ell_k_comp, eli,
                      hyp_lambert, inv_binom2_series, legendre_dnu2)
from .theorems import (_IDENTITIES, W_H2_DIFF, W_H2_PLAIN, W_H3_DIFF, W_H3_PLAIN,
                       _h3_epstein, _modular_data, _series_data, _series_plan, _to_mpf,
                       s_r, t_r, u_check)

DEFAULT_SEED = 20250810

SUITES = (
    "ramanujan-classical", "h2-variants", "sun-h2", "h3",
    "table-h2", "table-h3", "eichler-special", "sum-rules",
    "epstein-gz", "lemma-oracles", "sec4", "theorems-random",
)


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    suite: str
    description: str
    lhs: object  # callable ctx -> mpf | mpc
    rhs: object


def _I():
    return mpc(0, 1)


def _zero(p, ctx):
    return mpf(0)


# the named points, exact inputs rebuilt at the caller's precision
_Z = {
    "sqrt3 i/2": lambda: mp.sqrt(3) * _I() / 2,
    "sqrt7 i/2": lambda: mp.sqrt(7) * _I() / 2,
    "1/2 + i/sqrt2": lambda: mpf(1) / 2 + _I() / mp.sqrt(2),
    "1/2 + i": lambda: mpf(1) / 2 + _I(),
    "(1+sqrt3 i)/2": lambda: (1 + mp.sqrt(3) * _I()) / 2,
    "(1+sqrt7 i)/2": lambda: (1 + mp.sqrt(7) * _I()) / 2,
    "sqrt7 i": lambda: mp.sqrt(7) * _I(),
    "i/sqrt2": lambda: _I() / mp.sqrt(2),
    "sqrt2 i": lambda: mp.sqrt(2) * _I(),
    "i": _I,
}


def _mk_z(re: str, im: str):
    return mpf(re) + _I() * mpf(im)


class _Point(NamedTuple):
    """A point a row table is crossed with: its fields fill the %-fields of
    each row's id and description, and the row's sides read it."""

    tag: str                # id suffix
    name: str = ""          # tabulated points: the eichler-special suffix
    z: Callable = None      # () -> z at the caller's precision
    r: Fraction = None      # tabulated: weight-2 coefficient of Q1 - r Q2, S_r and T_r
    rc: Fraction = None     # tabulated: weight-3 coefficient of the T-check
    forms: dict = None      # tabulated: each cell's closed form, ctx -> value
    re: str = ""            # Re z, as the description shows it
    im: str = ""            # Im z, as the description shows it
    t: str = ""             # a real parameter


_ONCE = (_Point(""),)


def _at(tag: str, re: str, im: str, z=None) -> _Point:
    """The point re + im i, built from its strings unless z builds it."""
    return _Point(tag, z=z or partial(_mk_z, re, im), re=re, im=im)


def _record(row, p: _Point) -> IdentityRecord:
    """The record of one table row at the point p."""
    id_, suite, desc, lhs, rhs = row
    fields = p._asdict()
    rhs = p.forms[rhs] if isinstance(rhs, str) else partial(rhs, p)
    return IdentityRecord(id_ % fields, suite, desc % fields, partial(lhs, p), rhs)


def _series(rate: str, terms, ctx):
    """Re sum of coef * S over a row's terms, every S from one walk.

    S is the binom3 sum of C(2k,k)^3 (a k + b) w(k) rate^k for the term
    (coef, (a, b), w), with the rate a fraction string and w given as
    {basis: coefficient}.  A coef is a number, or a ctx -> value callable for
    Sun's bracket constant.
    """
    sums = binom3_sums(_to_mpf(rate),
                       [(LinearFactor(a, b), WeightSpec.combo(w)) for _, (a, b), w in terms],
                       ctx)
    return sum((c(ctx) if callable(c) else c) * s
               for (c, _, _), s in zip(terms, sums)).real


# The rate series: each lhs is one _series walk, each rhs a closed form.
_SERIES = (
    ("rama1", "ramanujan-classical", "sum C(2k,k)^3 (4k+1)/(-64)^k = 2/pi",
     lambda p, ctx: _series("-1/64", [(1, (4, 1), {"ONE": 1})], ctx), lambda p, ctx: 2 / mp.pi),
    ("rama2", "ramanujan-classical", "sum C(2k,k)^3 (6k+1)/256^k = 4/pi",
     lambda p, ctx: _series("1/256", [(1, (6, 1), {"ONE": 1})], ctx), lambda p, ctx: 4 / mp.pi),
    ("rama3", "ramanujan-classical", "sum C(2k,k)^3 (6k+1)/(-512)^k = 2 sqrt(2)/pi",
     lambda p, ctx: _series("-1/512", [(1, (6, 1), {"ONE": 1})], ctx),
     lambda p, ctx: 2 * mp.sqrt(2) / mp.pi),
    ("rama4", "ramanujan-classical", "sum C(2k,k)^3 (42k+5)/4096^k = 16/pi",
     lambda p, ctx: _series("1/4096", [(1, (42, 5), {"ONE": 1})], ctx), lambda p, ctx: 16 / mp.pi),
    ("h2var.-64", "h2-variants", "sum C^3 [H2_{2k}-H2_k/2](4k+1)/(-64)^k = -pi/12",
     lambda p, ctx: _series("-1/64", [(1, (4, 1), {"H2_2K": 1, "H2_K": "-1/2"})], ctx),
     lambda p, ctx: -mp.pi / 12),
    ("h2var.256", "h2-variants", "sum C^3 [H2_{2k}-5H2_k/16](6k+1)/256^k = pi/12",
     lambda p, ctx: _series("1/256", [(1, (6, 1), {"H2_2K": 1, "H2_K": "-5/16"})], ctx),
     lambda p, ctx: mp.pi / 12),
    ("h2var.-512", "h2-variants", "sum C^3 [H2_{2k}-5H2_k/16](6k+1)/(-512)^k = -sqrt(2)pi/48",
     lambda p, ctx: _series("-1/512", [(1, (6, 1), {"H2_2K": 1, "H2_K": "-5/16"})], ctx),
     lambda p, ctx: -mp.sqrt(2) * mp.pi / 48),
    ("h2var.4096", "h2-variants", "sum C^3 [H2_{2k}-25H2_k/92](42k+5)/4096^k = 2pi/69",
     lambda p, ctx: _series("1/4096", [(1, (42, 5), {"H2_2K": 1, "H2_K": "-25/92"})], ctx),
     lambda p, ctx: 2 * mp.pi / 69),
    ("h3.a", "h3", "sum C^3 H3_{2k}(4k+1)/(-64)^k = 15zeta(3)/(4pi) - 2L_{-4}(2)",
     lambda p, ctx: _series("-1/64", [(1, (4, 1), {"H3_2K": 1})], ctx),
     lambda p, ctx: 15 * const_zeta(3, ctx) / (4 * mp.pi) - 2 * dirichlet_l(-4, 2, ctx)),
    ("h3.b", "h3", "rate 256: = 25zeta(3)/(8pi) - L_{-4}(2)",
     lambda p, ctx: _series("1/256", [(1, (6, 1), {"H3_2K": 1, "H3_K": "-7/64"})], ctx),
     lambda p, ctx: 25 * const_zeta(3, ctx) / (8 * mp.pi) - dirichlet_l(-4, 2, ctx)),
    ("h3.c", "h3", "rate -512: = 57zeta(3)/(16 sqrt(2) pi) - L_{-8}(2)",
     lambda p, ctx: _series("-1/512", [(1, (6, 1), {"H3_2K": 1, "H3_K": "-7/64"})], ctx),
     lambda p, ctx: (57 * const_zeta(3, ctx) / (16 * mp.sqrt(2) * mp.pi)
                     - dirichlet_l(-8, 2, ctx))),
    ("h3.d", "h3", "rate 4096: = 555zeta(3)/(77pi) - 32L_{-4}(2)/11",
     lambda p, ctx: _series("1/4096", [(1, (42, 5), {"H3_2K": 1, "H3_K": "-43/352"})], ctx),
     lambda p, ctx: (555 * const_zeta(3, ctx) / (77 * mp.pi)
                     - mpf(32) / 11 * dirichlet_l(-4, 2, ctx))),
    ("sun1", "sun-h2", "sum C^3 [H2_{2k}-H2_k/2 + 2L_{-8}(2)-5pi^2/24]/(-64)^k = 0",
     lambda p, ctx: _series("-1/64", [
         (1, (0, 1), {"H2_2K": 1, "H2_K": "-1/2"}),
         (lambda ctx: 2 * dirichlet_l(-8, 2, ctx) - 5 * mp.pi ** 2 / 24, (0, 1),
          {"ONE": 1})], ctx),
     _zero),
    ("sun2", "sun-h2", "sum C^3 [H2_{2k}-5H2_k/16 + (135L_{-3}(2)-11pi^2)/96]/256^k = 0",
     lambda p, ctx: _series("1/256", [
         (1, (0, 1), {"H2_2K": 1, "H2_K": "-5/16"}),
         (lambda ctx: (135 * dirichlet_l(-3, 2, ctx) - 11 * mp.pi ** 2) / 96, (0, 1),
          {"ONE": 1})], ctx),
     _zero),
    ("sun3", "sun-h2", "sum C^3 [H2_{2k}-5H2_k/16 + (120L_{-4}(2)-11pi^2)/96]/(-512)^k = 0",
     lambda p, ctx: _series("-1/512", [
         (1, (0, 1), {"H2_2K": 1, "H2_K": "-5/16"}),
         (lambda ctx: (120 * dirichlet_l(-4, 2, ctx) - 11 * mp.pi ** 2) / 96, (0, 1),
          {"ONE": 1})], ctx),
     _zero),
    ("sun4", "sun-h2", "sum C^3 [H2_{2k}-25H2_k/92 + (735L_{-7}(2)-86pi^2)/1104]/4096^k = 0",
     lambda p, ctx: _series("1/4096", [
         (1, (0, 1), {"H2_2K": 1, "H2_K": "-25/92"}),
         (lambda ctx: (735 * dirichlet_l(-7, 2, ctx) - 86 * mp.pi ** 2) / 1104, (0, 1),
          {"ONE": 1})], ctx),
     _zero),
    ("h3.e", "h3",
     "sum C^3 [(42k+5)H3_k - 352/(2k+1)^2]/4096^k = (32/7)[335zeta(3)/pi - 224L_{-4}(2)]",
     lambda p, ctx: _series("1/4096", [(1, (42, 5), {"H3_K": 1}),
                                       (-352, (0, 1), {"INVSQ_2K1": 1})], ctx),
     lambda p, ctx: mpf(32) / 7 * (335 * const_zeta(3, ctx) / mp.pi
                                   - 224 * dirichlet_l(-4, 2, ctx))),
    ("h3.weixu", "h3",
     "sum C^3 {(42k+5)[17H3_{2k}-2H3_k] - 27/(2k+1)^2}/4096^k = 240zeta(3)/pi - 128L_{-4}(2)",
     lambda p, ctx: _series("1/4096", [(1, (42, 5), {"H3_2K": 17, "H3_K": -2}),
                                       (-27, (0, 1), {"INVSQ_2K1": 1})], ctx),
     lambda p, ctx: 240 * const_zeta(3, ctx) / mp.pi - 128 * dirichlet_l(-4, 2, ctx)),
)


# The four tabulated points.  ``forms`` holds each closed form of the cells,
# written once: the T_r value ``t`` and the T-check value ``u`` each serve a
# table cell and an eichler-special record.
_POINTS = (
    _Point("r1", "sqrt3", _Z["sqrt3 i/2"], Fraction(1, 16), Fraction(1, 64), dict(
        rate=lambda ctx: mpf(1) / 256,
        lin=lambda ctx: mpf(1),
        rhalf=lambda ctx: mpf(1) / 6,
        ezh=lambda ctx: 135 * dirichlet_l(-3, 2, ctx) / (4 * mp.pi ** 2),
        e2z=lambda ctx: 405 * dirichlet_l(-3, 2, ctx) / (8 * mp.pi ** 2),
        q1q2=lambda ctx: 11 * mp.pi ** 2 / 96 - 45 * dirichlet_l(-3, 2, ctx) / 32,
        s=lambda ctx: 11 * mp.pi ** 2 / 96,
        t=lambda ctx: mp.pi / 36,
        e4z2=lambda ctx: (3105 * dirichlet_l(-3, 2, ctx) / (32 * mp.pi ** 2)
                          + 30 * mp.sqrt(3) * dirichlet_l(-4, 2, ctx) / mp.pi ** 2),
        ediff=lambda ctx: 60 * mp.sqrt(3) * dirichlet_l(-4, 2, ctx) / mp.pi ** 2,
        ezh3=lambda ctx: 105 * const_zeta(3, ctx) / (2 * mp.pi ** 3),
        e2z3=lambda ctx: 1155 * const_zeta(3, ctx) / (8 * mp.pi ** 3),
        u=lambda ctx: 25 * const_zeta(3, ctx) / (24 * mp.pi))),
    _Point("r2", "sqrt7", _Z["sqrt7 i/2"], Fraction(1, 46), Fraction(1, 352), dict(
        rate=lambda ctx: mpf(1) / 4096,
        lin=lambda ctx: mpf(3) / 4,
        rhalf=lambda ctx: mpf(5) / 42,
        ezh=lambda ctx: 105 * dirichlet_l(-7, 2, ctx) / (4 * mp.pi ** 2),
        e2z=lambda ctx: 525 * dirichlet_l(-7, 2, ctx) / (8 * mp.pi ** 2),
        q1q2=lambda ctx: 43 * mp.pi ** 2 / 552 - 245 * dirichlet_l(-7, 2, ctx) / 368,
        s=lambda ctx: 43 * mp.pi ** 2 / 552,
        t=lambda ctx: mp.pi / 966,
        e4z2=lambda ctx: (4305 * dirichlet_l(-7, 2, ctx) / (32 * mp.pi ** 2)
                          + 360 * dirichlet_l(-4, 2, ctx) / (mp.sqrt(7) * mp.pi ** 2)),
        ediff=lambda ctx: 720 * dirichlet_l(-4, 2, ctx) / (mp.sqrt(7) * mp.pi ** 2),
        ezh3=lambda ctx: 540 * const_zeta(3, ctx) / (7 * mp.pi ** 3),
        e2z3=lambda ctx: 3375 * const_zeta(3, ctx) / (7 * mp.pi ** 3),
        u=lambda ctx: 555 * const_zeta(3, ctx) / (2156 * mp.pi))),
    _Point("r3", "sqrt2", _Z["1/2 + i/sqrt2"], Fraction(1, 4), Fraction(1, 8), dict(
        rate=lambda ctx: mpf(-1) / 64,
        lin=lambda ctx: mpf(2),
        rhalf=lambda ctx: mpf(1) / 4,
        ezh=lambda ctx: 30 * dirichlet_l(-8, 2, ctx) / mp.pi ** 2,
        e2z=lambda ctx: 30 * dirichlet_l(-8, 2, ctx) / mp.pi ** 2,
        q1q2=lambda ctx: 5 * mp.pi ** 2 / 24 - 2 * dirichlet_l(-8, 2, ctx),
        s=lambda ctx: 5 * mp.pi ** 2 / 24,
        t=lambda ctx: -mp.pi / 12,
        e4z2=lambda ctx: (105 * dirichlet_l(-8, 2, ctx) / (2 * mp.pi ** 2)
                          + 45 * dirichlet_l(-4, 2, ctx) / (mp.sqrt(2) * mp.pi ** 2)),
        ediff=lambda ctx: 45 * mp.sqrt(2) * dirichlet_l(-4, 2, ctx) / mp.pi ** 2,
        ezh3=lambda ctx: 2835 * const_zeta(3, ctx) / (32 * mp.pi ** 3),
        e2z3=lambda ctx: 2835 * const_zeta(3, ctx) / (32 * mp.pi ** 3),
        u=lambda ctx: 15 * const_zeta(3, ctx) / (4 * mp.pi))),
    _Point("r4", "i", _Z["1/2 + i"], Fraction(1, 16), Fraction(1, 64), dict(
        rate=lambda ctx: mpf(-1) / 512,
        lin=lambda ctx: mpf(3) / (2 * mp.sqrt(2)),
        rhalf=lambda ctx: mpf(1) / 6,
        ezh=lambda ctx: 30 * dirichlet_l(-4, 2, ctx) / mp.pi ** 2,
        e2z=lambda ctx: 105 * dirichlet_l(-4, 2, ctx) / (2 * mp.pi ** 2),
        q1q2=lambda ctx: 11 * mp.pi ** 2 / 96 - 5 * dirichlet_l(-4, 2, ctx) / 4,
        s=lambda ctx: 11 * mp.pi ** 2 / 96,
        t=lambda ctx: -mp.pi / 96,
        e4z2=lambda ctx: (825 * dirichlet_l(-4, 2, ctx) / (8 * mp.pi ** 2)
                          + 45 * mp.sqrt(2) * dirichlet_l(-8, 2, ctx) / mp.pi ** 2),
        ediff=lambda ctx: 90 * mp.sqrt(2) * dirichlet_l(-8, 2, ctx) / mp.pi ** 2,
        ezh3=lambda ctx: 945 * const_zeta(3, ctx) / (16 * mp.pi ** 3),
        e2z3=lambda ctx: 27405 * const_zeta(3, ctx) / (128 * mp.pi ** 3),
        u=lambda ctx: 57 * const_zeta(3, ctx) / (64 * mp.pi))),
)


def _plan(p, ctx):
    """The series plan of the main theorems at p.z(), looked up when called."""
    return _series_plan(_as_z(p.z(), ctx), ctx)


def _rhalf(p, ctx):
    plan = _plan(p, ctx)
    return plan["rhalf"] / (2 * (1 - 2 * plan["a4"]))


def _theorem(series: bool, kind: str, w, p, ctx):
    """The (kind, w) entry of the series record (series true) or of the
    modular record of the main theorems at p.z(), each looked up when called."""
    return (_series_data if series else _modular_data)(_as_z(p.z(), ctx), ctx)[kind][w]


def _q1q2(p, ctx):
    q1, q2 = (_theorem(True, "ratio", w, p, ctx) for w in (W_H2_DIFF, W_H2_PLAIN))
    return (q1 - _to_mpf(p.r) * q2).real


def _tr(p, ctx):
    r1, r2 = (_theorem(True, "linear", w, p, ctx) for w in (W_H2_DIFF, W_H2_PLAIN))
    return (r1 - _to_mpf(p.r) * r2).real


def _ut(p, ctx):
    g1, g2 = (_theorem(True, "linear", w, p, ctx) for w in (W_H3_DIFF, W_H3_PLAIN))
    return (g1 + _to_mpf(p.rc) * (g2 + _h3_epstein(p.z(), ctx))).real


# The records at each tabulated point; a rhs given as a string is the key of
# its closed form in p.forms.
_CELLS = (
    ("th2.%(tag)s.rate", "table-h2", "alpha4(1-alpha4)/16 cell",
     lambda p, ctx: _plan(p, ctx)["x"], "rate"),
    ("th2.%(tag)s.lin", "table-h2", "(1-2 alpha4)/Im z cell",
     lambda p, ctx: (1 - 2 * _plan(p, ctx)["a4"]) / mp.im(p.z()), "lin"),
    ("th2.%(tag)s.rhalf", "table-h2", "R_{-1/2}/(2(1-2 alpha4)) cell", _rhalf, "rhalf"),
    ("th2.%(tag)s.ezh", "table-h2", "E(z+1/2,2) cell",
     lambda p, ctx: epstein2(p.z() + mpf(1) / 2, ctx), "ezh"),
    ("th2.%(tag)s.e2z", "table-h2", "E(2z,2) cell",
     lambda p, ctx: epstein2(2 * p.z(), ctx), "e2z"),
    ("th2.%(tag)s.q1q2", "table-h2", "Q1 - r Q2 cell (series route)", _q1q2, "q1q2"),
    ("th2.%(tag)s.tr", "table-h2", "T_r cell (series route)", _tr, "t"),
    ("th3.%(tag)s.e4z2", "table-h3", "E(4z,2) cell",
     lambda p, ctx: epstein2(4 * p.z(), ctx), "e4z2"),
    ("th3.%(tag)s.ediff", "table-h3", "E(4z,2) - E(z,2) cell",
     lambda p, ctx: epstein2(4 * p.z(), ctx) - epstein2(p.z(), ctx), "ediff"),
    ("th3.%(tag)s.ezh3", "table-h3", "E(z+1/2,3) cell",
     lambda p, ctx: epstein3(p.z() + mpf(1) / 2, ctx), "ezh3"),
    ("th3.%(tag)s.e2z3", "table-h3", "E(2z,3) cell",
     lambda p, ctx: epstein3(2 * p.z(), ctx), "e2z3"),
    ("th3.%(tag)s.ut", "table-h3", "T-check cell (series route)", _ut, "u"),
    ("es.s.%(name)s", "eichler-special",
     "S_%(r)s at the tabulated point is a rational multiple of pi^2",
     lambda p, ctx: s_r(p.z(), p.r, ctx).real, "s"),
    ("es.t.%(name)s", "eichler-special",
     "T_%(r)s at the tabulated point is a rational multiple of pi",
     lambda p, ctx: t_r(p.z(), p.r, ctx).real, "t"),
    ("es.u.%(name)s", "eichler-special",
     "T-check_%(rc)s at the tabulated point is a rational multiple of zeta(3)/pi",
     lambda p, ctx: u_check(p.z(), p.rc, ctx).real, "u"),
    ("gz.comb.%(tag)s", "epstein-gz",
     "E(4z,2)-E(z,2) = E(z+1/2,2) - (9/2)E(2z,2) + 2E(4z,2) at the tabulated z",
     lambda p, ctx: epstein2(4 * p.z(), ctx) - epstein2(p.z(), ctx),
     lambda p, ctx: (epstein2(p.z() + mpf(1) / 2, ctx)
                     - mpf(9) / 2 * epstein2(2 * p.z(), ctx)
                     + 2 * epstein2(4 * p.z(), ctx))),
)


def _eichler(terms, ctx):
    """Sum of coef * E over a row's (coef, point, weight, order) terms.

    E is the order-th derivative of the weight-4 or weight-6 Eichler integral
    at the point of ``_Z`` so named; an irrational coef is a zero-argument
    callable.
    """
    return sum((c() if callable(c) else c)
               * (eichler4 if weight == 4 else eichler6)(_Z[pt](), order, ctx)
               for c, pt, weight, order in terms)


def _fine_form(form, ctx):
    """The closed form ``form(fine)``, with its constants and operations at
    the context ``fine`` of 3 more digits than ctx, rounded once.

    Formed at working precision, each operation rounds, so the form can be
    more than half a unit of 10^-workdps off its value (105 G / (2 pi^2) by
    1.24 units at 100 digits), and cancelling terms multiply that.
    """
    fine = PrecisionCtx(ctx.digits, ctx.guard + 3)
    with fine.working():
        v = form(fine)
    return +v


def _zeta3_form(a, n, c, ctx):
    """a sqrt(n) - c zeta(3) / pi^3, the closed form of an es.p33 row.

    Its two terms cancel up to 1.5 digits (259 - 268 = -8.7 for a sqrt(n) =
    98 sqrt7): formed at working precision, it would be up to 57 units of
    10^-workdps off.
    """
    return _fine_form(lambda f: a * mp.sqrt(n) - c * const_zeta(3, f) / mp.pi ** 3, ctx)


def _h3_ratio_256(p, ctx):
    """sum C^3 [H3_{2k} - 7 H3_k/64]/256^k over sum C^3/256^k, from one walk."""
    w = WeightSpec.combo({"H3_2K": 1, "H3_K": Fraction(-7, 64)})
    num, den = binom3_sums(mpf(1) / 256, [(LinearFactor(0, 1), w),
                                          (LinearFactor(0, 1), W_ONE)], ctx)
    return num / den


# The Eichler special values, and the closing rate-256 H3 ratio.
_EICHLER = (
    ("es.e4.sqrt3", "eichler-special", "E4int((1+sqrt3 i)/2) = 2i/sqrt3 + 30 zeta(3)/(pi^3 i)",
     lambda p, ctx: _eichler([(1, "(1+sqrt3 i)/2", 4, 0)], ctx),
     lambda p, ctx: 2 * _I() / mp.sqrt(3) + 30 * const_zeta(3, ctx) / (mp.pi ** 3 * _I())),
    ("es.e4.sqrt7", "eichler-special",
     "12 E4int((1+sqrt7 i)/2) - E4int(sqrt7 i) = 29 sqrt7 i/6 + 330 zeta(3)/(pi^3 i)",
     lambda p, ctx: _eichler([(12, "(1+sqrt7 i)/2", 4, 0), (-1, "sqrt7 i", 4, 0)], ctx),
     lambda p, ctx: (29 * mp.sqrt(7) * _I() / 6
                     + 330 * const_zeta(3, ctx) / (mp.pi ** 3 * _I()))),
    ("es.e4.sqrt2", "eichler-special",
     "2 E4int(i/sqrt2) + E4int(sqrt2 i) = 5i/sqrt2 + 90 zeta(3)/(pi^3 i)",
     lambda p, ctx: _eichler([(2, "i/sqrt2", 4, 0), (1, "sqrt2 i", 4, 0)], ctx),
     lambda p, ctx: 5 * _I() / mp.sqrt(2) + 90 * const_zeta(3, ctx) / (mp.pi ** 3 * _I())),
    ("es.e4.i", "eichler-special", "E4int(i) = 7i/6 + 30 zeta(3)/(pi^3 i)",
     lambda p, ctx: _eichler([(1, "i", 4, 0)], ctx),
     lambda p, ctx: 7 * _I() / 6 + 30 * const_zeta(3, ctx) / (mp.pi ** 3 * _I())),
    ("es.e4pp.sqrt3", "eichler-special",
     "E4int''((1+sqrt3 i)/2) = -15 sqrt3 L_{-3}(2)/(pi^2 i) - sqrt3 i",
     lambda p, ctx: _eichler([(1, "(1+sqrt3 i)/2", 4, 2)], ctx),
     lambda p, ctx: (-15 * mp.sqrt(3) * dirichlet_l(-3, 2, ctx) / (mp.pi ** 2 * _I())
                     - mp.sqrt(3) * _I())),
    ("es.e4pp.sqrt7", "eichler-special",
     "3 E4int''((1+sqrt7 i)/2) - E4int''(sqrt7 i) = -35 sqrt7 L_{-7}(2)/(4pi^2 i) - sqrt7 i",
     lambda p, ctx: _eichler([(3, "(1+sqrt7 i)/2", 4, 2), (-1, "sqrt7 i", 4, 2)], ctx),
     lambda p, ctx: (-35 * mp.sqrt(7) * dirichlet_l(-7, 2, ctx) / (4 * mp.pi ** 2 * _I())
                     - mp.sqrt(7) * _I())),
    ("es.e4pp.sqrt2", "eichler-special",
     "E4int''(i/sqrt2) + 2 E4int''(sqrt2 i) = -40 sqrt2 L_{-8}(2)/(pi^2 i) - 5 sqrt2 i",
     lambda p, ctx: _eichler([(1, "i/sqrt2", 4, 2), (2, "sqrt2 i", 4, 2)], ctx),
     lambda p, ctx: (-40 * mp.sqrt(2) * dirichlet_l(-8, 2, ctx) / (mp.pi ** 2 * _I())
                     - 5 * mp.sqrt(2) * _I())),
    ("es.e4pp.i", "eichler-special", "E4int''(i) = -20 L_{-4}(2)/(pi^2 i) - 2i",
     lambda p, ctx: _eichler([(1, "i", 4, 2)], ctx),
     lambda p, ctx: -20 * dirichlet_l(-4, 2, ctx) / (mp.pi ** 2 * _I()) - 2 * _I()),
    # weight-6 Eichler data at (1+sqrt3 i)/2 and the Prop-3.3 combinations
    ("es.e6.sqrt3.0", "eichler-special",
     "E6int((1+sqrt3 i)/2) = 189 zeta(5)/(pi^5 i) + 11 sqrt3 i/30",
     lambda p, ctx: _eichler([(1, "(1+sqrt3 i)/2", 6, 0)], ctx),
     lambda p, ctx: (189 * const_zeta(5, ctx) / (mp.pi ** 5 * _I())
                     + 11 * mp.sqrt(3) * _I() / 30)),
    ("es.e6.sqrt3.1", "eichler-special", "E6int'((1+sqrt3 i)/2) = 1/30",
     lambda p, ctx: _eichler([(1, "(1+sqrt3 i)/2", 6, 1)], ctx), lambda p, ctx: mpf(1) / 30),
    ("es.e6.sqrt3.2", "eichler-special",
     "E6int''((1+sqrt3 i)/2) = 84 zeta(3)/(pi^3 i) + 2 sqrt3 i",
     lambda p, ctx: _eichler([(1, "(1+sqrt3 i)/2", 6, 2)], ctx),
     lambda p, ctx: 84 * const_zeta(3, ctx) / (mp.pi ** 3 * _I()) + 2 * mp.sqrt(3) * _I()),
    ("es.e6.sqrt3.3", "eichler-special", "E6int'''((1+sqrt3 i)/2) = 10 - 168 sqrt3 zeta(3)/pi^3",
     lambda p, ctx: _eichler([(1, "(1+sqrt3 i)/2", 6, 3)], ctx),
     lambda p, ctx: 10 - 168 * mp.sqrt(3) * const_zeta(3, ctx) / mp.pi ** 3),
    ("es.e6.i.b", "eichler-special", "2i E6int(i) + E6int'(i) = 378 zeta(5)/pi^5 - 13/10",
     lambda p, ctx: _eichler([(2j, "i", 6, 0), (1, "i", 6, 1)], ctx),
     lambda p, ctx: 378 * const_zeta(5, ctx) / mp.pi ** 5 - mpf(13) / 10),
    ("es.p33.sqrt3", "eichler-special",
     "i E6int''((1+sqrt3 i)/2) + (sqrt3/2) E6int'''(same) = 3 sqrt3 - 168 zeta(3)/pi^3",
     lambda p, ctx: _eichler([(1j, "(1+sqrt3 i)/2", 6, 2),
                              (lambda: mp.sqrt(3) / 2, "(1+sqrt3 i)/2", 6, 3)], ctx),
     lambda p, ctx: _zeta3_form(3, 3, 168, ctx)),
    ("es.p33.sqrt7", "eichler-special",
     "2i[39 E6''((1+sqrt7 i)/2) - 4 E6''(sqrt7 i)] + sqrt7[39 E6'''(...) - 8 E6'''(...)] "
     "= 98 sqrt7 - 6912 zeta(3)/pi^3",
     lambda p, ctx: _eichler([(78j, "(1+sqrt7 i)/2", 6, 2), (-8j, "sqrt7 i", 6, 2),
                              (lambda: 39 * mp.sqrt(7), "(1+sqrt7 i)/2", 6, 3),
                              (lambda: -8 * mp.sqrt(7), "sqrt7 i", 6, 3)], ctx),
     lambda p, ctx: _zeta3_form(98, 7, 6912, ctx)),
    ("es.p33.sqrt2", "eichler-special",
     "i E6''(i/sqrt2) + i E6''(sqrt2 i) + E6'''(i/sqrt2)/sqrt2 + sqrt2 E6'''(sqrt2 i) "
     "= 18 sqrt2 - 567 zeta(3)/pi^3",
     lambda p, ctx: _eichler([(1j, "i/sqrt2", 6, 2), (1j, "sqrt2 i", 6, 2),
                              (lambda: 1 / mp.sqrt(2), "i/sqrt2", 6, 3),
                              (lambda: mp.sqrt(2), "sqrt2 i", 6, 3)], ctx),
     lambda p, ctx: _zeta3_form(18, 2, 567, ctx)),
    ("es.p33.i", "eichler-special", "i E6int''(i) + E6int'''(i) = 8 - 189 zeta(3)/pi^3",
     lambda p, ctx: _eichler([(1j, "i", 6, 2), (1, "i", 6, 3)], ctx),
     lambda p, ctx: _zeta3_form(8, 1, 189, ctx)),
    # E4int at sqrt3 i/2 and at 2 sqrt3 i (= 4z for the row's z)
    ("es.h3ratio.256", "eichler-special",
     "rate-256 H3 ratio = pi^3/(32 sqrt3) - 7 zeta(3)/16 - pi^3 i[4 E4int(sqrt3 i/2) - E4int(2 sqrt3 i)]/960",
     _h3_ratio_256,
     lambda p, ctx: (mp.pi ** 3 / (32 * mp.sqrt(3)) - 7 * const_zeta(3, ctx) / 16
                     - mp.pi ** 3 * _I() * (4 * eichler4(_Z["sqrt3 i/2"](), 0, ctx)
                                            - eichler4(4 * _Z["sqrt3 i/2"](), 0, ctx)) / 960)),
)


def _seeded_points(seed: int, count: int) -> list:
    """count points z0, z1, ...: Re z is 0, 1/2 or uniform in [-0.45, 0.45],
    Im z uniform in [0.55, 1.5], both rounded to 4 decimals."""
    rng = random.Random(seed)
    pts = []
    for i in range(count):
        mode = rng.randrange(3)
        re = round(rng.uniform(-0.45, 0.45), 4) if mode == 2 else mode / 2
        im = round(rng.uniform(0.55, 1.5), 4)
        pts.append(_at("z%d" % i, str(re), str(im)))
    return pts


def _four_term(f, coeffs, p):
    """c1 f(z+1/2) + c2 f(z) + c3 f(2z) + c4 f(4z): the shape of a sum rule."""
    c1, c2, c3, c4 = coeffs
    z = p.z()
    return c1 * f(z + mpf(1) / 2) + c2 * f(z) + c3 * f(2 * z) + c4 * f(4 * z)


# The sum rules at each seeded point.
_SUM_RULES = (
    ("sr.sumE4.%(tag)s", "sum-rules", "E4(z+1/2)+E4(z)-18E4(2z)+16E4(4z) = 0 at z=%(re)s+%(im)si",
     lambda p, ctx: _four_term(lambda w: eisenstein(w, 4, ctx), (1, 1, -18, 16), p),
     _zero),
    ("sr.sumE6.%(tag)s", "sum-rules", "E6(z+1/2)+E6(z)-66E6(2z)+64E6(4z) = 0 at z=%(re)s+%(im)si",
     lambda p, ctx: _four_term(lambda w: eisenstein(w, 6, ctx), (1, 1, -66, 64), p),
     _zero),
    ("sr.sumEich4.%(tag)s", "sum-rules", "4E4int(z+1/2)+4E4int(z)-9E4int(2z)+E4int(4z) = 0",
     lambda p, ctx: _four_term(lambda w: eichler4(w, 0, ctx), (4, 4, -9, 1), p),
     _zero),
    ("sr.sumEich6.%(tag)s", "sum-rules", "16E6int(z+1/2)+16E6int(z)-33E6int(2z)+E6int(4z) = 0",
     lambda p, ctx: _four_term(lambda w: eichler6(w, 0, ctx), (16, 16, -33, 1), p),
     _zero),
    ("sr.sumEich4pp.%(tag)s", "sum-rules",
     "E4int''(z+1/2)+E4int''(z)-9E4int''(2z)+4E4int''(4z) = 0",
     lambda p, ctx: _four_term(lambda w: eichler4(w, 2, ctx), (1, 1, -9, 4), p),
     _zero),
    ("sr.ez2add.%(tag)s", "sum-rules", "2E(z+1/2,2)+2E(z,2)-9E(2z,2)+2E(4z,2) = 0",
     lambda p, ctx: _four_term(lambda w: epstein2(w, ctx), (2, 2, -9, 2), p),
     _zero),
    ("sr.ez3add.%(tag)s", "sum-rules", "4E(z+1/2,3)+4E(z,3)-33E(2z,3)+4E(4z,3) = 0",
     lambda p, ctx: _four_term(lambda w: epstein3(w, ctx), (4, 4, -33, 4), p),
     _zero),
    ("sr.refl4.%(tag)s", "sum-rules",
     "E4int(z) - z^2 E4int(-1/z) = -(z^4-5z^2+1)/(3z) - 30 zeta(3)(z^2-1)/(pi^3 i)",
     lambda p, ctx: (eichler4(p.z(), 0, ctx)
                     - p.z() ** 2 * eichler4(-1 / p.z(), 0, ctx)),
     lambda p, ctx: (-(p.z() ** 4 - 5 * p.z() ** 2 + 1) / (3 * p.z())
                     - 30 * const_zeta(3, ctx) * (p.z() ** 2 - 1)
                     / (mp.pi ** 3 * _I()))),
    ("sr.refl6.%(tag)s", "sum-rules",
     "E6int(z) - z^4 E6int(-1/z) = -(z^2+1)(2z^4-9z^2+2)/(10z) - 189 zeta(5)(z^4-1)/(pi^5 i)",
     lambda p, ctx: (eichler6(p.z(), 0, ctx)
                     - p.z() ** 4 * eichler6(-1 / p.z(), 0, ctx)),
     lambda p, ctx: (-(p.z() ** 2 + 1) * (2 * p.z() ** 4 - 9 * p.z() ** 2 + 2)
                     / (10 * p.z())
                     - 189 * const_zeta(5, ctx) * (p.z() ** 4 - 1)
                     / (mp.pi ** 5 * _I()))),
    ("sr.refl4pp.%(tag)s", "sum-rules",
     "differentiated reflection: E4''(z) - E4''(-1/z)/z^2 - 2E4(-1/z) - 2E4'(-1/z)/z "
     "= -2/(3z^3) - 2z - 60 zeta(3)/(pi^3 i)",
     lambda p, ctx: (eichler4(p.z(), 2, ctx)
                     - eichler4(-1 / p.z(), 2, ctx) / p.z() ** 2
                     - 2 * eichler4(-1 / p.z(), 0, ctx)
                     - 2 * eichler4(-1 / p.z(), 1, ctx) / p.z()),
     lambda p, ctx: (-2 / (3 * p.z() ** 3) - 2 * p.z()
                     - 60 * const_zeta(3, ctx) / (mp.pi ** 3 * _I()))),
    ("sr.lam.%(tag)s", "sum-rules", "alpha4(z) + alpha4(-1/(4z)) = 1",
     lambda p, ctx: alpha4(p.z(), ctx) + alpha4(-1 / (4 * p.z()), ctx),
     lambda p, ctx: mpf(1)),
    ("sr.inv2.%(tag)s", "sum-rules", "E(z,2) = E(-1/z,2)",
     lambda p, ctx: epstein2(p.z(), ctx), lambda p, ctx: epstein2(-1 / p.z(), ctx)),
    ("sr.inv3.%(tag)s", "sum-rules", "E(z,3) = E(-1/z,3)",
     lambda p, ctx: epstein3(p.z(), ctx), lambda p, ctx: epstein3(-1 / p.z(), ctx)),
    ("sr.zk.%(tag)s", "sum-rules", "z = i K(sqrt(1-lambda(z)))/K(sqrt(lambda(z)))",
     lambda p, ctx: p.z(),
     lambda p, ctx: (_I() * ell_k(1 - lambda_fn(p.z(), ctx), ctx)
                     / ell_k(lambda_fn(p.z(), ctx), ctx))),
    ("sr.e2per.%(tag)s", "sum-rules", "E2(z+1) = E2(z) (completed weight-2 series)",
     lambda p, ctx: eisenstein(p.z() + 1, 2, ctx), lambda p, ctx: eisenstein(p.z(), 2, ctx)),
    ("sr.ezflr.%(tag)s", "sum-rules",
     "[4E(z,2)-E(2z,2)]/60 = 21 zeta(3)/(8 pi^3 y) + odd Lambert sums",
     lambda p, ctx: (4 * epstein2(p.z(), ctx) - epstein2(2 * p.z(), ctx)) / 60,
     lambda p, ctx: (21 * const_zeta(3, ctx) / (8 * mp.pi ** 3 * mp.im(p.z()))
                     + 6 / (mp.pi ** 3 * mp.im(p.z()))
                     * mp.re(hyp_lambert(2 * p.z(), HypKernel("EXPM1", "ODD", 3), ctx))
                     + 3 / mp.pi ** 2
                     * mp.re(hyp_lambert(p.z(), HypKernel("SINH_SQ", "ODD", 2), ctx)))),
)


def _rama_eis(wgt, form, p, ctx):
    """(2K(alpha4)/pi)^wgt form(alpha4) at z = p.z(): Ramanujan's E_wgt."""
    a = alpha4(p.z(), ctx)
    return (2 * ell_k(a, ctx) / mp.pi) ** wgt * form(a)


# Ramanujan's Eisenstein parametrizations at the first seeded point; the 4z
# row of E6 carries a minus on the alpha^2/32 term (verified by an
# exact-rational fit of E6(4z)/P^6 and by the weight-6 sum rule).
_RAMA_EIS = (
    ("sr.rama-eis.E4.1z", "sum-rules", "E4(1z) Ramanujan parametrization in alpha4 and K",
     lambda p, ctx: eisenstein(1 * p.z(), 4, ctx),
     lambda p, ctx: _rama_eis(4, lambda a: 1 + 14 * a + a ** 2, p, ctx)),
    ("sr.rama-eis.E4.2z", "sum-rules", "E4(2z) Ramanujan parametrization in alpha4 and K",
     lambda p, ctx: eisenstein(2 * p.z(), 4, ctx),
     lambda p, ctx: _rama_eis(4, lambda a: 1 - a + a ** 2, p, ctx)),
    ("sr.rama-eis.E4.4z", "sum-rules", "E4(4z) Ramanujan parametrization in alpha4 and K",
     lambda p, ctx: eisenstein(4 * p.z(), 4, ctx),
     lambda p, ctx: _rama_eis(4, lambda a: 1 - a + a ** 2 / 16, p, ctx)),
    ("sr.rama-eis.E6.1z", "sum-rules", "E6(1z) Ramanujan parametrization in alpha4 and K",
     lambda p, ctx: eisenstein(1 * p.z(), 6, ctx),
     lambda p, ctx: _rama_eis(6, lambda a: (1 + a) * (1 - 34 * a + a ** 2), p, ctx)),
    ("sr.rama-eis.E6.2z", "sum-rules", "E6(2z) Ramanujan parametrization in alpha4 and K",
     lambda p, ctx: eisenstein(2 * p.z(), 6, ctx),
     lambda p, ctx: _rama_eis(6, lambda a: (1 + a) * (1 - a / 2) * (1 - 2 * a), p, ctx)),
    ("sr.rama-eis.E6.4z", "sum-rules", "E6(4z) Ramanujan parametrization in alpha4 and K",
     lambda p, ctx: eisenstein(4 * p.z(), 6, ctx),
     lambda p, ctx: _rama_eis(6, lambda a: (1 - a / 2) * (1 - a - a ** 2 / 32), p, ctx)),
)

# The eta-quotient and Lambert forms of E4 and E6 at the second seeded point.
_ETA_FORMS = (
    ("sr.e4etaform", "sum-rules", "E4 eta-quotient form equals its Lambert form",
     lambda p, ctx: eisenstein_eta_form(p.z(), 4, ctx), lambda p, ctx: eisenstein(p.z(), 4, ctx)),
    ("sr.e6etaform", "sum-rules", "E6 eta-quotient form equals its Lambert form",
     lambda p, ctx: eisenstein_eta_form(p.z(), 6, ctx), lambda p, ctx: eisenstein(p.z(), 6, ctx)),
)


def _gz_sqrt7(s, ctx):
    """E(sqrt7 i, s) as a Glasser-Zucker product of zeta and L-values."""
    zs = const_zeta(2 * s, ctx)
    return (mp.sqrt(7) ** s / zs
            * (1 - mpf(1) / 2 ** (s - 1) + mpf(1) / 2 ** (2 * s - 1))
            * const_zeta(s, ctx) * dirichlet_l(-7, s, ctx))


def _gz_2sqrt7(s, ctx):
    """E(2 sqrt7 i, s) as a Glasser-Zucker product of zeta and L-values."""
    zs = const_zeta(2 * s, ctx)
    bracket = (1 - mpf(1) / 2 ** (s - 1) + mpf(3) / 2 ** (2 * s)
               - mpf(1) / 2 ** (3 * s - 2) + mpf(1) / 2 ** (4 * s - 2))
    return ((2 * mp.sqrt(7)) ** s / (2 * zs)
            * (bracket * const_zeta(s, ctx) * dirichlet_l(-7, s, ctx)
               + dirichlet_l(-4, s, ctx) * dirichlet_l(28, s, ctx)))


_GZ = (
    ("gz.sqrt7.s2", "epstein-gz", "E(sqrt7 i, 2) Glasser-Zucker product",
     lambda p, ctx: epstein2(mp.sqrt(7) * _I(), ctx), lambda p, ctx: _gz_sqrt7(2, ctx)),
    ("gz.sqrt7.s3", "epstein-gz", "E(sqrt7 i, 3) Glasser-Zucker product",
     lambda p, ctx: epstein3(mp.sqrt(7) * _I(), ctx), lambda p, ctx: _gz_sqrt7(3, ctx)),
    ("gz.2sqrt7.s2", "epstein-gz", "E(2 sqrt7 i, 2) Glasser-Zucker product",
     lambda p, ctx: epstein2(2 * mp.sqrt(7) * _I(), ctx), lambda p, ctx: _gz_2sqrt7(2, ctx)),
    ("gz.2sqrt7.s3", "epstein-gz", "E(2 sqrt7 i, 3) Glasser-Zucker product",
     lambda p, ctx: epstein3(2 * mp.sqrt(7) * _I(), ctx), lambda p, ctx: _gz_2sqrt7(3, ctx)),
    ("gz.i.s2", "epstein-gz", "E(i,2) = 30 G / pi^2",
     lambda p, ctx: epstein2(_I(), ctx),
     lambda p, ctx: _fine_form(lambda f: 30 * const_catalan(f) / mp.pi ** 2, ctx)),
    ("gz.ihalf.s2", "epstein-gz", "E(i/2,2) = 105 G / (2 pi^2)",
     lambda p, ctx: epstein2(_I() / 2, ctx),
     lambda p, ctx: _fine_form(lambda f: 105 * const_catalan(f) / (2 * mp.pi ** 2), ctx)),
    ("gz.2i.s2", "epstein-gz", "E(2i,2) = E(i/2,2)",
     lambda p, ctx: epstein2(2 * _I(), ctx), lambda p, ctx: epstein2(_I() / 2, ctx)),
)

_W_MIX1 = WeightSpec.combo({"H3_2K": 1, "H3_K": Fraction(-1, 8),
                            "H2_2K_TIMES_DH1": Fraction(-3, 2),
                            "H2_K_TIMES_DH1": Fraction(3, 8)})


def _t_series(w, p, ctx):
    """sum C(2k,k)^3 w(k) (t(1-t)/16)^k at the parameter t of p."""
    t = mpf(p.t)
    return binom3_series(t * (1 - t) / 16, LinearFactor(0, 1), w, ctx)


def _mix1_rhs(p, ctx):
    """The closed form of lem.h3mix1, formed at 3 more digits (``_fine_form``):
    at working precision its terms lost up to 20 units of 10^-workdps."""
    return _fine_form(lambda f: _mix1_form(mpf(p.t), f), ctx)


def _mix1_form(t, ctx):
    zt3 = const_zeta(3, ctx)
    pk = 2 * ell_k(t, ctx) / mp.pi
    pb = 2 * ell_k_comp(t, ctx) / mp.pi
    d = legendre_dnu2(t, ctx)
    db = legendre_dnu2(1 - t, ctx)
    return (28 * zt3 * pk ** 2 - mp.pi * pb * d - mp.pi * pk * db
            - pk * (mp.pi ** 3 * pb + 2 * d * mp.log(t * (1 - t) / 16)))


# The integral representations and the mixed-weight identity at each t.
_LEMMA = (
    ("lem.nu2.%(tag)s", "lemma-oracles", "NU2 integral representation vs series at t=%(t)s",
     lambda p, ctx: lemma_integral("NU2", mpf(p.t), ctx),
     lambda p, ctx: _t_series(W_H2_DIFF, p, ctx)),
    ("lem.eps2.%(tag)s", "lemma-oracles", "EPS2 integral representation vs series at t=%(t)s",
     lambda p, ctx: lemma_integral("EPS2", mpf(p.t), ctx),
     lambda p, ctx: _t_series(W_H2_PLAIN, p, ctx)),
    ("lem.h3int1.%(tag)s", "lemma-oracles", "H3INT1 integral representation vs series at t=%(t)s",
     lambda p, ctx: lemma_integral("H3INT1", mpf(p.t), ctx),
     lambda p, ctx: _t_series(W_H3_DIFF, p, ctx)),
    ("lem.h3int2.%(tag)s", "lemma-oracles", "H3INT2 integral representation vs series at t=%(t)s",
     lambda p, ctx: lemma_integral("H3INT2", mpf(p.t), ctx),
     lambda p, ctx: _t_series(W_H3_PLAIN, p, ctx)),
    ("lem.h3mix1.%(tag)s", "lemma-oracles",
     "mixed-weight identity (H3 with H2*(H_{2k}-H_k)) at t=%(t)s",
     lambda p, ctx: 32 * _t_series(_W_MIX1, p, ctx), _mix1_rhs),
)
_LEMMA_T = (_Point("t01", t="0.1"), _Point("t03", t="0.3"))


def _mix2_lhs(p, ctx):
    t = mpc("0.3", "0.05")
    return 4 * binom3_series(t * (1 - t) / 16, LinearFactor(0, 1),
                             WeightSpec.combo({"H3MIX": 1}), ctx)


def _mix2_rhs(p, ctx):
    t = mpc("0.3", "0.05")
    zt3 = const_zeta(3, ctx)
    big_t = 1 / (4 * t * (1 - t))
    sig = _I() * mp.sign(mp.im(big_t))
    sq_mt = mp.sqrt(-big_t)
    sq_1t = mp.sqrt(1 - big_t)
    pp = 2 * ell_k((1 - sq_1t) / 2, ctx) / mp.pi
    pm = 2 * ell_k((1 + sq_1t) / 2, ctx) / mp.pi
    dp = legendre_dnu2((1 - sq_1t) / 2, ctx)
    dm = legendre_dnu2((1 + sq_1t) / 2, ctx)
    lg = mp.log(-64 * big_t)
    return (h3mix2_tail_integral(t, ctx)
            + sq_mt * pp * pm / 3 * (mp.pi ** 3 - sig * (mp.pi ** 2 * lg - 12 * zt3))
            + 2 * sq_mt / 3 * (pp ** 2 - pm ** 2) * (mp.pi ** 2 * lg - 3 * zt3)
            - 2 * mp.pi ** 3 * sq_mt / 3 * sig * pp ** 2
            + sq_mt * (pp * (mp.pi - sig * lg) - pm * lg) * dm
            + sq_mt * (pm * (mp.pi - sig * lg) + pp * (lg + 2 * mp.pi * sig)) * dp)


_H3MIX2 = (
    ("lem.h3mix2", "lemma-oracles", "complex-rate mixed-weight identity at t=0.3+0.05i",
     _mix2_lhs, _mix2_rhs),
)


def _sq_ratio(w, p, ctx):
    """sum C(2k,k)^2 w(k) (alpha4/16)^k over the same sum with w = 1, at p.z(),
    from one walk."""
    one = LinearFactor(0, 1)
    num, den = _binom_sums(alpha4(p.z(), ctx) / 16, 2, [(one, w), (one, W_ONE)], ctx)
    return num / den


# The squared-binomial analogues and their Eichler bridges at each sec4 point.
_SEC4 = (
    ("s4.lr1sqr.%(tag)s", "sec4", "squared-binomial ratio (H2 diff) = odd cosh^-2 Lambert sum",
     lambda p, ctx: _sq_ratio(W_H2_DIFF, p, ctx),
     lambda p, ctx: hyp_lambert(p.z(), HypKernel("COSH_SQ", "ODD", 2), ctx)),
    ("s4.lr2sqr.%(tag)s", "sec4",
     "squared-binomial ratio (H2 plain) = cosh^-1/cosh^-2 Lambert sums",
     lambda p, ctx: _sq_ratio(W_H2_PLAIN, p, ctx),
     lambda p, ctx: (2 * hyp_lambert(p.z(), HypKernel("COSH_1", "ALL", 2), ctx)
                     - hyp_lambert(p.z(), HypKernel("COSH_SQ", "ALL", 2), ctx))),
    ("s4.e4dp.odd.%(tag)s", "sec4", "odd cosh^-2 sum = pi^2[4 E4int'(z+1/2) - E4int'(2z)]/120",
     lambda p, ctx: hyp_lambert(p.z(), HypKernel("COSH_SQ", "ODD", 2), ctx),
     lambda p, ctx: (mp.pi ** 2 * (4 * eichler4(p.z() + mpf(1) / 2, 1, ctx)
                                   - eichler4(2 * p.z(), 1, ctx)) / 120)),
    ("s4.e4dp.all.%(tag)s", "sec4", "cosh^-2 sum = pi^2[4 E4int'(4z) - E4int'(2z)]/30",
     lambda p, ctx: hyp_lambert(p.z(), HypKernel("COSH_SQ", "ALL", 2), ctx),
     lambda p, ctx: (mp.pi ** 2 * (4 * eichler4(4 * p.z(), 1, ctx)
                                   - eichler4(2 * p.z(), 1, ctx)) / 30)),
)
_SEC4_Z = (_at("z0", "0", "0.8"), _at("z1", "0", "1.1"), _at("z2", "0.5", "0.9"))


def _invsqr_rhs(p, ctx):
    t = mpf(p.t)
    kt = ell_k(t, ctx)
    zq = _I() * ell_k_comp(t, ctx) / (2 * kt)
    return (32 * mp.sqrt(t) * kt / mp.pi
            * hyp_lambert(zq, HypKernel("HALF_ODD_COSH", "ODD", 2), ctx).real)


_INVSQR = (
    ("s4.invsqr.%(tag)s", "sec4", "inverse-square binomial sum vs half-odd nome sum at t=%(t)s",
     lambda p, ctx: inv_binom2_series(mpf(p.t), ctx), _invsqr_rhs),
)
_INVSQR_T = (_Point("t025", t="0.25"), _Point("t05", t="0.5"), _Point("t009", t="0.09"))


def _rn_rhs(p, ctx):
    z = mpc(0, p.im)
    g = const_catalan(ctx)
    inner = hyp_lambert(-1 / (2 * z), HypKernel("EXPM1_ALT", "ODD", 2), ctx)
    return (mp.pi ** 2 * (1 - 6 * z ** 2) / 6 - 8 * z * g / _I()
            - 16 * z / _I() * inner).real


def _rnp_rhs(p, ctx):
    q = mp.exp(-mp.pi * mpf(p.im))
    return ((8 * eli(0, 2, 1, _I(), q, ctx)
             + 2 * eli(0, 2, 1, 1, q ** 2, ctx)
             - eli(0, 2, 1, 1, q ** 4, ctx)) / (8 * _I()))


# Ramanujan's notebook sums on the imaginary axis, z = i Im z.
_RN = (
    ("s4.rn2p277.%(tag)s", "sec4", "notebook cosh^-1 sum identity at z=%(im)si",
     lambda p, ctx: hyp_lambert(mpc(0, p.im), HypKernel("COSH_1", "ALL", 2), ctx).real,
     _rn_rhs),
)
_RN_Y = (_Point("y06", im="0.6"), _Point("y10", im="1.0"), _Point("y14", im="1.4"))
_RNP = (
    ("s4.rn2p277p.%(tag)s", "sec4",
     "alternating odd Lambert sum as elliptic polylogarithms, q=e^-%(im)spi",
     lambda p, ctx: hyp_lambert(mpc(0, p.im), HypKernel("EXPM1_ALT", "ODD", 2), ctx),
     _rnp_rhs),
)
_RNP_Y = (_Point("epi", im="1.0"), _Point("e2pi", im="2.0"), _Point("epihalf", im="0.5"))

_SEC4_INTEGRALS = (
    ("s4.zeta5int", "sec4", "zeta(5) from the K^4 integral",
     lambda p, ctx: zeta5_integral(ctx).converged_value(), lambda p, ctx: const_zeta(5, ctx)),
    ("s4.zeta7int", "sec4", "zeta(7) from the K^6 integral",
     lambda p, ctx: zeta7_integral(ctx).converged_value(), lambda p, ctx: const_zeta(7, ctx)),
    ("s4.lm44int", "sec4", "L_{-4}(4) from the K^6 ratio integral",
     lambda p, ctx: lminus4_4_integral(ctx).converged_value(),
     lambda p, ctx: dirichlet_l(-4, 4, ctx)),
)

# The two identities of each main theorem at non-special points: each lhs reads
# the series record and each rhs the modular record.
_THEOREMS = tuple(("thm.%s.%%(tag)s" % stem, "theorems-random", desc + " at z = %(re)s + %(im)s i",
                   partial(_theorem, True, kind, w), partial(_theorem, False, kind, w))
                  for _, _, _, stem, desc, kind, w in _IDENTITIES)
_THM_Z = (_at("0_105", "0", "1.05"), _at("0_13", "0", "1.3"), _at("0_20", "0", "2.0"),
          _at("05_075", "0.5", "0.75"),
          _at("05_1sqrt2", "0.5", "1/sqrt2", _Z["1/2 + i/sqrt2"]), _at("05_14", "0.5", "1.4"))


def build_registry(seed: int = DEFAULT_SEED) -> list:
    """Every record: each row table crossed with its points, in table order."""
    z = _seeded_points(seed, 3)
    return [_record(row, p) for rows, points in (
        (_SERIES, _ONCE), (_CELLS, _POINTS), (_EICHLER, _ONCE), (_SUM_RULES, z),
        (_RAMA_EIS, z[:1]), (_ETA_FORMS, z[1:2]), (_GZ, _ONCE), (_LEMMA, _LEMMA_T),
        (_H3MIX2, _ONCE), (_SEC4, _SEC4_Z), (_INVSQR, _INVSQR_T), (_RN, _RN_Y),
        (_RNP, _RNP_Y), (_SEC4_INTEGRALS, _ONCE), (_THEOREMS, _THM_Z),
    ) for p in points for row in rows]
