"""Tanh-sinh quadrature and the K-product integral representations.

The double-exponential rule is the oracle for the variation-of-parameters
integral representations (Lemmas on harmonic-weighted series) and for the
zeta(5) / zeta(7) / L_{-4}(4) integral identities.  It is chosen over
Gauss-Legendre because K(sqrt(1-t)) carries a logarithmic singularity at the
endpoint, which double-exponential nodes absorb without splitting.

Nodes are generated as (delta, weight) pairs with delta the distance from the
interval endpoint (1 - |x| computed stably), so integrands may be evaluated
accurately arbitrarily close to a singular endpoint.  Straight complex paths
are supported through the same affine map; a real segment stays in mpf, and
so do the K integrands on it, since ``ell_k`` and ``ell_k_comp`` keep a real
argument real.

Each level halves the step and squares the discretisation error, so the
difference d_L of two successive sums is about the error of the coarser
one: the refinement stops at the first level L >= 3 with
d_L^2 <= 10^-workdps max(1, |S_L|)^2, one level before d_L itself meets the
target.  Each level's weighted sum is one ``mp.fdot``: the products are
summed exactly and rounded once.  A tuple-valued integrand is integrated
componentwise on one walk over the nodes.

The zeta(5), zeta(7) and L_{-4}(4) integrals are three components of one
such walk over [0, 1/2] (``_sec4_integrals``): the two over [0, 1] fold
onto it by t -> 1-t, and each node takes K(sqrt t) and
K(sqrt(1-t))/K(sqrt t) from one AGM (``series._k_ratio``).

The H3INT2 integrand's K(sqrt s)^2 - (pi/2)^2 cancels about log10(1/|s|)
digits near s = 0, so it takes K from one ``ell_k`` call raised by that
many digits, and the lem.h3mix2 tail runs up or down the vertical ray from
t, clear of the branch point s = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import mpmath as mp
from mpmath import mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .mpcore import (DomainError, PrecisionCtx, _memoized, _real_or_complex,
                     const_catalan, const_zeta, ensure_finite)
from .series import _k_ratio, ell_k, ell_k_comp

__all__ = [
    "QuadResult",
    "QuadResults",
    "h3mix2_tail_integral",
    "lemma_integral",
    "lminus4_4_integral",
    "tanh_sinh",
    "zeta5_integral",
    "zeta7_integral",
]

MAX_LEVEL = 12


@dataclass(frozen=True)
class QuadResult:
    value: object  # mpf or mpc
    err_estimate: mpf
    levels_used: int
    converged: bool

    def converged_value(self):
        """The value, or DomainError if the refinement never met its tolerance."""
        if not self.converged:
            raise DomainError("tanh-sinh did not converge by level %d (error estimate %s)"
                              % (self.levels_used, mp.nstr(self.err_estimate, 3)))
        return self.value


class QuadResults(tuple):
    """One ``QuadResult`` per component of a tuple-valued integrand.

    ``levels_used`` and ``converged`` describe the walk as a whole, its
    deepest level and whether every component converged, so a caller that
    reads those fields of whatever ``tanh_sinh`` returns (perfbench's tracer
    does) reads the walk's.
    """

    @property
    def levels_used(self) -> int:
        return max(r.levels_used for r in self)

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self)


def _tmax(dps: int) -> mpf:
    return mp.log(2 * (dps + 20) * mp.log(10) / mp.pi) + mpf("0.5")


@_memoized
def _nodes(level: int, ctx: PrecisionCtx) -> list:
    """(delta, weight) pairs for refinement level ``level`` at ctx's working precision.

    Level 0 holds all integer multiples of h=1 (including t=0); level L > 0
    holds the odd multiples of h = 2^-L.  delta = 1 - tanh((pi/2) sinh t).
    Each node takes one exp: e^t runs by recurrence, times e^(step h), and
    with E = exp(pi sinh t), delta = 2/(E+1) and the weight
    (pi/2) cosh t / cosh((pi/2) sinh t)^2 is 2 pi cosh t E / (E+1)^2.  The
    recurrence adds one rounding per node, and E multiplies the relative
    error of e^t by about pi sinh t (below 10^3 up to tmax): a few of the
    10 extra digits.
    """
    dps = ctx.workdps
    with mp.workdps(dps + 10):
        tmax = _tmax(dps)
        h = mpf(1) / (1 << level)
        pi = +mp.pi
        out = []
        k = 0 if level == 0 else 1
        step = 1 if level == 0 else 2
        et, grow = mp.exp(k * h), mp.exp(step * h)  # e^t at the first node, its ratio
        while k * h <= tmax:
            inv = 1 / et
            big = mp.exp(pi * (et - inv) / 2)  # E = exp(pi sinh t)
            delta = 2 / (big + 1)
            out.append((delta, pi * (et + inv) * big / (big + 1) ** 2))
            et *= grow
            k += step
    return out


def tanh_sinh(f, a, b, ctx: PrecisionCtx, max_level: int = MAX_LEVEL):
    """Integrate f over the straight segment [a, b] by tanh-sinh doubling.

    ``f`` is called with points a + (b-a)*delta/2 and b - (b-a)*delta/2, so
    endpoint distances remain accurate down to ~10^(-1.5*dps); integrable
    endpoint singularities (logarithmic or algebraic) are fine.  Real
    endpoints stay mpf, so f sees mpf points and the sum is an mpf unless f
    returns complex values; a complex endpoint makes the path complex.

    With S_L the sum at step h = 2^-L and d_L = |S_L - S_{L-1}|, refinement
    stops at the first level L >= 3 with
    d_L^2 <= 10^-workdps * max(1, |S_L|)^2.  d_L is about the error of
    S_{L-1}, and halving h squares the discretisation error, so S_L is then
    within about 10^-workdps * max(1, |S|) of the integral.  At ``max_level``
    without meeting that, the result has ``converged=False``.  The error
    estimate is d_L times the half-length of the segment.

    An ``f`` that returns a tuple gives ``QuadResults``, one result per
    component.  Each component stops on its own rule and keeps the sum of
    its stop level, while the refinement runs on until every component has
    stopped or ``max_level`` is reached; one walk over the nodes evaluates f
    once per node for all of them.  A segment of length 0 gives one zero
    result without calling f.
    """
    with ctx.working():
        a, b = _real_or_complex(a), _real_or_complex(b)
        scale = (b - a) / 2
        if scale == 0:
            return QuadResult(mpf(0), mpf(0), 0, True)
        target = mpf(10) ** (-ctx.workdps)
        vector = False

        def eval_nodes(nodes):
            """The weighted sums of f over one level's nodes, one per component."""
            nonlocal vector
            ws, vals = [], []
            for delta, w in nodes:
                # the t=0 node sits at the midpoint, count it once
                for x in (a + scale * delta,) if delta == 1 else (a + scale * delta,
                                                                   b - scale * delta):
                    ws.append(w)
                    vals.append(f(x))
            vector = isinstance(vals[0], tuple)
            return [mp.fdot(ws, col) for col in (zip(*vals) if vector else (vals,))]

        sums = eval_nodes(_nodes(0, ctx))  # h = 1 at level 0
        errs = [mp.inf] * len(sums)
        levels = [0] * len(sums)
        done = [False] * len(sums)
        for level in range(1, max_level + 1):
            h = mpf(1) / (1 << level)
            new = eval_nodes(_nodes(level, ctx))
            for i, prev in enumerate(sums):
                if done[i]:
                    continue
                sums[i] = prev / 2 + h * new[i]
                errs[i], levels[i] = abs(sums[i] - prev), level
                done[i] = level >= 3 and errs[i] ** 2 <= target * max(mpf(1), abs(sums[i])) ** 2
            if all(done):
                break
        out = []
        for total, err, level, converged in zip(sums, errs, levels, done):
            val = ensure_finite(total * scale)
            if isinstance(val, mpc) and val.imag == 0:
                val = val.real
            out.append(QuadResult(val, err * abs(scale), level, converged))
        return QuadResults(out) if vector else out[0]


# ---------------------------------------------------------------------------
# Lemma integral representations (quadrature side of the series identities)
# ---------------------------------------------------------------------------

_LEMMAS = ("NU2", "EPS2", "H3INT1", "H3INT2")


def _k_and_ksq_excess(s, ctx: PrecisionCtx):
    """K(sqrt(s)) and K(sqrt(s))^2 - (pi/2)^2 from one ``ell_k`` call.

    K = (pi/2)(1 + s/4 + ...), so the difference cancels about log10(1/|s|)
    digits near s = 0; ``ell_k`` runs that many digits, plus two, above ctx,
    and the difference is taken at that precision.
    """
    extra = max(0, int(-mp.mag(s) * 0.302) + 2) if s else 0
    hi = replace(ctx, guard=ctx.guard + extra)
    k = ell_k(s, hi)
    with hi.working():
        return k, k * k - mp.pi ** 2 / 4


def lemma_integral(which: str, t, ctx: PrecisionCtx):
    """Full right-hand side of the named integral representation at t.

    NU2 / EPS2 are the weight-2 harmonic representations, H3INT1 / H3INT2 the
    weight-3 ones; EPS2 includes its non-integral trailing terms (with
    Catalan's constant).  Paths are straight segments from the stated base
    point (0 or 1/2) to t.  A real t gives an mpf, a complex one an mpc.
    """
    if which not in _LEMMAS:
        raise DomainError("unknown lemma integral %r" % (which,))
    with ctx.working():
        t = _real_or_complex(t)
        if t == 0 and which != "EPS2":
            return 0 * t  # empty range; the harmonic weights vanish at k=0
        kt = ell_k(t, ctx)
        k1t = ell_k_comp(t, ctx)

        if which == "NU2":
            def f(s):
                ks = ell_k(s, ctx)
                return ks * (ell_k_comp(s, ctx) * kt - ks * k1t)
            res = tanh_sinh(f, mpf(0), t, ctx)
            return ensure_finite((2 / mp.pi) ** 3 * kt * res.converged_value())

        if which == "EPS2":
            def f(s):
                ks = ell_k(s, ctx)
                return ks * (ell_k_comp(s, ctx) * kt - ks * k1t) / (s * (1 - s))
            res = tanh_sinh(f, mpf(1) / 2, t, ctx)
            g = const_catalan(ctx)
            return ensure_finite((2 / mp.pi) ** 3 * kt * res.converged_value()
                                 - kt ** 2 / 3 - k1t ** 2
                                 + 16 * kt * k1t * g / mp.pi ** 2)

        if which == "H3INT1":
            def f(s):
                ks = ell_k(s, ctx)
                return (1 - 2 * s) * ks ** 2 * (ell_k_comp(s, ctx) * kt - ks * k1t) ** 2
            res = tanh_sinh(f, mpf(0), t, ctx)
            return ensure_finite((2 / mp.pi) ** 4 * res.converged_value())

        def f(s):
            ks, excess = _k_and_ksq_excess(s, ctx)
            bracket = ell_k_comp(s, ctx) * kt - ks * k1t
            return 2 * (1 - 2 * s) / (s * (1 - s)) * excess * bracket ** 2
        res = tanh_sinh(f, mpf(0), t, ctx)
        return ensure_finite((2 / mp.pi) ** 4 * res.converged_value())


def h3mix2_tail_integral(t, ctx: PrecisionCtx) -> mpc:
    """-(2/pi)^2 * int_t^oo 4(1-2s)/(s(1-s)) [K(sqrt(1-s))K(sqrt(t)) - K(sqrt(s))K(sqrt(1-t))]^2 ds.

    Taken along the vertical ray s = t + i sign(Im t) (1-u)/u, u in (0, 1].
    The integrand is analytic off the real rays s <= 0 and s >= 1 and decays
    like log^2|s| / |s|^2, so any path to infinity on t's side of the real
    axis gives the same value; the ray keeps clear of the branch point s = 1.
    For Im t < 0 the ray goes down, which keeps I(conj t) = conj I(t): an
    upward ray would end beyond the cut s >= 1.  A real t raises DomainError.
    """
    with ctx.working():
        t = mpc(t)
        if not mp.im(t):
            raise DomainError("h3mix2_tail_integral requires Im t != 0, got t=%s" % (t,))
        kt = ell_k(t, ctx)
        k1t = ell_k_comp(t, ctx)
        ray = mpc(0, mp.sign(mp.im(t)))

        def f(u):
            # u -> s = t + ray (1-u)/u maps (0,1] onto the ray with the far
            # end at u = 0, where mpf points keep full relative accuracy
            s = t + ray * (1 - u) / u
            ks = ell_k(s, ctx)
            bracket = ell_k_comp(s, ctx) * kt - ks * k1t
            return 4 * (1 - 2 * s) / (s * (1 - s)) * bracket ** 2 / u ** 2
        res = tanh_sinh(f, mpf(0), mpf(1), ctx)
        return ensure_finite(-(2 / mp.pi) ** 2 * ray * res.converged_value())


# ---------------------------------------------------------------------------
# Integral identities for zeta(5), zeta(7), L_{-4}(4)
# ---------------------------------------------------------------------------

# fixed-point bits of the sec4 integrand above the working precision
_SEC4_GUARD = 10


@_memoized
def _sec4_integrals(ctx: PrecisionCtx) -> tuple:
    """The three K integrals of section 4 over [0, 1/2], from one walk over the nodes.

    With K = K(sqrt t), r = K(sqrt(1-t))/K and w = 2 - 17t(1-t), the
    reflection t -> 1-t (K(sqrt(1-t)) and K(sqrt t) trade places, w stays)
    folds [1/2, 1] onto [0, 1/2]:
        int_0^1 (1-2t) K(sqrt(1-t))^4 dt = int_0^(1/2) (1-2t) K^4 (r^4 - 1) dt,
        int_0^1 w K(sqrt(1-t))^6 dt = int_0^(1/2) w K^6 (r^6 + 1) dt,
    and the L_{-4}(4) integral int_0^(1/2) w K^6 (r^2 - 1)^3 dt is already
    there.  Each node takes K and r from one ``_k_ratio`` AGM, and
    ``tanh_sinh`` stops each integral on its own rule.

    The integrand runs on integers at 2^wp, wp = the working precision plus
    _SEC4_GUARD bits.  A value takes at most 9 products, each rounded by a
    unit of 2^-wp, and its large factors are held to 2^-wp too, so its error
    is a few units of 2^-wp times max(1, |f|).  That |f| is large only near
    t = 0: K^6 r^6 reaches about 10^14 at 100 digits, since r ~ ln(16/t)/pi
    and the nodes come within 10^(-1.65 (workdps + 20)) of t = 0.  Each
    value is rounded once to an mpf, and the weights stay mpf: rounded to
    2^-wp, the tiny weights of those nodes would carry errors of up to
    max |f| units of 2^-wp, about 10^14 at 100 digits.
    """
    with ctx.working():
        prec = mp.mp.prec
        wp = prec + _SEC4_GUARD
        one = 1 << wp

        def f(t):
            k, r = _k_ratio(t, wp)
            x = to_fixed(t._mpf_, wp)
            k2 = k * k >> wp
            k4 = k2 * k2 >> wp
            wk6 = ((2 * one - (17 * x * (one - x) >> wp)) * k4 >> wp) * k2 >> wp
            r2 = r * r >> wp
            r4 = r2 * r2 >> wp
            m = r2 - one
            return tuple(mp.make_mpf(from_man_exp(v, -wp, prec, round_nearest)) for v in (
                ((one - 2 * x) * k4 >> wp) * (r4 - one) >> wp,
                wk6 * ((r4 * r2 >> wp) + one) >> wp,
                wk6 * (m * m * m >> 2 * wp) >> wp))
        return tanh_sinh(f, mpf(0), mpf(1) / 2, ctx)


def zeta5_integral(ctx: PrecisionCtx) -> QuadResult:
    """zeta(5) as (8/93) * int_0^1 (1-2t) K(sqrt(1-t))^4 dt.

    The integral is taken folded, as int_0^(1/2) (1-2t) K^4 (r^4 - 1) dt
    with r = K(sqrt(1-t))/K(sqrt t), on the nodes that the zeta(7) and
    L_{-4}(4) integrals share (``_sec4_integrals``).
    """
    res = _sec4_integrals(ctx)[0]
    with ctx.working():
        return replace(res, value=ensure_finite(mpf(8) / 93 * res.value))


def zeta7_integral(ctx: PrecisionCtx) -> QuadResult:
    """zeta(7) as (32/5715) * int_0^1 [2-17t(1-t)] K(sqrt(1-t))^6 dt.

    The integral is taken folded, as int_0^(1/2) [2-17t(1-t)] K^6 (r^6 + 1) dt
    with r = K(sqrt(1-t))/K(sqrt t), on the nodes that the zeta(5) and
    L_{-4}(4) integrals share (``_sec4_integrals``).
    """
    res = _sec4_integrals(ctx)[1]
    with ctx.working():
        return replace(res, value=ensure_finite(mpf(32) / 5715 * res.value))


def lminus4_4_integral(ctx: PrecisionCtx) -> QuadResult:
    """L_{-4}(4) implied by its K^6 integral identity.

    105 L_{-4}(4) / (136 pi^4) = 200025 zeta(7)/(2176 pi^7)
        - (70/(136 pi^7)) int_0^{1/2} [2-17t(1-t)] K(sqrt(t))^6
                                       {(K(sqrt(1-t))/K(sqrt(t)))^2 - 1}^3 dt.
    The integrand's bracket vanishes cubically at t = 1/2, so the endpoint is
    regular; the t -> 0 end has only log^6 growth.  It shares its nodes with
    the zeta(5) and zeta(7) integrals (``_sec4_integrals``).
    """
    res = _sec4_integrals(ctx)[2]
    with ctx.working():
        z7 = const_zeta(7, ctx)
        rhs = (mpf(200025) * z7 / (2176 * mp.pi ** 7)
               - mpf(70) / (136 * mp.pi ** 7) * res.value)
        val = rhs * 136 * mp.pi ** 4 / 105
        return replace(res, value=ensure_finite(val))
