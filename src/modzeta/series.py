"""Central-binomial harmonic series, elliptic integrals, hyperbolic Lambert
sums, elliptic polylogarithms, and alternating-series acceleration.

Summation strategy
------------------
One engine sums C(2k,k)^p (a k + b) w(k) x^k for both powers p = 3 (the
cubed family) and p = 2 (the squared family).  Interior rates
(|4^p x| < 1) are summed directly with incremental binomial/harmonic updates
and a stated tail bound.  Boundary rates (|4^p x| = 1 with Re x < 0, so
alternating) go through Algorithm 1 of Cohen, Rodriguez Villegas and Zagier
(2000) on the first N = ceil(1.4 digits) + 20 terms: the error is at most
|t_0| / T_N(3) < 2 |t_0| (3+sqrt 8)^-N when |t_k| is a moment sequence.
Direct partial sums converge only algebraically in k.

The engine makes one walk per rate: :func:`binom3_sums` returns every
requested (LinearFactor, WeightSpec) sum from a single pass over the terms,
each sum stopping on its own tail bound; :func:`binom3_series` and
:func:`binom2_series` are its one-request cases.  The theorem evaluators
keep a point's nine requests and its nine sums in per-(point, precision)
memos, so one point costs one walk.

Fixed point
-----------
The interior walk runs on Python integers scaled by 2^wp, the technique of
mpmath's own series kernels: the term C(2k,k)^p x^k is an (re, im) integer
pair, each step multiplies it by x and by the exact integer factor
(2(2k+1))^p / (k+1)^p with one rounding toward zero, and the six harmonic
sums gain 2^wp // n^r per index.  Each weight basis is an integer function
of those sums, read through one table, and each request's sum is an
integer pair converted to mpf once at the end.  An imaginary part far below
the real part of x (a rate such as 0.3 + 1e-40 i) gets its own scale, as
``mpcore._dust_bits`` describes.  The rate of a theorem point is an exact
real, as is its nome (``modular._nome``): then each step is one integer
product, and no imaginary part is formed.

wp is the working precision plus the guard bits of ``_binom_guard``, which
depend only on the precision, so an entry equals the same request summed alone.

Both rates run one loop over the step generator ``_binom_steps``, to a
length planned before the first term: at an interior rate each request ends
on one stated tail bound, |t_k| times a quadratic in k from the rate and the
weight envelopes, found by one float scan (``_binom_ends``); at the boundary
each takes the first ceil(1.4 digits) + 20 steps on the real rate, weighted
by exact integer CVZ coefficients, so each sum is one integer rounded once;
one mpf, gap = 1 - |4^p x|, decides which of the two a rate is.
The plan runs in floats: every size is a log2 read from the mantissa and
exponent of an mpf, so linear factors far beyond the float range keep
theirs, and only the gap is taken in mpf; each distinct factor's sizes
are read once per call and each spec carries its envelope, and the scan
checks the requests only where one may end.  A request also ends where the
fixed-point term must already be exactly 0 (the underflow end), which only
a bound above tiny 2^(wp+sd) reaches first.  Each step reads each distinct
weight basis once, and the factor (0, 1) takes the term as it is.

The hyperbolic Lambert sums (:func:`hyp_lambert`) and the elliptic
polylogarithm (:func:`eli`) run on the same integer pairs: one integer
division per term for a kernel's denominator, a floor division for each
weight, and one stop rule each in log2 floats (their docstrings state the
bounds and the guard bits).

The complete elliptic integrals :func:`ell_k` and :func:`ell_k_comp`, which
every quadrature integrand evaluates, share one fixed-point AGM kernel
(``_agm_k``) for real and complex arguments alike: u = 1 - t or u = t goes
in once, sqrt u is taken by ``math.isqrt`` and the half-angle formula, and
each step holds (a, b) as integer pairs, the imaginary parts with their
own dust scale as in the walks.  A large u is scaled by 4^-k first; a
small or large u adds |log2 |u|| / 2 guard bits, the relative precision
its small start value lacks.  The loop stops on a stated
quadratic-convergence bound and raises DomainError at its step cap.
For a real 0 < t <= 1/2, ``_k_ratio`` runs one AGM of the same kind and
reads both K(sqrt t) and K(sqrt(1-t)) / K(sqrt t) from its means, the
latter through the nome limit; the section-4 integrals take it at every
node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from math import ceil, inf, isqrt, lgamma, log, log2

import mpmath as mp
from mpmath import mpc, mpf
from mpmath.libmp import from_man_exp, mpf_div, mpf_log, mpf_pi, round_nearest, to_fixed

from .modular import _as_z, _nome, _nome_logs, _walk_length
from .mpcore import (DomainError, PrecisionCtx, _cinv, _cmul, _dust_bits, _from_fixed,
                     _log2_abs, _real_or_complex, _to_fixed, ensure_finite)

__all__ = [
    "HypKernel",
    "LinearFactor",
    "W_ONE",
    "WeightSpec",
    "binom2_series",
    "binom3_series",
    "binom3_sums",
    "ell_k",
    "ell_k_comp",
    "eli",
    "hyp_lambert",
    "inv_binom2_series",
    "legendre_dnu2",
]

# the binomial walk's cap, in terms per working digit: its plan raises
# DomainError past it, and its guard bits are sized for that many terms
_BINOM_CAP = 400


# ---------------------------------------------------------------------------
# Weights and linear factors
# ---------------------------------------------------------------------------

# each weight basis as an integer function of the walk's running sums
# h = [k, H_k, H_2k, H2_k, H2_2k, H3_k, H3_2k], each sum at scale 2^wp, and its
# envelope (s, l), |basis(k)| <= s + l k for k >= 0: H_k <= k, H_2k <= 1 + k,
# zeta(2) < 33/20, zeta(3) < 121/100, H_2k - H_k < log 2, and for H3MIX, a
# difference of nonnegative terms, max(zeta(3), 3 zeta(2) log 2) < 693/200
_BASIS = {
    "ONE": (lambda h, wp: 1 << wp, 1, 0),
    "H1_K": (lambda h, wp: h[1], 0, 1),
    "H1_2K": (lambda h, wp: h[2], 1, 1),
    "H2_K": (lambda h, wp: h[3], Fraction(33, 20), 0),
    "H2_2K": (lambda h, wp: h[4], Fraction(33, 20), 0),
    "H3_K": (lambda h, wp: h[5], Fraction(121, 100), 0),
    "H3_2K": (lambda h, wp: h[6], Fraction(121, 100), 0),
    "INVSQ_2K1": (lambda h, wp: (1 << wp) // (2 * h[0] + 1) ** 2, 1, 0),
    "H2_2K_TIMES_DH1": (lambda h, wp: h[4] * (h[2] - h[1]) >> wp, Fraction(231, 200), 0),
    "H2_K_TIMES_DH1": (lambda h, wp: h[3] * (h[2] - h[1]) >> wp, Fraction(231, 200), 0),
    "H3MIX": (lambda h, wp: h[5] - (3 * h[3] * (h[2] - h[1]) >> wp), Fraction(693, 200), 0),
}


@dataclass(frozen=True)
class LinearFactor:
    """Multiplies term k by a*k + b."""

    a: object = 0
    b: object = 1


@dataclass(frozen=True)
class WeightSpec:
    """A rational linear combination of harmonic-number bases.

    Each item is (coefficient, basis) with basis one of: ONE, H1_K, H1_2K,
    H2_K, H2_2K, H3_K, H3_2K, INVSQ_2K1 = 1/(2k+1)^2,
    H2_2K_TIMES_DH1 = H2_{2k}(H_{2k}-H_k), H2_K_TIMES_DH1 = H2_k(H_{2k}-H_k),
    H3MIX = H3_k - 3 H2_k (H_{2k}-H_k).  Each basis has one envelope
    |basis(k)| <= s + l k (``_BASIS``); a spec's is the sum of |c| (s, l),
    taken once, exactly, and kept as log2 s and log2 l for the binomial plan.
    """

    terms: tuple

    def __post_init__(self) -> None:
        for _, basis in self.terms:
            if basis not in _BASIS:
                raise DomainError("unknown weight basis %r" % (basis,))
        env = (sum(abs(Fraction(c)) * _BASIS[b][j] for c, b in self.terms) for j in (1, 2))
        object.__setattr__(self, "_log2_envelope", tuple(
            log2(v.numerator) - log2(v.denominator) if v else -inf for v in env))

    @classmethod
    def combo(cls, coeffs: dict) -> "WeightSpec":
        return cls(tuple((Fraction(c), b) for b, c in coeffs.items()))


W_ONE = WeightSpec.combo({"ONE": 1})


# ---------------------------------------------------------------------------
# Binomial series
# ---------------------------------------------------------------------------

def _binom_sums(x, power: int, requests, ctx: PrecisionCtx) -> list:
    """[sum_{k>=0} C(2k,k)^power (a k + b) w(k) x^k for each (LinearFactor, WeightSpec)].

    The engine behind :func:`binom3_sums` and :func:`binom2_series`.  It plans
    every request's last index, then makes one walk for all: the term
    C(2k,k)^power x^k, the harmonic sums, each distinct weight and each
    distinct linear factor advance once per k, and each request adds
    c_k (a k + b) w(k) t_k up to its last index; its sum is floor-divided
    by d and rounded once.  The rate is decided once, from gap =
    1 - |4^power x| and slack = 10^-(workdps-6).  gap < -slack diverges
    (DomainError).  gap > slack is interior: c_k = d = 1, and each request
    ends on its own tail bound (``_binom_ends``, given gap as 1 - r), so it
    equals the same request summed alone.  Otherwise the rate is on the
    boundary, rejected with Re x > 0; with Re x < 0, CVZ Algorithm 1
    (``_cvz_weights``) on the first n = ceil(1.4 digits) + 20 terms, in
    integers, at the real rate; the imaginary parts of 4^power x, a and b
    must lie within the slack, else DomainError.
    """
    name = "binom%d series" % power
    scale = 4 ** power
    with ctx.working():
        x = mpc(x)
        if not mp.isfinite(x):
            raise DomainError("%s needs a finite rate, got %s" % (name, x))
        requests = list(requests)
        facs = list(dict.fromkeys(f for f, _ in requests))
        specs = list(dict.fromkeys(w for _, w in requests))
        slots = [(facs.index(f), specs.index(w)) for f, w in requests]
        facs = [(mpc(f.a), mpc(f.b)) for f in facs]
        gap, slack = 1 - scale * abs(x), mpf(10) ** (6 - ctx.workdps)
        if gap < -slack:
            raise DomainError("%s diverges: |%dx| > 1" % (name, scale))
        wp = mp.mp.prec + _binom_guard(ctx)
        if gap <= slack:
            if mp.re(scale * x) > 0:
                raise DomainError("%s: non-alternating boundary rate unsupported" % name)
            dust = [mp.im(scale * x)] + [mp.im(v) for f in facs for v in f]
            if max(abs(d) for d in dust) > slack:
                raise DomainError("%s: imaginary part of the boundary rate or of "
                                  "a linear factor exceeds the slack" % name)
            x, facs = mp.re(x), [(mp.re(a), mp.re(b)) for a, b in facs]
            n = (14 * ctx.digits + 9) // 10 + 20  # ceil(1.4 digits) + 20
            ends = [n - 1] * len(slots)
            coefs, d = _cvz_weights(n)
        else:
            ends = _binom_ends(x, power, gap, facs, specs, slots, wp, ctx)
            coefs, d = repeat(1), 1
        sd = _dust_bits(x, wp)
        sr, si = [0] * len(slots), [0] * len(slots)
        # the open requests, latest end first: each drops out once its end passes
        live = sorted(((e, i) + slot for i, (e, slot) in enumerate(zip(ends, slots))),
                      reverse=True)
        steps = islice(_binom_steps(x, power, facs, specs, wp, sd), max(ends, default=-1) + 1)
        for k, ((wts, lin), c) in enumerate(zip(steps, coefs)):
            while live[-1][0] < k:
                live.pop()
            for _, i, fi, wi in live:
                (lr, li), w = lin[fi], wts[wi]
                sr[i] += c * (lr * w >> wp)
                if li:
                    si[i] += c * (li * w >> wp)
        return [ensure_finite(_from_fixed(r // d, j // d, wp, sd)) for r, j in zip(sr, si)]


def _binom_ends(x, power: int, gap, facs: list, specs: list, slots: list, wp: int,
                ctx: PrecisionCtx) -> list:
    """Each request's last index k at an interior rate r = |4^power x| < 1.

    The term ratio ((2(2k+1))/(k+1))^power |x| is below r, |a k + b| <=
    |a| k + |b| and the weight is at most s + l k (``WeightSpec``), so after
    term k the rest of a request is at most |t_k| (P2 k^2 + P1 k + P0):
    P2 = |a| l g0, P1 = (|b| l + |a| s) g0 + 2 |a| l g1,
    P0 = |b| s g0 + (|b| l + |a| s) g1 + |a| l g2, with g0 = r/(1-r),
    g1 = r/(1-r)^2 and g2 = r(1+r)/(1-r)^3.  A request ends at the first k
    where that bound is below tiny, found by one float scan over k for all
    requests: lt_k + log2 P(k) < log2(tiny 2^wp), where lt_k = log2(|t_k| 2^wp)
    is a running sum of log2 of the exact ratios from lt_0 = wp, and
    log2 tiny = -workdps log2 10; the ratio's slack covers its rounding.

    The plan runs in floats.  Only gap = 1 - r is taken in mpf, where a
    float would lose its low bits near r = 1, and the caller passes it in,
    as it decided the rate from it.  Every other size is a log2: |x|,
    |a| and |b| come from the mantissas and exponents of their mpf parts
    (``_log2_abs``), so a factor of 1e400 or 1e-400 keeps its size, and each
    spec carries log2 s and log2 l.  P2, P1 and P0 are sums of products of
    these, taken in log2, then scaled by 2^-pe, pe the largest of them, into
    floats that the scan evaluates at each k.

    A request also ends where the walk's own term must be 0 (the underflow
    end).  Each step of ``_binom_steps`` rounds the term toward zero, with x
    rounded down at 2^-wp, so the fixed-point term is at most
    |t_k| (1 + 2^(1/2-wp)/|x|)^k; lf_k is log2 of that times 2^(wp+sd), sd =
    ``_dust_bits(x, wp)`` the extra scale of the imaginary parts.  Once
    lf_k < -4 (16 times over, for the floats' rounding) both parts of the
    term k and of every later one are exactly 0, and every request still
    open ends at k - 1.  That end comes first only when P(k) exceeds
    tiny 2^(wp+sd), as for a linear factor of 1e400.

    The scan checks the requests only where one may end: at a check each open
    request is lt_k + log2 P(k) - lim bits above its stop, and every later
    log ratio is at least the current one while P only grows, so no request
    ends for the least of those over -log2 of the ratio more indices; lt_k
    and lf_k are still summed at every index, so each end is the one a check
    at every index would find.

    Past ``_BINOM_CAP`` workdps indices the scan raises DomainError, before
    any term is summed; so does an infinite or NaN linear factor, whose bound
    is infinite.
    """
    lx = _log2_abs(x)
    if lx == -inf:  # x = 0: each sum is its first term
        return [0] * len(slots)
    mags = [(_log2_abs(a), _log2_abs(b)) for a, b in facs]
    if inf in (v for m in mags for v in m):
        raise DomainError("binom%d series failed to converge: an infinite linear factor"
                          % power)
    lr = 2 * power + lx  # log2 r
    l1r = _log2_abs(gap)  # log2(1 - r)
    lg0 = lr - l1r
    lg1, lg2 = lg0 - l1r, lg0 + log2(1 + 2.0 ** lr) - 2 * l1r
    top = wp - ctx.workdps * log2(10)
    rules = []  # per request: P2, P1, P0 / 2^pe as floats, top - pe
    for fi, wi in slots:
        la, lb = mags[fi]
        ls, ll = specs[wi]._log2_envelope
        al, mid, bs = la + ll, _log2_sum(lb + ll, la + ls), lb + ls  # |a|l, |b|l + |a|s, |b|s
        ps = (al + lg0, _log2_sum(mid + lg0, 1 + al + lg1),
              _log2_sum(bs + lg0, mid + lg1, al + lg2))
        pe = max(ps)
        if pe == -inf:  # a zero factor or weight: the sum is 0 past its first term
            rules.append((0.0, 0.0, 0.0, 0.0))
        else:
            rules.append(tuple(2.0 ** (v - pe) for v in ps) + (top - pe,))
    lxf = _log2_sum(lx, 0.5 - wp)  # log2 of the bound on |x| rounded at 2^-wp
    ends, lt, lf = [None] * len(rules), float(wp), float(wp + _dust_bits(x, wp))
    check = 0  # the next index at which any open request may end
    for k in range(_BINOM_CAP * ctx.workdps + 1):
        if lf < -4:
            return [k - 1 if e is None else e for e in ends]
        step = power * log2((4 * k + 2) / (k + 1))
        if k >= check:
            slack = inf
            for i, (p2, p1, p0, lim) in enumerate(rules):
                if ends[i] is None:
                    pk = (p2 * k + p1) * k + p0
                    above = lt + log2(pk) - lim if pk else -inf  # bits above the stop
                    if above < 0:
                        ends[i] = k
                    else:
                        slack = min(slack, above)
            if None not in ends:
                return ends
            # each later log ratio is at least step + lx and P(k) only grows
            check = k + 1 + int(max(0.0, slack - 1e-6) / -(step + lx))
        lt += step + lx
        lf += step + lxf
    raise DomainError("binom%d series failed to converge within %d terms"
                      % (power, _BINOM_CAP * ctx.workdps))


def _log2_sum(*logs) -> float:
    """log2 of the sum of 2^v over the floats logs: -inf if every v is."""
    top = max(logs)
    if top == -inf:
        return top
    return top + log2(sum(2.0 ** (v - top) for v in logs))


def _binom_guard(ctx: PrecisionCtx) -> int:
    """Guard bits of the fixed-point binomial walk.

    Each step rounds the term once, so after k steps it is off by about k
    units of 2^-wp; the linear factor then multiplies it by about k, and a
    sum adds up to cap = ``_BINOM_CAP`` workdps steps, the most the walk may
    take.  Rounding therefore stays below cap^3 units, plus the harmonic
    sums' k units each.
    """
    return 3 * (_BINOM_CAP * ctx.workdps).bit_length() + 8


def _binom_steps(x, power: int, facs: list, specs: list, wp: int, sd: int):
    """The fixed-point walk: for k = 0, 1, ... yield (wts, lin).

    ``wts`` is each weight of ``specs`` from the running sums h: each
    distinct basis is read through ``_BASIS`` once per step, and a spec of one
    basis with coefficient 1 is that read.  ``lin`` is the term
    C(2k,k)^power x^k times each linear factor (a, b) of ``facs`` at k: real
    parts at scale 2^wp and imaginary parts at 2^(wp+sd), weights at 2^wp;
    the factor (0, 1) gives the term itself, the exact product.  Each step
    rounds the term once toward zero; the caller decides where to stop.
    While the term and x are real, as at every theorem point, a step is one
    integer product (``mpcore._cmul``) and the imaginary part stays 0.
    """
    one = 1 << wp
    xr, xi = _to_fixed(x, wp, sd)
    facs = [_to_fixed(a, wp, sd) + _to_fixed(b, wp, sd) for a, b in facs]
    facs = [None if f == (0, 0, one, 0) else f for f in facs]
    bases = list(dict.fromkeys(b for w in specs for _, b in w.terms))
    reads = [_BASIS[b][0] for b in bases]
    # each spec as the index of its one read, or as (n, d, index) triples
    specs = [bases.index(w.terms[0][1]) if len(w.terms) == 1 and w.terms[0][0] == 1
             else [(c.numerator, c.denominator, bases.index(b)) for c, b in w.terms]
             for w in specs]
    tr, ti = one, 0
    h = [0] * 7  # k, H_k, H_2k, H2_k, H2_2k, H3_k, H3_2k
    k = 0
    while True:
        vals = [f(h, wp) for f in reads]
        wts = [vals[w] if isinstance(w, int) else sum(n * vals[j] // d for n, d, j in w)
               for w in specs]
        lin = [_cmul(tr, ti, f[0] * k + f[2], f[1] * k + f[3], wp, sd) if f else (tr, ti)
               for f in facs]
        yield wts, lin
        # one rounding toward zero per part: t * x * num / den
        num, den = (2 * (2 * k + 1)) ** power, (k + 1) ** power
        tr, ti = _cmul(tr, ti, xr * num, xi * num, wp, sd)
        tr = tr // den if tr >= 0 else -(-tr // den)
        ti = ti // den if ti >= 0 else -(-ti // den)
        k += 1
        a, b = 2 * k - 1, 2 * k
        h[0] = k
        h[1] += one // k
        h[2] += one // a + one // b
        h[3] += one // k ** 2
        h[4] += one // a ** 2 + one // b ** 2
        h[5] += one // k ** 3
        h[6] += one // a ** 3 + one // b ** 3


def _cvz_weights(n: int) -> tuple:
    """([(-1)^k c_k for k < n], d) of CVZ Algorithm 1 on n terms, exact integers.

    d = T_n(3) (d_0 = 1, d_1 = 3, d_{m+1} = 6 d_m - d_{m-1}), b_0 = -1,
    b_{k+1} = b_k 2(k+n)(k-n) / ((2k+1)(k+1)), exact (the coefficients of
    T_n(1-2x)), and c_k = b_k - c_{k-1} from c_{-1} = -d; |c_k| <= d, so a
    weighted sum of fixed-point terms keeps their roundings.
    """
    d0, d = 1, 3
    for _ in range(n - 1):
        d0, d = d, 6 * d - d0
    bk, ck, coefs = -1, -d, []
    for k in range(n):
        ck = bk - ck
        coefs.append(-ck if k & 1 else ck)
        bk = bk * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))  # exact
    return coefs, d


def binom3_sums(x, requests, ctx: PrecisionCtx) -> list:
    """[sum_{k>=0} C(2k,k)^3 (a k + b) w(k) x^k for each (LinearFactor, WeightSpec)].

    One walk for every request, for |64x| < 1 or 64x = -1; see ``_binom_sums``.
    """
    return _binom_sums(x, 3, requests, ctx)


def binom3_series(x, factor: LinearFactor, w: WeightSpec, ctx: PrecisionCtx) -> mpc:
    """sum_{k>=0} C(2k,k)^3 (a k + b) w(k) x^k: one request of :func:`binom3_sums`."""
    return _binom_sums(x, 3, ((factor, w),), ctx)[0]


def binom2_series(x, w: WeightSpec, ctx: PrecisionCtx) -> mpc:
    """sum_{k>=0} C(2k,k)^2 w(k) x^k for |16x| < 1, or 16x = -1 by CVZ."""
    return _binom_sums(x, 2, ((LinearFactor(), w),), ctx)[0]


def inv_binom2_series(t, ctx: PrecisionCtx) -> mpf:
    """sum_{k>=1} (16 t)^k / (k^2 C(2k,k)^2) for t in (0,1), served up to about
    t = 0.977.

    With term_k = (16t)^k / C(2k,k)^2, summand ratios 4t k^2/(2k+1)^2 are
    below t, so the rest after summand K is at most
    term_(K+1) / ((K+1)^2 (1 - t)).  The sum plans K before its first term
    (``modular._walk_length``): the first K at which that bound is below
    tiny, in floats in log2 form, log2 term_k = k log2(16t) - 2 log2 C(2k,k)
    with log2 C(2k,k) from lgamma, and log2 t and log2(1 - t) read from the
    mantissas and exponents of the mpf values (``_log2_abs``).  A plan past
    100 workdps terms raises DomainError, which at every precision is where
    t passes about 0.977 (0.9782 at 30 working digits, 0.9774 at 265).  The
    summands are then added in mpf, in order, from the recurrence
    term_(k+1) = term_k 16t (k+1)^2 / (2(2k+1))^2.
    """
    with ctx.working():
        t = mpf(t)
        if not (0 < t < 1):
            raise DomainError("inv_binom2_series requires t in (0,1)")
        l16t, lim = 4 + _log2_abs(t), _log2_abs(1 - t) - ctx.workdps * log2(10)

        def stop(k):  # log2 of term_(k+1) / ((k+1)^2 (1 - t)) below log2 tiny
            m = k + 1
            return m * l16t - 2 * (lgamma(2 * m + 1) - 2 * lgamma(m + 1)) / log(2) - 2 * log2(m) < lim
        k_end = _walk_length("inv_binom2_series", stop, 1, ctx)
        acc = mpf(0)
        term = 16 * t / 4  # k=1: (16t)/C(2,1)^2
        for k in range(1, k_end + 1):
            acc += term / mpf(k) ** 2
            term *= 16 * t * mpf(k + 1) ** 2 / mpf(2 * (2 * k + 1)) ** 2
        return ensure_finite(acc)


# ---------------------------------------------------------------------------
# Complete elliptic integral of the first kind (AGM)
# ---------------------------------------------------------------------------

# A step cap well above need: from |u| = 2^-(2^20) the AGM takes about 20
# steps to bring b/a near 1, then log2(wp) more
_AGM_STEP_CAP = 64
# |u| must lie in 2^-cap .. 2^cap: the guard bits grow like |log2 |u||, and
# beyond that range the integers would grow to megabytes
_AGM_MAG_CAP = 1 << 20


def _sqrt_fixed(re: int, im: int, s: int = 0) -> tuple:
    """Principal square root (Re >= 0) of the pair (re, im) at scales 4**wp and
    4**wp * 2**s, at scales 2**wp and 2**(wp+s).

    Half-angle formula from the modulus: the larger part of the root comes
    from an isqrt of (|z| + |re|) / 2 and the other from im / (2 that part),
    so neither cancels.  Each part is off by at most about one unit of its
    own scale, except the imaginary part of a root of re < 0, which is off
    by about one unit of 2**-wp.
    """
    m = isqrt(re * re + (im >> s) ** 2) if im else abs(re)
    if re >= 0:
        r = isqrt((m + re) >> 1)
        return r, (im // (2 * r) if r else 0)
    r = isqrt((m - re) >> 1)
    return abs(im) // (2 * r << s), (r << s if im >= 0 else -r << s)


def _agm_guard(e: int) -> int:
    """Guard bits of the fixed-point AGM for an input |u| ~ 2^e.

    Each step rounds each part by a unit or two, over at most the step cap;
    the smaller start value (sqrt u, or 2^-k after scaling a large u) holds
    |e|/2 bits fewer than wp; and the mean, about pi / (2 ln(4/|b|)), ends up
    to |e| times smaller than 1.
    """
    return 12 + abs(e) // 2 + abs(e).bit_length()


def _agm_k(u):
    """pi / (2 AGM(1, sqrt u)) with the principal sqrt u, on fixed-point integers.

    The AGM is homogeneous, so a large u is first scaled by 4^-k to
    |u| <= 2, the start pair becoming (2^-k, sqrt(u 4^-k)) and the mean
    2^k times the scaled one.  Each step keeps the right choice of
    sqrt(ab): b -> -b when |a - b| > |a + b|, that is when Re(a conj b) < 0.
    With that choice (a' - b')(a' + b') = (a - b)^2 / 4 and |a' + b'| >= |a'|,
    so |a' - b'| <= |a - b|^2 / (4 |a'|), and once |a - b| <= eps |a| the mean
    a' = (a + b)/2 is within about eps^2 |a| / 8 of the limit.  The loop stops
    at eps^2 = 2^(3-wp) and returns a'; it raises DomainError at the step cap.
    The imaginary parts carry the extra scale 2^s of ``mpcore._dust_bits``,
    so an imaginary part far below the real part of u (t = 0.3 + 1e-40 i)
    keeps its own relative precision, as an mpc loop does.  An mpf u > 0
    keeps every imaginary part exactly 0 and gives an mpf.
    Call at working precision.
    """
    e = int(mp.mag(u))
    if abs(e) > _AGM_MAG_CAP:
        raise DomainError("AGM argument of size 2^%d is outside 2^-%d .. 2^%d"
                          % (e, _AGM_MAG_CAP, _AGM_MAG_CAP))
    k = max(0, e // 2)
    wp = mp.mp.prec + _agm_guard(e)
    # an imaginary dust on Re u > 0 keeps its relative precision, as in an
    # mpc, at any gap up to the magnitude cap, and its integers stay near wp
    # bits; on Re u < 0 the root turns it into a real dust that the result
    # cannot show, so it gets no scale
    s = _dust_bits(u, _AGM_MAG_CAP)
    if s and u.real < 0:
        s = 0
    s2 = 2 * s
    ar, ai = 1 << (wp - k), 0
    br, bi = _sqrt_fixed(*_to_fixed(u, 2 * (wp - k), s), s)
    for _ in range(_AGM_STEP_CAP):
        dr, di = ar - br, ai - bi
        if (dr * dr + (di * di >> s2)) << (wp - 3) <= ar * ar + (ai * ai >> s2):
            g = _from_fixed((ar + br) >> 1, (ai + bi) >> 1, wp - k, s)
            if not isinstance(u, mpc):
                g = g.real
            return mp.pi / (2 * g)
        pr, pj = ar * br - (ai * bi >> s2), ar * bi + ai * br  # ab at 4**wp, 4**wp 2**s
        ar, ai = (ar + br) >> 1, (ai + bi) >> 1
        br, bi = _sqrt_fixed(pr, pj, s)
        if ar * br + (ai * bi >> s2) < 0:
            br, bi = -br, -bi
    raise DomainError("AGM did not converge in %d steps" % _AGM_STEP_CAP)


def _k_ratio(t, wp: int) -> tuple:
    """K = K(sqrt t) and r = K(sqrt(1-t)) / K(sqrt t) for an mpf 0 < t <= 1/2,
    from one AGM, as integers at scale 2^wp.

    The AGM of a_0 = 1, b_0 = sqrt(1-t) runs on integers at 2^w,
    w = wp + ``_agm_guard(0)``, and keeps its means a_1..a_n; K = pi / (2 a_n).
    With c_0^2 = t and c_(j+1) = (a_j - b_j)/2 = c_j^2 / (4 a_(j+1)), the
    nome q = exp(-pi r) of sqrt t is the limit of (c_n / (4 a_n))^(2^(1-n))
    = t / P_n (Borwein and Borwein, Pi and the AGM, 1987, ch. 2), where
    P_n = prod_(j<n) (4 a_j)^(2^(1-j)) * (4 a_n)^(2^(2-n)), j from 1; so
    pi r = ln(P_n / t) - 2^(3-n) q^(2^n) + ..., taken as one mpf log.
    P_n is built inside out with n - 2 isqrts: y = (4 a_(n-1))(4 a_n), then
    y = 4 a_j sqrt(y).  The loop stops as ``_agm_k`` does, at
    (a - b)^2 2^(w-3) <= a^2, where c_n, about 4 a_n q^(2^(n-1)), is only
    near 2^(-w/2), so q^(2^n) is only near 2^-w; one more step squares it,
    and the error term falls far below 2^-w.  Every a_j and b_j lies in
    [sqrt(1/2), 1], so each step and each isqrt rounds by a unit of 2^-w
    or so, and K and r come out rounded to 2^-wp.  Raises DomainError for
    any other t.
    """
    if not 0 < t <= 0.5:
        raise DomainError("_k_ratio needs 0 < t <= 1/2, got %s" % (t,))
    g = _agm_guard(0)
    w = wp + g
    a, b = 1 << w, isqrt((1 << 2 * w) - to_fixed(t._mpf_, 2 * w))
    means = []
    while True:  # from b_0 >= sqrt(1/2), about log2(wp) steps
        d = a - b
        stop = d * d << (w - 3) <= a * a
        a, b = (a + b) >> 1, isqrt(a * b)
        means.append(a)
        if stop:
            break
    a = (a + b) >> 1  # one step past the stop
    means.append(a)
    y = means[-2] * a << 4 >> w
    for m in reversed(means[:-2]):
        y = (m << 2) * isqrt(y << w) >> w
    log = mpf_log(mpf_div(from_man_exp(y, -w), t._mpf_, w, round_nearest), w, round_nearest)
    pi = to_fixed(mpf_pi(w), w)
    half = 1 << (g - 1)
    return ((pi << (w - 1)) // a + half) >> g, ((to_fixed(log, w) << w) // pi + half) >> g


def ell_k(t, ctx: PrecisionCtx):
    """K(sqrt(t)) = pi / (2 AGM(1, sqrt(1-t))), principal branches.

    The branch cut sits on the real ray t in [1, inf), which is rejected.
    A real t gives an mpf, a complex one an mpc.
    """
    with ctx.working():
        t = _real_or_complex(t)
        if not mp.isfinite(t):
            raise DomainError("ell_k needs a finite t, got %s" % (t,))
        if mp.im(t) == 0 and mp.re(t) >= 1:
            raise DomainError("ell_k: t on the branch cut [1, oo)")
        return ensure_finite(_agm_k(1 - t))


def ell_k_comp(t, ctx: PrecisionCtx):
    """K(sqrt(1-t)) = pi / (2 AGM(1, sqrt(t))), stable as t -> 0.

    Use this form whenever the complementary argument 1-t would round to 1;
    the cut is now t on (-oo, 0].  A real t gives an mpf, a complex one an mpc.
    """
    with ctx.working():
        t = _real_or_complex(t)
        if not mp.isfinite(t):
            raise DomainError("ell_k_comp needs a finite t, got %s" % (t,))
        if mp.im(t) == 0 and mp.re(t) <= 0:
            raise DomainError("ell_k_comp: t on the branch cut (-oo, 0]")
        return ensure_finite(_agm_k(t))


# ---------------------------------------------------------------------------
# Deformed Legendre functions
# ---------------------------------------------------------------------------

def legendre_dnu2(t, ctx: PrecisionCtx) -> mpc:
    """d^2/dnu^2 P_nu(1-2t) at nu = -1/2, as its harmonic-weighted series.

    Equals -8 sum_k C(2k,k)^2 [H2_{2k} - (1/4) H2_k] (t/16)^k; the finite
    difference route is an oracle in the tests, not the production path.
    """
    w = WeightSpec.combo({"H2_2K": 1, "H2_K": Fraction(-1, 4)})
    with ctx.working():
        return ensure_finite(-8 * binom2_series(mpc(t) / 16, w, ctx))


# ---------------------------------------------------------------------------
# Hyperbolic Lambert sums
# ---------------------------------------------------------------------------

# each kernel kind as (e, fa, fb, pb): with v = x^2 and d = 1 + e v, the
# kernel at x = c u is c fa u/d + fb v/d^pb (x/(1-x) = (x + x^2)/(1 - x^2))
_KERNELS = {
    "EXPM1": (-1, 1, 1, 1),
    "EXPM1_ALT": (-1, 1, 1, 1),
    "COSH_SQ": (1, 0, 4, 2),
    "SINH_SQ": (-1, 0, 4, 2),
    "COSH_1": (1, 2, 0, 0),
    "HALF_ODD_COSH": (1, 1, 0, 0),
}


@dataclass(frozen=True)
class HypKernel:
    """A hyperbolic summand family.

    parity ALL sums n >= 1 with argument theta_n = 2 n pi z / i and weight
    n^-a; parity ODD sums n >= 0 with theta_n = (2n+1) pi z / i and weight
    (2n+1)^-a.  Writing x = exp(-theta_n), the kernels are rational in x:

        EXPM1               1/(e^theta - 1)          = x/(1-x)
        EXPM1_ALT           same with (-1)^n
        COSH_SQ             1/cosh^2                 = 4x^2/(1+x^2)^2
        SINH_SQ             1/sinh^2                 = 4x^2/(1-x^2)^2
        COSH_1              1/cosh                   = 2x/(1+x^2)
        HALF_ODD_COSH       q^(n+1/2)/(1+q^(2n+1))   = x/(1+x^2)   (ODD only)
    """

    kind: str
    parity: str = "ODD"
    a: int = 2

    def __post_init__(self) -> None:
        if self.kind not in _KERNELS:
            raise DomainError("unknown kernel kind %r" % (self.kind,))
        if self.parity not in ("ODD", "ALL"):
            raise DomainError("kernel parity must be ODD or ALL")
        if self.a < 1:
            raise DomainError("kernel exponent a must be >= 1")


def hyp_lambert(z, kernel: HypKernel, ctx: PrecisionCtx) -> mpc:
    """The designated hyperbolic sum at z, with a geometric tail certificate.

    With step = exp(2 pi i z), the n-th kernel argument is x_n = c step^n:
    c = 1 and n >= 1 for parity ALL, c = exp(pi i z) and n >= 0 for ODD.
    Each kernel is c A(u, v) + B(v) in u = step^n and v = x_n^2
    (``_KERNELS``), so the sums of A and B run over powers of step alone and
    c multiplies once at the end.  step is the nome of z and c that of z/2
    (``modular._nome``), each from an exact phase: on Re z in (1/2)Z, step
    is an exact real and so are both sums, while c is exactly real or
    imaginary; elsewhere the imaginary parts keep their ``_dust_bits``
    scale.  Each term is fixed-point integer pairs at 2^wp: u and v advance
    by one product each, 1/d is one integer division (``mpcore._cinv``), and
    the weight n^-a or (2n+1)^-a is a floor division.

    Stop rule: for |x| < 0.6 each kernel is at most 13|x|, since
    |1 - x| > 0.4 and |1 +- x^2| > 0.64; the worst, SINH_SQ, is below
    4|x|^2/0.64^2 < 5.9|x|, so 13 bounds them all with room.  The
    weights are at most 1, so the rest of the sum after the term at x is at
    most 13|x||step|/(1 - |step|).  The walk's length is the first n at
    which that is below tiny, in floats as log2|x_n| = log2|c| + n log2|step|
    < log2 0.6 and log2 13 + log2|x_n| + log2|step| - log2(1 - |step|)
    < log2 tiny (``modular._walk_length``), which raises DomainError before
    summing when it passes 100 workdps terms.

    Guard bits: |d| >= 1 - |step|, so 1/d, and the rounding it carries, is
    at most (1-|step|)^-1 and the kernels' roundings at most
    (1-|step|)^-4 units; the N terms add up to N of them.  So wp carries
    log2 N + 4 log2(1/(1-|step|)) + 8 bits beyond the working precision.
    """
    z = _as_z(z, ctx)
    with ctx.working():
        odd = kernel.parity == "ODD"
        if not odd and kernel.kind == "EXPM1_ALT":
            raise DomainError("alternating kernels are supported for ODD parity only")
        c = _nome(z / 2) if odd else mpc(1)
        step = c * c if odd else _nome(z)
        if not abs(step) < 1:
            raise DomainError("hyp_lambert requires Im z > 0")
        ls, l1s = _nome_logs(z)  # |step| = |q|
        lc = ls / 2 if odd else 0.0
        lt = -ctx.workdps * log2(10)
        lim = min(log2(0.6), lt - log2(13) - ls + l1s)  # stop once log2|x_n| < lim
        n0 = 0 if odd else 1  # u = step^n, v = c^2 u^2, weight index 2n+1 or n
        n_end = _walk_length("hyp_lambert", lambda n: lc + n * ls < lim, n0, ctx)
        wp = mp.mp.prec + (n_end + 1 - n0).bit_length() + 4 * ceil(-l1s) + 8
        s = _dust_bits(step, wp)
        one = 1 << wp
        e, fa, fb, pb = _KERNELS[kernel.kind]
        sf = _to_fixed(step, wp, s)
        s2 = _cmul(*sf, *sf, wp, s)
        u, v = ((one, 0), sf) if odd else (sf, s2)
        ar = ai = br = bi = 0
        for n in range(n0, n_end + 1):
            wt = (2 * n + 1 if odd else n) ** kernel.a
            if kernel.kind == "EXPM1_ALT" and n % 2:
                wt = -wt
            rr, ri = _cinv(one + e * v[0], e * v[1], wp, s)  # 1/d
            if fa:
                tr, ti = _cmul(*u, rr, ri, wp, s)
                ar, ai = ar + fa * tr // wt, ai + fa * ti // wt
            if fb:
                tr, ti = _cmul(*v, rr, ri, wp, s)
                if pb == 2:
                    tr, ti = _cmul(tr, ti, rr, ri, wp, s)
                br, bi = br + fb * tr // wt, bi + fb * ti // wt
            u, v = _cmul(*u, *sf, wp, s), _cmul(*v, *s2, wp, s)
        with mp.workprec(wp):  # c A + B, rounded once to the working precision
            acc = _from_fixed(br, bi, wp, s)
            if fa:
                acc += c * _from_fixed(ar, ai, wp, s)
        return ensure_finite(+acc)


# ---------------------------------------------------------------------------
# Elliptic polylogarithm
# ---------------------------------------------------------------------------

def eli(n: int, m: int, x, y, q, ctx: PrecisionCtx) -> mpc:
    """ELi_{n;m}(x; y; q) = sum_{j>=1} x^j / j^n * Li_m(y q^j).

    Requires |q| < 1 together with |x q| < 1 and |y q| < 1 for absolute
    convergence of the defining double series.

    The double series is summed as it stands, on fixed-point integer pairs
    at 2^wp: with w = y q^j, the j-th outer term is
    sum_{k>=1} p_k / k^m / j^n with p_k = x^j w^k, so p_1 = y (xq)^j comes
    from a running product and each inner term costs one product by w and
    one floor division by k^m; each inner sum is floor-divided by j^n.  Every
    |p_k| <= |y|, so the roundings stay absolute units of 2^-wp whatever |x|
    is.  The imaginary parts take the smallest ``_dust_bits`` scale of the
    complex inputs among x, y and q.

    Outer length: |Li_m(y q^(j+1))| <= |y| |q|^(j+1)/(1-|yq|), so the rest
    after term j is at most |y| |xq|^(j+1)/((1-|xq|)(1-|yq|)), and the walk
    ends at the first j at which that is below tiny.
    Inner lengths: the rest of the j-th term after k is at most
    |p_k| |w| / (1-|w|) = |y| |xq|^j |w|^k / (1-|w|), and |w| <= |yq|, so it
    ends at the first k at which |y| |w|^k / ((1-|yq|)(1-|xq|)) is below
    tiny: then the rests of all inner sums add up to less than
    tiny sum_j |xq|^j (1-|xq|) < tiny.  Every length is planned before the
    walk (``modular._walk_length``), in floats in log2 form from |x q|,
    |y|, |q|, j and k; past 100 workdps terms it raises DomainError.

    Guard bits: each running product is off by at most (1+|y|) / (1-|xq|)
    or / (1-|q|) units and each p_k by that over (1-|yq|) more, so the T
    inner terms add at most T (1+|y|)^2 / ((1-|q|)(1-|xq|)(1-|yq|)) units,
    and wp carries log2 of that and 8 bits beyond the working precision.
    """
    if int(n) != n or n < 0 or int(m) != m or m < 0:
        raise DomainError("eli requires integer n, m >= 0")
    with ctx.working():
        x = mpc(x)
        y = mpc(y)
        q = mpc(q)
        if not abs(q) < 1:
            raise DomainError("eli requires |q| < 1")
        if not (abs(x * q) < 1 and abs(y * q) < 1):
            raise DomainError("eli requires |xq| < 1 and |yq| < 1")
        if x == 0 or q == 0 or y == 0:
            return mpc(0)
        xq, yq = abs(x * q), abs(y * q)
        lq, ly, lxq, l1x, l1y, l1q = (float(mp.log(v, 2)) for v in
                                      (abs(q), abs(y), xq, 1 - xq, 1 - yq, 1 - abs(q)))
        lim = -ctx.workdps * log2(10) + l1x + l1y - ly  # both rules compare with it
        j_end = _walk_length("eli", lambda j: (j + 1) * lxq < lim, 1, ctx)
        # the inner length at j, from log2|w| = log2|y q^j|
        k_ends = [_walk_length("eli", lambda k, lw=ly + j * lq: k * lw < lim, 1, ctx)
                  for j in range(1, j_end + 1)]
        wp = (mp.mp.prec + sum(k_ends).bit_length() + 2 * ceil(max(ly, 0) + 1)
              + ceil(-(l1x + l1y + l1q)) + 8)
        s = min([_dust_bits(v, wp) for v in (x, y, q) if v.imag] or [0])
        qf = _to_fixed(q, wp, s)
        with mp.workprec(wp):  # x q to a unit of 2^-wp, whatever |x| is
            xqf = _to_fixed(x * q, wp, s)
        lead = w = _to_fixed(y, wp, s)  # y (xq)^j and y q^j at j = 0
        acc_r = acc_i = 0
        for j, k_end in enumerate(k_ends, 1):
            lead, w = _cmul(*lead, *xqf, wp, s), _cmul(*w, *qf, wp, s)
            pr, pj = tr, ti = lead  # p_1
            for k in range(2, k_end + 1):
                pr, pj = _cmul(pr, pj, *w, wp, s)
                km = k ** m
                tr, ti = tr + pr // km, ti + pj // km
            jn = j ** n
            acc_r, acc_i = acc_r + tr // jn, acc_i + ti // jn
        return ensure_finite(_from_fixed(acc_r, acc_i, wp, s))
