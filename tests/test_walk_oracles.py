"""The fixed-point kernels against the mpf loops they replaced.

``_reference_binom_sums`` and ``_reference_nome_chains`` are the binomial
walk (with ``_Harmonics``) and the nome walk as they were written in mpf,
kept here as oracles; at the boundary rates the mpf walk sums each request
by its own mpf CVZ loop.  The integer kernels must agree with them to
10^-(workdps-2.5), relative to max(1, |value|), at 15, 30, 100 and 250
digits.  ``_reference_ell_k`` and ``_reference_ell_k_comp`` keep the mpc AGM
loop behind ``ell_k`` / ``ell_k_comp`` the same way; the fixed-point AGM must
agree with it to 8 units of 10^-workdps, relative to each part, at 15, 50,
100 and 250 digits.  The binomial walk's stop rule, and its CVZ at the
boundary rates, are also checked on their own: an entry must lie within 4
units of 10^-workdps of the same entry at 40 more digits, and each planned
last index must be the first at which the stated tail bound, taken in mpf,
is below the threshold, or one after which the walk's term is exactly 0.

``_reference_eta``, ``_reference_hyp_lambert`` and ``_reference_eli`` keep
the mpc loops behind ``eta`` (the N-factor product), ``hyp_lambert`` and
``eli``.  The fixed-point q-series kernels must agree with them to
10^-(workdps-2.5) at 15, 30, 100 and 250 digits (eta relative to |eta|, the
sums relative to max(1, |value|)), and each lies within 4 units of
10^-workdps of itself at 40 more digits.
"""

from fractions import Fraction
from itertools import accumulate, islice
from math import comb

import mpmath as mp
import pytest
from mpmath import mpc, mpf

from modzeta import (DomainError, HypKernel, PrecisionCtx, alpha4, eisenstein_eta_form, eli,
                     eta, hyp_lambert, lambda_fn)
from modzeta.modular import (_AT_Q, _CHAINS, _EIS_POWER, _THEOREM_RECORD, _as_z, _nome,
                             _nome_chains)
from modzeta.mpcore import _dust_bits, ensure_finite
from modzeta import mpcore, series
from modzeta.series import (LinearFactor, W_ONE, WeightSpec, _binom_sums, binom3_series,
                            ell_k, ell_k_comp)
from modzeta.verify import get_records
from modzeta.verify.registry import _Z
from modzeta.verify.runner import _evaluate
from modzeta.verify.theorems import (W_H2_DIFF, W_H3_DIFF, _series_plan, h3_linear,
                                     h3_ratios, q_ratios, r_linear)
from oracles import tail_poly_geom

DIGITS = (15, 30, 100, 250)


# ---------------------------------------------------------------------------
# The mpf binomial walk
# ---------------------------------------------------------------------------

# each weight basis as a function of the running accumulators at index k
_BASIS = {
    "ONE": lambda h: mpf(1),
    "H1_K": lambda h: h.h1k,
    "H1_2K": lambda h: h.h12k,
    "H2_K": lambda h: h.h2k,
    "H2_2K": lambda h: h.h22k,
    "H3_K": lambda h: h.h3k,
    "H3_2K": lambda h: h.h32k,
    "INVSQ_2K1": lambda h: 1 / mpf(2 * h.k + 1) ** 2,
    "H2_2K_TIMES_DH1": lambda h: h.h22k * (h.h12k - h.h1k),
    "H2_K_TIMES_DH1": lambda h: h.h2k * (h.h12k - h.h1k),
    "H3MIX": lambda h: h.h3k - 3 * h.h2k * (h.h12k - h.h1k),
}


class _Harmonics:
    """Running H_k, H_{2k}, H^(2), H^(3) accumulators, updated in O(1) per k."""

    __slots__ = ("h1k", "h12k", "h2k", "h22k", "h3k", "h32k", "k")

    def __init__(self) -> None:
        self.k = 0
        self.h1k = mpf(0)
        self.h12k = mpf(0)
        self.h2k = mpf(0)
        self.h22k = mpf(0)
        self.h3k = mpf(0)
        self.h32k = mpf(0)

    def advance(self) -> None:
        # move from index k to k+1
        self.k += 1
        k = mpf(self.k)
        self.h1k += 1 / k
        self.h2k += 1 / k ** 2
        self.h3k += 1 / k ** 3
        a, b = mpf(2 * self.k - 1), mpf(2 * self.k)
        self.h12k += 1 / a + 1 / b
        self.h22k += 1 / a ** 2 + 1 / b ** 2
        self.h32k += 1 / a ** 3 + 1 / b ** 3

    def weight(self, spec):
        total = mpf(0)
        for coeff, basis in spec.terms:
            total += (mpf(coeff.numerator) / coeff.denominator) * _BASIS[basis](self)
        return total


def _weight_growth_guard(k: int) -> mpf:
    # Relative growth of any supported weight from k to k+1 is at most
    # 1 + 2/k for k >= 2 (harmonic increments), squared for the products.
    return (1 + mpf(2) / max(k, 2)) ** 2


def _reference_binom_sums(x, power, requests, ctx):
    name = "binom%d series" % power
    scale = 4 ** power
    with ctx.working():
        x = mpc(x)
        requests = list(requests)
        facs = list(dict.fromkeys(f for f, _ in requests))
        specs = list(dict.fromkeys(w for _, w in requests))
        slots = [(facs.index(f), specs.index(w)) for f, w in requests]
        facs = [(mpc(f.a), mpc(f.b)) for f in facs]
        tiny = ctx.tiny()
        # |4^power x| within 10^-(workdps-6) of 1 is the boundary
        r, slack = abs(scale * x), mpf(10) ** (-(ctx.workdps - 6))
        if r > 1 + slack:
            raise DomainError("%s diverges: |%dx| > 1" % (name, scale))
        if r >= 1 - slack:
            if mp.re(scale * x) > 0:
                raise DomainError("%s: non-alternating boundary rate unsupported" % name)
            dust = [mp.im(scale * x)] + [mp.im(v) for f in facs for v in f]
            if max(abs(d) for d in dust) > slack:
                raise DomainError("%s: imaginary part of the boundary rate or of "
                                  "a linear factor exceeds the slack" % name)
            return _reference_accelerated(mp.re(x), power, facs, specs, slots, ctx)

        acc = [mpc(0)] * len(slots)
        live = list(range(len(slots)))  # requests whose tail is not yet certified
        term_base = mpc(1)  # C(2k,k)^power x^k
        har = _Harmonics()
        k = 0
        ax = abs(x)
        abs_facs = [(abs(a), abs(b)) for a, b in facs]
        while True:
            wts = [har.weight(w) for w in specs]
            lin = [term_base * (a * k + b) for a, b in facs]
            for i in live:
                fi, wi = slots[i]
                acc[i] += lin[fi] * wts[wi]
            # ratio of successive |C^power x^k| is at most |4^power x|; weight
            # and the linear factor add at most (1+6/k)-type growth
            if k >= 8:
                grow = r * (1 + mpf(6) / k)
                if grow < 1:
                    head = abs(term_base) * scale * ax
                    heads = [head * (aa * (k + 1) + ab + aa) for aa, ab in abs_facs]
                    guard = _weight_growth_guard(k)
                    still = []
                    for i in live:
                        fi, wi = slots[i]
                        # the weight and guard factors are >= 1, so a head at
                        # or above tiny already fails the test
                        if heads[fi] >= tiny:
                            still.append(i)
                            continue
                        bound = heads[fi] * (abs(wts[wi]) + 1) * guard
                        if not bound * grow / (1 - grow) + bound < tiny:
                            still.append(i)
                    live = still
                    if not live:
                        break
            term_base *= mpf(2 * (2 * k + 1)) ** power / mpf(k + 1) ** power * x
            har.advance()
            k += 1
            if k > 400 * ctx.workdps:
                raise DomainError("%s failed to converge" % name)
        return [ensure_finite(v) for v in acc]


def _reference_accelerated(xr, power, facs, specs, slots, ctx):
    # Boundary rate xr = -1/4^power: CVZ Algorithm 1 in mpf over the first n
    # terms of each request (Cohen, Rodriguez Villegas and Zagier, 2000)
    n = (14 * ctx.digits + 9) // 10 + 20  # ceil(1.4 digits) + 20
    d = (3 + mp.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    bk, ck = mpf(-1), -d
    facs = [(mp.re(a), mp.re(b)) for a, b in facs]
    acc = [mpf(0)] * len(slots)
    term_base = mpf(1)
    har = _Harmonics()
    for k in range(n):
        ck = bk - ck
        wts = [har.weight(w) for w in specs]
        lin = [term_base * (a * k + b) for a, b in facs]
        for i, (fi, wi) in enumerate(slots):
            acc[i] += (-1) ** k * ck * lin[fi] * wts[wi]
        bk *= mpf(2 * (k + n) * (k - n)) / ((2 * k + 1) * (k + 1))
        term_base *= mpf(2 * (2 * k + 1)) ** power / mpf(k + 1) ** power * xr
        har.advance()
    return [ensure_finite(mpc(v / d)) for v in acc]


# ---------------------------------------------------------------------------
# The mpf nome walk
# ---------------------------------------------------------------------------

def _reference_nome_chains(z, ctx):
    with ctx.working():
        q = _nome(z)
        qa = abs(q)
        tiny = ctx.tiny()
        kb = 6 / (1 - qa) ** 4
        eis = dict(_EIS_POWER)  # Eisenstein chains still summing
        acc = dict.fromkeys(_CHAINS + tuple(eis), mpc(0))
        eichler_live = True
        u = mpc(1)
        # |q|^(n+1) bounds every tail bound below: while it is at least
        # 2 tiny (the 2 covers rounding) no chain can stop, so the costlier
        # bounds are evaluated only near each chain's end
        qa_next, near = qa, 2 * tiny
        n = 0
        while eichler_live or eis:
            n += 1
            m = mpf(n)
            u *= q  # u = q^n
            d = 1 - u
            qa_next *= qa
            near_end = qa_next < near
            for key, p in list(eis.items()):
                acc[key] += m ** p * u / d
                if near_end and tail_poly_geom(qa, n, p) / (1 - qa) < tiny:
                    del eis[key]
            if eichler_live:
                ker = (u / d, u / d ** 2, u * (1 + u) / d ** 3,
                       u * (1 + 4 * u + u * u) / d ** 4)
                npow = {p: m ** p for p in range(-5, 0)}
                for weight, order in _CHAINS:
                    acc[weight, order] += npow[order - weight + 1] * ker[order]
                eichler_live = not (near_end
                                    and qa ** (n + 1) / (1 - qa) * kb < tiny)
    return acc


# ---------------------------------------------------------------------------
# The mpc AGM
# ---------------------------------------------------------------------------

def _reference_agm_principal(b, ctx):
    # AGM(1, b) with principal square roots; optimal for Re b > 0, and the
    # |a-b| <= |a+b| right-choice rule guards the remaining cases.
    a = mpc(1)
    b = mpc(b)
    tiny = ctx.tiny()
    for _ in range(ctx.workdps + 30):
        if abs(a - b) <= tiny * abs(a):
            break
        a, b = (a + b) / 2, mp.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
    return a


def _reference_ell_k(t, ctx):
    with ctx.working():
        t = mpc(t)
        if mp.im(t) == 0 and mp.re(t) >= 1:
            raise DomainError("ell_k: t on the branch cut [1, oo)")
        b = mp.sqrt(1 - t)
        if mp.re(b) < 0:
            b = -b
        val = mp.pi / (2 * _reference_agm_principal(b, ctx))
        if mp.im(t) == 0 and mp.re(t) < 1:
            val = mpc(mp.re(val))
        return ensure_finite(val)


def _reference_ell_k_comp(t, ctx):
    with ctx.working():
        t = mpc(t)
        if mp.im(t) == 0 and mp.re(t) <= 0:
            raise DomainError("ell_k_comp: t on the branch cut (-oo, 0]")
        val = mp.pi / (2 * _reference_agm_principal(mp.sqrt(t), ctx))
        if mp.im(t) == 0 and mp.re(t) > 0:
            val = mpc(mp.re(val))
        return ensure_finite(val)


# ---------------------------------------------------------------------------
# Kernels against oracles
# ---------------------------------------------------------------------------

def _close(new, ref, ctx):
    bound = mpf(10) ** -(ctx.workdps - mpf("2.5"))
    return abs(new - ref) <= bound * max(1, abs(ref))


# two weights that read all eleven bases between them
_EVERY_BASIS = (
    WeightSpec.combo({"H3MIX": 2, "INVSQ_2K1": Fraction(1, 3), "H1_2K": 1,
                      "H2_2K": -1, "ONE": Fraction(1, 5)}),
    WeightSpec.combo({"H2_2K_TIMES_DH1": 1, "H2_K_TIMES_DH1": -1,
                      "H3_2K": Fraction(1, 7), "H1_K": 5, "H3_K": 1, "H2_K": -2}),
)


def _theorem_requests(z, ctx):
    # the rate and the nine sums of a theorem point, from its series plan,
    # which checks the point but does not walk
    plan = _series_plan(_as_z(z, ctx), ctx)
    return plan["x"], plan["requests"]


def _binom_case(case, ctx):
    """(rate, power, requests) of one comparison case."""
    every_basis = [(LinearFactor(mpc("1.5", "-0.5"), mpf("0.25")), w)
                   for w in _EVERY_BASIS]
    real_bases = [(LinearFactor(3, -1), w) for w in _EVERY_BASIS]
    with ctx.working():
        if case == "z=0.55i":  # 64x = 0.957: 6,020 terms at 100 digits
            x, reqs = _theorem_requests(mpc(0, "0.55"), ctx)
            return x, 3, reqs
        if case == "z=1/2+i/sqrt2":  # the theorem rate -1/64, summed by CVZ
            x, reqs = _theorem_requests(mpf(1) / 2 + mpc(0, 1) / mp.sqrt(2), ctx)
            return x, 3, reqs
        if case == "64x=0.64+0.512i":
            return mpc("0.64", "0.512") / 64, 3, every_basis
        if case == "64x=-0.83":
            return mpf("-0.83") / 64, 3, every_basis
        if case == "64x=-1":  # the cubed boundary rate, summed by CVZ
            return mpf(-1) / 64, 3, real_bases
        return mpf(-1) / 16, 2, real_bases  # binom2 at 16x = -1


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("case", ["z=0.55i", "64x=0.64+0.512i", "64x=-0.83",
                                  "z=1/2+i/sqrt2", "64x=-1", "binom2 16x=-1"])
def test_binom_walk_matches_mpf_oracle(case, digits):
    ctx = PrecisionCtx(digits)
    x, power, reqs = _binom_case(case, ctx)
    new = _binom_sums(x, power, reqs, ctx)
    ref = _reference_binom_sums(x, power, reqs, ctx)
    with ctx.working():
        for i, (a, b) in enumerate(zip(new, ref)):
            assert _close(a, b, ctx), (case, i, a, b)


@pytest.mark.parametrize("digits", (15, 100, 250))
@pytest.mark.parametrize("case", ["z=0.55i", "64x=0.64+0.512i", "64x=-0.83",
                                  "64x=-1", "binom2 16x=-1"])
def test_binom_walk_stops_within_its_tail_bound(case, digits):
    # each entry lies within 4 units of 10^-workdps, relative to max(1, |S|),
    # of the same entry summed at 40 more digits
    ctx, ref_ctx = PrecisionCtx(digits), PrecisionCtx(digits + 40)
    x, power, reqs = _binom_case(case, ctx)
    new = _binom_sums(x, power, reqs, ctx)
    ref = _binom_sums(x, power, reqs, ref_ctx)
    with ref_ctx.working():
        for i, (a, b) in enumerate(zip(new, ref)):
            assert abs(a - b) <= 4 * ctx.tiny() * max(1, abs(b)), (case, i, a, b)


def test_binom_walk_takes_coefficients_beyond_the_float_range(ctx30):
    # each request's bound is scaled into floats, so a linear factor of
    # 1e400 or 1e-400 neither overflows nor stops early; an infinite one
    # never meets its bound and its plan raises before summing
    x = mpf(1) / 4096
    reqs = [(LinearFactor(mpf("1e400"), 1), w) for w in _EVERY_BASIS]
    reqs.append((LinearFactor(mpf("1e-400"), 0), W_ONE))
    new = _binom_sums(x, 3, reqs, ctx30)
    ref = _reference_binom_sums(x, 3, reqs, ctx30)
    with ctx30.working():
        for i, (a, b) in enumerate(zip(new, ref)):
            assert _close(a, b, ctx30), (i, a, b)
    with pytest.raises(DomainError, match="failed to converge"):
        _binom_sums(x, 3, [(LinearFactor(mp.inf, 1), W_ONE)], ctx30)


def _counted_steps(monkeypatch):
    """One entry per binomial walk started: the number of terms it took."""
    counts, steps = [], series._binom_steps

    def counted(*args):
        counts.append(0)
        for step in steps(*args):
            counts[-1] += 1
            yield step
    monkeypatch.setattr(series, "_binom_steps", counted)
    return counts


@pytest.mark.parametrize("digits", (15, 250))
def test_binom_plan_ends_where_the_term_underflows(digits, monkeypatch):
    # a linear factor of 1e400 keeps the stated bound above tiny long after
    # the fixed-point term is exactly 0 (at 15 digits from index 24 of the
    # 239 that bound takes); the plan ends there instead, the walk takes
    # at most two zero terms, and those requests walked 300 steps further
    # give the same sums bit for bit
    ctx = PrecisionCtx(digits)
    with ctx.working():
        x = mpf(1) / 4096
    reqs = [(LinearFactor(0, 1), W_ONE)]
    reqs += [(LinearFactor(mpf("1e400"), 1), w) for w in _EVERY_BASIS]
    terms, steps = [], series._binom_steps

    def recorded(*args):
        for tr, ti, h in steps(*args):
            terms.append((tr, ti))
            yield tr, ti, h
    monkeypatch.setattr(series, "_binom_steps", recorded)
    planned = _binom_sums(x, 3, reqs, ctx)
    first_zero = terms.index((0, 0))
    assert set(terms[first_zero:]) == {(0, 0)} and len(terms) <= first_zero + 2
    ends = series._binom_ends
    monkeypatch.setattr(series, "_binom_ends",
                        lambda *args: [e if i == 0 else e + 300
                                       for i, e in enumerate(ends(*args))])
    terms.clear()
    assert _binom_sums(x, 3, reqs, ctx) == planned
    assert len(terms) > first_zero + 300


def test_binom_walk_edge_inputs(ctx30, monkeypatch):
    # an empty request list starts no walk, at an interior and at a boundary
    # rate; a zero rate and a zero linear factor end at the first term; the
    # boundary rate takes exactly ceil(1.4 digits) + 20 terms, 83 at 45
    # digits, where an mpf 1.4 would round up to 84
    counts = _counted_steps(monkeypatch)
    with ctx30.working():
        assert _binom_sums(mpf(1) / 4096, 3, [], ctx30) == []
        assert _binom_sums(mpf(-1) / 64, 3, [], ctx30) == []
        assert counts == []
        zero = LinearFactor(0, 0)
        assert _binom_sums(0, 3, [(LinearFactor(7, 3), W_ONE), (zero, W_ONE)], ctx30) == [3, 0]
        assert _binom_sums(mpf(1) / 4096, 3, [(zero, w) for w in _EVERY_BASIS], ctx30) == [0, 0]
        assert counts == [1, 1]
    ctx45 = PrecisionCtx(45)
    with ctx45.working():
        _binom_sums(mpf(-1) / 64, 3, [(LinearFactor(0, 1), W_ONE)], ctx45)
    assert counts == [1, 1, 83]


def test_binom_plan_raises_before_summing(monkeypatch):
    # a rate whose walk would pass 400 workdps terms raises from its plan,
    # before the walk takes a term
    def no_walk(*args):
        raise AssertionError("the walk started")
    monkeypatch.setattr(series, "_binom_steps", no_walk)
    ctx = PrecisionCtx(30)
    with ctx.working():
        x = mpf("-0.9999") / 64
    with pytest.raises(DomainError, match="failed to converge"):
        series.binom3_sums(x, [(LinearFactor(0, 1), W_ONE)], ctx)
    x, reqs = _theorem_requests(mpf(1) / 2 + mpc(0, "0.7072"), ctx)
    with pytest.raises(DomainError, match="failed to converge"):
        series.binom3_sums(x, reqs, ctx)


@pytest.mark.parametrize("digits", (30, 100))
@pytest.mark.parametrize("point", ["1/2+0.9i", "0.8i"])
def test_theorem_point_walks_real_integers(point, digits, monkeypatch):
    # on both theorem lines the nome is an exact real, so alpha4, the rate
    # and all 16 evaluator sides have an imaginary part of exactly 0, the
    # rate takes no dust scale, every term the binomial walk takes is (t, 0)
    # and so is each linear factor
    ctx = PrecisionCtx(digits)
    with ctx.working():
        z = {"1/2+0.9i": mpc("0.5", "0.9"), "0.8i": mpc(0, "0.8")}[point]
    monkeypatch.setattr(mpcore, "_memo", {})  # so the point's walk runs here
    terms, steps = [], series._binom_steps

    def recorded(*args):
        for tr, ti, h in steps(*args):
            terms.append((tr, ti))
            yield tr, ti, h
    monkeypatch.setattr(series, "_binom_steps", recorded)
    sides = {}
    for evaluate in (q_ratios, r_linear, h3_ratios, h3_linear):
        sides.update(((evaluate.__name__, key), v) for key, v in evaluate(z, ctx).items())
    plan = _series_plan(z, ctx)
    assert len(sides) == 16 and terms
    assert all(v.imag == 0 for v in sides.values()), sides
    assert plan["a4"].imag == 0 and plan["x"].imag == 0
    assert all(ti == 0 for _, ti in terms)
    assert all(mpc(v).imag == 0 for f, _ in plan["requests"] for v in (f.a, f.b))
    with ctx.working():
        assert _dust_bits(plan["x"], mp.mp.prec + series._binom_guard(ctx)) == 0


@pytest.mark.parametrize("digits", (30, 250))
def test_binom_walk_updates_only_the_sums_its_bases_read(digits, monkeypatch):
    # a theorem point's walk keeps H2_k, H2_2k, H3_k and H3_2k and no other
    # sum, and every sum, H^(r)_2k's even terms shifted from H^(r)_k's,
    # equals the same sum of 2^wp // n^r divided directly; so does a walk
    # over every basis, which keeps all six sums
    ctx = PrecisionCtx(digits)
    with ctx.working():
        z = mpc("0.5", "0.8")
    monkeypatch.setattr(mpcore, "_memo", {})  # so the point's walk runs here
    walks, steps = [], series._binom_steps

    def recorded(x, power, bases, wp, sd):
        walks.append((wp, []))
        for tr, ti, h in steps(x, power, bases, wp, sd):
            walks[-1][1].append(dict(h))
            yield tr, ti, h
    monkeypatch.setattr(series, "_binom_steps", recorded)
    h3_linear(z, ctx)
    with ctx.working():
        binom3_series(mpf(1) / 300, LinearFactor(0, 1), WeightSpec.combo(
            {b: 1 for b in series._BASIS}), ctx)
    (wp, theorem), (_, every) = walks
    sums = {"H%d_%s" % (r, n) for r in (1, 2, 3) for n in ("K", "2K")}
    assert all(set(h) == sums - {"H1_K", "H1_2K"} for h in theorem)
    assert all(set(h) & sums == sums for h in every)
    one, n = 1 << wp, 2 * max(len(theorem), len(every))
    divided = {r: list(accumulate((one // m ** r for m in range(1, n)), initial=0))
               for r in (1, 2, 3)}  # divided[r][n] = sum of 2^wp // m^r, m <= n
    for h_steps in (theorem, every):
        assert len(h_steps) > 30
        for k, h in enumerate(h_steps):
            for key in sums & set(h):
                r, top = int(key[1]), k * (1 + key.endswith("2K"))
                assert h[key] == divided[r][top], (k, key)


def _stated_tail(x, power, factor, w, k):
    """|t_k| (P2 k^2 + P1 k + P0) in mpf from the exact C(2k,k), as ``_binom_ends`` states."""
    r = abs(4 ** power * x)
    g0 = r / (1 - r)
    g1, g2 = g0 / (1 - r), g0 * (1 + r) / (1 - r) ** 2
    s, l = (Fraction(sum(abs(c) * series._BASIS[n][j] for c, n in w.terms)) for j in (1, 2))
    s, l = mpf(s.numerator) / s.denominator, mpf(l.numerator) / l.denominator
    a, b = abs(mpc(factor.a)), abs(mpc(factor.b))
    p = ((a * l * g0 * k + (b * l + a * s) * g0 + 2 * a * l * g1) * k
         + b * s * g0 + (b * l + a * s) * g1 + a * l * g2)
    return mpf(comb(2 * k, k)) ** power * abs(x) ** k * p


@pytest.mark.parametrize("digits", (30, 100))
@pytest.mark.parametrize("power,rate", [(3, "1/4096"), (3, "(0.64+0.512i)/64"),
                                        (3, "-0.96/64"), (2, "0.9i/16")])
def test_binom_plan_stops_where_its_bound_does(power, rate, digits):
    # the float scan's last index of each request is the first k at which
    # the stated tail bound, taken in mpf, is below tiny (up to 2^-40
    # relative slack for the floats' rounding), or, where that bound is
    # still above tiny, an index after which the walk's term is exactly 0;
    # for every weight basis, the theorems' two-term weights and linear
    # factors beyond the float range
    ctx = PrecisionCtx(digits)
    factors = [LinearFactor(0, 1), LinearFactor(mpc("1.5", "-0.5"), mpf("0.25")),
               LinearFactor(mpf("1e400"), 1), LinearFactor(mpf("1e-400"), 0)]
    specs = [WeightSpec.combo({basis: 1}) for basis in series._BASIS] + [W_H2_DIFF, W_H3_DIFF]
    slots = [(fi, wi) for fi in range(len(factors)) for wi in range(len(specs))]
    with ctx.working():
        x = {"1/4096": mpf(1) / 4096, "(0.64+0.512i)/64": mpc("0.64", "0.512") / 64,
             "-0.96/64": mpf("-0.96") / 64, "0.9i/16": mpc(0, "0.9") / 16}[rate]
        wp = mp.mp.prec + series._binom_guard(ctx)
        facs = [(mpc(f.a), mpc(f.b)) for f in factors]
        gap = 1 - 4 ** power * abs(x)
        ends = series._binom_ends(x, power, gap, facs, specs, slots, wp, ctx)
        tiny = ctx.tiny()
        steps = series._binom_steps(x, power, [], wp, _dust_bits(x, wp))
        terms = [(tr, ti) for tr, ti, _ in islice(steps, max(ends) + 2)]
    slack = mpf(2) ** -40
    underflow_ends = 0
    with mp.workdps(ctx.workdps + 20):
        for (fi, wi), end in zip(slots, ends):
            req = (x, power, factors[fi], specs[wi])
            assert end == 0 or _stated_tail(*req, end - 1) >= tiny * (1 - slack), (fi, wi, end)
            if _stated_tail(*req, end) >= tiny * (1 + slack):
                assert terms[end + 1] == (0, 0), (fi, wi, end)
                underflow_ends += 1
    assert underflow_ends <= len(specs)  # the 1e400 factor's at most


def _nome_points():
    pts = dict(_Z)
    pts["0.2+0.1i"] = lambda: mpc("0.2", "0.1")
    pts["0.1+0.04i"] = lambda: mpc("0.1", "0.04")
    return pts


@pytest.mark.parametrize("digits", DIGITS)
def test_nome_walk_matches_mpf_oracle(digits):
    ctx = PrecisionCtx(digits)
    for name, point in _nome_points().items():
        with ctx.working():
            z = mpc(point())
        new = _nome_chains.__wrapped__(z, _AT_Q, ctx)[1]
        ref = _reference_nome_chains(z, ctx)
        assert set(new) == set(ref)
        with ctx.working():
            for key in ref:
                assert _close(new[key], ref[key], ctx), (name, key)


def _record_points():
    """Points on both theorem lines, near Im z = 0.03 and on neither line."""
    return [mpc(0, "0.55"), mpc(0, "1.3"), mpc("0.5", "0.75"), mpc("0.5", "1.3"),
            mpc("0.5", "0.0301"), mpc("0.2", "0.1")]


@pytest.mark.parametrize("digits", (15, 100, 250))
def test_theorem_record_matches_single_walks_at_40_more_digits(digits):
    # a walk holds the chains it is asked for at each power of q it is asked
    # for, and, when those cover q, q^2 and q^4, at -q too, derived from the
    # other three; each chain lies within half a unit of 10^-workdps,
    # relative to max(1, |value|), of the single walk at z, 2z, 4z and
    # z + 1/2 at 40 more digits, as the walk's docstring states.  The
    # requests: the theorem record; the seven Eichler chains at q, q^2 and
    # q^4, whose chains (6, 0) and (6, 1) at -q take the shifts t = 4 and 3;
    # and every chain at q alone, where q is taken to a unit of the walk's
    # precision as in the record (rounded at working precision instead, E6
    # reads up to 1.85 units off at 0.5 + 0.0301i)
    ctx, fine = PrecisionCtx(digits), PrecisionCtx(digits + 40)
    unit = mpf(10) ** -ctx.workdps
    requests = (_THEOREM_RECORD, ((1, 2, 4), _CHAINS), _AT_Q)
    for z in _record_points():
        with ctx.working():
            z = mpc(z)
        with fine.working():
            points = {1: z, 2: 2 * z, 4: 4 * z, "-q": z + mpf(1) / 2}
            refs = {m: _nome_chains.__wrapped__(w, _AT_Q, fine)[1] for m, w in points.items()}
        for powers, chains in requests:
            walk = _nome_chains.__wrapped__(z, (powers, chains), ctx)
            assert set(walk) == set(powers) | ({"-q"} if {1, 2, 4} <= set(powers) else set())
            for m, got in walk.items():
                assert set(got) == set(chains), (powers, m)
                with fine.working():
                    for key, v in got.items():
                        val = refs[m][key]
                        assert abs(v - val) <= unit / 2 * max(1, abs(val)), (z, powers, m, key)


def test_weight6_sum_rules_keep_their_residuals():
    # the E6 chain multiplies the rounding of u/(1-u) by n^5, so too few
    # guard bits show first in these records (the mpf walk gave 2.3e-116
    # to 7.7e-114 at 100 digits)
    ctx = PrecisionCtx(100)
    ids = {"sr.sumE6.z0", "sr.sumE6.z1", "sr.sumE6.z2", "sr.e6etaform"}
    recs = [r for r in get_records("sum-rules") if r.id in ids]
    assert {r.id for r in recs} == ids
    for rec in recs:
        row = _evaluate(rec, ctx)
        assert mpf(row["abs_residual"]) < mpf("1e-112"), (rec.id, row["abs_residual"])


AGM_DIGITS = (15, 50, 100, 250)


def _agm_points():
    """Real, complex, huge and h3mix2-path arguments of ell_k / ell_k_comp."""
    pts = [mpf(10) ** -j for j in (5, 12, 40, 100, 150, 250, 370)]
    pts += [1 - mpf(10) ** -j for j in (5, 12)]
    pts += [mpf(k) / 37 for k in range(1, 37)]
    pts += [mpc(x, y) for x in ("-2", "-0.5", "0.1", "0.5", "0.9", "1", "1.5", "3")
            for y in ("-1", "-0.01", "0.05", "2")]
    pts += [mpc("1e8", "1e3"), mpc("-1e30", "1"), mpf("-1e30")]
    # imaginary parts far below the real part, beyond the working precision
    pts += [mpc("0.3", "1e-40"), mpc("0.3", "-1e-40"), mpc("0.5", "1e-200"),
            mpc("-0.3", "1e-200")]
    # the line Im s = 0.05 past the branch point s = 1, and the ray
    # s = t + i (1-v)/v of h3mix2_tail_integral, from t = 0.3 + 0.05i
    t = mpc("0.3", "0.05")
    vs = [mpf(v) for v in ("0.999", "0.9", "0.5", "0.1", "1e-3", "1e-10", "1e-30")]
    pts += [t + (1 - v) / v for v in vs] + [t + mpc(0, 1) * (1 - v) / v for v in vs]
    # on the branch cuts, where both sides must raise
    pts += [mpf(1), mpf("1.5"), mpf("1e30"), mpf(0), mpf("-0.5")]
    return pts


@pytest.mark.parametrize("digits", AGM_DIGITS)
def test_agm_kernel_matches_mpc_oracle(digits):
    ctx = PrecisionCtx(digits)
    unit = mpf(10) ** -ctx.workdps
    for new_fn, ref_fn in ((ell_k, _reference_ell_k), (ell_k_comp, _reference_ell_k_comp)):
        for t in _agm_points():
            with ctx.working():
                t = mpc(t)
            try:
                ref = ref_fn(t, ctx)
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    new_fn(t, ctx)
                assert str(got.value) == str(exc)
                continue
            new = new_fn(t, ctx)
            # componentwise, as the mpc loop: each part to its own relative
            # precision, so an imaginary dust is kept, and a real t gives a real K
            with ctx.working():
                for got, want in ((new.real, ref.real), (new.imag, ref.imag)):
                    assert abs(got - want) <= 8 * unit * abs(want), (new_fn.__name__, t)


def test_agm_kernel_raises_at_its_step_cap(monkeypatch, ctx30):
    # from 1 and sqrt(1/2) the AGM needs several steps to meet its bound
    monkeypatch.setattr(series, "_AGM_STEP_CAP", 2)
    with pytest.raises(DomainError, match="did not converge"):
        ell_k(mpf(1) / 2, ctx30)
    monkeypatch.undo()
    assert ell_k(mpf(1) / 2, ctx30).imag == 0


def test_agm_kernel_refuses_magnitudes_beyond_its_range(ctx30):
    # the guard bits grow with |log2 |u||; this would need integers of a
    # million bits, so the kernel refuses it before building any
    with pytest.raises(DomainError, match="outside"):
        ell_k_comp(mpf(2) ** -(2 ** 21), ctx30)
    with pytest.raises(DomainError, match="outside"):
        ell_k(-mpf(2) ** (2 ** 21), ctx30)


# ---------------------------------------------------------------------------
# The mpc q-series loops: eta, the hyperbolic Lambert sums, ELi
# ---------------------------------------------------------------------------

def _reference_eta(z, ctx):
    z = _as_z(z, ctx)
    with ctx.working():
        if mp.im(z) < mpf("0.03"):
            raise DomainError("eta is out of contract for Im z < 0.03")
        q = _nome(z)
        qa = abs(q)
        tiny = ctx.tiny()
        prod = mpc(1)
        qn = mpc(1)
        # |log(tail)| <= sum_{m>n} |q|^m/(1-|q|) = |q|^(n+1)/(1-|q|)^2, so the
        # product stops once the running power |q|^(n+1) falls below stop
        stop = tiny * (1 - qa) ** 2
        qa_next = qa
        while True:
            qn *= q
            prod *= 1 - qn
            qa_next *= qa
            if qa_next < stop:
                break
        return ensure_finite(mp.exp(mpc(0, 1) * mp.pi * z / 12) * prod)


# each kernel kind as a function of x = exp(-theta_n) and x2 = x^2
_REFERENCE_KERNELS = {
    "EXPM1": lambda x, x2: x / (1 - x),
    "EXPM1_ALT": lambda x, x2: x / (1 - x),
    "COSH_SQ": lambda x, x2: 4 * x2 / (1 + x2) ** 2,
    "SINH_SQ": lambda x, x2: 4 * x2 / (1 - x2) ** 2,
    "COSH_1": lambda x, x2: 2 * x / (1 + x2),
    "HALF_ODD_COSH": lambda x, x2: x / (1 + x2),
}


def _reference_hyp_lambert(z, kernel, ctx):
    z = _as_z(z, ctx)
    with ctx.working():
        tiny = ctx.tiny()
        if kernel.parity == "ALL":
            if kernel.kind == "EXPM1_ALT":
                raise DomainError("alternating kernels are supported for ODD parity only")
            step = mp.exp(2j * mp.pi * z)      # x_n = step^n
            x = mpc(1)
            idx = 0
        else:
            half = mp.exp(1j * mp.pi * z)      # x_n = half^(2n+1)
            step = half * half
            x = half / step                    # pre-divide; loop multiplies once
            idx = -1
        sa = abs(step)
        if not sa < 1:
            raise DomainError("hyp_lambert requires Im z > 0")
        kern = _REFERENCE_KERNELS[kernel.kind]
        acc = mpc(0)
        n = 0
        sign = 1
        while True:
            x *= step
            idx += 1 if kernel.parity == "ALL" else 2
            wt = mpf(idx) ** (-kernel.a)
            val = kern(x, x * x) * wt
            if kernel.kind == "EXPM1_ALT":
                val *= sign
                sign = -sign
            acc += val
            n += 1
            xa = abs(x)
            if xa < mpf("0.6") and 13 * xa * sa / (1 - sa) < tiny:
                break
            if n > 100 * ctx.workdps:
                raise DomainError("hyp_lambert failed to converge")
        return ensure_finite(acc)


def _reference_eli(n, m, x, y, q, ctx):
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
        tiny = ctx.tiny()

        def li_m(w: mpc) -> mpc:
            tot = mpc(0)
            wk = mpc(1)
            k = 0
            wa = abs(w)
            while True:
                k += 1
                wk *= w
                tot += wk / mpf(k) ** m
                if wa ** (k + 1) / (1 - wa) < tiny:
                    return tot

        acc = mpc(0)
        xj = mpc(1)
        qj = mpc(1)
        j = 0
        ra = abs(x * q)
        ya = abs(y)
        while True:
            j += 1
            xj *= x
            qj *= q
            acc += xj / mpf(j) ** n * li_m(y * qj)
            # |Li_m(y q^(j+1))| <= |y| |q|^(j+1)/(1-|yq|)
            if ya * ra ** (j + 1) / ((1 - ra) * (1 - abs(y * q))) < tiny:
                break
        return ensure_finite(acc)


def _eta_points():
    """z/2, z and 2z of admissible theorem points, and points near Im z = 0.03."""
    pts = [mpc(re, im) * f for re, im in (("0", "0.55"), ("0", "1.0"), ("0.5", "0.75"),
                                           ("0.5", "1.3"), ("0.25", "0.6"))
           for f in (mpf(1) / 2, 1, 2)]
    return pts + [mpc(0, "0.0301"), mpc("0.5", "0.0301"), mpc("0.2", "0.031"),
                  mpc("-0.3", "0.1"), mpc(0, 60)]


@pytest.mark.parametrize("digits", DIGITS)
def test_eta_series_matches_mpc_product(digits):
    ctx = PrecisionCtx(digits)
    for z in _eta_points():
        with ctx.working():
            z = mpc(z)
        new, ref = eta(z, ctx), _reference_eta(z, ctx)
        with ctx.working():
            assert abs(new - ref) <= mpf(10) ** -(ctx.workdps - mpf("2.5")) * abs(ref), z


@pytest.mark.parametrize("digits", (15, 100, 250))
def test_eta_quotients_agree_with_40_more_digits(digits):
    # eta, alpha4, lambda_fn and both eta forms are each within half a unit
    # of 10^-workdps of themselves at 40 more digits, relative to |value|:
    # each is rounded once, from a nome and pentagonal sums taken beyond the
    # working precision; alpha4 and eta also near Im z = 0.03, where
    # lambda_fn and the eta forms, which read the nome of z/2, raise
    ctx, fine = PrecisionCtx(digits), PrecisionCtx(digits + 40)
    unit = mpf(10) ** -ctx.workdps
    fns = {"eta": eta, "alpha4": alpha4, "lambda_fn": lambda_fn,
           "E4 eta form": lambda z, c: eisenstein_eta_form(z, 4, c),
           "E6 eta form": lambda z, c: eisenstein_eta_form(z, 6, c)}
    for z in _record_points() + [mpc("-0.3", "0.07"), mpc(0, 3)]:
        with ctx.working():
            z = mpc(z)
        for name, f in fns.items():
            if mp.im(z) < mpf("0.06") and name not in ("eta", "alpha4"):
                with pytest.raises(DomainError, match="Im z < 0.03"):
                    f(z, ctx)
                continue
            new, ref = f(z, ctx), f(z, fine)
            with fine.working():
                assert abs(new - ref) <= unit / 2 * abs(ref), (name, z)


# every kernel kind x parity; EXPM1_ALT is ODD only
_HYP_KERNELS = [HypKernel(kind, parity, 3 if kind == "EXPM1" else 2)
                for kind in ("EXPM1", "EXPM1_ALT", "COSH_SQ", "SINH_SQ", "COSH_1",
                             "HALF_ODD_COSH")
                for parity in ("ODD", "ALL") if (kind, parity) != ("EXPM1_ALT", "ALL")]


def _hyp_points():
    """The sec4 points (0.5 + 0.9i among them), the rn2p277 arguments z = iy
    and -1/(2z), a generic point and a slow one."""
    pts = [mpc(0, "0.8"), mpc(0, "1.1"), mpc("0.5", "0.9"), mpc("0.13", "0.81"),
           mpc("0.2", "0.1")]
    return pts + [z for y in ("0.6", "1.4") for z in (mpc(0, y), -1 / (2 * mpc(0, y)))]


@pytest.mark.parametrize("digits", DIGITS)
def test_hyp_lambert_kernel_matches_mpc_oracle(digits):
    ctx = PrecisionCtx(digits)
    for z in _hyp_points():
        with ctx.working():
            z = mpc(z)
        for kernel in _HYP_KERNELS:
            new, ref = hyp_lambert(z, kernel, ctx), _reference_hyp_lambert(z, kernel, ctx)
            with ctx.working():
                assert _close(new, ref, ctx), (z, kernel)
    with pytest.raises(DomainError, match="ODD parity only"):
        hyp_lambert(mpc(0, 1), HypKernel("EXPM1_ALT", "ALL", 2), ctx)


def test_hyp_lambert_raises_before_summing_past_its_cap(ctx30, monkeypatch):
    # at z = 1e-4 i the planned length is about 1.8e5 terms, past 100 workdps
    # (4500): the call raises before any kernel product is taken
    def unreachable(*args):
        raise AssertionError("a term was summed")

    monkeypatch.setattr(series, "_cmul", unreachable)
    monkeypatch.setattr(series, "_cinv", unreachable)
    with pytest.raises(DomainError, match="more than 4500 terms"):
        hyp_lambert(mpc(0, "1e-4"), HypKernel("EXPM1"), ctx30)


def _eli_cases(ctx):
    """(n, m, x, y, q): the rn2p277p arguments (y = i and y = 1 at q, q^2, q^4
    with q = e^(-pi Im z)), a real y with a negative q, complex x, y, q and an
    imaginary dust on q."""
    with ctx.working():
        cases = []
        for im in ("1.0", "2.0", "0.5"):
            q = mp.exp(-mp.pi * mpf(im))
            cases += [(0, 2, 1, mpc(0, 1), q), (0, 2, 1, 1, q ** 2), (0, 2, 1, 1, q ** 4)]
        return cases + [(3, 1, mpc(0, 1), mpf("1.5"), mpf("-0.6")),
                        (1, 2, mpc("0.3", "0.4"), mpc("-0.5", "0.7"), mpc("0.2", "0.5")),
                        (0, 0, 1, mpf("0.5"), mpc("0.6", "1e-40"))]


@pytest.mark.parametrize("digits", DIGITS)
def test_eli_kernel_matches_mpc_oracle(digits):
    ctx = PrecisionCtx(digits)
    for case in _eli_cases(ctx):
        new, ref = eli(*case, ctx), _reference_eli(*case, ctx)
        with ctx.working():
            assert _close(new, ref, ctx), case
            if not ref.imag:  # a real y, x and q give a real value
                assert new.imag == 0, case


def _chains_at_q(z, ctx):
    """The chains at the nome q of z of one unmemoized walk."""
    return _nome_chains.__wrapped__(z, _AT_Q, ctx)[1]


@pytest.mark.parametrize("digits", (15, 100, 250))
def test_qseries_kernels_stop_within_their_tail_bounds(digits):
    # each value lies within 4 units of 10^-workdps (relative to |eta|, or to
    # max(1, |value|) for the sums) of itself at 40 more digits; eli with
    # |x| > 1 too, where an inner sum cut at tiny alone would be multiplied
    # by |x|^j; every chain of the nome walk too, also at 1/2 + 0.0301i,
    # where q = -0.827 is an exact real rounded once and the alternating E6
    # chain cancels most
    ctx, ref_ctx = PrecisionCtx(digits), PrecisionCtx(digits + 40)
    evals = [(eta, (z,)) for z in _eta_points()[::2]]
    evals += [(hyp_lambert, (z, k)) for z in _hyp_points()[1:4] for k in _HYP_KERNELS]
    evals += [(eli, case) for case in _eli_cases(ctx)[::2]]
    evals.append((eli, (2, 3, mpf("1.9"), 1, mpf("0.5"))))
    with ctx.working():
        evals += [(_chains_at_q, (mpc(point()),)) for point in _nome_points().values()]
        evals.append((_chains_at_q, (mpc("0.5", "0.0301"),)))
    for fn, args in evals:
        with ctx.working():
            args = tuple(mpc(a) if isinstance(a, mpc) else a for a in args)
        new, ref = fn(*args, ctx), fn(*args, ref_ctx)
        if not isinstance(ref, dict):
            new, ref = {None: new}, {None: ref}
        with ref_ctx.working():
            for key, val in ref.items():
                scale = abs(val) if fn is eta else max(1, abs(val))
                assert abs(new[key] - val) <= 4 * ctx.tiny() * scale, (fn.__name__, args, key)
