"""Eichler integrals: special values, reflections, derivatives."""

import mpmath as mp
import pytest
from mpmath import mpc, mpf

from modzeta import (DomainError, PrecisionCtx, const_zeta, dirichlet_l,
                     eichler4, eichler6, eisenstein, epstein2)
from modzeta import modular, mpcore
from oracles import tail_poly_geom

I = mpc(0, 1)


def test_e4_at_i(ctx40):
    with ctx40.working():
        lhs = eichler4(I, 0, ctx40)
        rhs = 7 * I / 6 + 30 * const_zeta(3, ctx40) / (mp.pi ** 3 * I)
        assert abs(lhs - rhs) < ctx40.tolerance()


def test_e4_second_derivative_at_i(ctx40):
    with ctx40.working():
        lhs = eichler4(I, 2, ctx40)
        rhs = -20 * dirichlet_l(-4, 2, ctx40) / (mp.pi ** 2 * I) - 2 * I
        assert abs(lhs - rhs) < ctx40.tolerance()


def test_e6_values_at_sqrt3_point(ctx40):
    with ctx40.working():
        w = (1 + mp.sqrt(3) * I) / 2
        z3 = const_zeta(3, ctx40)
        assert abs(eichler6(w, 1, ctx40) - mpf(1) / 30) < ctx40.tolerance()
        assert abs(eichler6(w, 2, ctx40)
                   - (84 * z3 / (mp.pi ** 3 * I) + 2 * mp.sqrt(3) * I)) < ctx40.tolerance()
        assert abs(eichler6(w, 3, ctx40)
                   - (10 - 168 * mp.sqrt(3) * z3 / mp.pi ** 3)) < ctx40.tolerance()


def test_e6_combination_at_i(ctx40):
    with ctx40.working():
        lhs = I * eichler6(I, 2, ctx40) + eichler6(I, 3, ctx40)
        rhs = 8 - 189 * const_zeta(3, ctx40) / mp.pi ** 3
        assert abs(lhs - rhs) < ctx40.tolerance()


def test_decay_at_high_im(ctx30):
    with ctx30.working():
        assert abs(eichler4(mpc(0, 40), 1, ctx30)) < mpf(10) ** -90
        for order in (0, 1, 2, 3):
            assert abs(eichler6(mpc(0, 35), order, ctx30)) < mpf(10) ** -80


def test_periodicity(ctx30):
    with ctx30.working():
        z = mpc("0.41", "0.9")
        for order in (0, 1, 2):
            assert abs(eichler4(z + 1, order, ctx30)
                       - eichler4(z, order, ctx30)) < ctx30.tolerance()
        assert abs(eichler6(z + 1, 3, ctx30)
                   - eichler6(z, 3, ctx30)) < ctx30.tolerance()


def test_reflection_e4(ctx40):
    with ctx40.working():
        for z in (mpc("0.1", "0.8"), mpc("-0.2", "1.7"), mpc(0, "2.4")):
            lhs = eichler4(z, 0, ctx40) - z ** 2 * eichler4(-1 / z, 0, ctx40)
            rhs = (-(z ** 4 - 5 * z ** 2 + 1) / (3 * z)
                   - 30 * const_zeta(3, ctx40) * (z ** 2 - 1) / (mp.pi ** 3 * I))
            assert abs(lhs - rhs) < ctx40.tolerance()


def test_reflection_e6(ctx40):
    with ctx40.working():
        z = mpc("0.15", "1.1")
        lhs = eichler6(z, 0, ctx40) - z ** 4 * eichler6(-1 / z, 0, ctx40)
        rhs = (-(z ** 2 + 1) * (2 * z ** 4 - 9 * z ** 2 + 2) / (10 * z)
               - 189 * const_zeta(5, ctx40) * (z ** 4 - 1) / (mp.pi ** 5 * I))
        assert abs(lhs - rhs) < ctx40.tolerance()


def test_sum_rules(ctx40):
    with ctx40.working():
        z = mpc("0.12", "0.73")
        half = mpf(1) / 2
        s4 = (4 * eichler4(z + half, 0, ctx40) + 4 * eichler4(z, 0, ctx40)
              - 9 * eichler4(2 * z, 0, ctx40) + eichler4(4 * z, 0, ctx40))
        s6 = (16 * eichler6(z + half, 0, ctx40) + 16 * eichler6(z, 0, ctx40)
              - 33 * eichler6(2 * z, 0, ctx40) + eichler6(4 * z, 0, ctx40))
        spp = (eichler4(z + half, 2, ctx40) + eichler4(z, 2, ctx40)
               - 9 * eichler4(2 * z, 2, ctx40) + 4 * eichler4(4 * z, 2, ctx40))
        assert abs(s4) < ctx40.tolerance()
        assert abs(s6) < ctx40.tolerance()
        assert abs(spp) < ctx40.tolerance()


@pytest.mark.parametrize("family,order", [(4, 1), (4, 2), (6, 1), (6, 3)])
def test_finite_difference_derivatives(family, order):
    # (f(z+h) - f(z-h)) / 2h at 2x working precision agrees with the termwise
    # derivative to about digits/2 digits for h = 10^(-digits/4)
    digits = 40
    ctx = PrecisionCtx(digits)
    ctx2 = PrecisionCtx(2 * digits)
    fn = eichler4 if family == 4 else eichler6
    z = mpc("0.19", "0.87")
    with ctx2.working():
        h = mpf(10) ** (-(digits // 4))
        fd = (fn(z + h, order - 1, ctx2) - fn(z - h, order - 1, ctx2)) / (2 * h)
    with ctx.working():
        assert abs(fd - fn(z, order, ctx)) < mpf(10) ** (-(digits // 2) + 4)


def test_order_bounds():
    ctx = PrecisionCtx(20)
    with pytest.raises(DomainError):
        eichler4(I, 3, ctx)
    with pytest.raises(DomainError):
        eichler6(I, 4, ctx)


# ---------------------------------------------------------------------------
# The fused nome walk against one loop per chain
# ---------------------------------------------------------------------------

WALK_POINTS = (("0", "1.3"), ("0.5", "0.8"), ("0.2", "0.1"))


def _reference_chain(q, weight, order, tiny):
    # one walk per chain, with the same kernel expressions and tail bound
    qa = abs(q)
    p = order - (weight - 1)
    acc = mpc(0)
    qn = mpc(1)
    n = 0
    kb = 6 / (1 - qa) ** 4
    while True:
        n += 1
        qn *= q
        u = qn
        if order == 0:
            ker = u / (1 - u)
        elif order == 1:
            ker = u / (1 - u) ** 2
        elif order == 2:
            ker = u * (1 + u) / (1 - u) ** 3
        else:
            ker = u * (1 + 4 * u + u * u) / (1 - u) ** 4
        acc += mpf(n) ** p * ker
        if mpf(max(n + 1, 1)) ** max(p, 0) * qa ** (n + 1) / (1 - qa) * kb < tiny:
            break
    return acc


def _reference_eisenstein_chain(q, weight, tiny):
    # the Lambert sum of E2/E4/E6 as eisenstein summed it in its own loop
    qa = abs(q)
    p = {2: 1, 4: 3, 6: 5}[weight]
    acc = mpc(0)
    qn = mpc(1)
    n = 0
    while True:
        n += 1
        qn *= q
        acc += mpf(n) ** p * qn / (1 - qn)
        if tail_poly_geom(qa, n, p) / (1 - qa) < tiny:
            break
    return acc


def _reference_epstein2(z, ctx):
    # E(z,2) with its own q-loop and the looser stop rule it used to have
    with ctx.working():
        y = mp.im(z)
        q = mp.exp(2j * mp.pi * z)
        qa = abs(q)
        s3 = s2 = mpc(0)
        qn = mpc(1)
        n = 0
        while True:
            n += 1
            qn *= q
            s3 += qn / (mpf(n) ** 3 * (1 - qn))
            s2 += qn / (mpf(n) ** 2 * (1 - qn) ** 2)
            if qa ** (n + 1) / (1 - qa) ** 3 < ctx.tiny():
                break
        return (y ** 2 + 45 * const_zeta(3, ctx) / (mp.pi ** 3 * y)
                + 90 * mp.re(s3) / (mp.pi ** 3 * y) + 180 * mp.re(s2) / mp.pi ** 2)


@pytest.mark.parametrize("digits", [30, 50, 100])
@pytest.mark.parametrize("re_im", WALK_POINTS)
def test_nome_walk_matches_one_loop_per_chain(re_im, digits):
    ctx = PrecisionCtx(digits)
    with ctx.working():
        z = mpc(*re_im)
        chains = modular._nome_chains(z, modular._AT_Q, ctx)[1]
        q = mp.exp(2j * mp.pi * z)
        eichler_keys = [(4, 0), (4, 1), (4, 2), (6, 0), (6, 1), (6, 2), (6, 3)]
        assert set(chains) == set(eichler_keys) | {"E2", "E4", "E6"}
        # the fixed-point walk rounds differently from the mpf loops
        tol = mpf(10) ** -(ctx.workdps - 3)
        for weight, order in eichler_keys:
            ref = _reference_chain(q, weight, order, ctx.tiny())
            assert abs(chains[weight, order] - ref) <= tol * max(1, abs(ref)), (weight, order)
        for weight in (2, 4, 6):
            ref = _reference_eisenstein_chain(q, weight, ctx.tiny())
            assert abs(chains["E%d" % weight] - ref) <= tol * max(1, abs(ref)), weight


def test_one_nome_walk_serves_eisenstein_and_eichler(monkeypatch, ctx30):
    # eisenstein at a fresh nome walks it once; the other Eisenstein weights
    # and every Eichler chain at that nome read the same walk
    monkeypatch.setattr(mpcore, "_memo", {})
    walk = modular._nome_chains.__wrapped__

    def walks():
        return sum(key[0] is walk for key in mpcore._memo)
    with ctx30.working():
        z = mpc("0.31", "0.77")
        eisenstein(z, 4, ctx30)
        assert walks() == 1
        for weight in (2, 4, 6):
            eisenstein(z, weight, ctx30)
        for order in (0, 1, 2):
            eichler4(z, order, ctx30)
        for order in (0, 1, 2, 3):
            eichler6(z, order, ctx30)
        assert walks() == 1


@pytest.mark.parametrize("digits", [30, 50, 100])
@pytest.mark.parametrize("re_im", WALK_POINTS)
def test_epstein2_matches_its_own_loop(re_im, digits):
    ctx = PrecisionCtx(digits)
    with ctx.working():
        z = mpc(*re_im)
        diff = epstein2(z, ctx) - _reference_epstein2(z, ctx)
        assert abs(diff) < mpf(10) ** -(ctx.workdps - 3)
