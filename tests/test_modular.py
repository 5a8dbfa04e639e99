"""Dedekind eta, modular lambda, Eisenstein series, Legendre-Ramanujan R."""

import time

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf

from modzeta import (DomainError, PrecisionCtx, alpha4, eisenstein,
                     eisenstein_eta_form, epstein2, eta, lambda_fn, r_half)
from modzeta.modular import _nome
from modzeta.series import ell_k
from modzeta.verify.theorems import _require_admissible

I = mpc(0, 1)

# eta(i) = Gamma(1/4) / (2 pi^(3/4)); frozen at 40 digits from the direct
# 200-factor product at 60-digit precision (and the gamma closed form)
ETA_I_40 = "0.7682254223260566590025941795761806445179"


def test_eta_at_i(ctx40):
    with ctx40.working():
        v = eta(I, ctx40)
        assert abs(v - mpf(ETA_I_40)) < mpf(10) ** -39
        closed = mp.gamma(mpf(1) / 4) / (2 * mp.pi ** mpf("0.75"))
        assert abs(v - closed) < ctx40.tiny() * 100


def test_eta_translation(ctx30):
    with ctx30.working():
        z = mpc("0.3", "0.8")
        ratio = eta(z + 1, ctx30) / eta(z, ctx30)
        assert abs(ratio - mp.exp(I * mp.pi / 12)) < ctx30.tolerance()


def test_eta_large_im_is_pure_phase(ctx30):
    with ctx30.working():
        z = mpc(0, 50)
        assert abs(eta(z, ctx30) - mp.exp(I * mp.pi * z / 12)) < mpf(10) ** -100


def test_eta_domain(ctx30):
    with pytest.raises(DomainError):
        eta(mpc(0, "0.01"), ctx30)
    with pytest.raises(DomainError):
        eta(mpc(0, -1), ctx30)


def test_lambda_fixed_point(ctx40):
    with ctx40.working():
        assert abs(lambda_fn(I, ctx40) - mpf(1) / 2) < ctx40.tiny() * 100


def test_lambda_periodicity(ctx30):
    with ctx30.working():
        z = mpc("0.21", "0.92")
        assert abs(lambda_fn(z + 2, ctx30) - lambda_fn(z, ctx30)) < ctx30.tolerance()


def test_alpha4_reflection(ctx40):
    with ctx40.working():
        for z in (mpc(0, "0.43"), mpc("0.2", "1.1"), mpc("-0.3", "2.2"),
                  mpc(0, "2.95")):
            acc = alpha4(z, ctx40) + alpha4(-1 / (4 * z), ctx40)
            assert abs(acc - 1) < ctx40.tolerance()


@pytest.mark.parametrize("zkey,x_num,x_den", [
    ("sqrt3", 1, 256), ("sqrt7", 1, 4096), ("half_sqrt2", -1, 64), ("half_1", -1, 512),
])
def test_alpha4_table_rates(ctx40, zkey, x_num, x_den):
    with ctx40.working():
        z = {"sqrt3": mp.sqrt(3) * I / 2, "sqrt7": mp.sqrt(7) * I / 2,
             "half_sqrt2": mpf(1) / 2 + I / mp.sqrt(2),
             "half_1": mpf(1) / 2 + I}[zkey]
        a = alpha4(z, ctx40)
        assert abs(a * (1 - a) / 16 - mpf(x_num) / x_den) < ctx40.tolerance()


def test_eisenstein_limits(ctx30):
    with ctx30.working():
        assert abs(eisenstein(mpc(0, 40), 4, ctx30) - 1) < mpf(10) ** -100
        assert abs(eisenstein(I, 6, ctx30)) < ctx30.tolerance()


def test_eisenstein_eta_forms(ctx40):
    with ctx40.working():
        for z in (mpc("0.27", "0.9"), mpc(0, "1.4")):
            for w in (4, 6):
                a = eisenstein(z, w, ctx40)
                b = eisenstein_eta_form(z, w, ctx40)
                assert abs(a - b) < ctx40.tolerance()


def test_e2_periodicity_including_completion(ctx30):
    with ctx30.working():
        z = mpc("0.37", "0.77")
        assert abs(eisenstein(z + 1, 2, ctx30) - eisenstein(z, 2, ctx30)) < ctx30.tolerance()


def test_eisenstein_weight_validation(ctx30):
    with pytest.raises(DomainError):
        eisenstein(I, 3, ctx30)


@settings(max_examples=15, deadline=None)
@given(st.floats(-0.5, 0.5), st.floats(0.5, 1.5))
def test_modular_transformations_at_random_points(x, y):
    # the S and T transformations of eta, completed E2/E4/E6, lambda and
    # E(z,2), each side from its own q-series walk, at 30 digits
    ctx = PrecisionCtx(30)
    with ctx.working():
        z = mpc(x, y)
        s = -1 / z
        lam = lambda_fn(z, ctx)
        pairs = [(eta(s, ctx), mp.sqrt(-I * z) * eta(z, ctx)),
                 (eta(z + 1, ctx), mp.exp(I * mp.pi / 12) * eta(z, ctx)),
                 (lambda_fn(s, ctx), 1 - lam),
                 (lambda_fn(z + 1, ctx), lam / (lam - 1)),
                 (epstein2(s, ctx), epstein2(z, ctx))]
        pairs += [(eisenstein(s, w, ctx), z ** w * eisenstein(z, w, ctx)) for w in (2, 4, 6)]
        bar = mpf(10) ** -(ctx.digits + 10)
        for i, (lhs, rhs) in enumerate(pairs):
            assert abs(lhs - rhs) <= bar * max(1, abs(lhs), abs(rhs)), (i, z)


@pytest.mark.parametrize("zkey,c3,c4", [
    ("sqrt3", "1", "1/6"), ("sqrt7", "3/4", "5/42"),
    ("half_sqrt2", "2", "1/4"), ("half_1", None, "1/6"),
])
def test_r_half_table_rows(ctx40, zkey, c3, c4):
    from fractions import Fraction
    with ctx40.working():
        z = {"sqrt3": mp.sqrt(3) * I / 2, "sqrt7": mp.sqrt(7) * I / 2,
             "half_sqrt2": mpf(1) / 2 + I / mp.sqrt(2),
             "half_1": mpf(1) / 2 + I}[zkey]
        a = alpha4(z, ctx40)
        if c3 is not None:
            fr = Fraction(c3)
            assert abs((1 - 2 * a) / mp.im(z)
                       - mpf(fr.numerator) / fr.denominator) < ctx40.tolerance()
        else:  # the 1/2+i row has the irrational ratio 3/(2 sqrt 2)
            assert abs((1 - 2 * a) / mp.im(z)
                       - 3 / (2 * mp.sqrt(2))) < ctx40.tolerance()
        fr = Fraction(c4)
        ratio = r_half(z, ctx40) / (2 * (1 - 2 * a))
        assert abs(ratio - mpf(fr.numerator) / fr.denominator) < ctx40.tolerance()


def test_r_half_derivative_oracle():
    # d/dy [ 1 / (K(sqrt(alpha4(iy)))^2 y) ] = -(4/pi) R_{-1/2} / y, the k=0
    # case of the differentiation rule behind the linear-factor theorems
    ctx = PrecisionCtx(60, 15)
    with ctx.working():
        y0 = mpf("1.1")
        h = mpf(10) ** -15

        def f(y):
            return 1 / (ell_k(alpha4(mpc(0, y), ctx), ctx).real ** 2 * y)

        fd = (f(y0 + h) - f(y0 - h)) / (2 * h)
        rr = r_half(mpc(0, y0), ctx).real
        assert abs(fd + 4 / mp.pi * rr / y0) < mpf(10) ** -25


def test_uhp_point_admissibility(ctx25):
    # the hypothesis of the main theorems: Re z = 0 with Im z >= 1/2, or
    # Re z = 1/2 with Im z >= 1/sqrt(2), to within 10^-(workdps-5)
    with ctx25.working():
        for z in (mpc(0, "0.5"), mpc(0, 2), mpf(1) / 2 + I / mp.sqrt(2)):
            assert _require_admissible(z, ctx25) == z
        for z in (mpc(0, "0.49"), mpc("0.5", "0.7"), mpc("0.3", "5.0")):
            with pytest.raises(DomainError, match="theorem hypothesis"):
                _require_admissible(z, ctx25)
        for z in (mpc(1, -1), mpc(0, "-0.5")):
            with pytest.raises(DomainError, match="Im z > 0"):
                _require_admissible(z, ctx25)


def test_nome():
    with mp.workdps(30):
        q = _nome(mpc(0, 1))
        assert abs(q - mp.exp(-2 * mp.pi)) < mpf(10) ** -28


def test_nome_walk_floor_fails_fast(capsys):
    # below Im z = 0.03 the nome walk is out of contract, as eta is; the
    # in-process call and the CLI fail at once instead of walking for minutes
    from modzeta import eichler4
    from modzeta.cli import main
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="Im z < 0.03"):
        eichler4(mpc(0, "0.0001"), 0, PrecisionCtx(15))
    assert time.perf_counter() - t0 < 1
    t0 = time.perf_counter()
    assert main(["eval", "eichler4", "0.0001i", "0", "--digits", "15"]) == 2
    assert time.perf_counter() - t0 < 1
    assert "Im z < 0.03" in capsys.readouterr().err
