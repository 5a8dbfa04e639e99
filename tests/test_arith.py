"""Kronecker characters, Dirichlet L, and Epstein zeta."""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf

from modzeta import (DomainError, PrecisionCtx, const_catalan, dirichlet_l,
                     epstein2, epstein3, kronecker)
from oracles import epstein_lattice

I = mpc(0, 1)


def test_kronecker_mod4_character():
    assert [kronecker(-4, n) for n in range(1, 5)] == [1, 0, -1, 0]


def test_kronecker_minus7_pattern():
    # leading signs of L_{-7}(2): 1 + 1/4 - 1/9 + 1/16 - 1/25 - 1/36 + 0...
    assert [kronecker(-7, n) for n in (1, 2, 3, 4, 5, 6, 7, 8)] == \
        [1, 1, -1, 1, -1, -1, 0, 1]


def test_kronecker_zero_argument():
    assert kronecker(-4, 0) == 0
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([-3, -4, -7, -8, -20, 5, 12, 28]),
       st.integers(0, 60), st.integers(0, 60))
def test_kronecker_completely_multiplicative(d, m, n):
    assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)


@pytest.mark.parametrize("d", [-3, -4, -7, -8, 28])
def test_kronecker_periodicity(d):
    m = abs(d) if d % 4 in (0, 1) else 4 * abs(d)
    for n in range(0, 3 * m):
        assert kronecker(d, n) == kronecker(d, n + m)


def test_dirichlet_l_catalan(ctx40):
    with ctx40.working():
        assert abs(dirichlet_l(-4, 2, ctx40)
                   - const_catalan(ctx40)) < ctx40.tiny() * 100


def test_dirichlet_l_trivial_character(ctx40):
    with ctx40.working():
        pi = +mp.pi
        assert abs(dirichlet_l(1, 2, ctx40) - pi ** 2 / 6) < ctx40.tiny() * 100


def test_dirichlet_l_28(ctx40):
    with ctx40.working():
        pi = +mp.pi
        target = 2 * pi ** 2 / (7 * mp.sqrt(7))
        assert abs(dirichlet_l(28, 2, ctx40) - target) < ctx40.tiny() * 1000


def test_dirichlet_l_domain(ctx30):
    with pytest.raises(DomainError):
        dirichlet_l(-4, 1, ctx30)
    with pytest.raises(DomainError):
        dirichlet_l(0, 2, ctx30)
    # (d/.) for d = 3 (mod 4) has no period, so it is no character
    for d in (-1, 3, -5):
        with pytest.raises(DomainError):
            dirichlet_l(d, 4, ctx30)


def test_epstein2_inversion(ctx40):
    with ctx40.working():
        z = mpc("0.31", "1.23")
        assert abs(epstein2(z, ctx40) - epstein2(-1 / z, ctx40)) < ctx40.tolerance()


def test_epstein3_sum_rule(ctx40):
    with ctx40.working():
        z = mpc("0.17", "0.83")
        acc = (4 * epstein3(z + mpf(1) / 2, ctx40) + 4 * epstein3(z, ctx40)
               - 33 * epstein3(2 * z, ctx40) + 4 * epstein3(4 * z, ctx40))
        assert abs(acc) < ctx40.tolerance()


def test_epstein3_imag_residue(ctx30):
    from oracles import epstein3_imag_residue
    with ctx30.working():
        # vanishes when 2 Re z is an integer, and only then
        assert abs(epstein3_imag_residue(mpc(0, "1.1"), ctx30)) < ctx30.tolerance()
        assert abs(epstein3_imag_residue(mpc("0.5", "1.1"), ctx30)) < ctx30.tolerance()
        assert abs(epstein3_imag_residue(mpc("0.23", "1.1"), ctx30)) > mpf(10) ** -6


def test_lattice_oracle_matches_production(ctx25):
    with ctx25.working():
        for z, s, radius in ((I, 2, 400), (mpc("0.5", "0.9"), 2, 400), (I, 3, 120)):
            prod = epstein2(z, ctx25) if s == 2 else epstein3(z, ctx25)
            box = epstein_lattice(z, s, radius, ctx25)
            assert abs(box.value - float(prod)) < 3 * box.err_estimate + 1e-9


def test_lattice_periodicity_within_truncation(ctx25):
    with ctx25.working():
        z = mpc("0.3", "1.2")
        a = epstein_lattice(z, 2, 300, ctx25)
        b = epstein_lattice(z + 1, 2, 300, ctx25)
        assert abs(a.value - b.value) < 3 * (a.err_estimate + b.err_estimate)


def test_lattice_error_model_by_radius_doubling(ctx25):
    # the tail shrinks like radius^(2-2s): doubling the radius must cut the
    # true error by roughly 4x for s=2
    with ctx25.working():
        truth = float(epstein2(I, ctx25))
        e200 = abs(epstein_lattice(I, 2, 200, ctx25).value - truth)
        e400 = abs(epstein_lattice(I, 2, 400, ctx25).value - truth)
        assert e400 < e200 / 2.5


def test_lattice_radius_precondition(ctx25):
    with pytest.raises(DomainError):
        epstein_lattice(I, 2, 5, ctx25)
