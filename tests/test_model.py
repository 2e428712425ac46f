"""Tests for grids, fields, soliton forms, and the residual oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from kdvlab.errors import OracleError
from kdvlab.model import (
    Grid1D,
    SchemeParams,
    SolitonSpec,
    TimeGrid,
    WaveField,
    appendix_profile,
    initial_condition,
    mass,
    pde_residual,
    sech,
    sech_squared_profile,
    traveling_wave,
    traveling_wave_callable,
)


# ---------------------------------------------------------------------------
# sech
# ---------------------------------------------------------------------------

def test_sech_at_zero():
    assert sech(0.0) == 1.0


def test_sech_closed_form_ln2():
    # 2 / (2 + 1/2) = 0.8
    assert sech(math.log(2.0)) == pytest.approx(0.8, abs=1e-15)


@pytest.mark.parametrize("x", [0.3, 1.7, 9.0])
def test_sech_is_even(x):
    assert sech(x) == sech(-x)


def test_sech_range_and_underflow():
    xs = np.linspace(-800.0, 800.0, 4001)
    vals = sech(xs)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0)
    assert sech(800.0) == 0.0  # graceful underflow, no overflow warning


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------

def test_grid_dx_matches_formula():
    g = Grid1D(-20.0, 20.0, 4001)
    assert g.dx == (20.0 - (-20.0)) / 4000
    assert g.points()[0] == -20.0
    assert g.points()[-1] == 20.0


def test_grid_points_for_the_diagnostics_are_built_once_and_read_only():
    g = Grid1D(-1.0, -0.0, 9)
    cached = g._points
    assert cached is g._points and not cached.flags.writeable
    assert np.array_equal(cached, g.points()) and np.signbit(cached[-1])
    fresh = g.points()
    fresh[0] = 5.0  # points() stays a fresh, writable array
    assert cached[0] == -1.0 and g.points()[0] == -1.0


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Grid1D(1.0, 1.0, 11)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 6)


def test_time_grid_counts_final_level():
    tg = TimeGrid(t_end=10.0, dt=0.01)
    assert tg.nt == 1001  # 10/0.01 must not lose the last step to rounding
    assert tg.times()[0] == 0.0
    assert tg.times()[-1] == pytest.approx(10.0, abs=1e-12)
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, dt=0.0)


def test_wave_field_rejects_non_finite():
    g = Grid1D(0.0, 1.0, 11)
    bad = np.zeros(11)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        WaveField(g, 0.0, bad)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        WaveField(g, 0.0, bad)


def test_wave_field_values_are_frozen():
    g = Grid1D(0.0, 1.0, 11)
    f = WaveField(g, 0.0, np.zeros(11))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_scheme_params_ratios():
    p = SchemeParams(dx=0.01, dt=0.01)
    assert p.alpha == 0.01 / 0.01**3
    assert p.beta == 1.0
    q = SchemeParams.from_alpha_beta(1000.0, 1.0)
    assert q.alpha == pytest.approx(1000.0, rel=1e-12)
    assert q.beta == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        SchemeParams(dx=-0.1, dt=0.01)


def test_soliton_spec_from_wave_speed():
    s = SolitonSpec.from_wave_speed(4.0)
    assert s.amplitude == 0.5
    assert s.width == 1.0
    assert s.speed == 4.0
    with pytest.raises(ValueError):
        SolitonSpec.from_wave_speed(0.0)
    with pytest.raises(ValueError):
        SolitonSpec(amplitude=1.0, width=0.0, speed=1.0)


# ---------------------------------------------------------------------------
# initial profiles
# ---------------------------------------------------------------------------

def test_initial_condition_center_values():
    g = Grid1D(-20.0, 20.0, 4001)
    assert initial_condition(g, 4.0).values[2000] == pytest.approx(0.5, abs=1e-15)
    assert initial_condition(g, 1.0).values[2000] == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(ValueError):
        initial_condition(g, -1.0)


def test_appendix_profile_center_and_decay():
    g = Grid1D(-20.0, 20.0, 4001)
    f = appendix_profile(g)
    assert f.values[2000] == pytest.approx(0.5, abs=1e-15)
    # sech^2(10) ~ 8.2e-9, comfortably below the 1e-4 bound
    assert abs(f.values[0]) < 1e-4
    assert abs(f.values[-1]) < 1e-4


def test_initial_condition_is_even_on_symmetric_grid():
    # grid points are antisymmetric only to rounding, so compare relatively
    g = Grid1D(-15.0, 15.0, 301)
    v = initial_condition(g, 2.0).values
    assert np.allclose(v, v[::-1], rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# traveling waves and the residual oracle
# ---------------------------------------------------------------------------

def test_traveling_wave_verified_amplitude_and_peak():
    g = Grid1D(-10.0, 10.0, 201)
    f = traveling_wave(g, 1.0, 0.0)
    assert f.values[100] == pytest.approx(-2.0, abs=1e-15)
    g2 = Grid1D(-10.0, 10.0, 2001)
    f2 = traveling_wave(g2, 1.0, 2.0)
    peak = g2.points()[np.argmax(np.abs(f2.values))]
    assert peak == pytest.approx(2.0, abs=g2.dx)


def test_traveling_wave_rejects_bad_speed_and_form():
    g = Grid1D(-10.0, 10.0, 201)
    with pytest.raises(ValueError):
        traveling_wave(g, -1.0, 0.0)
    with pytest.raises(ValueError):
        traveling_wave(g, 1.0, 0.0, form="mystery")


def test_verified_form_satisfies_the_pde():
    u = traveling_wave_callable(0.5, "verified")
    xs = np.linspace(-15.0, 15.0, 301)
    assert pde_residual(u, xs, 0.0, oracle_step=1e-3) < 1e-6
    assert pde_residual(u, xs, 3.0, oracle_step=1e-3) < 1e-6


def test_claimed_form_fails_the_pde():
    u = traveling_wave_callable(1.0, "claimed")
    xs = np.linspace(-15.0, 15.0, 301)
    r = pde_residual(u, xs, 0.0, oracle_step=1e-3)
    assert r > 1e-3
    # regression baseline for the mismatch of the claimed form
    assert r == pytest.approx(1.2861875, abs=1e-4)


def test_residual_zero_and_constant_functions():
    xs = np.linspace(-3.0, 3.0, 61)

    def zero(x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    def three(x, t):
        return np.full_like(np.asarray(x, dtype=float), 3.0)

    assert pde_residual(zero, xs, 0.0) == 0.0
    assert pde_residual(three, xs, 0.0) < 1e-9


def test_residual_oracle_is_fourth_order():
    u = traveling_wave_callable(0.5, "verified")
    xs = np.linspace(-15.0, 15.0, 301)
    r1 = pde_residual(u, xs, 0.0, oracle_step=0.1)
    r2 = pde_residual(u, xs, 0.0, oracle_step=0.05)
    r3 = pde_residual(u, xs, 0.0, oracle_step=0.025)
    # measured ratios ~15.9; a fourth-order oracle gives 16 per halving
    assert 12.0 < r1 / r2 < 20.0
    assert 12.0 < r2 / r3 < 20.0


def test_residual_oracle_flags_non_finite():
    def exploding(x, t):
        x = np.asarray(x, dtype=float)
        return 1.0 / (x - 0.05)  # pole lands inside a stencil evaluation

    xs = np.array([0.05])  # u(x, t) itself is inf here
    with pytest.raises((OracleError, FloatingPointError)):
        with np.errstate(divide="raise"):
            pde_residual(exploding, xs, 0.0)


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------

def test_mass_of_zero_and_constant():
    g = Grid1D(0.0, 1.0, 11)
    assert mass(WaveField(g, 0.0, np.zeros(11))) == 0.0
    assert mass(WaveField(g, 0.0, np.ones(11))) == pytest.approx(1.0, abs=1e-14)


def test_mass_against_quadrature_oracle():
    g = Grid1D(-20.0, 20.0, 4001)
    a, w = 0.5, 2.0
    f = sech_squared_profile(g, a, w)
    oracle, err = quad(lambda x: a * (2.0 / (np.exp(x / w) + np.exp(-x / w))) ** 2, -20.0, 20.0)
    assert err < 1e-9
    assert mass(f) == pytest.approx(oracle, abs=1e-6)


def test_mass_is_linear():
    rng = np.random.default_rng(3)
    g = Grid1D(-5.0, 5.0, 101)
    u = WaveField(g, 0.0, rng.standard_normal(101))
    w = WaveField(g, 0.0, rng.standard_normal(101))
    a, b = 2.5, -1.25
    combo = WaveField(g, 0.0, a * u.values + b * w.values)
    assert mass(combo) == pytest.approx(a * mass(u) + b * mass(w), abs=1e-12)


def test_mass_that_overflows_is_inf_without_a_warning():
    # the field is finite; only its integral leaves the double range
    g = Grid1D(-20.0, 20.0, 201)
    assert mass(WaveField(g, 0.0, np.full(201, 1e307))) == math.inf
