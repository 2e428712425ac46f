"""Tests for grids, fields, soliton forms, and the residual oracle."""

import copy
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad

from kdvlab.analysis import AmplificationPoint, ScanRow
from kdvlab.banded import CertificateReport, PowerIterationReport
from kdvlab.crank_nicolson import CnConfig
from kdvlab.errors import OracleError
from kdvlab.evolution import SnapshotDiagnostics
from kdvlab.model import (
    Grid1D,
    SchemeParams,
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


def test_grid_points_are_a_fresh_writable_array():
    g = Grid1D(-1.0, -0.0, 9)
    fresh = g.points()
    assert fresh.flags.writeable and np.signbit(fresh[-1])
    fresh[0] = 5.0  # writing one call's array leaves the next call's as it was
    assert g.points()[0] == -1.0


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Grid1D(1.0, 1.0, 11)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 6)


def test_time_grid_counts_final_level():
    tg = TimeGrid(t_end=10.0, dt=0.01)
    assert tg.nt == 1001  # 10/0.01 must not lose the last step to rounding
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, dt=0.0)
    for t_end, dt in ((1e300, 1e-300), (float("inf"), 1.0)):  # t_end/dt has no integer floor
        with pytest.raises(ValueError, match="is not a finite step count"):
            TimeGrid(t_end=t_end, dt=dt)


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
    q = SchemeParams(dx=math.sqrt(1e-3), dt=math.sqrt(1e-3))
    assert q.alpha == pytest.approx(1000.0, rel=1e-12)
    assert q.beta == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        SchemeParams(dx=-0.1, dt=0.01)


# ---------------------------------------------------------------------------
# value semantics of the record types
# ---------------------------------------------------------------------------

def test_grid_ending_at_negative_zero_equals_and_hashes_like_zero():
    a, b = Grid1D(-1.0, -0.0, 9), Grid1D(-1.0, 0.0, 9)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Grid1D(-1.0, 0.0, 11) and a != Grid1D(-2.0, 0.0, 9)
    assert a != (-1.0, -0.0, 9)  # a value of its own type, not a tuple


def test_records_print_and_copy_by_their_fields():
    g = Grid1D(-20.0, 20.0, 4001)
    assert repr(g) == "Grid1D(x_min=-20.0, x_max=20.0, nx=4001)"
    assert repr(TimeGrid(1.0, 0.5)) == "TimeGrid(t_end=1.0, dt=0.5, nt=3)"
    assert copy.copy(g) == g and pickle.loads(pickle.dumps(g)) == g
    field = WaveField(Grid1D(0.0, 1.0, 11), 0.5, np.arange(11.0))
    clone = copy.deepcopy(field)
    assert clone.grid == field.grid and clone.time == 0.5
    assert np.array_equal(clone.values, field.values)


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", sorted(_COPIES))
def test_wavefield_copies_keep_read_only_values(how):
    field = WaveField(Grid1D(0.0, 1.0, 11), 0.5, np.arange(11.0))
    clone = _COPIES[how](field)
    assert not clone.values.flags.writeable
    assert clone.grid == field.grid and clone.time == field.time
    assert np.array_equal(clone.values, field.values)
    with pytest.raises(ValueError):
        clone.values[0] = 1.0


@pytest.mark.parametrize("how", sorted(_COPIES))
def test_wavefield_copies_equal_and_hash_like_the_original(how):
    field = WaveField(Grid1D(0.0, 1.0, 11), 0.5, np.arange(11.0))
    clone = _COPIES[how](field)
    assert clone == field and hash(clone) == hash(field) and len({field, clone}) == 1


def test_wavefields_compare_grid_time_and_values():
    g = Grid1D(0.0, 1.0, 11)
    zero = WaveField(g, 0.0, np.zeros(11))
    negative_zero = WaveField(g, -0.0, np.full(11, -0.0))
    assert zero == negative_zero and hash(zero) == hash(negative_zero)
    assert zero != WaveField(g, 0.5, np.zeros(11))
    assert zero != WaveField(Grid1D(0.0, 2.0, 11), 0.0, np.zeros(11))
    tiny = np.zeros(11)
    tiny[4] = 5e-324
    assert zero != WaveField(g, 0.0, tiny)
    assert zero != (g, 0.0, zero.values)  # a value of its own type, not a tuple


_GRID = Grid1D(0.0, 1.0, 11)
_PARAMS = SchemeParams(dx=0.1, dt=0.01)

# one value of every immutable record type, and one of its fields
FROZEN = [
    (_GRID, "nx"),
    (TimeGrid(1.0, 0.1), "nt"),
    (WaveField(_GRID, 0.0, np.zeros(11)), "values"),
    (_PARAMS, "dt"),
    (CnConfig(_PARAMS), "paper_normalization"),
    (SnapshotDiagnostics(0.0, 1.0, 2.0, 3.0), "mass"),
    (PowerIterationReport(1.0, 3, True, 0.0), "estimate"),
    (CertificateReport("m", True, "d"), "certified"),
    (AmplificationPoint(0.0, 1.0, 0.0, 1.0), "magnitude"),
    (ScanRow(1.0, 1.0, 0.0, 1.0), "max_magnitude"),
]


@pytest.mark.parametrize("value, name", FROZEN, ids=[type(v).__name__ for v, _ in FROZEN])
def test_record_fields_cannot_be_assigned_or_deleted(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, 7)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 7
    assert getattr(value, name) is before


@pytest.mark.parametrize("build, match", [
    (lambda: Grid1D(1.0, 1.0, 11), "must exceed"),
    (lambda: Grid1D(0.0, math.nan, 11), "must exceed"),
    (lambda: Grid1D(0.0, 1.0, 6), "nx must be >= 7"),
    (lambda: TimeGrid(1.0, 0.0), "dt must be positive"),
    (lambda: TimeGrid(-1.0, 0.1), "t_end must be positive"),
    (lambda: TimeGrid(math.inf, 1.0), "not a finite step count"),
    (lambda: WaveField(_GRID, 0.0, np.zeros(10)), "must have shape"),
    (lambda: WaveField(_GRID, 0.0, np.zeros((11, 1))), "must have shape"),
    (lambda: WaveField(_GRID, 0.0, np.full(11, math.inf)), "must be finite"),
    (lambda: SchemeParams(dx=0.0, dt=0.1), "must be positive"),
    (lambda: SchemeParams(dx=0.1, dt=-0.1), "must be positive"),
])
def test_record_constructors_check_their_inputs(build, match):
    with pytest.raises(ValueError, match=match):
        build()


# ---------------------------------------------------------------------------
# initial profiles
# ---------------------------------------------------------------------------

def test_initial_condition_center_values():
    g = Grid1D(-20.0, 20.0, 4001)
    assert initial_condition(g, 4.0).values[2000] == pytest.approx(0.5, abs=1e-15)
    assert initial_condition(g, 1.0).values[2000] == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(ValueError):
        initial_condition(g, -1.0)


def test_initial_condition_amplitude_and_width():
    # wave speed c gives amplitude c/8 and width 2/sqrt(c): c = 4 is 0.5 sech^2(x)
    g = Grid1D(-10.0, 10.0, 201)
    assert initial_condition(g, 4.0) == sech_squared_profile(g, 0.5, 1.0)
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="wave speed c must be positive"):
            initial_condition(g, c)
    with pytest.raises(ValueError, match="width must be nonzero"):
        sech_squared_profile(g, 1.0, 0.0)


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
