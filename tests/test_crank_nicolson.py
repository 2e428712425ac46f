"""Tests for the Crank-Nicolson schemes and their matrix assemblies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvlab import crank_nicolson
from kdvlab.banded import factor_banded, matvec, skew_deviation
from kdvlab.crank_nicolson import (
    EIGEN_PROBE_PARAMS,
    GAMMA_MODES,
    SchemeConfig,
    assemble_implicit,
    assemble_lagged,
    run,
    step,
)
from kdvlab.config import RunConfig
from kdvlab.errors import ConfigError, FixedPointError
from kdvlab.evolution import peak_abscissa
from kdvlab.model import (
    Grid1D,
    SchemeParams,
    TimeGrid,
    WaveField,
    mass,
    traveling_wave,
)


def zero_field(nx=54):
    g = Grid1D(-20.0, 20.0, nx)
    return WaveField(g, 0.0, np.zeros(nx))


def lagged_cfg(params, gamma_mode="row-varying", **kw):
    return SchemeConfig(params=params, gamma_mode=gamma_mode, **kw)


def implicit_cfg(params, **kw):
    return SchemeConfig(params=params, scheme="cn-implicit", **kw)


# ---------------------------------------------------------------------------
# lagged assembly
# ---------------------------------------------------------------------------

def test_lagged_bands_at_alpha_1000():
    A, B = assemble_lagged(zero_field(), lagged_cfg(EIGEN_PROBE_PARAMS))
    assert A.sub2[0] == pytest.approx(-250.0, rel=1e-12)
    assert A.sub1[0] == pytest.approx(500.0, rel=1e-12)
    assert np.all(A.diag == 1.0)
    assert A.sup1[0] == pytest.approx(-500.0, rel=1e-12)
    assert A.sup2[0] == pytest.approx(250.0, rel=1e-12)
    assert B.sub2[0] == pytest.approx(250.0, rel=1e-12)


def test_lagged_gamma_is_half_alpha_on_zero_field():
    params = SchemeParams(dx=0.25, dt=0.05)
    A, _ = assemble_lagged(zero_field(), lagged_cfg(params))
    # the advective term vanishes exactly on u = 0
    assert np.all(A.sub1 == params.alpha / 2.0)
    assert np.all(A.sup1 == -params.alpha / 2.0)


def test_b_bands_negate_a_bands_exactly():
    rng = np.random.default_rng(41)
    g = Grid1D(-5.0, 5.0, 64)
    f = WaveField(g, 0.0, rng.standard_normal(64))
    for mode in GAMMA_MODES:
        A, B = assemble_lagged(f, lagged_cfg(SchemeParams(dx=g.dx, dt=0.01), mode))
        assert np.array_equal(B.sub1, -A.sub1)
        assert np.array_equal(B.sup1, -A.sup1)
        assert np.array_equal(B.sub2, -A.sub2)
        assert np.array_equal(B.sup2, -A.sup2)
        assert np.array_equal(B.diag, A.diag)


def test_frozen_midpoint_assembly_is_identity_plus_skew():
    rng = np.random.default_rng(42)
    g = Grid1D(-5.0, 5.0, 64)
    f = WaveField(g, 0.0, rng.standard_normal(64))
    A, _ = assemble_lagged(
        f, lagged_cfg(EIGEN_PROBE_PARAMS, "frozen-midpoint")
    )
    assert skew_deviation(A) == 0.0  # (A + A^T)/2 == I elementwise


def test_assembly_rejects_tiny_grids():
    g = Grid1D(0.0, 1.0, 8)
    f = WaveField(g, 0.0, np.zeros(8))
    with pytest.raises(ValueError):
        assemble_lagged(f, lagged_cfg(SchemeParams(dx=g.dx, dt=0.01)))


# ---------------------------------------------------------------------------
# lagged stepping
# ---------------------------------------------------------------------------

def test_lagged_step_zero_field():
    f = zero_field()
    out = step(f, lagged_cfg(EIGEN_PROBE_PARAMS))[0]
    assert np.array_equal(out.values, np.zeros(54))


def test_lagged_step_matches_dense_solve():
    rng = np.random.default_rng(43)
    g = Grid1D(0.0, 3.0, 31)
    f = WaveField(g, 0.0, rng.standard_normal(31))
    cfg = lagged_cfg(SchemeParams(dx=g.dx, dt=0.005))
    out = step(f, cfg)[0]
    A, B = assemble_lagged(f, cfg)
    dense = np.linalg.solve(A.to_dense(), matvec(B, f.values[2:-2]))
    assert np.max(np.abs(out.values[2:-2] - dense)) <= 1e-10
    assert np.all(out.values[:2] == 0.0) and np.all(out.values[-2:] == 0.0)


def test_lagged_one_step_defect_against_analytic():
    # frozen regression: measured defect/dt ~ 1e-4 for v = 0.5,
    # dx = 0.05, dt = 1e-3 on a wide window
    g = Grid1D(-30.0, 30.0, 1201)
    dt = 1e-3
    ic = traveling_wave(g, 0.5, 0.0)
    out = step(ic, lagged_cfg(SchemeParams(dx=g.dx, dt=dt)))[0]
    exact = traveling_wave(g, 0.5, dt)
    defect = np.max(np.abs(out.values - exact.values))
    assert defect <= 2e-4 * dt


def test_lagged_step_is_deterministic():
    rng = np.random.default_rng(44)
    g = Grid1D(-5.0, 5.0, 101)
    f = WaveField(g, 0.0, rng.standard_normal(101) * 0.1)
    cfg = lagged_cfg(SchemeParams(dx=g.dx, dt=0.01))
    assert np.array_equal(step(f, cfg)[0].values, step(f, cfg)[0].values)


def test_paper_normalization_rescales_interior():
    g = Grid1D(-10.0, 10.0, 101)
    ic = traveling_wave(g, 0.5, 0.0)
    cfg = lagged_cfg(SchemeParams(dx=g.dx, dt=0.01), paper_normalization=True)
    out = step(ic, cfg)[0]
    assert np.max(np.abs(out.values)) == pytest.approx(1.0, abs=1e-14)
    # a zero field must survive normalization untouched
    zeros = WaveField(g, 0.0, np.zeros(101))
    assert np.array_equal(step(zeros, cfg)[0].values, np.zeros(101))


# ---------------------------------------------------------------------------
# implicit assembly and stepping
# ---------------------------------------------------------------------------

def test_implicit_assembly_matches_lagged_on_zero_field():
    f = zero_field()
    cfg = implicit_cfg(EIGEN_PROBE_PARAMS)
    A_imp, _ = assemble_implicit(f, f, cfg)
    A_lag, _ = assemble_lagged(f, lagged_cfg(EIGEN_PROBE_PARAMS))
    assert np.array_equal(A_imp.to_dense(), A_lag.to_dense())


def _dyadic_fields(seed):
    """A known level and a guess of sixteenths, so (u + g)/2 is exact in doubles."""
    rng = np.random.default_rng(seed)
    g = Grid1D(-5.0, 5.0, 64)
    u, guess = (rng.integers(-64, 64, 64) / 16.0 for _ in range(2))
    return g, u, guess


def test_implicit_assembly_is_the_lagged_one_at_the_midpoint():
    g, u, guess = _dyadic_fields(45)
    for mode in GAMMA_MODES:
        cfg = implicit_cfg(SchemeParams(dx=g.dx, dt=0.01), gamma_mode=mode)
        A, B = assemble_implicit(WaveField(g, 0.0, u), WaveField(g, 0.0, guess), cfg)
        A_mid, B_mid = assemble_lagged(WaveField(g, 0.0, (u + guess) / 2.0), cfg)
        assert np.array_equal(A.to_dense(), A_mid.to_dense()), mode
        assert np.array_equal(B.to_dense(), B_mid.to_dense()), mode
        assert np.array_equal(B.to_dense(), 2.0 * np.eye(A.n) - A.to_dense()), mode


def test_implicit_diagonal_is_one():
    g, u, guess = _dyadic_fields(46)
    for mode in GAMMA_MODES:
        cfg = implicit_cfg(SchemeParams(dx=g.dx, dt=0.01), gamma_mode=mode)
        A, _ = assemble_implicit(WaveField(g, 0.0, u), WaveField(g, 0.0, guess), cfg)
        assert np.all(A.diag == 1.0), mode


def test_implicit_zero_field_converges_immediately():
    out, iterations = step(zero_field(), implicit_cfg(EIGEN_PROBE_PARAMS))
    assert np.array_equal(out.values, np.zeros(54))
    assert iterations == 1


def test_implicit_agrees_with_lagged_for_small_amplitude():
    # measured |lagged - implicit| = 4.5e-11 at dt = 1e-4 on this field,
    # inside the 10 * PICARD_TOL = 1e-9 contract
    g = Grid1D(-10.0, 10.0, 201)
    x = g.points()
    f = WaveField(g, 0.0, 1e-3 * np.exp(-(x**2) / 4.0))
    params = SchemeParams(dx=g.dx, dt=1e-4)
    lag = step(f, lagged_cfg(params))[0]
    imp, _ = step(f, implicit_cfg(params))
    assert np.max(np.abs(lag.values - imp.values)) <= 1e-9


def test_implicit_iteration_count_non_increasing_in_dt():
    g = Grid1D(-10.0, 10.0, 201)
    f = traveling_wave(g, 0.5, 0.0)
    counts = []
    for dt in (1e-2, 1e-3, 1e-4):
        _, iterations = step(f, implicit_cfg(SchemeParams(dx=g.dx, dt=dt)))
        counts.append(iterations)
    assert counts[0] >= counts[1] >= counts[2]
    assert counts == [4, 3, 3]  # frozen regression


def test_implicit_reports_fixed_point_failure(monkeypatch):
    g = Grid1D(-10.0, 10.0, 201)
    f = traveling_wave(g, 0.5, 0.0)
    monkeypatch.setattr(crank_nicolson, "PICARD_MAX_ITERS", 1)
    cfg = implicit_cfg(SchemeParams(dx=g.dx, dt=1e-2))
    with pytest.raises(FixedPointError) as err:
        step(f, cfg)
    assert err.value.residual > 0.0


@pytest.mark.parametrize("linearization", ["lagged", "implicit"])
def test_run_cn_returns_a_singular_solve_as_an_outcome(linearization):
    # every u = 1e150: B u is finite, but A is singular in doubles at the first step
    g = Grid1D(-20.0, 20.0, 201)
    f = WaveField(g, 0.0, np.full(201, 1e150))
    cfg = SchemeConfig(params=SchemeParams(dx=g.dx, dt=0.01), scheme=f"cn-{linearization}",
                       gamma_mode="frozen-midpoint")
    result = run(f, cfg, TimeGrid(0.02, 0.01), [0.0, 0.02])
    assert (result.outcome, result.failure_step) == ("solver-failure", 1)
    assert result.failure == "zero pivot in banded elimination at row 196"
    assert result.snapshots == [f] and [d.time for d in result.diagnostics] == [0.0]
    implicit = linearization == "implicit"
    assert result.picard_solves == (() if implicit else None)


def test_gamma_mode_acts_on_the_implicit_step():
    g = Grid1D(-10.0, 10.0, 201)
    f = traveling_wave(g, 1.0, -2.0)  # peak away from the frozen midpoint x = 0
    params = SchemeParams(dx=g.dx, dt=1e-2)
    frozen, _ = step(f, implicit_cfg(params, gamma_mode="frozen-midpoint"))
    varying, _ = step(f, implicit_cfg(params, gamma_mode="row-varying"))
    assert np.max(np.abs(frozen.values - varying.values)) > 1e-3


@pytest.mark.parametrize("linearization, bound", [
    ("lagged", 1e-2),  # measured 5.62e-3
    ("implicit", 1e-3),  # measured 8.26e-5
])
def test_row_varying_schemes_track_the_traveling_wave(linearization, bound):
    g = Grid1D(-16.0, 20.0, 1801)
    cfg = SchemeConfig(SchemeParams(dx=g.dx, dt=0.005), f"cn-{linearization}", "row-varying")
    res = run(traveling_wave(g, 1.0, 0.0), cfg, TimeGrid(2.0, 0.005), [2.0])
    end = res.snapshots[-1]
    assert np.max(np.abs(end.values - traveling_wave(g, 1.0, 2.0).values)) <= bound
    assert abs(peak_abscissa(end) - 2.0) <= 0.05  # speed v = 1


def test_implicit_guess_grid_mismatch():
    f = zero_field(54)
    other = zero_field(64)
    with pytest.raises(ValueError):
        assemble_implicit(f, other, implicit_cfg(EIGEN_PROBE_PARAMS))


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_zero_ic_gives_zero_snapshots():
    f = zero_field()
    cfg = lagged_cfg(SchemeParams(dx=f.grid.dx, dt=0.01))
    res = run(f, cfg, TimeGrid(0.5, 0.01), [0.1, 0.5])
    assert res.completed
    assert all(np.array_equal(s.values, np.zeros(54)) for s in res.snapshots)


def test_demo_pipeline_with_normalization_completes():
    # frozen-midpoint + per-step normalization on the demo grid constants
    g = Grid1D(-20.0, 20.0, 4001)
    from kdvlab.model import appendix_profile

    ic = appendix_profile(g)
    cfg = SchemeConfig(
        params=SchemeParams(dx=g.dx, dt=0.01),
        gamma_mode="frozen-midpoint",
        paper_normalization=True,
    )
    res = run(ic, cfg, TimeGrid(10.0, 0.01), [k + 0.01 for k in range(1, 9)])
    assert res.completed
    assert len(res.snapshots) == 8
    assert [f"{s.time:.2f}" for s in res.snapshots] == [
        "1.01", "2.01", "3.01", "4.01", "5.01", "6.01", "7.01", "8.01",
    ]


def test_mass_drift_shrinks_under_refinement():
    # zero-boundary soliton on a wide window: drift is discretization error
    def drift(dx, dt):
        nx = int(round(48.0 / dx)) + 1
        g = Grid1D(-22.0, 26.0, nx)
        ic = traveling_wave(g, 0.25, 0.0)
        cfg = lagged_cfg(SchemeParams(dx=g.dx, dt=dt))
        res = run(ic, cfg, TimeGrid(1.0, dt), [1.0])
        return abs(mass(res.snapshots[-1]) - mass(ic)) / abs(mass(ic))

    coarse = drift(0.05, 0.005)
    fine = drift(0.025, 0.0025)
    assert fine < coarse


# ---------------------------------------------------------------------------
# step path: equal to the public assemblies, built once per step
# ---------------------------------------------------------------------------

def _interiors():
    """Zero, soliton and random fields at n = 50 and n = 1,000 interior unknowns."""
    rng = np.random.default_rng(47)
    for nx in (54, 1004):
        g = Grid1D(-20.0, 20.0, nx)
        random = np.zeros(nx)
        random[2:-2] = 0.3 * rng.standard_normal(nx - 4)
        yield "zero", np.zeros(nx), g
        yield "soliton", traveling_wave(g, 0.5, 0.0).values, g
        yield "random", random, g


def _pinned(u_n, interior):
    full = np.zeros(u_n.grid.nx)
    full[2:-2] = interior
    return full


def _composed_lagged(u_n, cfg):
    """The lagged step as the public assembly, matvec and solve compose it."""
    A, B = assemble_lagged(u_n, cfg)
    return _pinned(u_n, factor_banded(A)(matvec(B, u_n.values[2:-2])))


def _composed_implicit(u_n, cfg):
    """The Picard loop over assemble_implicit: A and B at each iterate's midpoint coefficient."""
    prev = u_n.values[2:-2]
    guess = u_n
    for iteration in range(1, crank_nicolson.PICARD_MAX_ITERS + 1):
        A, B = assemble_implicit(u_n, guess, cfg)
        interior = factor_banded(A)(matvec(B, u_n.values[2:-2]))
        if np.max(np.abs(interior - prev)) < crank_nicolson.PICARD_TOL:
            return _pinned(u_n, interior), iteration
        prev = interior
        guess = WaveField(u_n.grid, u_n.time, _pinned(u_n, interior))
    raise AssertionError("reference Picard loop did not converge")


def _composed_chord(u_n, cfg):
    """The chord loop in splitting form over the public assembly.

    A_0 = A(u^n) is factored once; each iterate solves
    A_0 x' = B(c) u^n - (A(c) - A_0) x at c = (u^n + x)/2, where row i of
    A(c) - A_0 is dgamma_i at (i, i-1) and -dgamma_i at (i, i+1).
    """
    known = prev = u_n.values[2:-2]
    A0, _ = assemble_lagged(u_n, cfg)
    solve = factor_banded(A0)
    guess = u_n
    for iteration in range(1, crank_nicolson.PICARD_MAX_ITERS + 1):
        A, B = assemble_implicit(u_n, guess, cfg)
        rhs = matvec(B, known)
        if iteration > 1:
            dgamma = np.concatenate(([A0.sup1[0] - A.sup1[0]], A.sub1 - A0.sub1))
            padded = np.pad(prev, 1)
            rhs -= dgamma * (padded[:-2] - padded[2:])
        interior = solve(rhs)
        if np.max(np.abs(interior - prev)) < crank_nicolson.PICARD_TOL:
            return _pinned(u_n, interior), iteration
        prev = interior
        guess = WaveField(u_n.grid, u_n.time, _pinned(u_n, interior))
    raise AssertionError("reference chord loop did not converge")


@pytest.mark.parametrize("mode", GAMMA_MODES)
def test_lagged_step_is_bitwise_the_composed_assembly(mode):
    for name, values, g in _interiors():
        f = WaveField(g, 0.0, values)
        cfg = lagged_cfg(SchemeParams(dx=g.dx, dt=0.01), mode)
        assert np.array_equal(step(f, cfg)[0].values, _composed_lagged(f, cfg)), name


def test_implicit_step_is_bitwise_the_composed_assembly():
    # row-varying: the chord in splitting form; frozen: Picard, one factorization per iterate
    for mode, composed in (("row-varying", _composed_chord),
                           ("frozen-midpoint", _composed_implicit)):
        for name, values, g in _interiors():
            f = WaveField(g, 0.0, values)
            cfg = implicit_cfg(SchemeParams(dx=g.dx, dt=1e-3), gamma_mode=mode)
            out, solves = step(f, cfg)
            expected, iterations = composed(f, cfg)
            assert np.array_equal(out.values, expected), (mode, name)
            assert solves == iterations, (mode, name)


@pytest.mark.parametrize(
    "x_min, x_max, nx, dt, t_end, speed",
    [(-10.0, 14.0, 961, 0.0025, 0.03, 0.25),  # the benchmark's soliton-implicit run
     (-16.0, 20.0, 1801, 0.04, 2.0, 1.0)],
    ids=["soliton-implicit", "traveling-1.0"],
)
def test_chord_steps_agree_with_picard(x_min, x_max, nx, dt, t_end, speed):
    g = Grid1D(x_min, x_max, nx)
    cfg = implicit_cfg(SchemeParams(dx=g.dx, dt=dt))
    chord = picard = traveling_wave(g, speed, 0.0)
    chord_solves = picard_solves = 0
    for _ in range(round(t_end / dt)):
        chord, solves = step(chord, cfg)
        chord_solves += solves
        values, solves = _composed_implicit(picard, cfg)
        picard = WaveField(g, picard.time + dt, values)
        picard_solves += solves
    assert np.max(np.abs(chord.values - picard.values)) <= 1e-11
    assert chord_solves <= picard_solves


def _count(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_solves(monkeypatch):
    """Count the step's factorizations, and the solves made against their factors."""
    factored, solved = [], []
    real = crank_nicolson.factor_banded

    def factor(P):
        factored.append(P)
        solve = real(P)
        return lambda b: solved.append(len(factored)) or solve(b)

    monkeypatch.setattr(crank_nicolson, "factor_banded", factor)
    return factored, solved


def test_lagged_step_builds_one_matrix(monkeypatch):
    g = Grid1D(-20.0, 20.0, 201)
    built = _count(monkeypatch, crank_nicolson, "Pentadiagonal")
    step(traveling_wave(g, 0.5, 0.0), lagged_cfg(SchemeParams(dx=g.dx, dt=0.01)))
    assert len(built) == 1


@pytest.mark.parametrize("mode", GAMMA_MODES)
def test_lagged_step_is_the_implicit_step_stopped_after_one_iterate(monkeypatch, mode):
    g = Grid1D(-10.0, 10.0, 201)
    f = traveling_wave(g, 0.5, 0.0)
    params = SchemeParams(dx=g.dx, dt=1e-2)
    built = _count(monkeypatch, crank_nicolson, "Pentadiagonal")
    factored, solved = _count_solves(monkeypatch)
    lagged, solves = step(f, lagged_cfg(params, mode))
    assert (solves, len(built), solved) == (1, 1, [1])
    monkeypatch.setattr(crank_nicolson, "PICARD_TOL", float("inf"))  # stop at the first iterate
    implicit, iterates = step(f, implicit_cfg(params, gamma_mode=mode))
    assert iterates == 1 and len(built) == len(factored) == 2 and solved == [1, 2]
    assert np.array_equal(lagged.values, implicit.values)
    assert lagged.time == implicit.time == 1e-2


def test_implicit_step_forms_b_u_once_per_iterate(monkeypatch):
    # row-varying: one A and one factorization per step; frozen: one of each per iterate
    g = Grid1D(-10.0, 10.0, 201)
    # 4 is the row-varying count of test_implicit_iteration_count_non_increasing_in_dt
    for mode, iterates, factorizations in (("row-varying", 4, 1),
                                           ("frozen-midpoint", 3, 3)):
        products = _count(monkeypatch, crank_nicolson, "_rhs")
        built = _count(monkeypatch, crank_nicolson, "Pentadiagonal")
        factored, solved = _count_solves(monkeypatch)
        _, solves = step(traveling_wave(g, 0.5, 0.0),
                            implicit_cfg(SchemeParams(dx=g.dx, dt=1e-2), gamma_mode=mode))
        assert solves == iterates, mode
        assert len(products) == solves, mode  # B u per iterate, no B
        assert len(built) == len(factored) == factorizations, mode
        # one solve per iterate, each against the latest factors
        assert solved == ([1] * iterates if factorizations == 1 else [1, 2, 3]), mode
        monkeypatch.undo()


def test_run_records_each_steps_picard_solves():
    g = Grid1D(-10.0, 10.0, 201)
    ic = traveling_wave(g, 0.5, 0.0)
    cfg = implicit_cfg(SchemeParams(dx=g.dx, dt=0.01))
    res = run(ic, cfg, TimeGrid(0.1, 0.01), [0.1])
    state, expected = ic, []
    for _ in range(10):
        state, solves = step(state, cfg)
        expected.append(solves)
    assert res.picard_solves == tuple(expected)
    assert np.array_equal(res.snapshots[-1].values, state.values)


def test_picard_solves_are_none_for_the_other_schemes():
    g = Grid1D(-10.0, 10.0, 201)
    ic = traveling_wave(g, 0.5, 0.0)
    params = SchemeParams(dx=g.dx, dt=0.01)
    assert run(ic, lagged_cfg(params), TimeGrid(0.1, 0.01), [0.1]).picard_solves is None
    explicit = run(ic, SchemeConfig(params, "explicit"), TimeGrid(0.1, 0.01), [0.1])
    assert explicit.picard_solves is None


@settings(max_examples=100, deadline=None)
@given(
    nx=st.integers(9, 400),
    dt=st.floats(1e-4, 1e-1),
    seed=st.integers(0, 2**32 - 1),
)
def test_frozen_midpoint_steps_conserve_l2(nx, dt, seed):
    # each frozen solve is a Cayley transform (I + K)^-1 (I - K), K skew,
    # under either linearization (every Picard iterate maps u^n so)
    g = Grid1D(-20.0, 20.0, nx)
    values = np.zeros(nx)
    values[2:-2] = np.random.default_rng(seed).uniform(-1.0, 1.0, nx - 4)
    l2 = np.sum(values**2)
    for scheme in ("cn-lagged", "cn-implicit"):
        state = WaveField(g, 0.0, values)
        cfg = SchemeConfig(SchemeParams(dx=g.dx, dt=dt), scheme, "frozen-midpoint")
        for _ in range(30):
            state, _ = step(state, cfg)
        assert abs(np.sum(state.values**2) - l2) <= 1e-12 * l2, scheme


def test_scheme_config_refuses_what_a_run_config_refuses():
    params = SchemeParams(dx=0.1, dt=0.01)
    for scheme, mode, normalize in (("bogus", "row-varying", False),
                                    ("cn-lagged", "bogus", False),
                                    ("explicit", "row-varying", True)):
        with pytest.raises(ConfigError) as built:
            SchemeConfig(params, scheme, mode, normalize)
        with pytest.raises(ConfigError) as parsed:
            RunConfig(scheme=scheme, gamma_mode=mode, paper_normalization=normalize).validate()
        assert str(built.value) == str(parsed.value)
