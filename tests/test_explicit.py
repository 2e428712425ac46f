"""Tests for the explicit forward-in-time update."""

import numpy as np
import pytest

from kdvlab import crank_nicolson, evolution, explicit, model
from kdvlab.errors import BlowUpError
from kdvlab.crank_nicolson import CnConfig, LinearizationKind, cn_step_implicit, cn_step_lagged
from kdvlab.evolution import MAX_AMPLITUDE, evolve, next_state
from kdvlab.explicit import explicit_step, run_explicit
from kdvlab.model import Grid1D, SchemeParams, TimeGrid, WaveField, appendix_profile


def transcribed_step(values, dt, dx):
    """Independent per-point transcription of the explicit update rule."""
    u = np.asarray(values, dtype=float)
    nx = len(u)
    c1 = 0.75 * dt / dx
    c2 = 0.5 * dt / dx**3
    out = np.zeros(nx)
    for i in range(2, nx - 2):
        out[i] = u[i] * (1.0 + c1 * (u[i + 1] - u[i - 1])) - c2 * (
            u[i + 2] - 2.0 * u[i + 1] + 2.0 * u[i - 1] - u[i - 2]
        )
    return out


def make_cfg(dx, dt):
    return SchemeParams(dx=dx, dt=dt)


def test_zero_field_stays_zero():
    g = Grid1D(0.0, 1.0, 11)
    f = WaveField(g, 0.0, np.zeros(11))
    out = explicit_step(f, make_cfg(g.dx, 0.01))
    assert np.array_equal(out.values, np.zeros(11))
    assert out.time == 0.01


def test_seven_point_hand_computed_example():
    # unit spike at the center with dt = dx = 1:
    #   i=2: -(1/2)(0 - 2 + 0 - 0) = 1
    #   i=3: 1 * (1 + 0) - 0       = 1
    #   i=4: -(1/2)(0 - 0 + 2 - 0) = -1
    g = Grid1D(0.0, 6.0, 7)
    u = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    out = explicit_step(WaveField(g, 0.0, u), make_cfg(1.0, 1.0))
    assert np.array_equal(out.values, [0.0, 0.0, 1.0, 1.0, -1.0, 0.0, 0.0])


def test_matches_independent_transcription():
    rng = np.random.default_rng(31)
    g = Grid1D(0.0, 3.0, 31)
    cfg = make_cfg(0.1, 1e-4)
    for _ in range(100):
        u = rng.standard_normal(31)
        out = explicit_step(WaveField(g, 0.0, u), cfg)
        oracle = transcribed_step(u, 1e-4, 0.1)
        assert np.array_equal(out.values, oracle)


def test_linear_part_superposition():
    rng = np.random.default_rng(32)
    g = Grid1D(-2.0, 2.0, 41)
    cfg = make_cfg(g.dx, 1e-5)
    u = WaveField(g, 0.0, rng.standard_normal(41))
    w = WaveField(g, 0.0, rng.standard_normal(41))
    a, b = 1.7, -0.4
    combo = WaveField(g, 0.0, a * u.values + b * w.values)
    lhs = explicit_step(combo, cfg, nonlinear=False).values
    rhs = (
        a * explicit_step(u, cfg, nonlinear=False).values
        + b * explicit_step(w, cfg, nonlinear=False).values
    )
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_boundary_cells_stay_pinned():
    rng = np.random.default_rng(33)
    g = Grid1D(-1.0, 1.0, 21)
    cfg = make_cfg(g.dx, 1e-6)
    f = WaveField(g, 0.0, rng.standard_normal(21) * 0.01)
    for _ in range(25):
        f = explicit_step(f, cfg)
        assert f.values[0] == 0.0 and f.values[1] == 0.0
        assert f.values[-1] == 0.0 and f.values[-2] == 0.0


def test_blow_up_raises_with_magnitude():
    # a constant field steps to itself on the interior: max |u| stays 2e6
    g = Grid1D(0.0, 1.0, 11)
    f = WaveField(g, 0.0, np.full(11, 2e6))
    with pytest.raises(BlowUpError) as err:
        explicit_step(f, make_cfg(g.dx, 1.0))
    assert err.value.max_value == 2e6
    assert str(err.value) == "amplitude threshold 1e+06 exceeded (max |u| = 2e+06)"


@pytest.mark.parametrize("scheme", ["explicit", "cn-lagged", "cn-implicit"])
def test_every_scheme_blows_up_by_the_one_rule(scheme):
    # dt = 1e-9 keeps each step close to the identity, so the Picard
    # iteration settles and every scheme lands just above 2e6
    g = Grid1D(-10.0, 10.0, 41)
    f = WaveField(g, 0.0, np.full(41, 2e6))
    params = make_cfg(g.dx, 1e-9)
    step = {
        "explicit": lambda: explicit_step(f, params),
        "cn-lagged": lambda: cn_step_lagged(f, CnConfig(params)),
        "cn-implicit": lambda: cn_step_implicit(
            f, CnConfig(params, linearization=LinearizationKind.IMPLICIT_COEFFICIENT)),
    }[scheme]
    with pytest.raises(BlowUpError) as err:
        step()
    peak = err.value.max_value
    assert MAX_AMPLITUDE == 1e6 < peak < 2.01e6
    assert str(err.value) == f"amplitude threshold 1e+06 exceeded (max |u| = {peak:g})"


def test_non_finite_state_is_a_blow_up():
    # nan compares False with the threshold, so the rule tests finiteness itself
    g = Grid1D(0.0, 1.0, 11)
    f = WaveField(g, 0.0, np.zeros(11))
    for bad in (np.nan, -np.inf):
        values = np.zeros(11)
        values[5] = bad
        with pytest.raises(BlowUpError) as err:
            next_state(f, values, 0.1)
        assert not np.isfinite(err.value.max_value)


def test_next_state_copies_what_it_is_given():
    g = Grid1D(-1.0, 1.0, 9)
    f = WaveField(g, 0.0, np.zeros(9))
    base = np.arange(18.0)
    view = base[::2]  # a view, whose base the caller keeps writing to
    for values in (list(range(0, 18, 2)), np.arange(0, 18, 2), view):
        state = next_state(f, values, 0.5)
        assert state.values.dtype == np.float64 and state.values.base is None
        assert not state.values.flags.writeable and state.time == 0.5
        assert np.array_equal(state.values, 2.0 * np.arange(9))
    base[:] = -1.0  # state was made from the view
    assert np.array_equal(state.values, 2.0 * np.arange(9))
    with pytest.raises(ValueError, match=r"values must have shape \(9,\)"):
        next_state(f, np.zeros(8), 0.5)


def test_steps_do_not_look_up_wavefield_by_name(monkeypatch):
    # the benchmark's tracer rebinds public names, WaveField among them, in
    # every loaded kdvlab module, its home module included
    real = model.WaveField
    for module in (model, evolution, crank_nicolson, explicit):
        monkeypatch.setattr(module, "WaveField", lambda *args: real(*args))
    g = Grid1D(-10.0, 10.0, 41)
    f = real(g, 0.0, 1e-3 * np.exp(-g.points() ** 2))
    params = SchemeParams(dx=g.dx, dt=0.01)
    for state in (explicit_step(f, params), cn_step_lagged(f, CnConfig(params))):
        assert type(state) is real and state.time == 0.01 and not state.values.flags.writeable


def test_run_zero_ic_snapshots():
    g = Grid1D(0.0, 1.0, 11)
    f = WaveField(g, 0.0, np.zeros(11))
    res = run_explicit(f, make_cfg(g.dx, 0.01), TimeGrid(1.0, 0.01), [0.25, 0.5, 1.0])
    assert res.completed
    assert len(res.snapshots) == 3
    for snap in res.snapshots:
        assert np.array_equal(snap.values, np.zeros(11))


def test_snapshot_first_step_at_or_after():
    g = Grid1D(0.0, 1.0, 11)
    f = WaveField(g, 0.0, np.zeros(11))
    res = run_explicit(f, make_cfg(g.dx, 0.01), TimeGrid(1.0, 0.01), [0.0, 0.995])
    assert res.snapshots[0].time == 0.0
    # 0.995 falls between steps 99 and 100: the first state at or after is t=1.0
    assert res.snapshots[1].time == pytest.approx(1.0, abs=1e-12)
    prev_step_time = 99 * 0.01
    assert prev_step_time < 0.995


def test_appendix_scale_run_blows_up():
    # dt = dx = 0.01 amplifies round-off modes by ~1e4 per step
    g = Grid1D(-20.0, 20.0, 4001)
    ic = appendix_profile(g)
    res = run_explicit(ic, make_cfg(g.dx, 0.01), TimeGrid(10.0, 0.01), [1.01])
    assert res.outcome == "blow-up"
    assert res.blow_up_step is not None
    assert res.blow_up_step * 0.01 < 10.0


def test_evolve_rejects_bad_snapshot_times():
    g = Grid1D(0.0, 1.0, 11)
    f = WaveField(g, 0.0, np.zeros(11))
    with pytest.raises(ValueError):
        evolve(f, TimeGrid(1.0, 0.1), [0.5, 0.25], lambda s: s)
    with pytest.raises(ValueError):
        evolve(f, TimeGrid(1.0, 0.1), [2.0], lambda s: s)


def test_evolve_attaches_step_context_to_solver_errors():
    from kdvlab.errors import FixedPointError, SingularMatrixError

    g = Grid1D(0.0, 1.0, 11)
    f = WaveField(g, 0.0, np.zeros(11))

    def singular_step(state):
        raise SingularMatrixError("zero pivot", row=3)

    with pytest.raises(SingularMatrixError, match="step 1") as err:
        evolve(f, TimeGrid(1.0, 0.1), [1.0], singular_step)
    assert err.value.row == 3

    def stuck_step(state):
        raise FixedPointError("no convergence", residual=0.5, iterations=50)

    with pytest.raises(FixedPointError, match="step 1") as err:
        evolve(f, TimeGrid(1.0, 0.1), [1.0], stuck_step)
    assert err.value.residual == 0.5
