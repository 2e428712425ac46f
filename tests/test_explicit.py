"""Tests for the explicit forward-in-time update."""

import numpy as np
import pytest

from kdvlab import crank_nicolson, evolution, explicit, model
from kdvlab.errors import BlowUpError, FixedPointError, SingularMatrixError
from kdvlab.crank_nicolson import CnConfig, LinearizationKind, _rhs, _weights, cn_step
from kdvlab.evolution import MAX_AMPLITUDE, evolve, next_state
from kdvlab.explicit import explicit_step, run_explicit
from kdvlab.model import Grid1D, SchemeParams, TimeGrid, WaveField, appendix_profile


def transcribed_step(values, dt, dx):
    """Independent per-point transcription of the explicit update, in the
    shared operator's order: row i of B at twice the CN weights."""
    u = np.asarray(values, dtype=float)
    alpha, beta = dt / dx**3, dt / dx
    q = alpha / 2.0
    out = np.zeros(len(u))
    for i in range(2, len(u) - 2):
        g = 2.0 * (alpha / 2.0 + (3.0 * beta / 8.0) * u[i])
        out[i] = (((u[i] - g * u[i - 1]) + q * u[i - 2]) + g * u[i + 1]) - q * u[i + 2]
    return out


def factored_step(values, dt, dx):
    """The update as u_i (1 + c1 (u_{i+1} - u_{i-1})) - c2 (u_{i+2} - 2 u_{i+1} + ...),
    and the sum of the magnitudes of its terms per row."""
    u = np.asarray(values, dtype=float)
    nx = len(u)
    c1 = 0.75 * dt / dx
    c2 = 0.5 * dt / dx**3
    out = np.zeros(nx)
    scale = np.zeros(nx)
    for i in range(2, nx - 2):
        out[i] = u[i] * (1.0 + c1 * (u[i + 1] - u[i - 1])) - c2 * (
            u[i + 2] - 2.0 * u[i + 1] + 2.0 * u[i - 1] - u[i - 2]
        )
        scale[i] = abs(u[i]) * (1.0 + c1 * (abs(u[i + 1]) + abs(u[i - 1]))) + c2 * (
            abs(u[i + 2]) + 2.0 * abs(u[i + 1]) + 2.0 * abs(u[i - 1]) + abs(u[i - 2])
        )
    return out, scale


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
        # the factored form rounds in another order: with u = 2**-53, each form
        # is within about 9u (B's order) and 7u (factored) times the sum of the
        # terms' magnitudes of the exact row, so they agree within 20u times it
        factored, scale = factored_step(u, 1e-4, 0.1)
        assert np.all(np.abs(out.values - factored) <= 20 * 2.0**-53 * scale)


def test_linear_part_superposition():
    # the shared operator at coefficient 0: the explicit update without u u_x
    rng = np.random.default_rng(32)
    g = Grid1D(-2.0, 2.0, 41)
    cfg = make_cfg(g.dx, 1e-5)
    gamma, quarter = _weights(np.zeros(41), cfg.alpha, cfg.beta)

    def linear_step(values):
        return _rhs(values, 2.0 * gamma, 2.0 * quarter)[2:-2]

    u = rng.standard_normal(41)
    w = rng.standard_normal(41)
    a, b = 1.7, -0.4
    lhs = linear_step(a * u + b * w)
    rhs = a * linear_step(u) + b * linear_step(w)
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
    # a constant field steps to itself on the interior up to rounding: summed in
    # B's order, u - g u + q u + g u - q u gives 2000000.0000002384, not 2e6
    g = Grid1D(0.0, 1.0, 11)
    f = WaveField(g, 0.0, np.full(11, 2e6))
    with pytest.raises(BlowUpError) as err:
        explicit_step(f, make_cfg(g.dx, 1.0))
    assert err.value.max_value == np.max(np.abs(transcribed_step(f.values, 1.0, g.dx)))
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
        "cn-lagged": lambda: cn_step(f, CnConfig(params))[0],
        "cn-implicit": lambda: cn_step(
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


def test_steps_build_their_state_through_the_constructor(monkeypatch):
    # the benchmark's tracer rebinds public names, WaveField among them, in
    # every loaded kdvlab module, its home module included, and counts the calls
    real = model.WaveField
    built = []
    for module in (model, evolution, crank_nicolson, explicit):
        monkeypatch.setattr(module, "WaveField", lambda *args: built.append(args) or real(*args))
    g = Grid1D(-10.0, 10.0, 41)
    f = real(g, 0.0, 1e-3 * np.exp(-g.points() ** 2))
    params = SchemeParams(dx=g.dx, dt=0.01)
    for step in (lambda: explicit_step(f, params), lambda: cn_step(f, CnConfig(params))[0]):
        built.clear()
        state = step()
        assert len(built) == 1  # one construction per step
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
    # the levels are 0, 0.3, 0.6 and 0.9: a request at t_end = 1 is never reached
    with pytest.raises(ValueError, match=r"snapshot_times must lie in \[0, 0.8999999999999999\]"):
        evolve(f, TimeGrid(1.0, 0.3), [1.0], lambda s: s)
    # the levels count from the initial state's time
    later = WaveField(g, 0.5, np.zeros(11))
    assert len(evolve(later, TimeGrid(1.0, 0.25), [1.5], lambda s: s).snapshots) == 1
    with pytest.raises(ValueError, match="snapshot_times must lie in"):
        evolve(later, TimeGrid(1.0, 0.25), [1.6], lambda s: s)


def test_evolve_refuses_two_requests_on_one_time_level():
    # the levels are 0, 0.05 and 0.1; a request is recorded at the first level due for it
    g = Grid1D(0.0, 1.0, 11)
    f = WaveField(g, 0.0, np.zeros(11))
    for times in ([0.04, 0.05], [0.05, 0.05], [0.0, 0.05 - 1e-14, 0.05]):
        with pytest.raises(ValueError, match=r"both select the time level t = 0.05$"):
            evolve(f, TimeGrid(0.1, 0.05), times, lambda s: s)
    result = evolve(f, TimeGrid(0.1, 0.05), [0.0, 0.01, 0.1 - 1e-14], lambda s: s)
    assert [s.time for s in result.snapshots] == [0.0, 0.05, 0.1]
    # the levels count from the initial state's time: 0.5, 0.55 and 0.6
    later = WaveField(g, 0.5, np.zeros(11))
    with pytest.raises(ValueError, match=r"snapshot_times 0.2 and 0.5 both select .* t = 0.5$"):
        evolve(later, TimeGrid(0.1, 0.05), [0.2, 0.5], lambda s: s)


def test_evolve_returns_solver_errors_as_outcomes():
    g = Grid1D(0.0, 1.0, 11)
    f = WaveField(g, 0.0, np.zeros(11))
    for error in (SingularMatrixError("zero pivot", row=3),
                  FixedPointError("no convergence", residual=0.5, iterations=50)):

        def failing_step(state):
            raise error

        result = evolve(f, TimeGrid(1.0, 0.1), [0.0, 1.0], failing_step)
        assert result.outcome == "solver-failure" and not result.completed
        assert (result.failure_step, result.failure) == (1, str(error))
        assert result.blow_up_step is None and result.picard_solves is None
        assert result.snapshots == [f] and [d.time for d in result.diagnostics] == [0.0]
        assert error.args == (str(error),)  # the message is left as the step raised it
