"""Shared time-stepping driver: snapshot recording and run outcomes."""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BlowUpError, FixedPointError, SingularMatrixError
from .model import TimeGrid, WaveField, mass
from .record import Frozen, Record

__all__ = ["MAX_AMPLITUDE", "SnapshotDiagnostics", "RunResult", "evolve", "next_state",
           "peak_abscissa", "snapshot_requests"]

OUTCOME_COMPLETED = "completed"
OUTCOME_BLOW_UP = "blow-up"
OUTCOME_SOLVER_FAILURE = "solver-failure"

# A state with max |u| above this, or not finite, ends the run as a blow-up.
MAX_AMPLITUDE = 1e6


def next_state(u_n: WaveField, values: np.ndarray, dt: float) -> WaveField:
    """The field ``values`` one step of ``dt`` after ``u_n``, unless it blew up.

    Every scheme's step ends here.  Raises :class:`BlowUpError` when
    max |u| is not finite or exceeds :data:`MAX_AMPLITUDE`; otherwise
    the state is built by :class:`~kdvlab.model.WaveField`, which copies
    ``values`` and checks its shape.
    """
    values = np.asarray(values, dtype=float)
    peak = max(values.max(), -values.min())  # max |u|; both are nan if any u is
    if not np.isfinite(peak) or peak > MAX_AMPLITUDE:
        raise BlowUpError(
            f"amplitude threshold {MAX_AMPLITUDE:g} exceeded (max |u| = {peak:g})",
            max_value=float(peak),
        )
    return WaveField(u_n.grid, u_n.time + dt, values)


def peak_abscissa(field: WaveField) -> float:
    """x-coordinate of the extremum of |u|, parabolically refined.

    The three-point parabola through the largest |u| sample and its
    neighbours gives sub-grid accuracy for smooth pulses; at the grid
    edge, or where the parabola is flat or not finite, the raw sample
    position is returned.
    """
    y = np.abs(field.values)
    i = int(np.argmax(y))
    x = field.grid.points()
    if i == 0 or i == field.grid.nx - 1:
        return float(x[i])
    with np.errstate(all="ignore"):
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    # a flat parabola (denom 0), or one whose terms overflow (a peak above about 9e307)
    if not (math.isfinite(denom) and math.isfinite(shift)):
        return float(x[i])
    return float(x[i] + shift * field.grid.dx)


class SnapshotDiagnostics(Frozen):
    """Per-snapshot summary: integral, peak magnitude, and peak location."""

    def __init__(self, time: float, mass: float, max_abs: float, peak_x: float):
        self.__dict__.update(time=time, mass=mass, max_abs=max_abs, peak_x=peak_x)

    @classmethod
    def of(cls, field: WaveField) -> "SnapshotDiagnostics":
        return cls(
            time=field.time,
            mass=mass(field),
            max_abs=field.max_abs(),
            peak_x=peak_abscissa(field),
        )


class RunResult(Record):
    """Ordered snapshots plus diagnostics for one time-stepped run.

    ``outcome`` is ``"completed"``, ``"blow-up"`` or ``"solver-failure"``:
    every run ends in one of them, since :func:`evolve` returns a step's
    failure rather than raising it.  A blow-up carries the offending step
    index, a solver failure its step and the solver's message, and both
    whatever snapshots were recorded before it.  On completion it holds one
    snapshot per request: :func:`evolve` refuses a request that the last
    time level does not reach.  ``picard_solves`` holds the Picard solves
    of each completed step, or None for a scheme without Picard iteration.
    """

    def __init__(self, snapshots: list, diagnostics: list, outcome: str,
                 blow_up_step: Optional[int] = None, picard_solves: Optional[tuple] = None,
                 failure_step: Optional[int] = None, failure: Optional[str] = None):
        self.__dict__.update(snapshots=snapshots, diagnostics=diagnostics, outcome=outcome,
                             blow_up_step=blow_up_step, picard_solves=picard_solves,
                             failure_step=failure_step, failure=failure)

    @property
    def completed(self) -> bool:
        return self.outcome == OUTCOME_COMPLETED


def _due(t: float, request: float) -> bool:
    # at or after the request, with slack for a last step that lands an ulp short of it
    return t >= request - 1e-12 * (1.0 + abs(request))


def snapshot_requests(snapshot_times: Sequence[float], time: TimeGrid, start=0.0) -> tuple:
    """The time level n that records each requested snapshot in a run from ``start``.

    That is the first level ``start + n·dt`` due for it.  Raises ValueError unless
    the requests ascend from 0, the last level, ``start + (nt - 1)·dt``, is due
    for the last of them, and no two of them select the same level.
    """
    requested = tuple(float(t) for t in snapshot_times)
    for a, b in zip(requested, requested[1:]):
        if b < a:
            raise ValueError(f"snapshot_times must be ascending, got {a} before {b}")
    last = start + (time.nt - 1) * time.dt
    if requested and not (requested[0] >= 0.0 and _due(last, requested[-1])):
        raise ValueError(f"snapshot_times must lie in [0, {last}], the last time level of "
                         f"t_end={time.t_end} and dt={time.dt}, got {requested}")
    levels = []
    for t in requested:
        lo, hi = 0, time.nt - 1  # bisect for the first level due for t: the last one is
        while lo < hi:
            mid = (lo + hi) // 2
            if _due(start + mid * time.dt, t):
                hi = mid
            else:
                lo = mid + 1
        if levels and levels[-1] == lo:
            raise ValueError(f"snapshot_times {requested[len(levels) - 1]} and {t} both "
                             f"select the time level t = {start + lo * time.dt}")
        levels.append(lo)
    return tuple(levels)


def evolve(
    ic: WaveField,
    time: TimeGrid,
    snapshot_times: Sequence[float],
    step: Callable[[WaveField], WaveField],
) -> RunResult:
    """March ``ic`` forward with ``step`` and record snapshots.

    Each requested time is satisfied by the first state whose time is at
    or after it (the initial state counts): the level that
    :func:`snapshot_requests` from ``ic.time`` gives it, so a completed
    run holds every one of them.  A :class:`BlowUpError`,
    :class:`SingularMatrixError` or :class:`FixedPointError` raised by
    ``step`` ends the run: it is returned as the outcome, ``"blow-up"``
    or ``"solver-failure"``, with its step and the snapshots recorded
    before it, and never re-raised.
    """
    levels = snapshot_requests(snapshot_times, time, ic.time)
    snapshots: list = []
    diagnostics: list = []
    state, n = ic, 0
    for level in levels:
        while n < level:
            n += 1
            try:
                state = step(state)
            except BlowUpError:
                return RunResult(snapshots, diagnostics, OUTCOME_BLOW_UP, blow_up_step=n)
            except (SingularMatrixError, FixedPointError) as exc:
                return RunResult(snapshots, diagnostics, OUTCOME_SOLVER_FAILURE,
                                 failure_step=n, failure=str(exc))
        t = ic.time + n * time.dt
        # label with n*dt: summing t + dt drifts by ulps
        snapshot = state if state.time == t else WaveField(state.grid, t, state.values)
        snapshots.append(snapshot)
        diagnostics.append(SnapshotDiagnostics.of(snapshot))
    return RunResult(snapshots, diagnostics, OUTCOME_COMPLETED)
