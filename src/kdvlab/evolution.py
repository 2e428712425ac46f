"""Shared time-stepping driver: snapshot recording and run outcomes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BlowUpError, FixedPointError, SingularMatrixError
from .model import TimeGrid, WaveField, mass

__all__ = ["MAX_AMPLITUDE", "SnapshotDiagnostics", "RunResult", "evolve", "next_state",
           "peak_abscissa"]

OUTCOME_COMPLETED = "completed"
OUTCOME_BLOW_UP = "blow-up"

# A state with max |u| above this, or not finite, ends the run as a blow-up.
MAX_AMPLITUDE = 1e6


def next_state(u_n: WaveField, values: np.ndarray, dt: float) -> WaveField:
    """The field ``values`` one step of ``dt`` after ``u_n``, unless it blew up.

    Every scheme's step ends here.  Raises :class:`BlowUpError` when
    max |u| is not finite or exceeds :data:`MAX_AMPLITUDE`.  ``values``
    is copied, as :class:`~kdvlab.model.WaveField` copies it, and the copy
    becomes the new field's storage.
    """
    values = np.array(values, dtype=float)
    if values.shape != (u_n.grid.nx,):
        raise ValueError(f"values must have shape ({u_n.grid.nx},), got {values.shape}")
    peak = max(values.max(), -values.min())  # max |u|; both are nan if any u is
    if not np.isfinite(peak) or peak > MAX_AMPLITUDE:
        raise BlowUpError(
            f"amplitude threshold {MAX_AMPLITUDE:g} exceeded (max |u| = {peak:g})",
            max_value=float(peak),
        )
    return u_n._successor(u_n.time + dt, values)


def peak_abscissa(field: WaveField) -> float:
    """x-coordinate of the extremum of |u|, parabolically refined.

    The three-point parabola through the largest |u| sample and its
    neighbours gives sub-grid accuracy for smooth pulses; at the grid
    edge, or where the parabola is flat or not finite, the raw sample
    position is returned.
    """
    y = np.abs(field.values)
    i = int(np.argmax(y))
    x = field.grid._points
    if i == 0 or i == field.grid.nx - 1:
        return float(x[i])
    with np.errstate(all="ignore"):
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    # a flat parabola (denom 0), or one whose terms overflow (a peak above about 9e307)
    if not (math.isfinite(denom) and math.isfinite(shift)):
        return float(x[i])
    return float(x[i] + shift * field.grid.dx)


@dataclass(frozen=True)
class SnapshotDiagnostics:
    """Per-snapshot summary: integral, peak magnitude, and peak location."""

    time: float
    mass: float
    max_abs: float
    peak_x: float

    @classmethod
    def of(cls, field: WaveField) -> "SnapshotDiagnostics":
        return cls(
            time=field.time,
            mass=mass(field),
            max_abs=field.max_abs(),
            peak_x=peak_abscissa(field),
        )


@dataclass
class RunResult:
    """Ordered snapshots plus diagnostics for one time-stepped run.

    ``outcome`` is ``"completed"`` or ``"blow-up"``; a blow-up carries
    the offending step index and whatever snapshots were recorded before
    it.  On completion the snapshot count equals the requested count.
    ``picard_solves`` holds the Picard solves of each completed step,
    or None for a scheme without Picard iteration.
    """

    snapshots: list
    diagnostics: list
    outcome: str
    blow_up_step: Optional[int] = None
    picard_solves: Optional[tuple] = None

    @property
    def completed(self) -> bool:
        return self.outcome == OUTCOME_COMPLETED


def evolve(
    ic: WaveField,
    time: TimeGrid,
    snapshot_times: Sequence[float],
    step: Callable[[WaveField], WaveField],
) -> RunResult:
    """March ``ic`` forward with ``step`` and record snapshots.

    Each requested time is satisfied by the first state whose time is at
    or after it (the initial state counts).  Requested times must be
    ascending and inside [0, t_end].  Blow-up raised by ``step`` ends
    the run and is recorded as the outcome, not re-raised; any other
    solver error propagates with the step index attached.
    """
    requested = tuple(float(t) for t in snapshot_times)
    for a, b in zip(requested, requested[1:]):
        if b < a:
            raise ValueError(f"snapshot times must be ascending, got {a} before {b}")
    last_time = ic.time + (time.nt - 1) * time.dt
    if requested:
        tol = 1e-12 * (1.0 + abs(requested[-1]))
        if requested[0] < 0.0 or requested[-1] > max(time.t_end, last_time) + tol:
            raise ValueError(
                f"snapshot times must lie in [0, {time.t_end}], got {requested}"
            )

    snapshots: list = []
    diagnostics: list = []
    pending = list(requested)

    def record_due(state: WaveField, t: float) -> None:
        # Tiny slack so a final step landing an ulp short of its nominal
        # time still satisfies a request at that time.
        while pending and t >= pending[0] - 1e-12 * (1.0 + abs(pending[0])):
            if state.time != t:  # label with n*dt: summing t + dt drifts by ulps
                state = WaveField(state.grid, t, state.values)
            snapshots.append(state)
            diagnostics.append(SnapshotDiagnostics.of(state))
            pending.pop(0)

    state = ic
    record_due(state, ic.time)
    for n in range(1, time.nt):
        if not pending:
            break
        try:
            state = step(state)
        except BlowUpError:
            return RunResult(snapshots, diagnostics, OUTCOME_BLOW_UP, blow_up_step=n)
        except (SingularMatrixError, FixedPointError) as exc:
            exc.args = (f"step {n}: {exc}",)
            raise
        record_due(state, ic.time + n * time.dt)
    return RunResult(snapshots, diagnostics, OUTCOME_COMPLETED)
