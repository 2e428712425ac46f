"""Shared time-stepping driver: snapshot recording and run outcomes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BlowUpError, FixedPointError, SingularMatrixError
from .model import TimeGrid, WaveField, mass

__all__ = ["SnapshotDiagnostics", "RunResult", "evolve", "peak_abscissa"]

OUTCOME_COMPLETED = "completed"
OUTCOME_BLOW_UP = "blow-up"


def peak_abscissa(field: WaveField) -> float:
    """x-coordinate of the extremum of |u|, parabolically refined.

    The three-point parabola through the largest |u| sample and its
    neighbours gives sub-grid accuracy for smooth pulses; at the grid
    edge the raw sample position is returned.
    """
    y = np.abs(field.values)
    i = int(np.argmax(y))
    x = field.grid.points()
    if i == 0 or i == field.grid.nx - 1:
        return float(x[i])
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0.0:
        return float(x[i])
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
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
    """

    requested_times: tuple
    snapshots: list
    diagnostics: list
    outcome: str
    blow_up_step: Optional[int] = None

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

    def record_due(state: WaveField) -> None:
        # Tiny slack so a final step landing an ulp short of its nominal
        # time still satisfies a request at that time.
        while pending and state.time >= pending[0] - 1e-12 * (1.0 + abs(pending[0])):
            snapshots.append(state)
            diagnostics.append(SnapshotDiagnostics.of(state))
            pending.pop(0)

    state = ic
    record_due(state)
    for n in range(1, time.nt):
        if not pending:
            break
        try:
            state = step(state)
        except BlowUpError:
            return RunResult(
                requested_times=requested,
                snapshots=snapshots,
                diagnostics=diagnostics,
                outcome=OUTCOME_BLOW_UP,
                blow_up_step=n,
            )
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"step {n}: {exc}", row=exc.row) from exc
        except FixedPointError as exc:
            raise FixedPointError(
                f"step {n}: {exc}", residual=exc.residual, iterations=exc.iterations
            ) from exc
        # Re-time from n*dt: accumulating t + dt drifts by an ulp per step
        # and would corrupt snapshot labels.
        state = WaveField(state.grid, ic.time + n * time.dt, state.values)
        record_due(state)
    return RunResult(
        requested_times=requested,
        snapshots=snapshots,
        diagnostics=diagnostics,
        outcome=OUTCOME_COMPLETED,
    )
