"""Forward-in-time explicit update for the KdV equation.

One step reads

    u_i(t+dt) = u_i [1 + (3 dt / 4 dx)(u_{i+1} - u_{i-1})]
                - (dt / 2 dx^3)(u_{i+2} - 2 u_{i+1} + 2 u_{i-1} - u_{i-2})

on interior points; the two outermost cells at each end stay pinned to
zero so the five-point dispersion stencil never reaches outside the
grid.  The scheme amplifies every Fourier mode (see
:func:`kdvlab.analysis.explicit_amplification`), so blow-up detection is
part of the contract rather than an afterthought: runs report the step
at which the amplitude threshold was crossed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .evolution import RunResult, evolve, next_state
from .model import SchemeParams, TimeGrid, WaveField

__all__ = ["explicit_step", "run_explicit"]


def explicit_step(u: WaveField, params: SchemeParams, nonlinear: bool = True) -> WaveField:
    """Advance one explicit step through :func:`~kdvlab.evolution.next_state`.

    ``nonlinear=False`` drops the advective product and leaves only the
    linear dispersion update (a hook for linearity checks).
    """
    v = u.values
    nx = u.grid.nx
    dt = params.dt
    dx = params.dx
    c_adv = 0.75 * dt / dx
    c_disp = 0.5 * dt / dx**3

    new = np.zeros(nx)
    center = v[2:-2]
    diff1 = v[3:-1] - v[1:-3]
    diff3 = v[4:] - 2.0 * v[3:-1] + 2.0 * v[1:-3] - v[:-4]
    if nonlinear:
        new[2:-2] = center * (1.0 + c_adv * diff1) - c_disp * diff3
    else:
        new[2:-2] = center - c_disp * diff3
    return next_state(u, new, dt)


def run_explicit(
    ic: WaveField,
    params: SchemeParams,
    time: TimeGrid,
    snapshot_times: Sequence[float],
) -> RunResult:
    """Time-march the explicit scheme, recording snapshots.

    Blow-up ends the run and is returned as the outcome (with its step
    index), never raised out of this function.
    """
    return evolve(ic, time, snapshot_times, lambda state: explicit_step(state, params))
