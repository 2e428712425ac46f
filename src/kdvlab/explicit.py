"""Forward-in-time explicit update for the KdV equation.

The step is the theta = 0 member of the theta-scheme whose theta = 1/2
member is Crank-Nicolson: B of :mod:`kdvlab.crank_nicolson` at twice the
weights, applied to the whole field.  On interior points it reads

    u_i(t+dt) = u_i [1 + (3 dt / 4 dx)(u_{i+1} - u_{i-1})]
                - (dt / 2 dx^3)(u_{i+2} - 2 u_{i+1} + 2 u_{i-1} - u_{i-2}),

summed in B's order; the two outermost cells at each end stay pinned to
zero.  The scheme amplifies every Fourier mode (see
:func:`kdvlab.analysis.explicit_amplification`), so blow-up detection is
part of the contract rather than an afterthought: runs report the step
at which the amplitude threshold was crossed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .crank_nicolson import _rhs, _weights
from .evolution import RunResult, evolve, next_state
from .model import SchemeParams, TimeGrid, WaveField

__all__ = ["explicit_step", "run_explicit"]


def explicit_step(u: WaveField, params: SchemeParams) -> WaveField:
    """Advance one explicit step through :func:`~kdvlab.evolution.next_state`; overflow is a blow-up."""
    v = u.values
    gamma, quarter = _weights(v, params.alpha, params.beta)
    new = np.zeros(u.grid.nx)
    # B on the full field, so that rows 2, 3, nx-4 and nx-3 read the two outer
    # cells per end, which an initial state need not hold at zero
    new[2:-2] = _rhs(v, 2.0 * gamma, 2.0 * quarter)[2:-2]
    return next_state(u, new, params.dt)


def run_explicit(
    ic: WaveField,
    params: SchemeParams,
    time: TimeGrid,
    snapshot_times: Sequence[float],
) -> RunResult:
    """Time-march the explicit scheme, recording snapshots.

    The outcome is returned as :func:`~kdvlab.evolution.evolve` gives it,
    never raised: this scheme solves nothing, so it ends completed or in
    a blow-up, with the step index of the blow-up.
    """
    return evolve(ic, time, snapshot_times, lambda state: explicit_step(state, params))
