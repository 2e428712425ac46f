"""Crank-Nicolson solvers for the KdV equation.

Spatial operators are averaged over the two time levels.  Every variant
solves A U(t+dt) = B U(t), where row i of A has bands
(-alpha/4, +gamma_i, 1, -gamma_i, +alpha/4), B = 2I - A and
gamma_i = alpha/2 + (3 beta/8) c_i.  The variants differ only in the
advective coefficient c: the lagged scheme takes c = u^n (one solve per
step); the implicit scheme takes the time midpoint c = (u^n + g)/2 and
resolves the guess g by Picard iteration from g = u^n.

``gamma_mode`` varies c per row or freezes it at its domain-midpoint
value.  Frozen, A = I + K with K exactly skew-symmetric, so each solve
applies a Cayley transform: an orthogonal map that cannot amplify the
interior solution.

Two interior cells per end are pinned to zero (the dispersion stencil
reaches two neighbours out), so the interior system has nx - 4 unknowns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .banded import Pentadiagonal, solve_banded
from .errors import BlowUpError, FixedPointError
from .evolution import RunResult, evolve, next_state
from .model import SchemeParams, TimeGrid, WaveField

__all__ = [
    "LinearizationKind",
    "GammaMode",
    "CnConfig",
    "assemble_lagged",
    "assemble_implicit",
    "cn_step_lagged",
    "cn_step_implicit",
    "cn_step",
    "run_cn",
    "DEMO_PARAMS",
    "EIGEN_PROBE_PARAMS",
    "PICARD_TOL",
    "PICARD_MAX_ITERS",
]


class LinearizationKind(enum.Enum):
    """How the advective coefficient in u u_x is treated."""

    LAGGED_COEFFICIENT = "lagged"
    IMPLICIT_COEFFICIENT = "implicit"


class GammaMode(enum.Enum):
    """Row weighting of the advective coefficient: per row, or frozen at the domain midpoint."""

    ROW_VARYING = "row-varying"
    FROZEN_MIDPOINT = "frozen-midpoint"


# Step sizes of the reference demo pipeline (dx = dt = 0.01, so
# alpha = 1e4, beta = 1).
DEMO_PARAMS = SchemeParams(dx=0.01, dt=0.01)

# Spectral-probe preset with alpha = 1000, beta = 1: bands
# (-250, 500 + 3u/8, 1, -500 - 3u/8, 250).
EIGEN_PROBE_PARAMS = SchemeParams.from_alpha_beta(1000.0, 1.0)

# Picard iteration of the implicit coefficient stops once an iterate moves
# by less than PICARD_TOL in the sup norm, and fails after PICARD_MAX_ITERS.
PICARD_TOL = 1e-10
PICARD_MAX_ITERS = 50


@dataclass(frozen=True)
class CnConfig:
    """Solver configuration for the Crank-Nicolson schemes.

    ``paper_normalization`` divides the solved interior state by its max
    absolute value after every step.  That reproduces a legacy demo
    pipeline's plots but changes the equation being solved, so it is off
    by default and should stay an explicit choice.
    """

    params: SchemeParams
    linearization: LinearizationKind = LinearizationKind.LAGGED_COEFFICIENT
    gamma_mode: GammaMode = GammaMode.ROW_VARYING
    paper_normalization: bool = False


def _quarter(u: WaveField, cfg: CnConfig) -> float:
    """alpha/4, the constant outer bands, once the nx - 4 interior unknowns number at least 5."""
    if u.grid.nx < 9:
        raise ValueError(f"grid too small for the implicit interior system: nx={u.grid.nx} "
                         "gives fewer than 5 unknowns")
    return cfg.params.alpha / 4.0


def _gamma(coef: np.ndarray, cfg: CnConfig) -> np.ndarray:
    """Row weights alpha/2 + (3 beta/8) c_i of the interior coefficient c, per row or frozen."""
    params = cfg.params
    if cfg.gamma_mode is GammaMode.FROZEN_MIDPOINT:
        mid = float(coef[(coef.size - 1) // 2])  # interior index of x[(nx-1)//2]
        return np.full(coef.size, params.alpha / 2.0 + (3.0 * params.beta / 8.0) * mid)
    return params.alpha / 2.0 + (3.0 * params.beta / 8.0) * coef


def _midpoint(known: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """(known + guess)/2, formed so that a guess equal to ``known`` gives ``known`` bitwise."""
    return known + 0.5 * (guess - known)


def _lhs(gamma: np.ndarray, quarter: float) -> Pentadiagonal:
    """Row i has bands (-quarter, +gamma_i, 1, -gamma_i, +quarter)."""
    outer = np.full(gamma.size - 2, quarter)
    return Pentadiagonal(-outer, gamma[1:], np.ones(gamma.size), -gamma[:-1], outer)


def _rhs(x: np.ndarray, gamma: np.ndarray, quarter: float) -> np.ndarray:
    """B x for B = 2I - _lhs(gamma, quarter), bitwise ``matvec(B, x)``; B is never built.

    Overflow is a blow-up, raised before any solve sees it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.empty_like(x)
        y[0] = x[0]
        np.subtract(x[1:], gamma[1:] * x[:-1], out=y[1:])
        outer = quarter * x  # both outer bands' products
        y[2:] += outer[:-2]
        y[:-1] += gamma[:-1] * x[1:]
        y[:-2] -= outer[2:]
    if not np.isfinite(y).all():
        raise BlowUpError("right-hand side B u overflowed", max_value=float("inf"))
    return y


def _matrices(
    coef: np.ndarray, quarter: float, cfg: CnConfig
) -> Tuple[Pentadiagonal, Pentadiagonal]:
    """(A, B) at the interior coefficient ``coef``: B negates A's off-diagonal bands."""
    gamma = _gamma(coef, cfg)
    return _lhs(gamma, quarter), _lhs(-gamma, -quarter)


def assemble_lagged(u_n: WaveField, cfg: CnConfig) -> Tuple[Pentadiagonal, Pentadiagonal]:
    """Interior (A, B) of the lagged-coefficient scheme, at c = u^n; the step builds only A."""
    return _matrices(u_n.values[2:-2], _quarter(u_n, cfg), cfg)


def assemble_implicit(
    u_n: WaveField, u_guess: WaveField, cfg: CnConfig
) -> Tuple[Pentadiagonal, Pentadiagonal]:
    """Interior (A, B) of one Picard iterate: :func:`assemble_lagged`'s at c = (u^n + guess)/2."""
    if u_guess.grid != u_n.grid:
        raise ValueError("u_guess must live on the same grid as u_n")
    known = u_n.values[2:-2]
    return _matrices(_midpoint(known, u_guess.values[2:-2]), _quarter(u_n, cfg), cfg)


def _finish_step(u_n: WaveField, interior: np.ndarray, cfg: CnConfig) -> WaveField:
    """Apply optional normalization, re-pin the boundaries, and check for blow-up."""
    if cfg.paper_normalization:
        scale = np.max(np.abs(interior))
        if scale > 0.0:
            interior = interior / scale
    new = np.zeros(u_n.grid.nx)
    new[2:-2] = interior
    return next_state(u_n, new, cfg.params.dt)


def _solve(known: np.ndarray, coef: np.ndarray, quarter: float, cfg: CnConfig) -> np.ndarray:
    """Solve A x = B u^n at the coefficient ``coef``; only A is built."""
    gamma = _gamma(coef, cfg)
    return solve_banded(_lhs(gamma, quarter), _rhs(known, gamma, quarter))


def cn_step_lagged(u_n: WaveField, cfg: CnConfig) -> WaveField:
    """One lagged-coefficient step: solve A x = B u at c = u^n, re-pin boundaries."""
    known = u_n.values[2:-2]
    return _finish_step(u_n, _solve(known, known, _quarter(u_n, cfg), cfg), cfg)


def cn_step_implicit(u_n: WaveField, cfg: CnConfig) -> Tuple[WaveField, int]:
    """One implicit-coefficient step resolved by Picard iteration.

    Starts the guess g at the known level (so the first iterate is the
    lagged step), then solves at c = (u^n + g)/2 with g the last iterate
    until the iterate changes by less than :data:`PICARD_TOL` in the sup
    norm.  Returns the converged field and the number of solves performed.
    """
    quarter = _quarter(u_n, cfg)
    known = guess = u_n.values[2:-2]
    for iteration in range(1, PICARD_MAX_ITERS + 1):
        interior = _solve(known, _midpoint(known, guess), quarter, cfg)
        change = float(np.max(np.abs(interior - guess)))
        if not np.isfinite(change):
            raise BlowUpError("Picard iterate became non-finite", max_value=float("inf"))
        if change < PICARD_TOL:
            return _finish_step(u_n, interior, cfg), iteration
        guess = interior
    raise FixedPointError(
        f"Picard iteration did not reach {PICARD_TOL:g} within "
        f"{PICARD_MAX_ITERS} iterations (last change {change:g})",
        residual=change,
        iterations=PICARD_MAX_ITERS,
    )


def cn_step(u_n: WaveField, cfg: CnConfig) -> Tuple[WaveField, int]:
    """Dispatch one step on ``cfg.linearization``: (field, solves), 1 solve if lagged."""
    if cfg.linearization is LinearizationKind.IMPLICIT_COEFFICIENT:
        return cn_step_implicit(u_n, cfg)
    return cn_step_lagged(u_n, cfg), 1


def run_cn(
    ic: WaveField,
    cfg: CnConfig,
    time: TimeGrid,
    snapshot_times: Sequence[float],
) -> RunResult:
    """Time-march the configured scheme, recording snapshots (and Picard solves if implicit)."""
    solves = []

    def step(state: WaveField) -> WaveField:
        field, count = cn_step(state, cfg)
        solves.append(count)
        return field

    result = evolve(ic, time, snapshot_times, step)
    if cfg.linearization is LinearizationKind.IMPLICIT_COEFFICIENT:
        result.picard_solves = tuple(solves)
    return result
