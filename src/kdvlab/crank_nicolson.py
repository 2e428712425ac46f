"""Crank-Nicolson solvers for the KdV equation.

Spatial operators are averaged over the two time levels; the advective
product u u_x is linearised one of two ways:

* lagged coefficient: the coefficient is taken from the known level,
  giving one pentadiagonal solve A U(t+dt) = B U(t) per step, with
  row weights gamma_i = alpha/2 + (3 beta/8) * coef_i;
* implicit coefficient: the coefficient sits at the unknown level, so
  the system is nonlinear in U(t+dt) and is resolved by Picard
  iteration, re-assembling and re-solving until the iterates settle.

``gamma_mode`` selects whether the lagged coefficient varies per row or
is frozen at the domain-midpoint value.  The frozen variant makes
A = I + K with K exactly skew-symmetric, so each step applies a Cayley
transform: an orthogonal map that cannot amplify the interior solution.

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
    """Row weighting of the lagged advective coefficient."""

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


def _quarter(u: WaveField, cfg: CnConfig) -> np.ndarray:
    """The alpha/4 band for the nx - 4 interior unknowns, which must number at least 5."""
    if u.grid.nx < 9:
        raise ValueError(f"grid too small for the implicit interior system: nx={u.grid.nx} "
                         "gives fewer than 5 unknowns")
    return np.full(u.grid.nx - 6, cfg.params.alpha / 4.0)


def _weight(coef: np.ndarray, cfg: CnConfig) -> np.ndarray:
    """Advective row weight alpha/2 + (3 beta/8) coef: gamma (lagged) or zeta (implicit)."""
    return cfg.params.alpha / 2.0 + (3.0 * cfg.params.beta / 8.0) * coef


def _lagged(u: WaveField, cfg: CnConfig) -> Tuple[np.ndarray, np.ndarray]:
    """(gamma, alpha/4 band) of the lagged scheme, gamma per row or frozen."""
    quarter = _quarter(u, cfg)
    if cfg.gamma_mode is GammaMode.FROZEN_MIDPOINT:
        return _weight(np.full(u.grid.nx - 4, u.values[(u.grid.nx - 1) // 2]), cfg), quarter
    return _weight(u.values[2:-2], cfg), quarter


def _eta(u_n: WaveField, cfg: CnConfig) -> np.ndarray:
    """Implicit diagonal eta_i = 1 + (3 beta/8)(u_{i+1} - u_{i-1}) at the known level."""
    return 1.0 + (3.0 * cfg.params.beta / 8.0) * (u_n.values[3:-1] - u_n.values[1:-3])


def _lhs(weight: np.ndarray, diag: np.ndarray, quarter: np.ndarray) -> Pentadiagonal:
    """Row i has bands (-quarter, +weight_i, diag_i, -weight_i, +quarter)."""
    return Pentadiagonal(-quarter, weight[1:], diag, -weight[:-1], quarter)


def _rhs(x: np.ndarray, weight: np.ndarray, quarter: np.ndarray) -> np.ndarray:
    """B x for B = 2I - _lhs(weight, 1, quarter), bitwise ``matvec(B, x)``; B is never built.

    Overflow is a blow-up, raised before any solve sees it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = x.copy()
        y[1:] -= weight[1:] * x[:-1]
        y[2:] += quarter * x[:-2]
        y[:-1] += weight[:-1] * x[1:]
        y[:-2] -= quarter * x[2:]
    if not np.isfinite(y).all():
        raise BlowUpError("right-hand side B u overflowed", max_value=float("inf"))
    return y


def assemble_lagged(u_n: WaveField, cfg: CnConfig) -> Tuple[Pentadiagonal, Pentadiagonal]:
    """Interior matrices of the lagged-coefficient scheme.

    Row i of A has bands (-alpha/4, +gamma_i, 1, -gamma_i, +alpha/4)
    with gamma_i = alpha/2 + (3 beta/8) coef_i; B negates the
    off-diagonal bands.  With a frozen coefficient both matrices are
    identity-plus-skew.  The step itself builds only A.
    """
    gamma, quarter = _lagged(u_n, cfg)
    ones = np.ones(gamma.size)
    return _lhs(gamma, ones, quarter), _lhs(-gamma, ones, -quarter)


def assemble_implicit(
    u_n: WaveField, u_guess: WaveField, cfg: CnConfig
) -> Tuple[Pentadiagonal, Pentadiagonal]:
    """Interior matrices of the implicit-coefficient scheme.

    Row i of A has bands (-alpha/4, +zeta_i, eta_i, -zeta_i, +alpha/4)
    with zeta_i = alpha/2 + (3 beta/8) * guess_i and
    eta_i = 1 + (3 beta/8)(u_{i+1} - u_{i-1}) from the known level.
    B is constant: bands (+alpha/4, -alpha/2, 1, +alpha/2, -alpha/4).
    """
    if u_guess.grid != u_n.grid:
        raise ValueError("u_guess must live on the same grid as u_n")
    quarter = _quarter(u_n, cfg)
    A = _lhs(_weight(u_guess.values[2:-2], cfg), _eta(u_n, cfg), quarter)
    half = _weight(np.zeros(A.n), cfg)  # B is the lagged B at u = 0
    return A, _lhs(-half, np.ones(A.n), -quarter)


def _finish_step(u_n: WaveField, interior: np.ndarray, cfg: CnConfig) -> WaveField:
    """Apply optional normalization, re-pin the boundaries, and check for blow-up."""
    if cfg.paper_normalization:
        scale = np.max(np.abs(interior))
        if scale > 0.0:
            interior = interior / scale
    new = np.zeros(u_n.grid.nx)
    new[2:-2] = interior
    return next_state(u_n, new, cfg.params.dt)


def cn_step_lagged(u_n: WaveField, cfg: CnConfig) -> WaveField:
    """One lagged-coefficient step: solve A x = B u (only A is built), re-pin boundaries."""
    gamma, quarter = _lagged(u_n, cfg)
    rhs = _rhs(u_n.values[2:-2], gamma, quarter)
    interior = solve_banded(_lhs(gamma, np.ones(gamma.size), quarter), rhs)
    return _finish_step(u_n, interior, cfg)


def cn_step_implicit(u_n: WaveField, cfg: CnConfig) -> Tuple[WaveField, int]:
    """One implicit-coefficient step resolved by Picard iteration.

    Starts the coefficient guess at the known level, then re-fills zeta
    from each iterate and re-solves (B u and eta are formed once) until
    the iterate changes by less than :data:`PICARD_TOL` in the sup norm.
    Returns the converged field and the number of solves performed.
    """
    quarter = _quarter(u_n, cfg)
    guess = u_n.values[2:-2]
    rhs = _rhs(guess, _weight(np.zeros(guess.size), cfg), quarter)  # B at u = 0
    eta = _eta(u_n, cfg)
    for iteration in range(1, PICARD_MAX_ITERS + 1):
        interior = solve_banded(_lhs(_weight(guess, cfg), eta, quarter), rhs)
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
