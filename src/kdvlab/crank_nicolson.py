"""Crank-Nicolson solvers for the KdV equation, and the one spatial
operator behind every scheme.

:func:`_weights` gives the operator at an advective coefficient c: u_xxx
and c u_x by centered differences, row weights
gamma_i = alpha/2 + (3 beta/8) c_i and outer weight alpha/4.  Row i of A
has bands (-alpha/4, +gamma_i, 1, -gamma_i, +alpha/4), and B = 2I - A.
This is the theta = 1/2 member of a theta-scheme;
:func:`~kdvlab.explicit.explicit_step` is its theta = 0 member, B at
twice the weights.  The CN variants differ only in c, and one step,
:func:`cn_step`, serves both: the lagged scheme takes c = u^n (one
solve); the implicit scheme takes c = (u^n + g)/2 and resolves g by a
fixed-point iteration from g = u^n, one solve per iterate.  Row-varying,
a step factors A(u^n) once and each iterate back-substitutes against it
(a chord iteration); frozen, each iterate factors its own A.

``gamma_mode`` varies c per row or freezes it at its domain-midpoint
value.  Frozen, A = I + K with K exactly skew-symmetric, so each solve
applies a Cayley transform: an orthogonal map that cannot amplify the
interior solution.

Two interior cells per end are pinned to zero (the dispersion stencil
reaches two neighbours out), so the interior system has nx - 4 unknowns.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence, Tuple

import numpy as np

from .banded import Pentadiagonal, factor_banded
from .errors import BlowUpError, FixedPointError
from .evolution import RunResult, evolve, next_state
from .model import SchemeParams, TimeGrid, WaveField
from .record import Frozen

__all__ = [
    "LinearizationKind",
    "GammaMode",
    "CnConfig",
    "assemble_lagged",
    "assemble_implicit",
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
EIGEN_PROBE_PARAMS = SchemeParams(dx=math.sqrt(1e-3), dt=math.sqrt(1e-3))

# Picard iteration of the implicit coefficient stops once an iterate moves
# by less than PICARD_TOL in the sup norm, and fails after PICARD_MAX_ITERS.
PICARD_TOL = 1e-10
PICARD_MAX_ITERS = 50


class CnConfig(Frozen):
    """Solver configuration for the Crank-Nicolson schemes.

    ``paper_normalization`` divides the solved interior state by its max
    absolute value after every step.  That reproduces a legacy demo
    pipeline's plots but changes the equation being solved, so it is off
    by default and should stay an explicit choice.
    """

    def __init__(self, params: SchemeParams,
                 linearization: LinearizationKind = LinearizationKind.LAGGED_COEFFICIENT,
                 gamma_mode: GammaMode = GammaMode.ROW_VARYING, paper_normalization: bool = False):
        self.__dict__.update(params=params, linearization=linearization, gamma_mode=gamma_mode,
                             paper_normalization=paper_normalization)


def _interior(u: WaveField) -> np.ndarray:
    """The nx - 4 interior unknowns of ``u``, once they number at least 5."""
    if u.grid.nx < 9:
        raise ValueError(f"grid too small for the implicit interior system: nx={u.grid.nx} "
                         "gives fewer than 5 unknowns")
    return u.values[2:-2]


def _weights(coef, alpha: float, beta: float):
    """The operator's (gamma, quarter) = (alpha/2 + (3 beta/8) c, alpha/4) at the coefficient c."""
    return alpha / 2.0 + (3.0 * beta / 8.0) * coef, alpha / 4.0


def _cn_weights(coef: np.ndarray, cfg: CnConfig):
    """:func:`_weights` at the interior coefficient c, per row or frozen at its midpoint."""
    if cfg.gamma_mode is GammaMode.FROZEN_MIDPOINT:
        coef = np.full(coef.size, coef[(coef.size - 1) // 2])  # interior index of x[(nx-1)//2]
    return _weights(coef, cfg.params.alpha, cfg.params.beta)


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


def _matrices(coef: np.ndarray, cfg: CnConfig) -> Tuple[Pentadiagonal, Pentadiagonal]:
    """(A, B) at the interior coefficient ``coef``: B negates A's off-diagonal bands."""
    gamma, quarter = _cn_weights(coef, cfg)
    return _lhs(gamma, quarter), _lhs(-gamma, -quarter)


def assemble_lagged(u_n: WaveField, cfg: CnConfig) -> Tuple[Pentadiagonal, Pentadiagonal]:
    """Interior (A, B) of the lagged-coefficient scheme, at c = u^n; the step builds only A."""
    return _matrices(_interior(u_n), cfg)


def assemble_implicit(
    u_n: WaveField, u_guess: WaveField, cfg: CnConfig
) -> Tuple[Pentadiagonal, Pentadiagonal]:
    """Interior (A, B) of one Picard iterate: :func:`assemble_lagged`'s at c = (u^n + guess)/2."""
    if u_guess.grid != u_n.grid:
        raise ValueError("u_guess must live on the same grid as u_n")
    return _matrices(_midpoint(_interior(u_n), u_guess.values[2:-2]), cfg)


def _finish_step(u_n: WaveField, interior: np.ndarray, cfg: CnConfig) -> WaveField:
    """Apply optional normalization, re-pin the boundaries, and check for blow-up."""
    if cfg.paper_normalization:
        scale = np.max(np.abs(interior))
        if scale > 0.0:
            interior = interior / scale
    new = np.zeros(u_n.grid.nx)
    new[2:-2] = interior
    return next_state(u_n, new, cfg.params.dt)


def _centered_difference(x: np.ndarray) -> np.ndarray:
    """x_{i-1} - x_{i+1}, with zeros beyond both ends."""
    d = np.zeros_like(x)
    d[1:] = x[:-1]
    d[:-1] -= x[1:]
    return d


def cn_step(u_n: WaveField, cfg: CnConfig) -> Tuple[WaveField, int]:
    """One step of ``cfg.linearization``: (field, solves).

    Solves A_0 x = B u^n at c = u^n, A_0 = A(u^n); the lagged step stops
    there, after 1 solve.  The implicit step iterates on from that x_1 to
    the fixed point x = A(c)^-1 B(c) u^n at c = (u^n + x)/2, until an
    iterate changes by less than :data:`PICARD_TOL` in the sup norm, and
    counts its iterates, each one solve.

    Row-varying, each iterate solves A_0 x_{k+1} = B(c_k) u^n - (A(c_k) - A_0) x_k
    against the one factorization, with c_k = (u^n + x_k)/2: a chord
    iteration in splitting form, whose fixed point is Picard's.  A(c_k) - A_0
    has only the off-diagonals +-(gamma_k - gamma_0), so the correction is
    (gamma_k - gamma_0)_i (x_{i-1} - x_{i+1}).  Frozen-midpoint
    refactors A(c_k) at every iterate instead, so that every iterate is an
    exact Cayley transform of u^n: with the splitting form's correction,
    sum u^2 drifted 1.04e-12 relative in 30 steps (nx 43, dt 0.0625).
    """
    known = guess = _interior(u_n)
    gamma0, quarter = _cn_weights(known, cfg)
    rhs = _rhs(known, gamma0, quarter)  # an overflow is a blow-up before any factorization
    solve = factor_banded(_lhs(gamma0, quarter))
    interior = solve(rhs)
    if cfg.linearization is LinearizationKind.LAGGED_COEFFICIENT:
        return _finish_step(u_n, interior, cfg), 1
    for iteration in range(1, PICARD_MAX_ITERS + 1):
        if iteration > 1:
            gamma, _ = _cn_weights(_midpoint(known, guess), cfg)
            rhs = _rhs(known, gamma, quarter)
            if cfg.gamma_mode is GammaMode.FROZEN_MIDPOINT:
                solve = factor_banded(_lhs(gamma, quarter))
            else:
                rhs -= (gamma - gamma0) * _centered_difference(guess)
            interior = solve(rhs)
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


def run_cn(
    ic: WaveField,
    cfg: CnConfig,
    time: TimeGrid,
    snapshot_times: Sequence[float],
) -> RunResult:
    """Time-march the configured scheme, recording snapshots (and Picard solves if implicit).

    Every outcome is returned as :func:`~kdvlab.evolution.evolve` gives it, a
    solver failure too; ``picard_solves`` counts the steps completed before it.
    """
    solves = []

    def step(state: WaveField) -> WaveField:
        field, count = cn_step(state, cfg)
        solves.append(count)
        return field

    result = evolve(ic, time, snapshot_times, step)
    if cfg.linearization is LinearizationKind.IMPLICIT_COEFFICIENT:
        result.picard_solves = tuple(solves)
    return result
