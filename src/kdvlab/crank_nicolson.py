"""The KdV schemes: one spatial operator, stepped explicitly or by Crank-Nicolson.

The operator L u = 1.5 c u_x - u_xxx at an advective coefficient c is stated
once, as the centered differences :data:`D1` and :data:`D3`; the step's
weights (:func:`_weights`) and the symbol of dt L (:func:`_symbol_g`) derive
from them.  Row i of A has bands (-alpha/4, +gamma_i, 1, -gamma_i, +alpha/4),
gamma_i = alpha/2 + (3 beta/8) c_i, and B = 2I - A.  One step, :func:`step`,
serves every scheme of :data:`SCHEMES`, and one run, :func:`run`, marches it.

``explicit`` is the theta = 0 member of the theta-scheme: u + dt L u, that
is B at twice the weights, at c = u^n per row, applied to the whole field
and summed in B's order; the two outermost cells at each end stay pinned to
zero.  It amplifies every Fourier mode (see
:func:`kdvlab.analysis.explicit_amplification`), so its runs end in the
blow-up that :func:`~kdvlab.evolution.next_state` detects, at the step
where the amplitude threshold was crossed.

Crank-Nicolson is the theta = 1/2 member, and its two variants differ
only in c: ``cn-lagged`` takes c = u^n (one solve); ``cn-implicit``
takes c = (u^n + g)/2 and resolves g by a fixed-point iteration from
g = u^n, one solve per iterate.  Row-varying, a step factors A(u^n) once
and each iterate back-substitutes against it (a chord iteration);
frozen, each iterate factors its own A.

``gamma_mode`` varies c per row or freezes it at its domain-midpoint
value; it acts on the cn schemes only.  Frozen, A = I + K with K exactly
skew-symmetric, so each solve applies a Cayley transform: an orthogonal
map that cannot amplify the interior solution.

Two interior cells per end are pinned to zero (the dispersion stencil
reaches two neighbours out), so the interior system of a cn step has
nx - 4 unknowns.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .banded import Pentadiagonal, factor_banded
from .errors import BlowUpError, ConfigError, FixedPointError
from .evolution import RunResult, evolve, next_state
from .model import SchemeParams, TimeGrid, WaveField
from .record import Frozen

__all__ = [
    "SCHEMES",
    "GAMMA_MODES",
    "check_scheme",
    "check_cn_grid",
    "check_symbol",
    "SchemeConfig",
    "assemble_lagged",
    "assemble_implicit",
    "step",
    "run",
    "D1",
    "D3",
    "DEMO_PARAMS",
    "EIGEN_PROBE_PARAMS",
    "PICARD_TOL",
    "PICARD_MAX_ITERS",
]


SCHEMES = ("explicit", "cn-lagged", "cn-implicit")
GAMMA_MODES = ("row-varying", "frozen-midpoint")

# Step sizes of the reference demo pipeline (dx = dt = 0.01, so
# alpha = 1e4, beta = 1).
DEMO_PARAMS = SchemeParams(dx=0.01, dt=0.01)

# Spectral-probe preset with alpha = 1000, beta = 1: bands
# (-250, 500 + 3u/8, 1, -500 - 3u/8, 250).
EIGEN_PROBE_PARAMS = SchemeParams(dx=math.sqrt(1e-3), dt=math.sqrt(1e-3))

# The order-2 centered differences: D u_i = sum_k w_k (u_{i+k} - u_{i-k}) / dx^order.
D1 = {1: 0.5}
D3 = {1: -1.0, 2: 0.5}

# Picard iteration of the implicit coefficient stops once an iterate moves
# by less than PICARD_TOL in the sup norm, and fails after PICARD_MAX_ITERS.
PICARD_TOL = 1e-10
PICARD_MAX_ITERS = 50


def check_scheme(scheme: str, gamma_mode: str, paper_normalization: bool) -> None:
    """Raise :class:`ConfigError` unless the scheme, its gamma mode and normalization go together."""
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if gamma_mode not in GAMMA_MODES:
        raise ConfigError(f"gamma_mode must be one of {GAMMA_MODES}, got {gamma_mode!r}")
    if scheme == "explicit" and paper_normalization:
        raise ConfigError("paper_normalization = on needs a cn scheme: "
                          "scheme = explicit never normalizes")


def check_cn_grid(nx: int) -> None:
    """Raise ValueError unless a cn step on ``nx`` points has at least 5 interior unknowns."""
    if nx < 9:
        raise ValueError(f"grid too small for the implicit interior system: nx={nx} "
                         "gives fewer than 5 unknowns")


class SchemeConfig(Frozen):
    """One scheme of :data:`SCHEMES`, in the words of a run's config keys.

    ``gamma_mode`` acts on the cn schemes only: the explicit step always
    weights each row by its own u.  ``paper_normalization`` divides the
    solved interior state of a cn step by its max absolute value after
    every step.  That reproduces a legacy demo pipeline's plots but
    changes the equation being solved, so it is off by default and should
    stay an explicit choice.
    """

    def __init__(self, params: SchemeParams, scheme: str = "cn-lagged",
                 gamma_mode: str = "row-varying", paper_normalization: bool = False):
        check_scheme(scheme, gamma_mode, paper_normalization)
        self.__dict__.update(params=params, scheme=scheme, gamma_mode=gamma_mode,
                             paper_normalization=paper_normalization)


def _interior(u: WaveField) -> np.ndarray:
    """The nx - 4 interior unknowns of ``u``, once they number at least 5."""
    check_cn_grid(u.grid.nx)
    return u.values[2:-2]


def _weights(coef, alpha: float, beta: float):
    """The operator's (gamma, quarter) = (alpha/2 + (3 beta/8) c, alpha/4) at the coefficient c.

    Row i of A = I - (dt/2) L has (alpha/2) D3[k] - (3 beta/4) D1[k] c_i at column
    i + k: gamma is minus its k = 1 entry, quarter its k = 2 entry.
    """
    return alpha * (-D3[1] / 2.0) + 3.0 * beta * (D1[1] / 4.0) * coef, alpha * (D3[2] / 2.0)


def _symbol_coefficients(alpha: float, beta: float, u0):
    """g's coefficients of sin theta (advective, then D3[1]) and of sin 2 theta (D3[2]).

    u_{i+k} - u_{i-k} maps e^{ij theta} to 2i sin(k theta) times it, so dt L maps it to i g.
    """
    return (3.0 * beta / 2.0) * (2.0 * D1[1]) * u0, alpha * (-2.0 * D3[1]), alpha * (-2.0 * D3[2])


def _symbol_g(sin1, sin2, alpha: float, beta: float, u0):
    """g of the operator symbol z = i g at the coefficient u0, from sin(theta) and sin(2 theta).

    g = (3 beta/2) u0 sin theta + 2 alpha sin theta - alpha sin 2 theta, summed in
    that order, on scalars or arrays alike; each coefficient is a mesh ratio times an
    exact constant of the table, so g and :func:`_weights` are the closed forms bitwise.
    """
    advective, first, second = _symbol_coefficients(alpha, beta, u0)
    return advective * sin1 + first * sin1 + second * sin2


def check_symbol(alpha: float, beta: float, u0_list: Sequence[float]) -> None:
    """Raise ValueError unless g's coefficients are finite at (alpha, beta) and every u0:
    an overflowed one times sin 0 is nan."""
    for u0 in u0_list:
        if not all(map(math.isfinite, _symbol_coefficients(alpha, beta, u0))):
            raise ValueError(f"the symbol's coefficients overflow at alpha = {alpha!r}, "
                             f"beta = {beta!r}, u0 = {u0!r}: 2 alpha and (3 beta/2) u0 "
                             "must be finite")


def _cn_weights(coef: np.ndarray, cfg: SchemeConfig):
    """:func:`_weights` at the interior coefficient c, per row or frozen at its midpoint."""
    if cfg.gamma_mode == "frozen-midpoint":
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


def _matrices(coef: np.ndarray, cfg: SchemeConfig) -> Tuple[Pentadiagonal, Pentadiagonal]:
    """(A, B) at the interior coefficient ``coef``: B negates A's off-diagonal bands."""
    gamma, quarter = _cn_weights(coef, cfg)
    return _lhs(gamma, quarter), _lhs(-gamma, -quarter)


def assemble_lagged(u_n: WaveField, cfg: SchemeConfig) -> Tuple[Pentadiagonal, Pentadiagonal]:
    """Interior (A, B) of the lagged-coefficient scheme, at c = u^n; the step builds only A."""
    return _matrices(_interior(u_n), cfg)


def assemble_implicit(
    u_n: WaveField, u_guess: WaveField, cfg: SchemeConfig
) -> Tuple[Pentadiagonal, Pentadiagonal]:
    """Interior (A, B) of one Picard iterate: :func:`assemble_lagged`'s at c = (u^n + guess)/2."""
    if u_guess.grid != u_n.grid:
        raise ValueError("u_guess must live on the same grid as u_n")
    return _matrices(_midpoint(_interior(u_n), u_guess.values[2:-2]), cfg)


def _finish_step(u_n: WaveField, interior: np.ndarray, cfg: SchemeConfig) -> WaveField:
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


def step(u_n: WaveField, cfg: SchemeConfig) -> Tuple[WaveField, int]:
    """One step of ``cfg.scheme``: (field, solves).

    ``explicit`` applies B at twice the weights to the whole field, so that
    rows 2, 3, nx-4 and nx-3 read the two outer cells per end, which an
    initial state need not hold at zero; it makes 0 solves.

    The cn schemes solve A_0 x = B u^n at c = u^n, A_0 = A(u^n);
    ``cn-lagged`` stops there, after 1 solve.  ``cn-implicit`` iterates on
    from that x_1 to the fixed point x = A(c)^-1 B(c) u^n at
    c = (u^n + x)/2, until an iterate changes by less than
    :data:`PICARD_TOL` in the sup norm, and counts its iterates, each one
    solve.

    Row-varying, each iterate solves A_0 x_{k+1} = B(c_k) u^n - (A(c_k) - A_0) x_k
    against the one factorization, with c_k = (u^n + x_k)/2: a chord
    iteration in splitting form, whose fixed point is Picard's.  A(c_k) - A_0
    has only the off-diagonals +-(gamma_k - gamma_0), so the correction is
    (gamma_k - gamma_0)_i (x_{i-1} - x_{i+1}).  Frozen-midpoint
    refactors A(c_k) at every iterate instead, so that every iterate is an
    exact Cayley transform of u^n: with the splitting form's correction,
    sum u^2 drifted 1.04e-12 relative in 30 steps (nx 43, dt 0.0625).
    """
    if cfg.scheme == "explicit":
        v = u_n.values
        gamma, quarter = _weights(v, cfg.params.alpha, cfg.params.beta)
        new = np.zeros(u_n.grid.nx)
        new[2:-2] = _rhs(v, 2.0 * gamma, 2.0 * quarter)[2:-2]  # an overflow is a blow-up
        return next_state(u_n, new, cfg.params.dt), 0
    known = guess = _interior(u_n)
    gamma0, quarter = _cn_weights(known, cfg)
    rhs = _rhs(known, gamma0, quarter)  # an overflow is a blow-up before any factorization
    solve = factor_banded(_lhs(gamma0, quarter))
    interior = solve(rhs)
    if cfg.scheme == "cn-lagged":
        return _finish_step(u_n, interior, cfg), 1
    for iteration in range(1, PICARD_MAX_ITERS + 1):
        if iteration > 1:
            gamma, _ = _cn_weights(_midpoint(known, guess), cfg)
            rhs = _rhs(known, gamma, quarter)
            if cfg.gamma_mode == "frozen-midpoint":
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


def run(
    ic: WaveField,
    cfg: SchemeConfig,
    time: TimeGrid,
    snapshot_times: Sequence[float],
) -> RunResult:
    """Time-march the configured scheme, recording snapshots (and Picard solves if implicit).

    Every outcome is returned as :func:`~kdvlab.evolution.evolve` gives it:
    completed, a blow-up with its step, or a cn solver failure with its
    step; ``picard_solves`` counts the steps completed before it.
    """
    solves = []

    def advance(state: WaveField) -> WaveField:
        field, count = step(state, cfg)
        solves.append(count)
        return field

    result = evolve(ic, time, snapshot_times, advance)
    if cfg.scheme == "cn-implicit":
        result.picard_solves = tuple(solves)
    return result
