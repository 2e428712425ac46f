"""Domain types and closed-form references for the KdV equation.

The equation solved throughout the package is

    u_t - (3/2) u u_x + u_xxx = 0

on a uniform grid with homogeneous Dirichlet boundaries.  This module
holds the grid/field containers, the sech^2 initial profiles, the
traveling-wave reference solutions, and a high-order finite-difference
residual oracle that is independent of every solver stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import OracleError

__all__ = [
    "Grid1D",
    "TimeGrid",
    "WaveField",
    "SchemeParams",
    "SolitonSpec",
    "sech",
    "sech_squared_profile",
    "initial_condition",
    "appendix_profile",
    "traveling_wave",
    "pde_residual",
    "pde_residual_pointwise",
    "mass",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid with inclusive endpoints.

    ``nx`` must be at least 7 so that the five-point stencils have room
    for two ghost-free interior neighbours on each side.
    """

    x_min: float
    x_max: float
    nx: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max ({self.x_max}) must exceed x_min ({self.x_min})")
        if self.nx < 7:
            raise ValueError(f"nx must be >= 7, got {self.nx}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    def points(self) -> np.ndarray:
        """Grid coordinates, endpoints included, as a fresh array."""
        return np.linspace(self.x_min, self.x_max, self.nx)

    @cached_property
    def _points(self) -> np.ndarray:
        """:meth:`points` computed once per grid object and read-only, for the diagnostics."""
        x = self.points()
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time levels t_n = n*dt for n = 0 .. nt-1.

    ``nt`` is floor(t_end/dt) + 1, with a relative tolerance so that
    t_end being an exact multiple of dt keeps its final level despite
    floating-point division.
    """

    t_end: float
    dt: float
    nt: int = field(init=False)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        steps = math.floor(self.t_end / self.dt * (1.0 + 1e-12))
        object.__setattr__(self, "nt", steps + 1)

    def times(self) -> np.ndarray:
        return np.arange(self.nt) * self.dt


@dataclass(frozen=True)
class WaveField:
    """Sampled solution values at one time level.

    Values are copied at construction and frozen; non-finite entries are
    rejected here so that blow-up is always an explicit error in the
    stepping code, never silently stored data.
    """

    grid: Grid1D
    time: float
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float, copy=True)
        if values.ndim != 1 or values.shape[0] != self.grid.nx:
            raise ValueError(
                f"values must have shape ({self.grid.nx},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("WaveField values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _successor(self, time: float, values: np.ndarray) -> "WaveField":
        """The field on this grid at ``time`` whose storage is ``values`` itself, frozen in place.

        ``values`` must be a float array of shape ``(nx,)`` that owns its
        data, is checked finite, and that no one else holds: this skips
        the constructor's copy and finiteness scan.
        """
        values.flags.writeable = False
        state = object.__new__(type(self))  # type(self): not a module-level name a tracer may rebind
        for name, value in (("grid", self.grid), ("time", time), ("values", values)):
            object.__setattr__(state, name, value)
        return state


@dataclass(frozen=True)
class SchemeParams:
    """Step sizes and the derived mesh ratios used by every scheme.

    ``alpha = dt/dx^3`` weights the dispersive term, ``beta = dt/dx``
    the advective one.  Both are recomputed from the stored steps so the
    relationship is exact by construction.
    """

    dx: float
    dt: float

    def __post_init__(self):
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError(f"dx and dt must be positive, got dx={self.dx}, dt={self.dt}")

    @property
    def alpha(self) -> float:
        return self.dt / self.dx**3

    @property
    def beta(self) -> float:
        return self.dt / self.dx

    @classmethod
    def from_grid(cls, grid: Grid1D, dt: float) -> "SchemeParams":
        return cls(dx=grid.dx, dt=dt)

    @classmethod
    def from_alpha_beta(cls, alpha: float, beta: float) -> "SchemeParams":
        """Recover (dx, dt) from the mesh ratios: dx = sqrt(beta/alpha), dt = beta*dx."""
        if alpha <= 0 or beta <= 0:
            raise ValueError(f"alpha and beta must be positive, got {alpha}, {beta}")
        dx = math.sqrt(beta / alpha)
        params = cls(dx=dx, dt=beta * dx)
        try:
            ok = all(math.isfinite(r) and r > 0 for r in (params.alpha, params.beta))
        except (OverflowError, ZeroDivisionError):  # dx**3 overflowed or underflowed
            ok = False
        if not ok:
            raise ValueError(f"alpha = {alpha!r}, beta = {beta!r} give dx = {dx!r}, "
                             "whose mesh ratios are not finite and positive in doubles")
        return params


@dataclass(frozen=True)
class SolitonSpec:
    """Parameters of a sech^2 pulse u = amplitude * sech^2(x/width) moving at ``speed``."""

    amplitude: float
    width: float
    speed: float

    def __post_init__(self):
        if self.width == 0:
            raise ValueError("width must be nonzero")

    @classmethod
    def from_wave_speed(cls, c: float) -> "SolitonSpec":
        """Pulse with amplitude c/8 and argument scale (sqrt(c)/2) x."""
        if c <= 0:
            raise ValueError(f"wave speed c must be positive, got {c}")
        return cls(amplitude=c / 8.0, width=2.0 / math.sqrt(c), speed=c)


def sech(x):
    """Hyperbolic secant 2/(e^x + e^-x), computed overflow-free.

    Accepts scalars or arrays; underflows smoothly to 0 for large |x|.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    out = 2.0 * e / (1.0 + e * e)
    return out if out.ndim else float(out)


def sech_squared_profile(grid: Grid1D, amplitude: float, width: float) -> WaveField:
    """Sample u(x) = amplitude * sech^2(x/width) on the grid at time 0."""
    if width == 0:
        raise ValueError("width must be nonzero")
    x = grid.points()
    return WaveField(grid, 0.0, amplitude * sech(x / width) ** 2)


def initial_condition(grid: Grid1D, c: float) -> WaveField:
    """Standard initial pulse u(x, 0) = (c/8) sech^2((sqrt(c)/2) x)."""
    if c <= 0:
        raise ValueError(f"wave speed c must be positive, got {c}")
    spec = SolitonSpec.from_wave_speed(c)
    return sech_squared_profile(grid, spec.amplitude, spec.width)


def appendix_profile(grid: Grid1D) -> WaveField:
    """Demo initial pulse 0.5 * sech^2(x/2) used by the reference pipeline."""
    return sech_squared_profile(grid, 0.5, 2.0)


VERIFIED_FORM = "verified"
CLAIMED_FORM = "claimed"


def traveling_wave_callable(v: float, form: str = VERIFIED_FORM):
    """Closed-form traveling wave u(x, t) as a vectorised callable.

    ``verified``: u = -2v sech^2((sqrt(v)/2)(x - v t)), which satisfies
    u_t - 1.5 u u_x + u_xxx = 0 (check it with :func:`pde_residual`).
    ``claimed``: u = v sech^2((sqrt(v)/2)(x - v t)), a positive pulse of
    the same shape that does *not* satisfy the equation; it is kept as a
    first-class reference so the mismatch stays measurable.
    """
    if v <= 0:
        raise ValueError(f"wave speed v must be positive, got {v}")
    b = math.sqrt(v) / 2.0

    if form == VERIFIED_FORM:

        def u(x, t):
            return -2.0 * v * sech(b * (np.asarray(x, dtype=float) - v * t)) ** 2

    elif form == CLAIMED_FORM:

        def u(x, t):
            return v * sech(b * (np.asarray(x, dtype=float) - v * t)) ** 2

    else:
        raise ValueError(f"unknown traveling-wave form {form!r}")
    return u


def traveling_wave(grid: Grid1D, v: float, t: float, form: str = VERIFIED_FORM) -> WaveField:
    """Sample a traveling-wave closed form on the grid at time ``t``."""
    u = traveling_wave_callable(v, form)
    return WaveField(grid, t, u(grid.points(), t))


def pde_residual_pointwise(u, x_samples, t: float, oracle_step: float = 1e-3) -> np.ndarray:
    """Residual u_t - 1.5 u u_x + u_xxx of a closed form, per sample point.

    Derivatives use fourth-order central differences with step
    ``oracle_step``, independent of any solver stencil.  ``u`` must be a
    callable ``u(x, t)`` accepting array ``x``.  The stencils sum
    antisymmetric pairs first: the pair differences are tiny, which
    keeps the h^-3 division from amplifying accumulation roundoff.
    """
    if oracle_step <= 0:
        raise ValueError(f"oracle_step must be positive, got {oracle_step}")
    x = np.asarray(x_samples, dtype=float)
    h = oracle_step

    def ux(k):
        return np.asarray(u(x + k * h, t), dtype=float)

    def ut(k):
        return np.asarray(u(x, t + k * h), dtype=float)

    u0 = ux(0)

    # f' ~ [ (f(-2h) - f(+2h)) + 8 (f(+h) - f(-h)) ] / 12h
    u_t = ((ut(-2) - ut(2)) + 8.0 * (ut(1) - ut(-1))) / (12.0 * h)
    u_x = ((ux(-2) - ux(2)) + 8.0 * (ux(1) - ux(-1))) / (12.0 * h)

    # f''' ~ [ (1/8)(f(-3h) - f(+3h)) + (f(+2h) - f(-2h))
    #          + (13/8)(f(-h) - f(+h)) ] / h^3
    u_xxx = (
        0.125 * (ux(-3) - ux(3))
        + (ux(2) - ux(-2))
        + 1.625 * (ux(-1) - ux(1))
    ) / h**3

    res = u_t - 1.5 * u0 * u_x + u_xxx
    if not np.all(np.isfinite(res)):
        raise OracleError("residual oracle produced non-finite values")
    return res


def pde_residual(u, x_samples, t: float, oracle_step: float = 1e-3) -> float:
    """Sup-norm of the KdV residual of a closed form over the sample points."""
    return float(np.max(np.abs(pde_residual_pointwise(u, x_samples, t, oracle_step))))


def mass(field: WaveField) -> float:
    """Trapezoidal approximation of the integral of u; inf, unwarned, if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.trapezoid(field.values, field.grid._points))
