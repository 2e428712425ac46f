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

import numpy as np

from .errors import OracleError
from .record import Frozen

__all__ = [
    "Grid1D",
    "TimeGrid",
    "WaveField",
    "SchemeParams",
    "sech",
    "sech_squared_profile",
    "initial_condition",
    "appendix_profile",
    "traveling_wave",
    "pde_residual",
    "pde_residual_pointwise",
    "mass",
]


class Grid1D(Frozen):
    """Uniform spatial grid with inclusive endpoints.

    ``nx`` must be at least 7 so that the five-point stencils have room
    for two ghost-free interior neighbours on each side.
    """

    def __init__(self, x_min: float, x_max: float, nx: int):
        if not x_max > x_min:
            raise ValueError(f"x_max ({x_max}) must exceed x_min ({x_min})")
        if nx < 7:
            raise ValueError(f"nx must be >= 7, got {nx}")
        self.__dict__.update(x_min=x_min, x_max=x_max, nx=nx)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    def points(self) -> np.ndarray:
        """Grid coordinates, endpoints included, as a fresh array."""
        return np.linspace(self.x_min, self.x_max, self.nx)


class TimeGrid(Frozen):
    """Uniform time levels t_n = n*dt for n = 0 .. nt-1.

    ``nt`` is floor(t_end/dt) + 1, with a relative tolerance so that
    t_end being an exact multiple of dt keeps its final level despite
    floating-point division.
    """

    def __init__(self, t_end: float, dt: float):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if t_end <= 0:
            raise ValueError(f"t_end must be positive, got {t_end}")
        steps = t_end / dt * (1.0 + 1e-12)
        if not math.isfinite(steps):
            raise ValueError(f"t_end/dt = {t_end}/{dt} is not a finite step count")
        self.__dict__.update(t_end=t_end, dt=dt, nt=math.floor(steps) + 1)


class WaveField(Frozen):
    """Sampled solution values at one time level.

    Values are copied at construction and frozen; non-finite entries are
    rejected here so that blow-up is always an explicit error in the
    stepping code, never silently stored data.  Fields are equal when
    their grids, times and values are; the hash reads grid and time only.
    """

    def __init__(self, grid: Grid1D, time: float, values: np.ndarray):
        values = np.array(values, dtype=float, copy=True)
        if values.ndim != 1 or values.shape[0] != grid.nx:
            raise ValueError(f"values must have shape ({grid.nx},), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("WaveField values must be finite")
        values.flags.writeable = False
        self.__dict__.update(grid=grid, time=time, values=values)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__, which freezes the copy
        return type(self), (self.grid, self.time, self.values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.grid == other.grid and self.time == other.time
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.grid, self.time))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


class SchemeParams(Frozen):
    """Step sizes and the derived mesh ratios used by every scheme.

    ``alpha = dt/dx^3`` weights the dispersive term, ``beta = dt/dx``
    the advective one.  Both are recomputed from the stored steps so the
    relationship is exact by construction, and both must be finite.
    """

    def __init__(self, dx: float, dt: float):
        if dx <= 0 or dt <= 0:
            raise ValueError(f"dx and dt must be positive, got dx={dx}, dt={dt}")
        try:
            finite = math.isfinite(dt / dx**3) and math.isfinite(dt / dx)
        except ArithmeticError:  # dx**3 out of range, or 0
            finite = False
        if not finite:
            raise ValueError(f"mesh ratios alpha = dt/dx^3 and beta = dt/dx are out of range "
                             f"for dx={dx}, dt={dt}")
        self.__dict__.update(dx=dx, dt=dt)

    @property
    def alpha(self) -> float:
        return self.dt / self.dx**3

    @property
    def beta(self) -> float:
        return self.dt / self.dx


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
    return sech_squared_profile(grid, c / 8.0, 2.0 / math.sqrt(c))


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
            # past v = 9e307, -2v * 0 is nan, which the samples' consumers refuse
            with np.errstate(over="ignore", invalid="ignore"):
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
        return float(np.trapezoid(field.values, field.grid.points()))
