"""Frozen-coefficient amplification factors and numerical consistency probes.

The amplification factors insert a Fourier mode into each scheme with
the advective coefficient frozen at a constant ``u0`` (the only
convention under which the scheme symbol is a well-defined function of
the mode angle ``theta = k dx``).  Both schemes apply one spatial
operator, whose D1/D3 weight table in :mod:`kdvlab.crank_nicolson` gives
both the step's band weights and its symbol z = i g over a step
(:func:`~kdvlab.crank_nicolson._symbol_g`).  g depends on the steps only
through the mesh ratios ``alpha = dt/dx^3`` and ``beta = dt/dx``, so the
factors and the scan take those ratios directly.  The explicit scheme,
the theta = 0 member, gives lambda = 1 + z, hence |lambda| >= 1 with
equality only where g vanishes.  Crank-Nicolson, the theta = 1/2
member, gives the conjugate ratio lambda = (1 + z/2)/(1 - z/2), hence
|lambda| = 1 identically: neutrally stable, never strictly damping.
With h = g/2 it is formed as (c - 1) + i h c, c = 2/(1 + h^2), so where
h^2 overflows c is 0 and lambda is -1, of modulus 1.

|lambda| is numpy's ``hypot``, libm's, which is faithfully rounded: its
last bit can differ between platforms.  The scalar factors and the
stability scan share it, so each scan row equals the maximum of the
scalar factors' magnitudes bit for bit by construction.  Both pass an
overflowed coefficient of g through as inf or nan; the ``scan`` command
refuses such inputs first (:func:`~kdvlab.crank_nicolson.check_symbol`).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

from .crank_nicolson import SchemeConfig, _symbol_g, step
from .errors import OracleError
from .model import Grid1D, SchemeParams, WaveField, pde_residual_pointwise
from .record import Frozen

__all__ = [
    "AmplificationPoint",
    "ScanRow",
    "cn_amplification",
    "explicit_amplification",
    "scan_ratios",
    "stability_scan",
    "truncation_error",
    "observed_order",
]


class AmplificationPoint(Frozen):
    """Scheme symbol lambda at one mode angle theta = k dx."""

    def __init__(self, theta: float, lambda_re: float, lambda_im: float, magnitude: float):
        self.__dict__.update(theta=theta, lambda_re=lambda_re, lambda_im=lambda_im,
                             magnitude=magnitude)


def _cn_lambda(g):
    """(re, im) of lambda = (1 + ih)/(1 - ih), h = g/2, for a scalar or an array g."""
    h = 0.5 * g
    c = 2.0 / (1.0 + h * h)
    return c - 1.0, h * c


def _magnitude(re, im):
    """|lambda| by np.hypot, on scalars and blocks alike; inf and nan pass silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.hypot(re, im)


def cn_amplification(theta: float, alpha: float, beta: float, u0: float) -> AmplificationPoint:
    """Frozen-coefficient Crank-Nicolson symbol: lambda = (1 + i g/2)/(1 - i g/2).

    g is the operator's, :func:`~kdvlab.crank_nicolson._symbol_g`, at the
    mesh ratios alpha = dt/dx^3 and beta = dt/dx.
    """
    re, im = _cn_lambda(_symbol_g(math.sin(theta), math.sin(2.0 * theta), alpha, beta, u0))
    return AmplificationPoint(
        theta=theta, lambda_re=re, lambda_im=im, magnitude=float(_magnitude(re, im))
    )


def explicit_amplification(theta: float, alpha: float, beta: float,
                           u0: float) -> AmplificationPoint:
    """Frozen-coefficient explicit symbol: lambda = 1 + i g.

    g is the operator's, :func:`~kdvlab.crank_nicolson._symbol_g`, at the
    mesh ratios alpha = dt/dx^3 and beta = dt/dx.
    """
    g = _symbol_g(math.sin(theta), math.sin(2.0 * theta), alpha, beta, u0)
    return AmplificationPoint(
        theta=theta, lambda_re=1.0, lambda_im=g, magnitude=float(_magnitude(1.0, g))
    )


SCHEME_CN = "cn"
SCHEME_EXPLICIT = "explicit"


class ScanRow(Frozen):
    """One stability-scan record: the mesh ratios and u0 as given, and the
    worst |lambda| over the sampled angles."""

    def __init__(self, alpha: float, beta: float, u0: float, max_magnitude: float):
        self.__dict__.update(alpha=alpha, beta=beta, u0=u0, max_magnitude=max_magnitude)


def scan_ratios(scheme: str, ratios: Sequence[Tuple[float, float]]) -> list:
    """The (alpha, beta) pairs of a ``scheme`` scan as floats; raises ValueError
    unless the scheme is 'cn' or 'explicit' and every ratio is finite and positive."""
    if scheme not in (SCHEME_CN, SCHEME_EXPLICIT):
        raise ValueError(f"unknown scheme {scheme!r}; expected 'cn' or 'explicit'")
    ratios = [(float(alpha), float(beta)) for alpha, beta in ratios]
    for alpha, beta in ratios:
        if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
            raise ValueError(
                f"alpha and beta must be finite and positive, got {alpha!r}, {beta!r}"
            )
    return ratios


def stability_scan(
    scheme: str,
    ratios: Sequence[Tuple[float, float]],
    u0_list: Sequence[float],
    theta_samples: Sequence[float],
) -> list:
    """Max |lambda| over theta for every ((alpha, beta), u0) pair, in input order.

    ``ratios`` holds (alpha, beta) mesh-ratio pairs, each finite and
    positive; rows carry them as given.  Both schemes reduce one
    (u0 x theta) block of the scalar factors' |lambda| per pair, so an
    empty ``ratios`` or ``u0_list`` gives no rows.
    """
    thetas = [float(t) for t in theta_samples]
    for t in thetas:
        if t < 0.0 or t > math.pi:
            raise ValueError(f"theta samples must lie in [0, pi], got {t}")
    ratios = scan_ratios(scheme, ratios)
    # math.sin, as in the scalar factors, so each block element is their
    # |lambda| bit for bit
    sin1 = np.array([math.sin(t) for t in thetas])
    sin2 = np.array([math.sin(2.0 * t) for t in thetas])
    if not thetas:
        return [ScanRow(alpha=a, beta=b, u0=float(u0), max_magnitude=0.0)
                for a, b in ratios for u0 in u0_list]
    # one (u0, theta) block per (alpha, beta): the symbol helpers broadcast a
    # u0 column against the theta row, element by element the scalar arithmetic
    u0_column = np.array(u0_list, dtype=float).reshape(-1, 1)
    rows = []
    # overflow to inf and nan passes silently, as in the scalar factors' float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha, beta in ratios:
            g = _symbol_g(sin1, sin2, alpha, beta, u0_column)
            mag = _magnitude(*_cn_lambda(g)) if scheme == SCHEME_CN else _magnitude(1.0, g)
            # Python's max over theta in order: nan when the first angle's
            # magnitude is nan, else the largest magnitude that is not nan
            worst = np.where(np.isnan(mag[:, 0]), np.nan, np.fmax.reduce(mag, axis=1))
            rows.extend(ScanRow(alpha=alpha, beta=beta, u0=float(u0), max_magnitude=m)
                        for u0, m in zip(u0_list, worst.tolist()))
    return rows


SCHEME_CN_LAGGED = "cn-lagged"


def truncation_error(
    scheme: str,
    manufactured: Callable[[np.ndarray, float], np.ndarray],
    params: SchemeParams,
    window: Grid1D,
    t0: float = 0.0,
    oracle_step: float = 1e-3,
) -> float:
    """One-step defect of a scheme against a manufactured closed form.

    Samples ``manufactured`` on the window grid at ``t0``, advances one
    discrete step (``cn-lagged`` row-varying), and compares with the
    exact samples at ``t0 + dt`` corrected by the function's own KdV
    residual (so a function that does not satisfy the equation is still
    a valid probe).  Returns the sup norm of the interior defect divided
    by dt; for a consistent scheme this shrinks as the steps are refined.

    The window must be wide enough that the function is negligible at
    the boundary: the discrete step pins boundary cells to zero.  The
    step keeps the run's blow-up rule, so a stepped field with max |u|
    above :data:`~kdvlab.evolution.MAX_AMPLITUDE` (1e6) raises
    :class:`BlowUpError`.
    """
    if scheme not in (SCHEME_CN_LAGGED, SCHEME_EXPLICIT):
        raise ValueError(
            f"unknown scheme {scheme!r}; expected 'cn-lagged' or 'explicit'"
        )
    x = window.points()
    dt = params.dt
    samples0 = np.asarray(manufactured(x, t0), dtype=float)
    if not np.all(np.isfinite(samples0)):
        raise OracleError("manufactured function produced non-finite samples")
    stepped, _ = step(WaveField(window, t0, samples0), SchemeConfig(params, scheme))

    exact1 = np.asarray(manufactured(x, t0 + dt), dtype=float)
    residual = pde_residual_pointwise(manufactured, x, t0, oracle_step)
    target = exact1 - dt * residual
    defect = stepped.values[2:-2] - target[2:-2]
    return float(np.max(np.abs(defect)) / dt)


def observed_order(errors: Sequence) -> float:
    """Least-squares slope of log(error) against log(h).

    ``errors`` holds (h, e) pairs from a refinement study; at least two
    entries with positive h and e are required.
    """
    pairs = [(float(h), float(e)) for h, e in errors]
    if len(pairs) < 2:
        raise ValueError("observed_order needs at least two (h, e) entries")
    for h, e in pairs:
        if h <= 0 or e <= 0:
            raise ValueError(f"entries must be positive, got (h={h}, e={e})")
    log_h = np.log([h for h, _ in pairs])
    log_e = np.log([e for _, e in pairs])
    slope, _ = np.polyfit(log_h, log_e, 1)
    return float(slope)
