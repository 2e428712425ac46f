"""The pentadiagonal core: banded LU, power iteration, and why sigma_max
needs a bound rather than an iteration.

The implicit scheme's interior matrix with a frozen coefficient is
A = I + K with K skew-symmetric.  Its eigenvalues are 1 + i*mu (complex
pairs!), so real power iteration has nothing to converge to: the
Rayleigh quotient b.Ab = b.b is 1 for every unit b by construction,
while the eigen-residual stays O(||K||).  Invertibility needs no
iteration at all: sigma_min >= 1 by structure.  Neither does an upper
bound on sigma_max.  A's bands are constant, so it is a banded Toeplitz
section, and its norm is at most the sup of its symbol.  With a
row-varying coefficient, A is that Toeplitz matrix (at the midranges of
its bands) plus a banded remainder whose norm the bands' spread bounds,
so the same closed form plus that spread is still a certified bound.
The dense SVD beside each bound shows how close it sits.
"""

import numpy as np

from kdvlab import (
    CnConfig,
    GammaMode,
    Grid1D,
    WaveField,
    appendix_profile,
    factor_banded,
    invertibility_certificate,
    matvec,
    power_iteration,
    symbol_bound,
)
from kdvlab.crank_nicolson import EIGEN_PROBE_PARAMS, assemble_lagged

# assemble the alpha = 1000, beta = 1 probe instance on a constant state
grid = Grid1D(-20.0, 20.0, 204)
field = WaveField(grid, 0.0, np.full(204, 0.4))
cfg = CnConfig(params=EIGEN_PROBE_PARAMS, gamma_mode=GammaMode.FROZEN_MIDPOINT)
A, _ = assemble_lagged(field, cfg)
print(f"A: n = {A.n}, bands ({A.sub2[0]:.1f}, {A.sub1[0]:.2f}, 1, {A.sup1[0]:.2f}, {A.sup2[0]:.1f})")

rng = np.random.default_rng(0)
b = rng.standard_normal(A.n)
x = factor_banded(A)(b)
print(f"banded LU residual: {np.max(np.abs(matvec(A, x) - b)):.2e}")
print(f"||x|| / ||b|| = {np.linalg.norm(x) / np.linalg.norm(b):.4f}  (<= 1: sigma_min >= 1)")

plain = power_iteration(A, np.ones(A.n), tol=1e-10, max_iters=10_000)
print(
    f"plain power iteration: estimate = {plain.estimate:.6f}, "
    f"converged = {plain.converged}, residual = {plain.residual:.3g}"
)

# the same probe instance with the coefficient varying row by row
varying = CnConfig(params=EIGEN_PROBE_PARAMS, gamma_mode=GammaMode.ROW_VARYING)
A_varying, _ = assemble_lagged(appendix_profile(grid), varying)
for label, M in (("frozen", A), ("row-varying", A_varying)):
    dense = np.linalg.svd(M.to_dense(), compute_uv=False)[0]
    print(f"{label:>11} A: sigma_max <= {symbol_bound(M):.6f}  (closed form, no sweeps; dense SVD {dense:.6f})")
print(invertibility_certificate(A))
