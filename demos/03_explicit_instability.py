"""Why the forward-in-time explicit scheme cannot be trusted here.

The frozen-coefficient symbol of the explicit update is
lambda(theta) = 1 + i g(theta), so |lambda| = sqrt(1 + g^2) >= 1 for
every mode: the scheme amplifies everything except the handful of
angles where g vanishes.  We print the symbol, then let an actual run
demonstrate it by blowing up from round-off alone.
"""

import math

import numpy as np

from kdvlab import (
    Grid1D,
    SchemeConfig,
    SchemeParams,
    TimeGrid,
    appendix_profile,
    explicit_amplification,
    run,
)

params = SchemeParams(dx=0.01, dt=0.01)  # alpha = 1e4
print(f"alpha = {params.alpha:.0f}, beta = {params.beta:.0f}")
print(f"{'theta':>8} {'|lambda|':>12}")
for theta in np.linspace(0.0, math.pi, 9):
    a = explicit_amplification(theta, params.alpha, params.beta, u0=0.5)
    print(f"{theta:8.3f} {a.magnitude:12.4g}")

print()
grid = Grid1D(-20.0, 20.0, 4001)
result = run(
    appendix_profile(grid),
    SchemeConfig(params, "explicit"),
    TimeGrid(10.0, 0.01),
    snapshot_times=[1.01],
)
print(f"outcome: {result.outcome} at step {result.blow_up_step}")
print("Round-off components sit near 1e-17; amplified by ~1e4 per step they")
print("cross the 1e6 threshold within a handful of steps, long before the")
print("first snapshot is due.")
