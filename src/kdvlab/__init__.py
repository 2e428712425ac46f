"""Finite-difference laboratory for the Korteweg-de Vries equation.

Solves u_t - 1.5 u u_x + u_xxx = 0 with an explicit scheme and two
Crank-Nicolson linearizations over a pentadiagonal band-LU solver
(LAPACK's, with a hand-rolled fallback), plus the analysis tooling
(amplification factors, truncation defects, spectral probes, convergence
studies) needed to judge them.
"""

from .analysis import (
    AmplificationPoint,
    ScanRow,
    cn_amplification,
    explicit_amplification,
    observed_order,
    stability_scan,
    truncation_error,
)
from .banded import (
    CertificateReport,
    Pentadiagonal,
    PowerIterationReport,
    factor_banded,
    invertibility_certificate,
    matvec,
    power_iteration,
    symbol_bound,
)
from .crank_nicolson import (
    SchemeConfig,
    assemble_implicit,
    assemble_lagged,
    run,
    step,
)
from .errors import (
    BlowUpError,
    ConfigError,
    FixedPointError,
    KdvLabError,
    OracleError,
    SingularMatrixError,
)
from .evolution import RunResult, SnapshotDiagnostics, peak_abscissa
from .model import (
    Grid1D,
    SchemeParams,
    TimeGrid,
    WaveField,
    appendix_profile,
    initial_condition,
    mass,
    pde_residual,
    sech,
    sech_squared_profile,
    traveling_wave,
)

__version__ = "0.1.0"
