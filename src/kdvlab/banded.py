"""Pentadiagonal storage, banded LU solves, and spectral probes.

A :class:`Pentadiagonal` keeps its five bands in one array laid out as
LAPACK's general band storage, ``bands[2 + i - j, j] = A[i, j]``.  The
implicit schemes' systems are solved with an LU factorisation whose
partial pivoting stays confined to the band; row exchanges widen the
upper bandwidth from 2 to at most 4, so the working array adds two fill
rows to the five bands, and both solve paths factor that same array.
The factorisation is LAPACK's ``dgbtrf``, and a solve against it
``dgbtrs``, called through ``ctypes`` in the LAPACK that numpy links;
where no such symbol resolves, a hand-rolled kernel, which is also the
reference the tests compare against, does the same elimination in
Python and leaves the same factors.  :func:`factor_banded` is the one
entry point: it factors once and returns a solve that can be called for
any number of right-hand sides, so ``factor_banded(P)(b)`` solves
P x = b.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import SingularMatrixError
from .record import Frozen

__all__ = [
    "Pentadiagonal",
    "PowerIterationReport",
    "CertificateReport",
    "matvec",
    "factor_banded",
    "solve_backend",
    "reference_factor_banded",
    "power_iteration",
    "symbol_bound",
    "invertibility_certificate",
]

# Relative pivot threshold below which elimination reports singularity.
PIVOT_RTOL = 1e-14


# The band array's corners outside the matrix.
_ZEROS = np.zeros(2)
_ZEROS.flags.writeable = False


class Pentadiagonal:
    """Square matrix with five bands: offsets -2, -1, 0, +1, +2.

    ``bands`` is one read-only ``(5, n)`` array in LAPACK band order,
    ``bands[2 + i - j, j] = A[i, j]``, whose four corners outside the
    matrix are 0.  Band k of ``sub1`` is entry (k+1, k); band k of
    ``sup1`` is entry (k, k+1), and similarly two places out for
    ``sub2``/``sup2``; the five named bands are views of ``bands``.  A
    solve copies ``bands`` once, into the LU working array.
    """

    __slots__ = ("_bands", "_views")

    def __init__(self, sub2, sub1, diag, sup1, sup2):
        n = np.shape(diag)[0]
        if n < 5:
            raise ValueError(f"pentadiagonal dimension must be >= 5, got {n}")
        given = (("sup2", sup2, 2), ("sup1", sup1, 1), ("diag", diag, 0), ("sub1", sub1, 1),
                 ("sub2", sub2, 2))
        for name, band, short in given:
            if np.shape(band) != (n - short,):
                raise ValueError(f"band {name} must have length {n - short}, got {np.shape(band)}")
        bands = np.empty((5, n))
        # its rows back to back, with the corners' zeros between them
        np.concatenate(
            (_ZEROS[:2], sup2, _ZEROS[:1], sup1, diag, sub1, _ZEROS[:1], sub2, _ZEROS[:2]),
            out=bands.reshape(-1),
        )
        bands.flags.writeable = False  # before the views are taken, so that they inherit it
        self._bands = bands
        self._views = (bands[0, 2:], bands[1, 1:], bands[2], bands[3, :-1], bands[4, :-2])

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__: one fresh
        # read-only array with the named bands as views of it
        return type(self), (self.sub2, self.sub1, self.diag, self.sup1, self.sup2)

    bands = property(lambda self: self._bands)
    sup2 = property(lambda self: self._views[0])
    sup1 = property(lambda self: self._views[1])
    diag = property(lambda self: self._views[2])
    sub1 = property(lambda self: self._views[3])
    sub2 = property(lambda self: self._views[4])

    @property
    def n(self) -> int:
        return self._bands.shape[1]

    @classmethod
    def identity(cls, n: int) -> "Pentadiagonal":
        return cls(
            sub2=np.zeros(n - 2),
            sub1=np.zeros(n - 1),
            diag=np.ones(n),
            sup1=np.zeros(n - 1),
            sup2=np.zeros(n - 2),
        )

    def to_dense(self) -> np.ndarray:
        n = self.n
        M = np.zeros((n, n))
        for k, band in zip((2, 1, 0, -1, -2), self._views):
            rows = np.arange(max(0, -k), n - max(0, k))
            M[rows, rows + k] = band
        return M

    def transpose(self) -> "Pentadiagonal":
        return Pentadiagonal(
            sub2=self.sup2, sub1=self.sup1, diag=self.diag, sup1=self.sub1, sup2=self.sub2
        )


class PowerIterationReport(Frozen):
    """Outcome of a power-iteration probe.

    ``estimate`` is the Rayleigh quotient at termination, ``residual``
    the relative eigen-residual ||A b - estimate * b|| / ||b||.  The
    probe only claims convergence when the Rayleigh quotient stabilised
    *and* the residual is small; a rotation-like spectrum keeps the
    quotient flat while the residual stays O(1), and that is reported as
    not converged.
    """

    def __init__(self, estimate: float, iterations: int, converged: bool, residual: float):
        self.__dict__.update(estimate=estimate, iterations=iterations, converged=converged,
                             residual=residual)


class CertificateReport(Frozen):
    """Invertibility certificate: ``method`` is how it was established."""

    def __init__(self, method: str, certified: bool, detail: str):
        self.__dict__.update(method=method, certified=certified, detail=detail)


def matvec(P: Pentadiagonal, x) -> np.ndarray:
    """Product P @ x using only the stored bands."""
    x = np.asarray(x, dtype=float)
    if x.shape != (P.n,):
        raise ValueError(f"x must have shape ({P.n},), got {x.shape}")
    y = P.diag * x
    y[1:] += P.sub1 * x[:-1]
    y[2:] += P.sub2 * x[:-2]
    y[:-1] += P.sup1 * x[1:]
    y[:-2] += P.sup2 * x[2:]
    return y


# LAPACK band storage for kl = ku = 2: dgbtrf needs kl extra rows for the
# fill that pivoting causes, so ldab = 2 kl + ku + 1 = 7, and the diagonal
# (of A on entry, of U on exit) is band row kl + ku = 4.
_KL = _KU = 2
_LDAB = 2 * _KL + _KU + 1


def _working_band(P: Pentadiagonal) -> np.ndarray:
    """Fresh LU working array: row j is column j of LAPACK's AB(ldab, n).

    ``ab[j, 4 + i - j] = A[i, j]``; the first kl entries of each row start
    at 0 and take the fill that row exchanges bring.
    """
    ab = np.zeros((P.n, _LDAB))
    ab[:, _KL:] = P.bands.T
    return ab


def _lu_factor_kernel(ab, ipiv, pivot_floor):
    """In-place banded LU with partial pivoting; returns -1 or the failing row.

    ab is the working array of :func:`_working_band`, so entry (i, c) of
    the matrix is ``ab[c, 4 + i - c]``.  The factors are left as
    ``dgbtrf`` leaves them: U in the first five entries of each row of
    ab (the diagonal last), the multiplier that cleared entry (r, k) in
    that entry's place ``ab[k, 4 + r - k]``, and in ``ipiv[k]`` the row
    exchanged with row k.  Row swaps exchange only the column-aligned
    segment [k, k+4], which is where all remaining nonzeros of the
    candidate rows live.
    """
    n = ab.shape[0]
    for k in range(n):
        rmax = min(k + 2, n - 1)
        piv_row = k
        piv_val = abs(ab[k, 4])
        for r in range(k + 1, rmax + 1):
            v = abs(ab[k, 4 + r - k])
            if v > piv_val:
                piv_val = v
                piv_row = r
        if piv_val <= pivot_floor:
            return k
        ipiv[k] = piv_row
        cmax = min(k + 4, n - 1)
        if piv_row != k:
            for c in range(k, cmax + 1):
                tmp = ab[c, 4 + k - c]
                ab[c, 4 + k - c] = ab[c, 4 + piv_row - c]
                ab[c, 4 + piv_row - c] = tmp
        for r in range(k + 1, rmax + 1):
            m = ab[k, 4 + r - k] / ab[k, 4]
            ab[k, 4 + r - k] = m
            if m != 0.0:
                for c in range(k + 1, cmax + 1):
                    ab[c, 4 + r - c] -= m * ab[c, 4 + k - c]
    return -1


def _lu_solve_kernel(ab, ipiv, b, x):
    """Forward and back substitution against :func:`_lu_factor_kernel`'s factors.

    b is consumed as workspace; its row swaps and updates are those the
    elimination would have made on it, in the same order.
    """
    n = ab.shape[0]
    for k in range(n):
        p = ipiv[k]
        if p != k:
            tmp = b[k]
            b[k] = b[p]
            b[p] = tmp
        for r in range(k + 1, min(k + 2, n - 1) + 1):
            m = ab[k, 4 + r - k]
            if m != 0.0:
                b[r] -= m * b[k]
    for i in range(n - 1, -1, -1):
        s = b[i]
        cmax = min(i + 4, n - 1)
        for c in range(i + 1, cmax + 1):
            s -= ab[c, 4 + i - c] * x[c]
        x[i] = s / ab[i, 4]


def _check_rhs(P: Pentadiagonal, b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (P.n,):
        raise ValueError(f"b must have shape ({P.n},), got {b.shape}")
    return b


def _pivot_floor(P: Pentadiagonal) -> float:
    """``PIVOT_RTOL * max|P|`` from two reductions of the bands, with no abs temporary.

    Both reductions are nan if any entry is, and so is the floor.
    """
    return PIVOT_RTOL * max(P.bands.max(), -P.bands.min())


def _singular(row: int) -> SingularMatrixError:
    return SingularMatrixError(f"zero pivot in banded elimination at row {row}", row=row)


def reference_factor_banded(P: Pentadiagonal):
    """:func:`factor_banded` with the hand-rolled kernel: the fallback and the test reference."""
    ab = _working_band(P)
    ipiv = np.empty(P.n, dtype=np.intp)
    fail_row = _lu_factor_kernel(ab, ipiv, _pivot_floor(P))
    if fail_row >= 0:
        raise _singular(fail_row)

    def solve(b) -> np.ndarray:
        rhs = _check_rhs(P, b).copy()
        x = np.empty_like(rhs)
        _lu_solve_kernel(ab, ipiv, rhs, x)
        return x

    return solve


def _lapack_band_lu(library: str):
    """Return ``factor(P)`` over ``dgbtrf``/``dgbtrs`` from ``library``, or None.

    ``factor.backend`` names the two symbols and the library's file name.
    The integer width follows the symbol name: a ``_64_`` suffix marks
    the ILP64 interface (numpy 2.4's wheels export ``scipy_dgbtrf_64_``),
    a plain ``_`` the LP64 one (scipy's wheels export ``scipy_dgbtrf_``,
    a system LAPACK ``dgbtrf_``).
    """
    try:
        lib = ctypes.CDLL(library)
    except OSError:
        return None
    for prefix, suffix, c_int in (
        ("scipy_", "_64_", ctypes.c_int64),
        ("", "_64_", ctypes.c_int64),
        ("scipy_", "_", ctypes.c_int32),
        ("", "_", ctypes.c_int32),
    ):
        try:
            dgbtrf = getattr(lib, f"{prefix}dgbtrf{suffix}")
            dgbtrs = getattr(lib, f"{prefix}dgbtrs{suffix}")
        except AttributeError:
            continue
        break
    else:
        return None

    # Arrays go in as bare addresses: numpy's ``ndpointer`` converts through
    # ``ctypes.cast``, which leaves a reference cycle behind on every call.
    p_int, array = ctypes.POINTER(c_int), ctypes.c_void_p
    dgbtrf.argtypes = [p_int, p_int, p_int, p_int, array, p_int, array, p_int]
    dgbtrf.restype = None
    # the trailing size_t is the hidden length of the Fortran character TRANS
    dgbtrs.argtypes = [ctypes.c_char_p, p_int, p_int, p_int, p_int, array, p_int,
                       array, array, p_int, p_int, ctypes.c_size_t]
    dgbtrs.restype = None
    kl, ku, ldab, nrhs = c_int(_KL), c_int(_KU), c_int(_LDAB), c_int(1)
    ipiv_dtype = np.dtype(c_int)
    # Each thread keeps the LU working array of its last n, with its
    # addresses (each .ctypes builds an object) and a generation count.
    # A fresh 7 n array per factorization grew the heap past glibc's trim
    # threshold, so every time step gave the pages back and faulted them
    # in again.
    local = threading.local()

    def factor(P: Pentadiagonal):
        work = getattr(local, "work", None)
        if work is None or work[1].size != P.n:
            ab, ipiv = np.empty((P.n, _LDAB)), np.empty(P.n, dtype=ipiv_dtype)
            work = local.work = [ab, ipiv, ab.ctypes.data, ipiv.ctypes.data, 0]
        ab, ipiv, ab_p, ipiv_p, generation = work
        # From here on the factors of the last generation are gone.
        generation = work[4] = generation + 1
        # dgbtrf factors this copy in place.  It does not read the kl fill
        # rows on entry, so what the last factors left there does not matter.
        ab[:, _KL:] = P.bands.T
        n, info = c_int(P.n), c_int(0)
        dgbtrf(n, n, kl, ku, ab_p, ldab, ipiv_p, info)
        if info.value < 0:
            raise ValueError(f"dgbtrf rejected argument {-info.value}")
        # LAPACK flags only exact zero pivots; apply the kernel's floor to U.
        # fmin skips NaN, so the test fails exactly when some |U_kk| <= floor.
        pivots, floor = np.abs(ab[:, 4]), _pivot_floor(P)
        if np.fmin.reduce(pivots) <= floor:
            raise _singular(int(np.flatnonzero(pivots <= floor)[0]))

        def solve(b) -> np.ndarray:
            if work[4] != generation:
                raise RuntimeError("band LU overwritten by a later factorization of the "
                                   "same size on its thread")
            # x is a C-contiguous copy of b, bound to a name until dgbtrs returns
            x, info = np.array(_check_rhs(P, b)), c_int(0)
            dgbtrs(b"N", n, kl, ku, nrhs, ab_p, ldab, ipiv_p, x.ctypes.data, n, info, 1)
            if info.value < 0:
                raise ValueError(f"dgbtrs rejected argument {-info.value}")
            return x

        return solve

    factor.backend = f"{dgbtrf.__name__} {dgbtrs.__name__} {os.path.basename(library)}"
    return factor


_lapack_factor = _lapack_band_lu(_umath_linalg.__file__)


def solve_backend() -> str:
    """What :func:`factor_banded` runs, as one plain string.

    ``"<dgbtrf symbol> <dgbtrs symbol> <library file name>"`` for LAPACK,
    or ``"reference"`` for the hand-rolled kernel where no symbol resolved.
    """
    return "reference" if _lapack_factor is None else _lapack_factor.backend


def factor_banded(P: Pentadiagonal):
    """Factor P by banded LU with partial pivoting confined to the band.

    Returns ``solve(b)``, which solves P x = b against these factors and
    may be called for any number of right-hand sides.  A pivot at or
    below ``PIVOT_RTOL * max|P|`` raises :class:`SingularMatrixError`
    here, whose ``row`` is the first such row.  On the LAPACK path each
    thread reuses one working array per size, so a later factorization
    of the same size on the same thread overwrites these factors; a
    solve against overwritten factors raises ``RuntimeError``.
    """
    if _lapack_factor is None:
        return reference_factor_banded(P)
    return _lapack_factor(P)


def power_iteration(P: Pentadiagonal, b0, tol: float = 1e-10, max_iters: int = 10_000) -> PowerIterationReport:
    """Dominant-eigenvalue probe b_{k+1} = P b_k / ||P b_k||, one product per iterate.

    Each ``y = P b`` serves the iterate's Rayleigh quotient ``b . y``, the
    next iterate ``y / ||y||`` and, for the last ``b``, the residual.
    Stops when successive Rayleigh quotients differ by less than ``tol``
    (vector stabilisation would never settle for negative dominant
    eigenvalues), at the first quotient that is not finite (unconverged)
    or after ``max_iters``.  Convergence additionally
    requires the eigen-residual to be below sqrt(tol) relative to the
    estimate; see :class:`PowerIterationReport`.  On an identity-plus-skew
    P the quotient is 1 for every b, so the probe stops after one iterate.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    b = np.asarray(b0, dtype=float).copy()
    if b.shape != (P.n,):
        raise ValueError(f"b0 must have shape ({P.n},), got {b.shape}")
    norm = np.linalg.norm(b)
    if norm == 0.0:
        raise ValueError("b0 must be nonzero")
    b /= norm

    y = matvec(P, b)
    rho = float(b @ y)
    for iterations in range(1, max_iters + 1):
        ynorm = np.linalg.norm(y)
        if ynorm == 0.0:
            # b is in the null space; the quotient is exactly 0 and stays there.
            rho, stabilized = 0.0, True
            break
        b = y / ynorm
        y = matvec(P, b)
        rho_next = float(b @ y)
        stabilized = abs(rho_next - rho) < tol
        rho = rho_next
        if stabilized or not math.isfinite(rho):  # a nan quotient never stabilizes
            break
    residual = float(np.linalg.norm(y - rho * b) / np.linalg.norm(b))
    converged = bool(stabilized and residual <= np.sqrt(tol) * (1.0 + abs(rho)))
    return PowerIterationReport(
        estimate=rho, iterations=iterations, converged=converged, residual=residual
    )


def skew_deviation(P: Pentadiagonal) -> float:
    """Sup-norm of (P + P.T)/2 - I: exactly 0 for identity-plus-skew P, nan for a nan entry."""
    dev = np.maximum(np.abs(P.diag - 1.0).max(), np.abs((P.sub1 + P.sup1) / 2.0).max())
    return float(np.maximum(dev, np.abs((P.sub2 + P.sup2) / 2.0).max()))


# Outward rounding of symbol_bound: 32 units of 2**-52, several times the
# few-ulp error of evaluating h at its computed maximiser or of summing delta.
_SYMBOL_RTOL = 32 * 2.0**-52


def _midrange(sup: np.ndarray, sub: np.ndarray):
    """``(m, r)``: the midrange m of the values of sup and -sub, and r = max |value - m|.

    ``lo + (hi - lo) / 2`` gives m exactly when all the values are equal.
    A nan among the values makes both nan (``np.minimum`` propagates it).
    """
    lo = float(np.minimum(sup.min(), -sub.max()))
    hi = float(np.maximum(sup.max(), -sub.min()))
    m = lo + (hi - lo) / 2.0
    return m, max(hi - m, m - lo)


def symbol_bound(P: Pentadiagonal) -> float:
    """Certified upper bound on sigma_max of any pentadiagonal P.

    Write P = T + D, where T is the identity-plus-skew Toeplitz matrix
    whose first and second superdiagonals are the constants c1 and c2
    (subdiagonals -c1, -c2), ck the midrange of the values of supk and
    -subk.  T is a section of the banded Toeplitz operator with symbol
    f = 1 + 2i h, h(theta) = c1 sin theta + c2 sin 2theta, and a section's
    norm is at most sup |f| (Boettcher & Grudsky, Spectral Properties of
    Banded Toeplitz Matrices, SIAM 2005).  |h| peaks where h' = 0, at
    cos theta = (-c1 +- sqrt(c1^2 + 32 c2^2)) / (8 c2), or at theta = pi/2
    when c2 = 0, so the sup is closed-form; it is rounded outward by
    ``_SYMBOL_RTOL``, except that h = 0 gives exactly 1.  Each band of D
    is a shifted diagonal matrix, so ||D||_2 <= delta = max|diag - 1| +
    2 r1 + 2 r2, with rk the largest distance of supk and -subk from ck.
    With delta = 0 (constant identity-plus-skew bands, such as the
    frozen-midpoint A) the bound is sup |f|; otherwise sup |f| + delta,
    rounded outward.  Only band reductions are used, and a non-finite
    entry gives a non-finite bound.
    """
    (c1, r1), (c2, r2) = _midrange(P.sup1, P.sub1), _midrange(P.sup2, P.sub2)
    if c2 == 0.0:
        h_max = abs(c1)
    else:
        # roots of 4 c2 c^2 + c1 c - 2 c2 = 0 without cancellation; their
        # product is -1/2, so at least one lies in [-1, 1]
        q = -(c1 + math.copysign(math.hypot(c1, 4.0 * math.sqrt(2.0) * c2), c1)) / 2.0
        h_max = 0.0
        for c in (q / (4.0 * c2), -2.0 * c2 / q):
            if abs(c) <= 1.0:
                t = math.acos(c)
                h_max = max(h_max, abs(c1 * math.sin(t) + c2 * math.sin(2.0 * t)))
    sup_f = 1.0 if h_max == 0.0 else math.hypot(1.0, 2.0 * h_max) * (1.0 + _SYMBOL_RTOL)
    delta = float(np.abs(P.diag - 1.0).max()) + 2.0 * (r1 + r2)
    return sup_f if delta == 0.0 else (sup_f + delta) * (1.0 + _SYMBOL_RTOL)


def invertibility_certificate(P: Pentadiagonal) -> CertificateReport:
    """Certify that P is invertible.

    A non-finite entry yields ``certified=False`` before anything else.
    Matrices of the form I + K with K skew-symmetric are certified
    analytically: their eigenvalues are 1 + i*mu with mu real, so every
    singular value is at least 1.  Anything else is factored by banded
    LU; pivot failure yields ``certified=False``.
    """
    if not math.isfinite(_pivot_floor(P)):  # two band reductions: finite iff every entry is
        return CertificateReport(method="finite-entries", certified=False,
                                 detail="P has a non-finite entry")
    if skew_deviation(P) == 0.0:
        return CertificateReport(
            method="identity-plus-skew",
            certified=True,
            detail="P = I + K with K^T = -K: eigenvalues 1 + i*mu, sigma_min >= 1",
        )
    try:
        factor_banded(P)
    except SingularMatrixError as exc:
        return CertificateReport(
            method="LU-factorization",
            certified=False,
            detail=f"elimination pivot failed at row {exc.row}",
        )
    return CertificateReport(
        method="LU-factorization",
        certified=True,
        detail="banded LU with partial pivoting completed with nonzero pivots",
    )
