"""Tests for pentadiagonal storage, banded LU, and the spectral probes."""

import copy
import importlib.util
import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvlab import banded
from kdvlab.analysis import _symbol_g
from kdvlab.banded import (
    Pentadiagonal,
    PowerIterationReport,
    factor_banded,
    invertibility_certificate,
    matvec,
    power_iteration,
    reference_factor_banded,
    skew_deviation,
    symbol_bound,
)
from kdvlab.cli import eigen_report_text
from kdvlab.config import parse_eigen_config
from kdvlab.crank_nicolson import assemble_implicit, assemble_lagged
from kdvlab.errors import SingularMatrixError

# The solve tests run each case through both solve paths: factor_banded
# (LAPACK band LU where it resolves) and the hand-rolled reference kernel,
# which is also the fallback where no LAPACK band LU is found.
FACTORS = {"factor_banded": factor_banded, "reference": reference_factor_banded}


def _scipy_openblas():
    """scipy's bundled OpenBLAS, which exports the LP64 ``scipy_dgbtrf_``."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    found = sorted(Path(spec.origin).parent.parent.glob("scipy.libs/libscipy_openblas*.so"))
    return str(found[0]) if found else None


SCIPY_OPENBLAS = _scipy_openblas()


def from_dense(M):
    """The Pentadiagonal with the five bands of the square matrix M; refuses entries off them."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if np.any(np.triu(M, 3)) or np.any(np.tril(M, -3)):
        raise ValueError("matrix has entries outside the five bands")
    return Pentadiagonal(*(np.diag(M, k) for k in (-2, -1, 0, 1, 2)))


def random_penta(rng, n, dominant=True):
    """Random pentadiagonal; diagonal boosted for guaranteed conditioning."""
    diag = rng.standard_normal(n)
    if dominant:
        diag = diag + np.sign(diag) * 6.0
    return Pentadiagonal(
        sub2=rng.standard_normal(n - 2),
        sub1=rng.standard_normal(n - 1),
        diag=diag,
        sup1=rng.standard_normal(n - 1),
        sup2=rng.standard_normal(n - 2),
    )


def pivoting_penta(rng, n):
    """D + K with D >= I diagonal and K skew, so sigma_min >= 1.

    |K| entries of 2..10 against a diagonal of 1..2 make partial pivoting
    swap rows from the first column on, while the conditioning stays good
    enough that two eliminations may differ only by rounding.
    """

    def skew_band(m):
        return rng.choice([-1.0, 1.0], m) * rng.uniform(2.0, 10.0, m)

    sub1, sub2 = skew_band(n - 1), skew_band(n - 2)
    return Pentadiagonal(sub2=sub2, sub1=sub1, diag=rng.uniform(1.0, 2.0, n),
                         sup1=-sub1, sup2=-sub2)


def skew_penta(gamma, quarter, n):
    """Identity-plus-skew pattern: bands (-q, +g, 1, -g, +q)."""
    return Pentadiagonal(
        sub2=np.full(n - 2, -quarter),
        sub1=np.full(n - 1, gamma),
        diag=np.ones(n),
        sup1=np.full(n - 1, -gamma),
        sup2=np.full(n - 2, quarter),
    )


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------

def test_band_length_validation():
    with pytest.raises(ValueError):
        Pentadiagonal(np.zeros(2), np.zeros(2), np.ones(5), np.zeros(4), np.zeros(3))
    with pytest.raises(ValueError):
        Pentadiagonal(np.zeros(2), np.zeros(3), np.ones(4), np.zeros(3), np.zeros(2))


def test_dense_round_trip():
    rng = np.random.default_rng(11)
    P = random_penta(rng, 9)
    Q = from_dense(P.to_dense())
    assert np.array_equal(Q.to_dense(), P.to_dense())
    dense = P.to_dense()
    dense[0, 4] = 1.0  # outside the five bands
    with pytest.raises(ValueError):
        from_dense(dense)


def test_transpose_swaps_bands():
    rng = np.random.default_rng(12)
    P = random_penta(rng, 8)
    assert np.array_equal(P.transpose().to_dense(), P.to_dense().T)


def test_band_array_is_lapack_band_order():
    rng = np.random.default_rng(15)
    for n in (5, 6, 9):
        P = random_penta(rng, n)
        dense = P.to_dense()
        assert P.bands.shape == (5, n)
        for i in range(n):
            for j in range(max(0, i - 2), min(n, i + 3)):
                assert P.bands[2 + i - j, j] == dense[i, j]
        corners = [P.bands[0, 0], P.bands[0, 1], P.bands[1, 0], P.bands[3, -1],
                   P.bands[4, -2], P.bands[4, -1]]
        assert corners == [0.0] * 6


def test_named_bands_are_views_of_the_band_array():
    P = random_penta(np.random.default_rng(16), 7)
    for band in (P.sub2, P.sub1, P.diag, P.sup1, P.sup2):
        assert np.shares_memory(band, P.bands)


def test_band_storage_is_read_only():
    P = random_penta(np.random.default_rng(17), 7)
    with pytest.raises(ValueError):
        P.bands[2, 0] = 5.0
    for band in (P.sub2, P.sub1, P.diag, P.sup1, P.sup2):
        with pytest.raises(ValueError):
            band[0] = 5.0
    with pytest.raises(AttributeError):
        P.diag = np.ones(7)
    with pytest.raises(AttributeError):
        P.bands = np.zeros((5, 7))


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_copies_keep_one_read_only_band_array_with_aliased_views(how):
    P = random_penta(np.random.default_rng(5), 9)
    clone = {"copy": copy.copy, "deepcopy": copy.deepcopy,
             "pickle": lambda value: pickle.loads(pickle.dumps(value))}[how](P)
    assert not clone.bands.flags.writeable
    for name in ("sub2", "sub1", "diag", "sup1", "sup2"):
        view = getattr(clone, name)
        assert np.shares_memory(view, clone.bands) and not view.flags.writeable
        assert np.array_equal(view, getattr(P, name))
    assert np.array_equal(clone.bands, P.bands)


def test_band_storage_copies_its_inputs():
    rng = np.random.default_rng(18)
    inputs = [rng.standard_normal(m) for m in (5, 6, 7, 6, 5)]
    P = Pentadiagonal(*inputs)
    before = P.to_dense()
    for arr in inputs:
        arr[:] = 99.0
    assert np.array_equal(P.to_dense(), before)


def test_bands_share_one_read_only_array_that_solves_leave_unchanged():
    rng = np.random.default_rng(19)
    for n in (5, 8, 40):
        P = pivoting_penta(rng, n)
        ab = P.bands
        assert ab.shape == (5, n) and ab.base is None and not ab.flags.writeable
        dense = P.to_dense()
        for i in range(n):
            for j in range(max(0, i - 2), min(n, i + 3)):
                assert ab[2 + i - j, j] == dense[i, j]
        for band in (P.sub2, P.sub1, P.diag, P.sup1, P.sup2):
            assert band.base is ab and not band.flags.writeable
        before = ab.tobytes()
        for factor in FACTORS.values():
            factor(P)(rng.standard_normal(n))
            assert ab.tobytes() == before


def test_lapack_solves_in_threads_match_the_reference():
    # each thread factors in a workspace of its own while ctypes drops the GIL
    rng = np.random.default_rng(20)
    cases = [(P, rng.standard_normal(P.n)) for P in (pivoting_penta(rng, 400) for _ in range(8))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda case: factor_banded(case[0])(case[1]), cases * 25, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (P, b), x in zip(cases * 25, got):
        assert np.array_equal(x, factor_banded(P)(b))
        assert np.max(np.abs(x - reference_factor_banded(P)(b))) <= 1e-12 * np.max(np.abs(x))


# ---------------------------------------------------------------------------
# matvec
# ---------------------------------------------------------------------------

def test_matvec_identity():
    x = np.arange(1.0, 8.0)
    assert np.array_equal(matvec(Pentadiagonal.identity(7), x), x)


def test_matvec_against_dense():
    rng = np.random.default_rng(13)
    P = random_penta(rng, 6)
    x = rng.standard_normal(6)
    dense = P.to_dense() @ x
    assert np.allclose(matvec(P, x), dense, rtol=1e-15, atol=1e-15)


def test_matvec_is_linear():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        P = random_penta(rng, n, dominant=False)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        lhs = matvec(P, a * x + b * y)
        rhs = a * matvec(P, x) + b * matvec(P, y)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def test_matvec_of_transpose_matches_dense():
    rng = np.random.default_rng(15)
    P = random_penta(rng, 17, dominant=False)
    x = rng.standard_normal(17)
    assert np.allclose(matvec(P.transpose(), x), P.to_dense().T @ x, rtol=1e-14, atol=1e-14)


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        matvec(Pentadiagonal.identity(6), np.zeros(5))


# ---------------------------------------------------------------------------
# banded solve
# ---------------------------------------------------------------------------

def test_solve_identity():
    b = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(factor_banded(Pentadiagonal.identity(5))(b), b)


def test_solve_matches_dense_oracle_large():
    rng = np.random.default_rng(16)
    P = random_penta(rng, 200)
    b = rng.standard_normal(200)
    x = factor_banded(P)(b)
    assert np.max(np.abs(x - np.linalg.solve(P.to_dense(), b))) <= 1e-10


def test_solve_matches_dense_oracle_many_sizes():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(5, 65))
        P = random_penta(rng, n)
        b = rng.standard_normal(n)
        expected = np.linalg.solve(P.to_dense(), b)
        for name, factor in FACTORS.items():
            assert np.max(np.abs(factor(P)(b) - expected)) <= 1e-10, name


def test_solve_classic_band_pattern_residual():
    # constant bands (-250, 500, 1, -500, 250): frozen-coefficient implicit
    # matrix at alpha = 1000, beta = 1, u = 0
    P = skew_penta(500.0, 250.0, 50)
    rng = np.random.default_rng(18)
    b = rng.standard_normal(50)
    for name, factor in FACTORS.items():
        x = factor(P)(b)
        assert np.max(np.abs(matvec(P, x) - b)) / np.max(np.abs(b)) <= 1e-9, name


def test_solve_round_trip_through_matvec():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(6, 80))
        P = random_penta(rng, n)
        x = rng.standard_normal(n)
        for name, factor in FACTORS.items():
            back = factor(P)(matvec(P, x))
            assert np.max(np.abs(back - x)) <= 1e-8, name


def test_solve_skew_structure_never_amplifies():
    # sigma_min >= 1 for I + skew, so the inverse is a contraction
    rng = np.random.default_rng(20)
    for gamma, quarter in [(500.0, 250.0), (5000.0, 2500.0), (0.3, 0.02)]:
        P = skew_penta(gamma, quarter, 60)
        b = rng.standard_normal(60)
        for name, factor in FACTORS.items():
            x = factor(P)(b)
            assert np.linalg.norm(x) <= np.linalg.norm(b) + 1e-8, name


def test_solve_singular_reports_row():
    # an exact zero pivot, and a nonzero one below PIVOT_RTOL * max|P|
    # that LAPACK's own zero-pivot test would let through
    for pivot in (0.0, 1e-300):
        P = Pentadiagonal(
            sub2=np.zeros(4),
            sub1=np.zeros(5),
            diag=np.array([1.0, 1.0, pivot, 1.0, 1.0, 1.0]),
            sup1=np.zeros(5),
            sup2=np.zeros(4),
        )
        for name, factor in FACTORS.items():
            with pytest.raises(SingularMatrixError) as err:
                factor(P)(np.ones(6))
            assert err.value.row == 2, (name, pivot)


def test_solve_needs_pivoting():
    # zero on the diagonal but solvable: partial pivoting must kick in
    dense = np.array(
        [
            [0.0, 2.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 2.0, 1.0, 0.0],
            [0.5, 1.0, 0.0, 2.0, 1.0],
            [0.0, 0.5, 1.0, 0.0, 2.0],
            [0.0, 0.0, 0.5, 1.0, 3.0],
        ]
    )
    P = from_dense(dense)
    b = np.array([1.0, -2.0, 0.5, 3.0, 1.0])
    for name, factor in FACTORS.items():
        x = factor(P)(b)
        assert np.allclose(dense @ x, b, rtol=0.0, atol=1e-12), name


def test_solve_agrees_with_reference_kernel_when_pivoting():
    rng = np.random.default_rng(26)
    for _ in range(100):
        P = pivoting_penta(rng, int(rng.integers(5, 201)))
        assert abs(P.sub1[0]) > abs(P.diag[0])
        b = rng.standard_normal(P.n)
        expected = reference_factor_banded(P)(b)
        x = factor_banded(P)(b)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(5, 200), seed=st.integers(0, 2**32 - 1))
def test_pivoting_solves_agree_with_both_references(n, seed):
    rng = np.random.default_rng(seed)
    P = pivoting_penta(rng, n)
    assert abs(P.sub1[0]) > abs(P.diag[0])  # the first column already swaps rows
    b = rng.standard_normal(n)
    x = factor_banded(P)(b)
    for expected in (reference_factor_banded(P)(b), np.linalg.solve(P.to_dense(), b)):
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(5, 200),
    seed=st.integers(0, 2**32 - 1),
    where=st.floats(0.0, 1.0),
    scale=st.sampled_from([0.0, 1e-300, 0.5, 1.0]),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_planted_sub_floor_pivot_fails_at_its_row_on_both_paths(n, seed, where, scale, sign):
    # Decouple rows and columns >= r from those < r and clear column r below
    # the diagonal: elimination then meets column r with the planted pivot
    # alone, |pivot| = scale * PIVOT_RTOL * max|P| <= the floor.
    rng = np.random.default_rng(seed)
    r = min(int(where * n), n - 1)
    dense = pivoting_penta(rng, n).to_dense()
    dense[:r, r:] = dense[r:, :r] = 0.0
    dense[r + 1:, r] = dense[r, r + 1:] = 0.0
    dense[r, r] = 0.0
    dense[r, r] = sign * scale * banded.PIVOT_RTOL * np.max(np.abs(dense))
    P = from_dense(dense)
    rows = []
    for factor in FACTORS.values():
        with pytest.raises(SingularMatrixError) as err:
            factor(P)(rng.standard_normal(n))
        rows.append(err.value.row)
    assert rows == [r, r]


def test_one_factorization_solves_many_right_hand_sides():
    rng = np.random.default_rng(28)
    for n in (5, 6, 57, 400):
        P = pivoting_penta(rng, n)
        rhs = rng.standard_normal((4, n))
        expected = {"factor_banded": [factor_banded(P)(b) for b in rhs],
                    "reference": [reference_factor_banded(P)(b) for b in rhs]}
        for name, factor in FACTORS.items():
            solve = factor(P)
            for b, x, own in zip(rhs, expected["factor_banded"], expected[name]):
                got = solve(b)
                assert np.array_equal(got, own), (name, n)  # factor-then-solve, bit for bit
                assert np.max(np.abs(got - x)) <= 1e-12 * np.max(np.abs(x)), (name, n)


def test_pivot_floor_is_checked_once_at_factorization(monkeypatch):
    singular = Pentadiagonal(np.zeros(4), np.zeros(5), np.array([1.0, 1.0, 1e-300, 1.0, 1.0, 1.0]),
                             np.zeros(5), np.zeros(4))
    for name, factor in FACTORS.items():
        with pytest.raises(SingularMatrixError) as err:
            factor(singular)
        assert err.value.row == 2, name
    floors = []
    real = banded._pivot_floor
    monkeypatch.setattr(banded, "_pivot_floor", lambda P: floors.append(P) or real(P))
    rng = np.random.default_rng(30)
    P = pivoting_penta(rng, 40)
    for name, factor in FACTORS.items():
        floors.clear()
        solve = factor(P)
        for _ in range(3):
            solve(rng.standard_normal(40))
        assert floors == [P], name


@pytest.mark.skipif(banded._lapack_factor is None, reason="no LAPACK band LU resolved")
def test_a_solve_against_overwritten_factors_raises():
    rng = np.random.default_rng(29)
    P, Q, R = pivoting_penta(rng, 50), pivoting_penta(rng, 50), pivoting_penta(rng, 60)
    b = rng.standard_normal(50)
    first = factor_banded(P)
    x = first(b)
    second = factor_banded(Q)  # same size, same thread: reuses and overwrites first's array
    y = second(b)
    with pytest.raises(RuntimeError, match="overwritten"):
        first(b)
    assert np.array_equal(factor_banded(P)(b), x)
    with pytest.raises(RuntimeError, match="overwritten"):
        second(b)
    second = factor_banded(Q)
    factor_banded(R)  # another size: the thread moves to a new working array
    assert np.array_equal(factor_banded(P)(b), x)  # and then to another one at size 50
    assert np.array_equal(second(b), y)  # whose factors no later factorization touched
    assert np.max(np.abs(x - reference_factor_banded(P)(b))) <= 1e-12 * np.max(np.abs(x))


def test_band_lu_resolution_falls_back_when_library_is_missing(tmp_path):
    assert banded._lapack_band_lu(str(tmp_path / "no-such-lapack.so")) is None


@pytest.mark.skipif(SCIPY_OPENBLAS is None, reason="scipy's bundled OpenBLAS is not installed")
def test_lp64_band_lu_agrees_with_factor_banded():
    lp64 = banded._lapack_band_lu(SCIPY_OPENBLAS)
    assert lp64 is not None
    rng = np.random.default_rng(27)
    for _ in range(20):
        P = pivoting_penta(rng, int(rng.integers(5, 201)))
        b = rng.standard_normal(P.n)
        expected = reference_factor_banded(P)(b)
        assert np.max(np.abs(lp64(P)(b) - expected)) <= 1e-12 * np.max(np.abs(expected))
    for pivot in (0.0, 1e-300):
        P = Pentadiagonal(np.zeros(4), np.zeros(5), np.array([1.0, 1.0, pivot, 1.0, 1.0, 1.0]),
                          np.zeros(5), np.zeros(4))
        with pytest.raises(SingularMatrixError) as err:
            lp64(P)
        assert err.value.row == 2


# ---------------------------------------------------------------------------
# power iteration
# ---------------------------------------------------------------------------

def test_power_iteration_identity():
    rep = power_iteration(Pentadiagonal.identity(10), np.ones(10), tol=1e-10, max_iters=100)
    assert rep.estimate == pytest.approx(1.0, abs=1e-12)
    assert rep.converged
    assert rep.iterations == 1


def test_power_iteration_dominant_diagonal():
    n = 10
    D = Pentadiagonal(np.zeros(n - 2), np.zeros(n - 1), np.linspace(1.0, 3.0, n),
                      np.zeros(n - 1), np.zeros(n - 2))
    rep = power_iteration(D, np.ones(n), tol=1e-12, max_iters=100_000)
    assert rep.estimate == pytest.approx(3.0, abs=1e-8)
    assert rep.converged


def test_power_iteration_rejects_zero_start():
    with pytest.raises(ValueError):
        power_iteration(Pentadiagonal.identity(6), np.zeros(6), tol=1e-10, max_iters=10)


def test_power_iteration_fails_honestly_on_skew_spectrum():
    # I + K has a complex dominant pair; the Rayleigh quotient is exactly 1
    # every sweep while the residual stays O(gamma).
    P = skew_penta(500.0, 250.0, 50)
    rep = power_iteration(P, np.ones(50), tol=1e-10, max_iters=10_000)
    assert (not rep.converged) or rep.residual > 1e-2


def test_power_iteration_matches_gram_on_spd():
    # on a symmetric positive definite S the dominant eigenvalue is sigma_max,
    # the square root of the dense Gram matrix's largest eigenvalue
    rng = np.random.default_rng(23)
    for _ in range(3):
        n = int(rng.integers(10, 40))
        off1 = rng.standard_normal(n - 1) * 0.5
        off2 = rng.standard_normal(n - 2) * 0.5
        diag = np.abs(rng.standard_normal(n)) + 4.0
        S = Pentadiagonal(off2, off1, diag, off1, off2)
        M = S.to_dense()
        r_plain = power_iteration(S, np.ones(n), tol=1e-14, max_iters=200_000)
        assert r_plain.estimate == pytest.approx(np.linalg.eigvalsh(M)[-1], rel=1e-6)
        assert r_plain.estimate == pytest.approx(np.sqrt(np.linalg.eigvalsh(M.T @ M)[-1]), rel=1e-6)


def _count_products(monkeypatch):
    """Wrap banded.matvec with a call counter."""
    counts = {"matvec": 0}

    def counted(P, x, original=banded.matvec):
        counts["matvec"] += 1
        return original(P, x)

    monkeypatch.setattr(banded, "matvec", counted)
    return counts


def test_power_probes_compute_one_product_per_iterate(monkeypatch):
    # The plain quotient does not settle within k sweeps once a graded
    # diagonal breaks b.(I + K)b = 1.
    k = 25
    P = skew_penta(500.0, 250.0, 50)
    graded = Pentadiagonal(P.sub2, P.sub1, np.linspace(1.0, 2.0, 50), P.sup1, P.sup2)
    counts = _count_products(monkeypatch)
    assert power_iteration(graded, np.ones(50), max_iters=k).iterations == k
    assert counts == {"matvec": k + 1}


def test_power_probes_stop_in_the_null_space():
    n = 8
    Z = Pentadiagonal(np.zeros(n - 2), np.zeros(n - 1), np.zeros(n), np.zeros(n - 1), np.zeros(n - 2))
    expected = PowerIterationReport(estimate=0.0, iterations=1, converged=True, residual=0.0)
    assert power_iteration(Z, np.ones(n)) == expected


# ---------------------------------------------------------------------------
# symbol bound
# ---------------------------------------------------------------------------

def _symbol_sup(h):
    """sup over [0, pi] of |1 + 2i h|, sampled: (max on 10^5 angles, refined max).

    The coarse grid can fall short of the sup by 1e-10 relative.  The
    refined max also samples 10^5 + 1 angles within one grid step of each
    of the four largest sampled local maxima, which leaves it short by far
    less than 1e-12.
    """
    theta = np.linspace(0.0, np.pi, 100_000)
    f = np.hypot(1.0, 2.0 * h(theta))
    step = theta[1]
    inner = f[1:-1]
    peaks = np.flatnonzero((inner >= f[:-2]) & (inner >= f[2:])) + 1
    refined = f.max()
    for i in peaks[np.argsort(f[peaks])[-4:]]:
        near = np.linspace(theta[i] - step, theta[i] + step, 100_001)
        refined = max(refined, np.hypot(1.0, 2.0 * h(near)).max())
    return f.max(), refined


def _default_lagged(nx, gamma_mode="frozen-midpoint"):
    """The eigen command's matrix: lagged A from the default initial state."""
    cfg = parse_eigen_config(f"nx = {nx}\ngamma_mode = {gamma_mode}")
    u = cfg.initial_field()
    A, _ = assemble_lagged(u, cfg.cn_config())
    return A, u, cfg


def _sigma_max(P):
    return np.linalg.svd(P.to_dense(), compute_uv=False)[0]


def _closed_form(c1, c2):
    """sup |1 + 2i (c1 sin theta + c2 sin 2theta)| in closed form, rounded outward.

    The bound for constant identity-plus-skew bands, transcribed from its
    derivation in ``symbol_bound``'s docstring, with no midrange or delta.
    """
    if c2 == 0.0:
        h_max = abs(c1)
    else:
        q = -(c1 + math.copysign(math.hypot(c1, 4.0 * math.sqrt(2.0) * c2), c1)) / 2.0
        h_max = 0.0
        for c in (q / (4.0 * c2), -2.0 * c2 / q):
            if abs(c) <= 1.0:
                t = math.acos(c)
                h_max = max(h_max, abs(c1 * math.sin(t) + c2 * math.sin(2.0 * t)))
    return 1.0 if h_max == 0.0 else math.hypot(1.0, 2.0 * h_max) * (1.0 + banded._SYMBOL_RTOL)


@settings(max_examples=40, deadline=None)
@given(
    c1=st.floats(min_value=-1e4, max_value=1e4),
    c2=st.floats(min_value=-1e4, max_value=1e4),
    n=st.integers(min_value=5, max_value=200),
)
def test_symbol_bound_is_a_tight_upper_bound(c1, c2, n):
    P = skew_penta(-c1, c2, n)  # sup1 = c1, sup2 = c2
    U = symbol_bound(P)
    assert type(U) is float and U == _closed_form(c1, c2)
    assert _sigma_max(P) <= U
    coarse, refined = _symbol_sup(lambda t: c1 * np.sin(t) + c2 * np.sin(2.0 * t))
    assert coarse <= refined <= U
    assert U - refined <= 1e-12 * refined


def test_symbol_bound_of_the_identity_is_one():
    assert symbol_bound(Pentadiagonal.identity(9)) == 1.0


def test_symbol_bound_covers_matrices_that_are_not_constant_identity_plus_skew():
    A, u, cfg = _default_lagged(54, "row-varying")
    A_implicit, _ = assemble_implicit(u, u, cfg.cn_config())
    P = skew_penta(500.0, 250.0, 50)
    symmetric = Pentadiagonal(P.sup2, P.sup1, P.diag, P.sup1, P.sup2)  # constant, not I + K
    matrices = [A, A_implicit, symmetric]
    for band in ("sup1", "sup2"):
        bands = {name: getattr(P, name).copy() for name in ("sub2", "sub1", "diag", "sup1", "sup2")}
        bands[band][7] += 1.0
        bands["sub" + band[-1]] = -bands[band]
        perturbed = Pentadiagonal(**bands)
        assert skew_deviation(perturbed) == 0.0
        matrices.append(perturbed)
    for M in matrices:
        U = symbol_bound(M)
        assert type(U) is float and _sigma_max(M) <= U
    assert symbol_bound(A) == 1.0029197086308521  # sigma_max is 1.000788...


_BAND_LENGTHS = (("sub2", 2), ("sub1", 1), ("diag", 0), ("sup1", 1), ("sup2", 2))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=512),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scales=st.lists(st.floats(min_value=-3.0, max_value=4.0), min_size=5, max_size=5),
    spread=st.floats(min_value=-12.0, max_value=0.0),
    near_skew=st.booleans(),
)
def test_symbol_bound_is_an_upper_bound_for_every_pentadiagonal(n, seed, scales, spread, near_skew):
    """Entry scales 1e-3..1e4 per band; near_skew draws I + K with row-varying bands.

    In the near-skew case each band is a constant plus a variation of
    relative size 10**spread, and each sub band is minus its sup band with
    its own variation, as in the row-varying A.
    """
    rng = np.random.default_rng(seed)
    sizes = {name: 10.0**scale for (name, _), scale in zip(_BAND_LENGTHS, scales)}
    bands = {}
    for name, short in _BAND_LENGTHS:
        size = sizes[name]
        if near_skew:
            base = 1.0 if name == "diag" else size * rng.standard_normal()
            bands[name] = base + size * 10.0**spread * rng.standard_normal(n - short)
        else:
            bands[name] = size * rng.standard_normal(n - short)
    if near_skew:
        for k in "12":
            variation = sizes["sup" + k] * 10.0**spread * rng.standard_normal(n - int(k))
            bands["sub" + k] = -bands["sup" + k] + variation
    P = Pentadiagonal(**bands)
    U = symbol_bound(P)
    assert type(U) is float and math.isfinite(U)
    assert _sigma_max(P) <= U


@settings(max_examples=40, deadline=None)
@given(
    band=st.sampled_from([name for name, _ in _BAND_LENGTHS]),
    where=st.integers(min_value=0, max_value=20),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    base=st.sampled_from(["identity", "skew", "random"]),
)
def test_a_non_finite_entry_gives_a_non_finite_bound(band, where, bad, base):
    n = 12
    P = {"identity": Pentadiagonal.identity(n), "skew": skew_penta(500.0, 250.0, n),
         "random": random_penta(np.random.default_rng(where), n, dominant=False)}[base]
    bands = {name: getattr(P, name).copy() for name, _ in _BAND_LENGTHS}
    bands[band][where % bands[band].size] = bad
    assert not math.isfinite(symbol_bound(Pentadiagonal(**bands)))


@pytest.mark.parametrize("nx", [54, 4001])
def test_symbol_bound_matches_the_cn_symbol(nx):
    # A's symbol is 1 - z/2 = 1 - i g/2, with z = i g the operator symbol at u0 = u_mid
    A, u, cfg = _default_lagged(nx)
    u_mid = u.values[(u.grid.nx - 1) // 2]
    params = cfg.scheme_params()
    _, sup = _symbol_sup(lambda t: -_symbol_g(np.sin(t), np.sin(2.0 * t), params.alpha, params.beta, u_mid) / 4.0)
    U = symbol_bound(A)
    assert sup <= U
    assert U - sup <= 1e-12 * sup
    assert U == {54: 1.000592072959066, 4001: 12990.705855458718}[nx]


def test_eigen_report_makes_only_the_plain_probes_products(monkeypatch):
    # the default row-varying eigen matrix: sigma_max costs no product at all
    A, _, _ = _default_lagged(4001, "row-varying")
    k = power_iteration(A, np.ones(A.n)).iterations
    counts = _count_products(monkeypatch)
    report = eigen_report_text(A)
    assert counts == {"matvec": k + 1}
    assert "symbol_bound: sigma_max = 12990.730975188442 kind = upper-bound\n" in report


# ---------------------------------------------------------------------------
# invertibility certificate
# ---------------------------------------------------------------------------

def test_certificate_identity_plus_skew():
    rng = np.random.default_rng(24)
    for _ in range(10):
        gamma = float(rng.uniform(0.01, 5000.0))
        quarter = float(rng.uniform(0.01, 2500.0))
        P = skew_penta(gamma, quarter, 40)
        assert skew_deviation(P) == 0.0
        rep = invertibility_certificate(P)
        assert rep.certified
        assert rep.method == "identity-plus-skew"


def test_certificate_identity_and_generic():
    assert invertibility_certificate(Pentadiagonal.identity(7)).certified
    rng = np.random.default_rng(25)
    P = random_penta(rng, 30)
    rep = invertibility_certificate(P)
    assert rep.certified
    assert rep.method == "LU-factorization"


def test_certificate_rejects_singular():
    P = Pentadiagonal(
        sub2=np.zeros(4),
        sub1=np.zeros(5),
        diag=np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0]),
        sup1=np.zeros(5),
        sup2=np.zeros(4),
    )
    rep = invertibility_certificate(P)
    assert not rep.certified
    assert rep.method == "LU-factorization"


_MIRROR = {"sub2": "sup2", "sub1": "sup1", "diag": "diag", "sup1": "sub1", "sup2": "sub2"}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("base", ["identity", "skew", "mirrored-skew", "random"])
def test_a_non_finite_entry_is_never_certified(base, bad):
    # mirrored-skew keeps P = I + K in shape: the mirror entry gets -bad, so
    # (P + P^T)/2 - I reads nan there; identity and random go to the LU path
    n = 12
    for band, _ in _BAND_LENGTHS:
        for where in (0, 5, -1):
            P = {"identity": Pentadiagonal.identity(n), "skew": skew_penta(500.0, 250.0, n),
                 "random": random_penta(np.random.default_rng(31), n)}[base.replace("mirrored-", "")]
            bands = {name: getattr(P, name).copy() for name, _ in _BAND_LENGTHS}
            bands[band][where] = bad
            if base == "mirrored-skew" and band != "diag":
                bands[_MIRROR[band]][where] = -bad
            P = Pentadiagonal(**bands)
            rep = invertibility_certificate(P)
            assert (rep.certified, rep.method) == (False, "finite-entries"), (band, where)
            assert rep.detail == "P has a non-finite entry"
            with np.errstate(invalid="ignore"):  # inf + -inf is nan, and numpy says so
                deviation = skew_deviation(P)
            assert math.isnan(deviation) if math.isnan(bad) else not math.isfinite(deviation)
