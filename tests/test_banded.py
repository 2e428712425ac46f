"""Tests for pentadiagonal storage, banded LU, and the spectral probes."""

import importlib.util
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvlab import banded
from kdvlab.analysis import _cn_symbol_g
from kdvlab.banded import (
    Pentadiagonal,
    PowerIterationReport,
    dense_reference_solve,
    gram_power_iteration,
    invertibility_certificate,
    matvec,
    power_iteration,
    reference_solve_banded,
    skew_deviation,
    solve_banded,
    symbol_bound,
)
from kdvlab.config import parse_eigen_config
from kdvlab.crank_nicolson import assemble_implicit, assemble_lagged
from kdvlab.errors import SingularMatrixError

# The solve tests run each case through both solve paths: solve_banded
# (LAPACK band LU where it resolves) and the hand-rolled reference kernel,
# which is also the fallback where no LAPACK band LU is found.
SOLVERS = {"solve_banded": solve_banded, "reference": reference_solve_banded}


def _scipy_openblas():
    """scipy's bundled OpenBLAS, which exports the LP64 ``scipy_dgbtrf_``."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    found = sorted(Path(spec.origin).parent.parent.glob("scipy.libs/libscipy_openblas*.so"))
    return str(found[0]) if found else None


SCIPY_OPENBLAS = _scipy_openblas()


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
    Q = Pentadiagonal.from_dense(P.to_dense())
    assert np.array_equal(Q.to_dense(), P.to_dense())
    dense = P.to_dense()
    dense[0, 4] = 1.0  # outside the five bands
    with pytest.raises(ValueError):
        Pentadiagonal.from_dense(dense)


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
        for solve in SOLVERS.values():
            solve(P, rng.standard_normal(n))
            assert ab.tobytes() == before


def test_lapack_solves_in_threads_match_the_reference():
    # each thread factors in a workspace of its own while ctypes drops the GIL
    rng = np.random.default_rng(20)
    cases = [(P, rng.standard_normal(P.n)) for P in (pivoting_penta(rng, 400) for _ in range(8))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda case: solve_banded(*case), cases * 25, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (P, b), x in zip(cases * 25, got):
        assert np.array_equal(x, solve_banded(P, b))
        assert np.max(np.abs(x - reference_solve_banded(P, b))) <= 1e-12 * np.max(np.abs(x))


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
    assert np.array_equal(solve_banded(Pentadiagonal.identity(5), b), b)


def test_solve_matches_dense_oracle_large():
    rng = np.random.default_rng(16)
    P = random_penta(rng, 200)
    b = rng.standard_normal(200)
    x = solve_banded(P, b)
    assert np.max(np.abs(x - dense_reference_solve(P.to_dense(), b))) <= 1e-10


def test_solve_matches_dense_oracle_many_sizes():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(5, 65))
        P = random_penta(rng, n)
        b = rng.standard_normal(n)
        expected = dense_reference_solve(P.to_dense(), b)
        for name, solve in SOLVERS.items():
            assert np.max(np.abs(solve(P, b) - expected)) <= 1e-10, name


def test_solve_classic_band_pattern_residual():
    # constant bands (-250, 500, 1, -500, 250): frozen-coefficient implicit
    # matrix at alpha = 1000, beta = 1, u = 0
    P = skew_penta(500.0, 250.0, 50)
    rng = np.random.default_rng(18)
    b = rng.standard_normal(50)
    for name, solve in SOLVERS.items():
        x = solve(P, b)
        assert np.max(np.abs(matvec(P, x) - b)) / np.max(np.abs(b)) <= 1e-9, name


def test_solve_round_trip_through_matvec():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(6, 80))
        P = random_penta(rng, n)
        x = rng.standard_normal(n)
        for name, solve in SOLVERS.items():
            back = solve(P, matvec(P, x))
            assert np.max(np.abs(back - x)) <= 1e-8, name


def test_solve_skew_structure_never_amplifies():
    # sigma_min >= 1 for I + skew, so the inverse is a contraction
    rng = np.random.default_rng(20)
    for gamma, quarter in [(500.0, 250.0), (5000.0, 2500.0), (0.3, 0.02)]:
        P = skew_penta(gamma, quarter, 60)
        b = rng.standard_normal(60)
        for name, solve in SOLVERS.items():
            x = solve(P, b)
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
        for name, solve in SOLVERS.items():
            with pytest.raises(SingularMatrixError) as err:
                solve(P, np.ones(6))
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
    P = Pentadiagonal.from_dense(dense)
    b = np.array([1.0, -2.0, 0.5, 3.0, 1.0])
    for name, solve in SOLVERS.items():
        x = solve(P, b)
        assert np.allclose(dense @ x, b, rtol=0.0, atol=1e-12), name


def test_solve_agrees_with_reference_kernel_when_pivoting():
    rng = np.random.default_rng(26)
    for _ in range(100):
        P = pivoting_penta(rng, int(rng.integers(5, 201)))
        assert abs(P.sub1[0]) > abs(P.diag[0])
        b = rng.standard_normal(P.n)
        expected = reference_solve_banded(P, b)
        x = solve_banded(P, b)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(5, 200), seed=st.integers(0, 2**32 - 1))
def test_pivoting_solves_agree_with_both_references(n, seed):
    rng = np.random.default_rng(seed)
    P = pivoting_penta(rng, n)
    assert abs(P.sub1[0]) > abs(P.diag[0])  # the first column already swaps rows
    b = rng.standard_normal(n)
    x = solve_banded(P, b)
    for expected in (reference_solve_banded(P, b), dense_reference_solve(P.to_dense(), b)):
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
    P = Pentadiagonal.from_dense(dense)
    rows = []
    for solve in SOLVERS.values():
        with pytest.raises(SingularMatrixError) as err:
            solve(P, rng.standard_normal(n))
        rows.append(err.value.row)
    assert rows == [r, r]


def test_band_lu_resolution_falls_back_when_library_is_missing(tmp_path):
    assert banded._lapack_solver(str(tmp_path / "no-such-lapack.so")) is None


@pytest.mark.skipif(SCIPY_OPENBLAS is None, reason="scipy's bundled OpenBLAS is not installed")
def test_lp64_band_lu_agrees_with_solve_banded():
    lp64 = banded._lapack_solver(SCIPY_OPENBLAS)
    assert lp64 is not None
    rng = np.random.default_rng(27)
    for _ in range(20):
        P = pivoting_penta(rng, int(rng.integers(5, 201)))
        b = rng.standard_normal(P.n)
        expected = reference_solve_banded(P, b)
        assert np.max(np.abs(lp64(P, b) - expected)) <= 1e-12 * np.max(np.abs(expected))
    for pivot in (0.0, 1e-300):
        P = Pentadiagonal(np.zeros(4), np.zeros(5), np.array([1.0, 1.0, pivot, 1.0, 1.0, 1.0]),
                          np.zeros(5), np.zeros(4))
        with pytest.raises(SingularMatrixError) as err:
            lp64(P, np.ones(6))
        assert err.value.row == 2


# ---------------------------------------------------------------------------
# dense reference oracle
# ---------------------------------------------------------------------------

def test_dense_reference_identity_and_2x2():
    assert np.array_equal(dense_reference_solve(np.eye(3), np.array([1.0, 2.0, 3.0])),
                          np.array([1.0, 2.0, 3.0]))
    x = dense_reference_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], rtol=0.0, atol=1e-14)


def test_dense_reference_residual_self_check():
    rng = np.random.default_rng(21)
    M = rng.standard_normal((50, 50)) + 10.0 * np.eye(50)
    b = rng.standard_normal(50)
    x = dense_reference_solve(M, b)
    assert np.max(np.abs(M @ x - b)) <= 1e-10 * np.max(np.abs(b))


def test_dense_reference_rejects_singular_and_oversized():
    with pytest.raises(SingularMatrixError):
        dense_reference_solve(np.zeros((3, 3)), np.ones(3))
    with pytest.raises(ValueError):
        dense_reference_solve(np.eye(513), np.ones(513))


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


# ---------------------------------------------------------------------------
# gram power iteration
# ---------------------------------------------------------------------------

def test_gram_identity_and_diagonal():
    assert gram_power_iteration(Pentadiagonal.identity(8)).estimate == pytest.approx(1.0, abs=1e-10)
    n = 10
    D = Pentadiagonal(np.zeros(n - 2), np.zeros(n - 1), np.arange(1.0, n + 1.0),
                      np.zeros(n - 1), np.zeros(n - 2))
    rep = gram_power_iteration(D, tol=1e-13, max_iters=100_000)
    assert rep.estimate == pytest.approx(float(n), rel=1e-8)


def test_gram_matches_dense_gram_oracle():
    rng = np.random.default_rng(7)
    n = 40
    P = random_penta(rng, n, dominant=False)
    rep = gram_power_iteration(P, tol=1e-14, max_iters=1_000_000)

    # independent oracle: power iteration on a dense Gram matrix, budget 1e6
    G = P.to_dense().T @ P.to_dense()
    b = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(1_000_000):
        y = G @ b
        b = y / np.linalg.norm(y)
        new = float(b @ (G @ b))
        if abs(new - lam) < 1e-15 * max(1.0, abs(new)):
            lam = new
            break
        lam = new
    assert rep.estimate == pytest.approx(np.sqrt(lam), rel=1e-6)


def test_power_iteration_matches_gram_on_spd():
    rng = np.random.default_rng(23)
    for _ in range(3):
        n = int(rng.integers(10, 40))
        off1 = rng.standard_normal(n - 1) * 0.5
        off2 = rng.standard_normal(n - 2) * 0.5
        diag = np.abs(rng.standard_normal(n)) + 4.0
        S = Pentadiagonal(off2, off1, diag, off1, off2)
        r_plain = power_iteration(S, np.ones(n), tol=1e-14, max_iters=200_000)
        r_gram = gram_power_iteration(S, tol=1e-14, max_iters=200_000)
        assert r_plain.estimate == pytest.approx(r_gram.estimate, rel=1e-6)


def _count_products(monkeypatch):
    """Wrap banded.matvec with a call counter."""
    counts = {"matvec": 0}

    def counted(P, x, original=banded.matvec):
        counts["matvec"] += 1
        return original(P, x)

    monkeypatch.setattr(banded, "matvec", counted)
    return counts


def test_power_probes_compute_one_product_per_iterate(monkeypatch):
    # Neither quotient settles within k sweeps: the Gram quotient on I + K,
    # and the plain quotient once a graded diagonal breaks b.(I + K)b = 1.
    k = 25
    P = skew_penta(500.0, 250.0, 50)
    graded = Pentadiagonal(P.sub2, P.sub1, np.linspace(1.0, 2.0, 50), P.sup1, P.sup2)
    counts = _count_products(monkeypatch)
    assert power_iteration(graded, np.ones(50), max_iters=k).iterations == k
    assert counts == {"matvec": k + 1}
    counts["matvec"] = 0
    assert gram_power_iteration(P, max_iters=k).iterations == k
    assert counts == {"matvec": 2 * (k + 1)}  # P v, then P.T (P v)


def test_power_probes_stop_in_the_null_space():
    n = 8
    Z = Pentadiagonal(np.zeros(n - 2), np.zeros(n - 1), np.zeros(n), np.zeros(n - 1), np.zeros(n - 2))
    expected = PowerIterationReport(estimate=0.0, iterations=1, converged=True, residual=0.0)
    assert power_iteration(Z, np.ones(n)) == expected
    assert gram_power_iteration(Z) == expected


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


@settings(max_examples=40, deadline=None)
@given(
    c1=st.floats(min_value=-1e4, max_value=1e4),
    c2=st.floats(min_value=-1e4, max_value=1e4),
    n=st.integers(min_value=5, max_value=200),
)
def test_symbol_bound_is_a_tight_upper_bound(c1, c2, n):
    P = skew_penta(-c1, c2, n)  # sup1 = c1, sup2 = c2
    U = symbol_bound(P)
    assert np.linalg.svd(P.to_dense(), compute_uv=False)[0] <= U
    coarse, refined = _symbol_sup(lambda t: c1 * np.sin(t) + c2 * np.sin(2.0 * t))
    assert coarse <= refined <= U
    assert U - refined <= 1e-12 * refined


def test_symbol_bound_of_the_identity_is_one():
    assert symbol_bound(Pentadiagonal.identity(9)) == 1.0


def test_symbol_bound_needs_constant_identity_plus_skew_bands():
    A, u, cfg = _default_lagged(54, "row-varying")
    assert symbol_bound(A) is None
    A_implicit, _ = assemble_implicit(u, u, cfg.cn_config())
    assert symbol_bound(A_implicit) is None
    P = skew_penta(500.0, 250.0, 50)
    symmetric = Pentadiagonal(P.sup2, P.sup1, P.diag, P.sup1, P.sup2)  # constant, not I + K
    assert symbol_bound(symmetric) is None
    for band in ("sup1", "sup2"):
        bands = {name: getattr(P, name).copy() for name in ("sub2", "sub1", "diag", "sup1", "sup2")}
        bands[band][7] += 1.0
        bands["sub" + band[-1]] = -bands[band]
        perturbed = Pentadiagonal(**bands)
        assert skew_deviation(perturbed) == 0.0
        assert symbol_bound(perturbed) is None


@pytest.mark.parametrize("nx", [54, 4001])
def test_gram_estimate_stays_below_symbol_bound(nx):
    A, _, _ = _default_lagged(nx)
    assert gram_power_iteration(A, max_iters=200).estimate <= symbol_bound(A)


@pytest.mark.parametrize("nx", [54, 4001])
def test_symbol_bound_matches_the_cn_symbol(nx):
    # A's symbol is 1 + i g with g the CN amplification's, at u0 = u_mid
    A, u, cfg = _default_lagged(nx)
    u_mid = u.values[(u.grid.nx - 1) // 2]
    params = cfg.scheme_params()
    _, sup = _symbol_sup(lambda t: _cn_symbol_g(np.sin(t), np.sin(2.0 * t), params, u_mid) / 2.0)
    U = symbol_bound(A)
    assert sup <= U
    assert U - sup <= 1e-12 * sup


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
