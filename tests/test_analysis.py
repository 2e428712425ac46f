"""Tests for the operator's weight table, amplification factors, and consistency probes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdvlab.analysis as analysis
from kdvlab.analysis import (
    cn_amplification,
    explicit_amplification,
    observed_order,
    stability_scan,
    truncation_error,
)
from kdvlab.crank_nicolson import D1, D3, _rhs, _symbol_g, _weights
from kdvlab.model import Grid1D, SchemeParams, traveling_wave_callable


# ---------------------------------------------------------------------------
# the operator's D1/D3 weight table
# ---------------------------------------------------------------------------

def difference(weights, u, dx, order, i):
    """sum_k w_k (u_{i+k} - u_{i-k}) / dx^order: one table entry applied at index i."""
    return sum(w * (u[i + k] - u[i - k]) for k, w in weights.items()) / dx**order


def cubic_samples(x0, dx, reach=3):
    offsets = np.arange(-reach, reach + 1)
    return (x0 + offsets * dx) ** 3, reach


def test_third_derivative_exact_on_cubic():
    rng = np.random.default_rng(51)
    for _ in range(20):
        x0 = float(rng.uniform(-2.0, 2.0))
        dx = float(rng.uniform(0.05, 0.5))
        u, i = cubic_samples(x0, dx)
        out = difference(D3, u, dx, 3, i)
        # the stencil numerator is exactly 6 dx^3 on cubics; only the
        # cancellation of the x^3-sized terms leaves rounding behind
        assert out == pytest.approx(6.0, rel=1e-9)


def test_first_derivative_exact_on_linear():
    u = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    assert difference(D1, u, 0.5, 1, 2) == 1.0


def test_third_derivative_error_ratio_on_sine():
    x0 = 0.7
    truth = -math.cos(x0)
    errs = []
    for dx in (0.1, 0.05):
        offsets = np.arange(-2, 3)
        u = np.sin(x0 + offsets * dx)
        out = difference(D3, u, dx, 3, 2)
        errs.append(abs(out - truth))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6  # second-order stencil: factor 4 +/- 15%


# The table's weights and symbol against the closed forms they replace, kept
# literal here: at mesh ratios from the smallest subnormal to the largest double,
# coefficients of +-1e308 and subnormals, and angles that include 0, pi and both
# signs of sin 2 theta.  A form that scales before it multiplies fails: -4 (alpha/2)
# D3[2] for the sin 2 theta coefficient overflows at alpha >= 9e307 where -alpha
# does not, and (3 beta/4) D1[1] rounds twice where beta is 7 subnormal ulps.
_EXTREME_RATIOS = [5e-324, 3.5e-323, 2.2250738585072014e-308, 1e-300, 1e-3, 1.0, 1e4, 1e300,
                   8e307, 9e307, 1e308, 1.7e308, 1.7976931348623157e308]
_EXTREME_COEFS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -2.0, 1e308, -1e308]
_EXTREME_THETAS = [0.0, 0.3, 1.0, math.pi / 2.0, 2.0, math.pi]


def _same(a, b):
    """Bitwise equal, with every nan equal to every nan."""
    return (math.isnan(a) and math.isnan(b)) or repr(a) == repr(b)


def test_table_weights_and_symbol_are_the_closed_forms_bit_for_bit():
    grid = [(a, b, c) for a in _EXTREME_RATIOS for b in _EXTREME_RATIOS for c in _EXTREME_COEFS]
    coefs = np.array([c for _, _, c in grid])
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha, beta, c in grid:
            gamma, quarter = _weights(c, alpha, beta)
            assert _same(gamma, alpha / 2.0 + (3.0 * beta / 8.0) * c)
            assert _same(quarter, alpha / 4.0)
            for theta in _EXTREME_THETAS:
                s1, s2 = math.sin(theta), math.sin(2.0 * theta)
                expected = (3.0 * beta / 2.0) * c * s1 + 2.0 * alpha * s1 - alpha * s2
                assert _same(_symbol_g(s1, s2, alpha, beta, c), expected), (alpha, beta, c, theta)
        # on arrays, as the steps and the scan form them
        for alpha in _EXTREME_RATIOS:
            gamma, _ = _weights(coefs, alpha, 1e300)
            expected = alpha / 2.0 + (3.0 * 1e300 / 8.0) * coefs
            assert all(map(_same, gamma.tolist(), expected.tolist()))


# ---------------------------------------------------------------------------
# amplification factors
# ---------------------------------------------------------------------------

def test_cn_amplification_at_zero_angle():
    a = cn_amplification(0.0, 3.0, 0.7, 1.3)
    assert a.lambda_re == 1.0 and a.lambda_im == 0.0
    assert a.magnitude == 1.0


def test_cn_amplification_quarter_turn():
    # alpha = 1, u0 = 0, theta = pi/2: g = -1, lambda = (1+i)/(1-i) = i
    a = cn_amplification(math.pi / 2.0, 1.0, 0.5, 0.0)
    assert a.lambda_re == pytest.approx(0.0, abs=1e-12)
    assert a.lambda_im == pytest.approx(1.0, abs=1e-12)
    assert a.magnitude == pytest.approx(1.0, abs=1e-12)


def test_cn_magnitude_is_one_everywhere():
    rng = np.random.default_rng(52)
    for _ in range(1000):
        theta = float(rng.uniform(0.0, math.pi))
        alpha = float(10.0 ** rng.uniform(-2, 4))
        beta = float(10.0 ** rng.uniform(-3, 1))
        u0 = float(rng.uniform(-2.0, 2.0))
        a = cn_amplification(theta, alpha, beta, u0)
        assert abs(a.magnitude - 1.0) < 1e-12


@pytest.mark.parametrize("alpha, beta, u0", [(0.01, 0.1, -1.0), (1.0, 1.0, 0.5),
                                              (100.0, 10.0, 2.0), (1e4, 1.0, 0.0)])
def test_symbol_is_the_operators_on_a_fourier_mode(alpha, beta, u0):
    # B at a constant coefficient u0 maps the mode e^{ij theta} to (1 + z) times
    # it on interior rows at the explicit step's weights, and to (1 + z/2) times
    # it at CN's, with z = i g the one symbol both amplification factors use;
    # the error is relative to the sum of a row's |entries|, the scale of its rounding
    j = np.arange(400)
    gamma, quarter = _weights(np.full(j.size, u0), alpha, beta)
    for theta in np.linspace(0.05, math.pi - 0.05, 9):
        mode = np.exp(1j * theta * j)
        z = 1j * _symbol_g(math.sin(theta), math.sin(2.0 * theta), alpha, beta, u0)
        for factor, scale in ((1.0 + z, 2.0), (1.0 + z / 2.0, 1.0)):
            rows = _rhs(mode, scale * gamma, scale * quarter)[2:-2]
            row_sum = 1.0 + 2.0 * scale * (abs(gamma[0]) + quarter)
            assert np.max(np.abs(rows - factor * mode[2:-2])) <= 1e-12 * row_sum


@pytest.mark.parametrize("alpha", [1e200, 1e300])
def test_cn_magnitude_is_one_where_g_squared_would_overflow(alpha):
    # |g| reaches about 2.6 alpha, past the 1.34e154 where g**2 overflows
    thetas = np.linspace(0.0, math.pi, 257)
    mags = [cn_amplification(float(t), alpha, 1.0, 0.0).magnitude for t in thetas]
    assert all(abs(m - 1.0) <= 2.0**-52 for m in mags)  # finite, and 1 to the last ulp
    assert stability_scan("cn", [(alpha, 1.0)], [0.0], thetas)[0].max_magnitude == max(mags)


def test_explicit_amplification_reference_point():
    assert explicit_amplification(0.0, 0.1, 0.5, 1.2).magnitude == 1.0
    a = explicit_amplification(math.pi / 2.0, 0.1, 0.5, 0.0)
    assert a.lambda_re == 1.0
    assert a.lambda_im == pytest.approx(0.2, rel=1e-12)
    assert a.magnitude == pytest.approx(math.sqrt(1.04), rel=1e-12)


def test_explicit_amplification_never_damps():
    rng = np.random.default_rng(53)
    for _ in range(500):
        theta = float(rng.uniform(0.0, math.pi))
        alpha = float(10.0 ** rng.uniform(-2, 2))
        beta = float(10.0 ** rng.uniform(-3, 1))
        u0 = float(rng.uniform(-2.0, 2.0))
        a = explicit_amplification(theta, alpha, beta, u0)
        assert a.magnitude >= 1.0


def test_explicit_amplifies_strictly_away_from_null_angles():
    for theta in np.linspace(0.05, math.pi - 0.05, 50):
        if abs(math.sin(theta) * (2.0 - 2.0 * math.cos(theta))) > 1e-12:
            assert explicit_amplification(theta, 1.0, 1.0, 0.0).magnitude > 1.0


# ---------------------------------------------------------------------------
# stability scan
# ---------------------------------------------------------------------------

def test_scan_cn_rows_all_neutral():
    ratios = [(a, b) for a in (0.01, 1.0, 1000.0) for b in (0.1, 1.0)]
    rows = stability_scan("cn", ratios, [-1.0, 0.0, 2.0], np.linspace(0.0, math.pi, 101))
    assert len(rows) == 18
    for row in rows:
        assert row.max_magnitude == pytest.approx(1.0, abs=1e-12)


def test_scan_explicit_alpha_ten_blows_up():
    rows = stability_scan(
        "explicit",
        [(10.0, 1.0)],
        [0.0],
        np.linspace(0.0, math.pi, 721),
    )
    # g peaks at alpha * 3*sqrt(3)/2 ~ 25.98, so max |lambda| ~ 26
    assert rows[0].max_magnitude > 10.0
    assert rows[0].max_magnitude == pytest.approx(26.0, abs=0.2)


def test_scan_empty_params_gives_empty_table():
    assert stability_scan("cn", [], [0.0], [0.1]) == []


def test_scan_invariant_under_theta_reordering():
    thetas = list(np.linspace(0.0, math.pi, 33))
    fwd = stability_scan("explicit", [(2.0, 0.5)], [0.3], thetas)
    rev = stability_scan("explicit", [(2.0, 0.5)], [0.3], thetas[::-1])
    assert fwd[0].max_magnitude == rev[0].max_magnitude


@pytest.mark.parametrize("scheme, amp", [("cn", cn_amplification),
                                         ("explicit", explicit_amplification)])
def test_scan_rows_are_the_max_of_the_scalar_factors(scheme, amp):
    # this seed's corpus holds, for each scheme, a row whose max differs by
    # one ulp between math.hypot and np.hypot: the test fails if the scan and
    # the scalar factors stop sharing one magnitude
    rng = np.random.default_rng(105)
    for _ in range(12):
        n_theta = int(rng.integers(2, 2001))
        thetas = np.linspace(0.0, math.pi, n_theta)
        if rng.random() < 0.5:
            thetas = rng.uniform(0.0, math.pi, n_theta)
        ratios = [(10.0 ** rng.uniform(-3.0, 5.0), 10.0 ** rng.uniform(-1.0, 1.0))
                  for _ in range(2)]
        u0_list = [float(u) for u in rng.uniform(-2.0, 2.0, 2)]
        rows = stability_scan(scheme, ratios, u0_list, thetas)
        expected = [max(amp(float(t), a, b, u0).magnitude for t in thetas)
                    for a, b in ratios for u0 in u0_list]
        assert [row.max_magnitude for row in rows] == expected


# alpha or beta of 1e150, 1e200 or 1e250, or u0 of +-1e308, make g inf or
# nan, so those rows take every theta in order; 1e-300 has a
# dx**3 that underflows, which the scan never forms
_RATIOS = st.one_of(st.floats(1e-3, 1e5), st.sampled_from([1e-300, 1e150, 1e200, 1e250]))
_U0 = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1e308, -1e308, 0.0, -0.0]),
                st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _scan_grids(draw):
    ratios = draw(st.lists(st.tuples(_RATIOS, _RATIOS), max_size=3))
    u0_list = draw(st.lists(_U0, max_size=3))
    thetas = draw(st.one_of(
        st.lists(st.floats(0.0, math.pi), max_size=40),
        st.integers(0, 2000).map(lambda n: np.linspace(0.0, math.pi, n).tolist()),
    ))
    if draw(st.booleans()):
        draw(st.randoms()).shuffle(thetas)
    thetas += thetas[:draw(st.integers(0, len(thetas)))]  # duplicates
    return ratios, u0_list, thetas


@pytest.mark.parametrize("scheme, amp", [("cn", cn_amplification),
                                         ("explicit", explicit_amplification)])
@settings(max_examples=100, deadline=None)
@given(grid=_scan_grids())
@example(grid=([], [0.0, 1.0], [0.0, 1.0]))
@example(grid=([(1.0, 1.0)], [], [0.0, 1.0]))
@example(grid=([(1.0, 1.0)], [0.5], []))
# the first angle's magnitude is nan in both schemes (inf * sin 0), so the row is nan
@example(grid=([(1.0, 1e200)], [1e308], [0.0, 1.0]))
# nan after a magnitude that is not nan: the explicit g is inf, nan (inf * sin 0), inf,
# and Python's max skips the nan; CN's lambda is nan where g is not finite, and has |lambda|
# 1 at theta 1 of the first pair, where g = 1.26e308 and g**2 would overflow
@example(grid=([(1.0, 1.0), (1.0, 1e200)], [1e308], [1e-300, 0.0, 1.0]))
def test_scan_rows_are_exactly_the_scalar_factors_max(scheme, amp, grid):
    ratios, u0_list, thetas = grid
    rows = stability_scan(scheme, ratios, u0_list, thetas)
    expected = [max((amp(t, a, b, u0).magnitude for t in thetas), default=0.0)
                for a, b in ratios for u0 in u0_list]
    # repr: bit for bit on finite values, and nan equal to nan
    assert [repr(row.max_magnitude) for row in rows] == [repr(m) for m in expected]
    # the mesh ratios and u0 are the inputs, bit for bit
    assert [repr((row.alpha, row.beta, row.u0)) for row in rows] == [
        repr((a, b, u0)) for a, b in ratios for u0 in u0_list]


@pytest.mark.parametrize("scheme, amp", [("cn", cn_amplification),
                                         ("explicit", explicit_amplification)])
def test_scan_and_scalar_factors_take_no_math_hypot(scheme, amp, monkeypatch):
    # the spectral-probes benchmark grid: 15 (alpha, beta) pairs x 6 u0 x 257 theta
    ratios = [(a, b) for a in (0.01, 1.0, 100.0, 1000.0, 10000.0) for b in (0.1, 1.0, 10.0)]
    u0_list = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    thetas = np.linspace(0.0, math.pi, 257)

    def no_hypot(*xy):
        raise AssertionError("|lambda| must come from np.hypot")

    monkeypatch.setattr(analysis.math, "hypot", no_hypot)
    rows = stability_scan(scheme, ratios, u0_list, thetas)
    expected = [max(amp(float(t), a, b, u0).magnitude for t in thetas)
                for a, b in ratios for u0 in u0_list]
    assert [repr(row.max_magnitude) for row in rows] == [repr(m) for m in expected]


# every binary64 exponent, subnormals included, with either sign
_EXPONENT_SPAN = st.builds(lambda m, e, sign: sign * math.ldexp(m, e),
                           st.floats(0.5, 1.0, exclude_max=True),
                           st.integers(-1074, 1024), st.sampled_from([1.0, -1.0]))
_HYPOT_ARGS = st.one_of(
    st.floats(), _EXPONENT_SPAN,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     math.inf, -math.inf, math.nan]),
)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_HYPOT_ARGS, _HYPOT_ARGS), min_size=1, max_size=300))
@example(pairs=[(1.0, 1e-300), (5e-324, 5e-324), (0.0, -0.0), (1.7976931348623157e308,) * 2,
                (math.inf, math.nan), (math.nan, -math.inf), (math.nan, 1.0)])
def test_numpy_hypot_is_the_same_on_scalars_and_blocks(pairs):
    # the scan rows equal the scalar factors' max only because a 0-d np.hypot
    # and a block np.hypot give the same bits; a numpy whose block hypot takes
    # another kernel fails here, not silently in the scan
    x = np.array([a for a, _ in pairs])
    y = np.array([b for _, b in pairs])
    with np.errstate(over="ignore", invalid="ignore"):
        scalar = [repr(float(np.hypot(a, b))) for a, b in pairs]
        one = [repr(float(np.hypot(1.0, b))) for b in y.tolist()]
        assert [repr(m) for m in np.hypot(x, y).tolist()] == scalar
        # the scan's shapes: a (u0 x theta) block, and the explicit 1.0 broadcast
        assert [repr(m) for m in np.hypot(x[None, :], y[None, :]).ravel().tolist()] == scalar
        assert [repr(m) for m in np.hypot(1.0, y[None, :]).ravel().tolist()] == one
        # every explicit row is at least 1, as the spectral-probes gate needs
        assert all(m >= 1.0 for m, g in zip(np.hypot(1.0, y).tolist(), y.tolist())
                   if not math.isnan(g))


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        stability_scan("cn", [], [0.0], [4.0])  # theta outside [0, pi]
    with pytest.raises(ValueError):
        stability_scan("upwind", [], [0.0], [0.1])
    for bad in (0.0, -1.0, math.nan, math.inf):
        for pair in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                stability_scan("cn", [(1.0, 1.0), pair], [0.0], [0.1])


# ---------------------------------------------------------------------------
# truncation error
# ---------------------------------------------------------------------------

def zero_fn(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


def test_truncation_zero_function():
    win = Grid1D(-5.0, 5.0, 101)
    assert truncation_error("cn-lagged", zero_fn, SchemeParams(dx=win.dx, dt=0.01), win) == 0.0
    assert truncation_error("explicit", zero_fn, SchemeParams(dx=win.dx, dt=0.01), win) == 0.0


def test_truncation_cn_first_order_in_time():
    # measured ratio 1.99 for dt 0.02 -> 0.01 at dx = 0.02
    u = traveling_wave_callable(0.5, "verified")
    win = Grid1D(-41.0, 41.0, 4101)
    d1 = truncation_error("cn-lagged", u, SchemeParams(dx=win.dx, dt=0.02), win)
    d2 = truncation_error("cn-lagged", u, SchemeParams(dx=win.dx, dt=0.01), win)
    assert 1.4 <= d1 / d2 <= 2.6  # halves +/- 30%


def test_truncation_cn_second_order_in_space():
    # measured ratio 3.93 for dx 0.2 -> 0.1 at dt = 1e-4
    u = traveling_wave_callable(0.5, "verified")
    coarse = Grid1D(-41.0, 41.0, 411)
    fine = Grid1D(-41.0, 41.0, 821)
    d1 = truncation_error("cn-lagged", u, SchemeParams(dx=coarse.dx, dt=1e-4), coarse)
    d2 = truncation_error("cn-lagged", u, SchemeParams(dx=fine.dx, dt=1e-4), fine)
    assert 2.8 <= d1 / d2 <= 5.2  # quarters +/- 30%


def test_truncation_explicit_second_order_in_space():
    u = traveling_wave_callable(0.5, "verified")
    coarse = Grid1D(-41.0, 41.0, 411)
    fine = Grid1D(-41.0, 41.0, 821)
    d1 = truncation_error("explicit", u, SchemeParams(dx=coarse.dx, dt=1e-4), coarse)
    d2 = truncation_error("explicit", u, SchemeParams(dx=fine.dx, dt=1e-4), fine)
    assert 2.8 <= d1 / d2 <= 5.2


def test_truncation_rejects_unknown_scheme():
    win = Grid1D(-5.0, 5.0, 101)
    with pytest.raises(ValueError):
        truncation_error("leapfrog", zero_fn, SchemeParams(dx=win.dx, dt=0.01), win)


# ---------------------------------------------------------------------------
# observed order
# ---------------------------------------------------------------------------

def test_observed_order_pure_powers():
    hs = [0.4, 0.2, 0.1, 0.05]
    quad = [(h, 3.0 * h**2) for h in hs]
    lin = [(h, 0.7 * h) for h in hs]
    assert observed_order(quad) == pytest.approx(2.0, abs=1e-12)
    assert observed_order(lin) == pytest.approx(1.0, abs=1e-12)


def test_observed_order_input_validation():
    with pytest.raises(ValueError):
        observed_order([(0.1, 1.0)])
    with pytest.raises(ValueError):
        observed_order([(0.1, 1.0), (0.05, 0.0)])
    with pytest.raises(ValueError):
        observed_order([(0.1, 1.0), (-0.05, 0.5)])
