"""Acceptance suite: one test per exit criterion, at stated tolerances.

Each test prints one ``ACCEPTANCE <n> PASS`` line (visible with
``pytest -s`` or in captured output) and asserts both the criterion's
tolerance and its runtime budget.  Frozen numbers marked *regression*
were measured on first implementation and pin future behaviour.
"""

import math
import time

import numpy as np
import pytest

from kdvlab.analysis import StencilKind, apply_stencil, cn_amplification, explicit_amplification
from kdvlab.banded import (
    Pentadiagonal,
    factor_banded,
    invertibility_certificate,
    skew_deviation,
)
from kdvlab.cli import main
from kdvlab.crank_nicolson import CnConfig, GammaMode, assemble_lagged, run_cn
from kdvlab.evolution import peak_abscissa
from kdvlab.model import (
    Grid1D,
    SchemeParams,
    TimeGrid,
    WaveField,
    mass,
    pde_residual,
    traveling_wave,
    traveling_wave_callable,
)

SNAPSHOT_NAMES = [f"snapshot_t{k}.01.csv" for k in range(1, 9)]


def report(number, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {budget:.0f}s) {detail}")


def random_sample(rng):
    theta = float(rng.uniform(0.0, math.pi))
    alpha = float(10.0 ** rng.uniform(-2.0, 4.0))
    beta = float(10.0 ** rng.uniform(-3.0, 1.0))
    u0 = float(rng.uniform(-2.0, 2.0))
    return theta, alpha, beta, u0


def test_criterion_01_cn_neutral_stability():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        theta, alpha, beta, u0 = random_sample(rng)
        point = cn_amplification(theta, alpha, beta, u0)
        worst = max(worst, abs(point.magnitude - 1.0))
    assert worst < 1e-12
    report(1, time.perf_counter() - start, 1.0,
           f"|lambda_CN| = 1 within {worst:.1e} over 1000 samples")


def test_criterion_02_explicit_amplification_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        theta, alpha, beta, u0 = random_sample(rng)
        point = explicit_amplification(theta, alpha, beta, u0)
        g = (
            1.5 * beta * u0 * math.sin(theta)
            + 2.0 * alpha * math.sin(theta)
            - alpha * math.sin(2.0 * theta)
        )
        scale = max(1.0, g * g)
        worst = max(worst, abs(point.magnitude**2 - (1.0 + g * g)) / scale)
    assert worst < 1e-12
    ref = explicit_amplification(math.pi / 2.0, 0.1, 1.0, 0.0)
    assert ref.magnitude == pytest.approx(1.019804, abs=5e-7)
    report(2, time.perf_counter() - start, 1.0,
           f"|lambda|^2 = 1 + g^2 within {worst:.1e}; |lambda(pi/2)| = {ref.magnitude:.6f}")


def test_criterion_03_banded_solver_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        diag = rng.standard_normal(n)
        diag += np.sign(diag) * 6.0
        P = Pentadiagonal(
            sub2=rng.standard_normal(n - 2),
            sub1=rng.standard_normal(n - 1),
            diag=diag,
            sup1=rng.standard_normal(n - 1),
            sup2=rng.standard_normal(n - 2),
        )
        b = rng.standard_normal(n)
        diff = np.max(np.abs(factor_banded(P)(b) - np.linalg.solve(P.to_dense(), b)))
        worst = max(worst, diff)
    # classic band pattern (-250, 500, 1, -500, 250)
    n = 120
    P = Pentadiagonal(
        sub2=np.full(n - 2, -250.0),
        sub1=np.full(n - 1, 500.0),
        diag=np.ones(n),
        sup1=np.full(n - 1, -500.0),
        sup2=np.full(n - 2, 250.0),
    )
    b = rng.standard_normal(n)
    diff = np.max(np.abs(factor_banded(P)(b) - np.linalg.solve(P.to_dense(), b)))
    worst = max(worst, diff)
    assert worst <= 1e-10
    report(3, time.perf_counter() - start, 5.0,
           f"banded vs dense sup-norm <= {worst:.1e} over 101 systems")


def test_criterion_04_identity_plus_skew_certificate():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_gain = -np.inf
    for _ in range(50):
        alpha = float(10.0 ** rng.uniform(-2.0, 4.0))
        beta = float(10.0 ** rng.uniform(-3.0, 1.0))
        u0 = float(rng.uniform(-2.0, 2.0))
        grid = Grid1D(-20.0, 20.0, 54)
        field = WaveField(grid, 0.0, np.full(54, u0))
        dx = math.sqrt(beta / alpha)
        cfg = CnConfig(
            params=SchemeParams(dx=dx, dt=beta * dx),
            gamma_mode=GammaMode.FROZEN_MIDPOINT,
        )
        A, _ = assemble_lagged(field, cfg)
        assert skew_deviation(A) == 0.0
        assert invertibility_certificate(A).certified
        b = rng.standard_normal(A.n)
        x = factor_banded(A)(b)
        worst_gain = max(worst_gain, float(np.linalg.norm(x) - np.linalg.norm(b)))
    assert worst_gain <= 1e-8
    report(4, time.perf_counter() - start, 2.0,
           f"50 frozen assemblies: (A+A^T)/2 = I exactly, ||x|| - ||b|| <= {worst_gain:.1e}")


def test_criterion_05_traveling_wave_verification():
    start = time.perf_counter()
    xs = np.linspace(-15.0, 15.0, 301)
    good = pde_residual(traveling_wave_callable(0.5, "verified"), xs, 0.0, oracle_step=1e-3)
    bad = pde_residual(traveling_wave_callable(1.0, "claimed"), xs, 0.0, oracle_step=1e-3)
    assert good < 1e-6
    assert bad > 1e-3
    # regression baselines from the first run of this suite
    assert good == pytest.approx(5.83e-7, rel=0.5)
    assert bad == pytest.approx(1.2861875, abs=1e-4)
    report(5, time.perf_counter() - start, 1.0,
           f"verified residual {good:.2e} < 1e-6; claimed residual {bad:.4f} > 1e-3")


def test_criterion_06_cn_soliton_tracking():
    start = time.perf_counter()

    # peak tracking on the stated domain and resolution
    grid = Grid1D(-10.0, 14.0, 961)  # dx = 0.025
    ic = traveling_wave(grid, 0.25, 0.0)
    cfg = CnConfig(params=SchemeParams(dx=grid.dx, dt=0.0025), gamma_mode=GammaMode.ROW_VARYING)
    res = run_cn(ic, cfg, TimeGrid(4.0, 0.0025), [4.0])
    assert res.completed
    peak = peak_abscissa(res.snapshots[-1])
    assert peak == pytest.approx(1.0, abs=0.15)

    # mass-drift halving needs the zero-boundary setting the drift
    # diagnostic is specified for; the tight tracking domain pins a
    # visibly nonzero tail and its boundary flux would floor the drift
    def drift(dx, dt):
        nx = int(round(72.0 / dx)) + 1
        g = Grid1D(-34.0, 38.0, nx)
        f0 = traveling_wave(g, 0.25, 0.0)
        c = CnConfig(params=SchemeParams(dx=g.dx, dt=dt), gamma_mode=GammaMode.ROW_VARYING)
        r = run_cn(f0, c, TimeGrid(4.0, dt), [4.0])
        assert r.completed
        return abs(mass(r.snapshots[-1]) - mass(f0)) / abs(mass(f0))

    coarse = drift(0.025, 0.0025)
    fine = drift(0.0125, 0.00125)
    ratio = fine / coarse
    assert 0.25 <= ratio <= 0.75  # halves +/- 50%; measured 0.50
    report(6, time.perf_counter() - start, 60.0,
           f"peak x = {peak:.4f} (target 1.0 +/- 0.15); drift ratio {ratio:.3f}")


def test_criterion_07_convergence_study(tmp_path):
    start = time.perf_counter()

    def run_converge(subdir, refine, nx, dt, t_end):
        out = tmp_path / subdir
        code = main([
            "converge", "--refine", refine, "--x_min", "-16", "--x_max", "20",
            "--nx", str(nx), "--dt", str(dt), "--t_end", str(t_end),
            "--ic", "traveling 1.0", "--levels", "3",
            "--output_dir", str(out),
        ])
        assert code == 0
        meta = (out / "converge.meta").read_text()
        return float(meta.split("observed_order = ")[1].split()[0])

    order_time = run_converge("time", "time", 1801, 0.04, 2.0)
    order_space = run_converge("space", "space", 226, 0.001, 0.5)
    assert order_time >= 0.8
    assert order_space >= 1.6
    # regression bands: first-run values 1.565 and 2.325
    assert order_time == pytest.approx(1.565, abs=0.3)
    assert order_space == pytest.approx(2.325, abs=0.3)
    report(7, time.perf_counter() - start, 300.0,
           f"observed order: time-dominated {order_time:.3f} >= 0.8, "
           f"space-dominated {order_space:.3f} >= 1.6")


def test_criterion_08_stencil_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    for _ in range(20):
        x0 = float(rng.uniform(-2.0, 2.0))
        dx = float(rng.uniform(0.05, 0.5))
        u = (x0 + np.arange(-2, 3) * dx) ** 3
        out = apply_stencil(StencilKind.THIRD_DERIV_CENTERED, u, dx, 2)
        # exact numerator cancellation to 12 dx^3; only rounding remains
        assert out == pytest.approx(6.0, rel=1e-9)
    errs = []
    for dx in (0.1, 0.05):
        u = np.sin(0.7 + np.arange(-2, 3) * dx)
        errs.append(abs(apply_stencil(StencilKind.THIRD_DERIV_CENTERED, u, dx, 2) + math.cos(0.7)))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6
    report(8, time.perf_counter() - start, 1.0,
           f"x^3 third derivative exact to rounding; sine error ratio {ratio:.3f}")


def test_criterion_09_figure_pipeline_byte_identical(tmp_path, monkeypatch):
    start = time.perf_counter()
    for sub in ("first", "second"):
        workdir = tmp_path / sub
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["run", "--output_dir", "out"]) == 0
    first = tmp_path / "first" / "out"
    second = tmp_path / "second" / "out"
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(SNAPSHOT_NAMES + ["run.meta"])
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    report(9, time.perf_counter() - start, 120.0,
           "demo preset: 8 snapshots t = 1.01 ... 8.01, byte-identical twice")


def test_criterion_10_explicit_instability_evidence(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "out"
    code = main(["run", "--scheme", "explicit", "--output_dir", str(out)])
    assert code == 2
    meta = (out / "run.meta").read_text()
    assert "outcome = blow-up" in meta
    step = int(meta.split("blow_up_step = ")[1].splitlines()[0])
    assert step == 5  # regression: round-off modes grow ~1e4 per step
    report(10, time.perf_counter() - start, 60.0,
           f"dt = dx = 0.01 explicit run exits 2 with blow-up at step {step}")
