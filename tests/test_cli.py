"""Tests for config parsing, the CLI subcommands, and file formats."""

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kdvlab
from kdvlab import banded
from kdvlab.banded import Pentadiagonal
from kdvlab.cli import cmd_eigen, eigen_report_text, execute_run, main
from kdvlab.config import (
    parse_config,
    parse_converge_config,
    parse_eigen_config,
    parse_scan_config,
)
from kdvlab.crank_nicolson import assemble_lagged
from kdvlab.errors import ConfigError
from kdvlab.evolution import RunResult, SnapshotDiagnostics
from kdvlab.model import Grid1D, WaveField
from kdvlab.runio import (
    read_field_csv,
    snapshot_filename,
    time_label,
    write_field_csv,
    write_run_outputs,
)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_empty_config_is_demo_preset():
    cfg = parse_config("")
    assert cfg.scheme == "cn-lagged"
    assert cfg.gamma_mode == "frozen-midpoint"
    assert (cfg.x_min, cfg.x_max, cfg.nx) == (-20.0, 20.0, 4001)
    assert cfg.dt == 0.01
    assert cfg.t_end == 10.0
    assert cfg.ic_kind == "appendix"
    assert cfg.snapshot_times == tuple(k + 0.01 for k in range(1, 9))
    assert cfg.paper_normalization is False


def test_config_rejects_negative_dt_by_name():
    with pytest.raises(ConfigError, match="dt"):
        parse_config("dt = -1")


def test_config_rejects_unknown_key_with_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("dt = 0.5\nwavelength = 3")


def test_config_implicit_traveling():
    cfg = parse_config("scheme = cn-implicit\nic = traveling 0.5")
    assert cfg.scheme == "cn-implicit"
    assert cfg.ic_kind == "traveling"
    assert cfg.ic_value == 0.5


def test_config_wave_speed_ic():
    cfg = parse_config("ic = paper-eq2 4.0\nnx = 201\nx_min = -10\nx_max = 10")
    field = cfg.initial_field()
    assert field.values[100] == pytest.approx(0.5, abs=1e-15)  # c/8 at x = 0


def test_config_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\n nx = 101  # trailing note\n")
    assert cfg.nx == 101


def test_config_value_diagnostics_name_the_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("nx = many")
    with pytest.raises(ConfigError, match="snapshot_times"):
        parse_config("t_end = 1\nsnapshot_times = 0.5, 0.2")
    with pytest.raises(ConfigError, match="ic"):
        parse_config("ic = traveling")
    with pytest.raises(ConfigError, match="paper_normalization"):
        parse_config("paper_normalization = maybe")


def test_run_config_rejects_eigen_keys():
    with pytest.raises(ConfigError):
        parse_config("power_tol = 1e-8")
    assert parse_eigen_config("power_tol = 1e-8").power_tol == 1e-8


def test_scan_and_converge_parsing():
    scan = parse_scan_config("scheme = explicit\nalpha_list = 0.1, 1\nu0_list = -1 0 1")
    assert scan.scheme == "explicit"
    assert scan.alpha_list == (0.1, 1.0)
    assert scan.u0_list == (-1.0, 0.0, 1.0)
    conv = parse_converge_config("levels = 2\nrefine = time")
    assert conv.levels == 2
    assert conv.refine == "time"
    with pytest.raises(ConfigError):
        parse_converge_config("refine = sideways")
    with pytest.raises(ConfigError):
        parse_converge_config("dt = 0.3\nt_end = 1.0")  # not an integer step count


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_field_csv_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(61)
    g = Grid1D(-3.0, 3.0, 41)
    f = WaveField(g, 0.0, rng.standard_normal(41))
    path = tmp_path / "field.csv"
    write_field_csv(path, f)
    back = read_field_csv(path, g)
    assert np.array_equal(back.values, f.values)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=7, max_size=40))
@example([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, 0.1])
def test_field_csv_round_trip_is_bit_exact(tmp_path_factory, values):
    g = Grid1D(-1.0, 1.0, len(values))
    path = tmp_path_factory.mktemp("csv") / "field.csv"
    write_field_csv(path, WaveField(g, 0.0, values))
    back = read_field_csv(path, g)
    assert back.values.view(np.uint64).tolist() == np.array(values).view(np.uint64).tolist()


SPECIAL_VALUES = (-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  0.1, 1e16, 1e-5)


def reference_csv(field):
    """The snapshot format spelled out: one ``format(v, ".17g")`` per value."""
    rows = zip(field.grid.points().tolist(), field.values.tolist())
    return "x,u\n" + "".join(f"{format(x, '.17g')},{format(u, '.17g')}\n" for x, u in rows)


@pytest.mark.parametrize("grid", [Grid1D(-20.0, 20.0, 41), Grid1D(-1e300, 3e-7, 41)])
def test_snapshot_csv_bytes_match_per_value_format(tmp_path, grid):
    rng = np.random.default_rng(7)
    specials = list(SPECIAL_VALUES) + [-v for v in SPECIAL_VALUES]
    fields = [
        WaveField(grid, t, np.concatenate([specials, rng.standard_normal(grid.nx - 14)]))
        for t in (0.0, 0.25, 0.5)
    ]
    fields[1] = WaveField(grid, 0.25, fields[1].values[::-1])
    write_field_csv(tmp_path / "one.csv", fields[0])
    assert (tmp_path / "one.csv").read_bytes() == reference_csv(fields[0]).encode()
    result = RunResult(
        snapshots=fields,
        # mass of these values overflows; the meta lines are not under test here
        diagnostics=[SnapshotDiagnostics(f.time, 0.0, 0.0, 0.0) for f in fields],
        outcome="completed",
    )
    paths, _ = write_run_outputs(tmp_path / "run", [], result)
    assert len(paths) == 3
    for path, field in zip(paths, fields):
        assert path.read_bytes() == reference_csv(field).encode()


def test_csv_writes_on_alternating_grids_match_the_reference(tmp_path):
    # g1 and g2 share nx; g3 equals g1 as a distinct object; g5 equals g4 by
    # value (0.0 == -0.0) but its last x prints as 0, not -0, so a template
    # reused by grid value or by nx would write a wrong x column
    g1, g2, g3 = Grid1D(-20.0, 20.0, 41), Grid1D(-1.0, 3.0, 41), Grid1D(-20.0, 20.0, 41)
    g4, g5 = Grid1D(-1.0, -0.0, 41), Grid1D(-1.0, 0.0, 41)
    assert g3 == g1 and g3 is not g1 and g5 == g4
    rng = np.random.default_rng(8)
    fields = [WaveField(g, 0.01 * k, rng.standard_normal(41))
              for k, g in enumerate((g1, g2, g3, g4, g5, g1, g5, g4, g2, g3))]
    for k, field in enumerate(fields):
        write_field_csv(tmp_path / f"{k}.csv", field)
        assert (tmp_path / f"{k}.csv").read_bytes() == reference_csv(field).encode()
    result = RunResult(fields, [SnapshotDiagnostics.of(f) for f in fields], "completed")
    paths, _ = write_run_outputs(tmp_path / "run", [], result)
    for path, field in zip(paths, fields):
        assert path.read_bytes() == reference_csv(field).encode()


def test_field_csv_validates_grid(tmp_path):
    g = Grid1D(-3.0, 3.0, 41)
    write_field_csv(tmp_path / "f.csv", WaveField(g, 0.0, np.zeros(41)))
    with pytest.raises(ConfigError):
        read_field_csv(tmp_path / "f.csv", Grid1D(-3.0, 3.0, 21))
    with pytest.raises(ConfigError):
        read_field_csv(tmp_path / "missing.csv", g)


def test_time_labels_snap_to_step_decimals():
    assert time_label(101 * 0.01) == "1.01"
    assert time_label(201 * 0.01) == "2.01"
    assert time_label(801 * 0.01) == "8.01"
    assert snapshot_filename(101 * 0.01) == "snapshot_t1.01.csv"


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

def small_run_args(tmp_path, **extra):
    base = {
        "x_min": "-10",
        "x_max": "10",
        "nx": "201",
        "dt": "0.01",
        "t_end": "0.5",
        "snapshot_times": "0.1,0.5",
        "ic": "traveling 0.5",
        "scheme": "cn-lagged",
        "gamma_mode": "row-varying",
        "output_dir": str(tmp_path / "out"),
    }
    base.update(extra)
    args = ["run"]
    for key, value in base.items():
        args.extend([f"--{key}", value])
    return args


def test_run_command_completes_and_writes(tmp_path):
    assert main(small_run_args(tmp_path)) == 0
    out = tmp_path / "out"
    assert (out / "snapshot_t0.1.csv").exists()
    assert (out / "snapshot_t0.5.csv").exists()
    meta = (out / "run.meta").read_text()
    assert "outcome = completed" in meta
    assert "snapshot_count = 2" in meta
    assert "scheme = cn-lagged" in meta


def test_run_command_zero_ic_file(tmp_path):
    g = Grid1D(-10.0, 10.0, 201)
    ic_path = tmp_path / "zeros.csv"
    write_field_csv(ic_path, WaveField(g, 0.0, np.zeros(201)))
    assert main(small_run_args(tmp_path, ic=f"file {ic_path}")) == 0
    back = read_field_csv(tmp_path / "out" / "snapshot_t0.5.csv", g)
    assert np.array_equal(back.values, np.zeros(201))


def test_run_command_blow_up_exit_code(tmp_path):
    # explicit scheme with dt = dx amplifies immediately
    code = main(small_run_args(tmp_path, scheme="explicit", dt="0.1", t_end="2",
                               snapshot_times="2"))
    assert code == 2
    meta = (tmp_path / "out" / "run.meta").read_text()
    assert "outcome = blow-up" in meta
    assert "blow_up_step = " in meta


def test_run_command_usage_errors(tmp_path):
    assert main(["run", "--dt", "-1"]) == 1
    assert main(["run", "--nonsense", "3"]) == 1
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("dt = 0.02\nnx = 101\nx_min = -5\nx_max = 5\n"
                        "t_end = 0.1\nsnapshot_times = 0.1\n"
                        f"output_dir = {tmp_path/'o'}\n")
    # override beats the file value
    assert main(["run", "--config", str(cfg_file), "--t_end", "0.2",
                 "--snapshot_times", "0.2"]) == 0


def test_override_values_are_verbatim(tmp_path):
    # '#' starts a comment in a config file, but not in a --key value
    out = tmp_path / "runs" / "#3"
    assert main(["scan", "--output_dir", str(out)]) == 0
    assert (out / "scan.csv").is_file()
    assert not (tmp_path / "runs" / "scan.csv").exists()


def test_override_ic_file_path_with_hash(tmp_path):
    g = Grid1D(-10.0, 10.0, 201)
    ic = WaveField(g, 0.0, -0.5 / np.cosh(0.35 * g.points()) ** 2)
    ic_path = tmp_path / "data#1.csv"
    write_field_csv(ic_path, ic)
    assert main(small_run_args(tmp_path, ic=f"file {ic_path}", snapshot_times="0")) == 0
    back = read_field_csv(tmp_path / "out" / snapshot_filename(0.0), g)
    assert np.array_equal(back.values, ic.values)
    assert f"ic = file {ic_path}\n" in (tmp_path / "out" / "run.meta").read_text()


def test_override_errors_name_the_key_without_a_line(capsys):
    assert main(["run", "--nx", "many"]) == 1
    err = capsys.readouterr().err
    assert err == "kdvlab run: error: key 'nx': not an integer: 'many'\n"


def test_keys_of_other_commands_are_unknown():
    with pytest.raises(ConfigError, match="unknown key for the scan command"):
        parse_scan_config("nx = 101")
    with pytest.raises(ConfigError, match="unknown key for the converge command"):
        parse_converge_config("snapshot_times = 0.5")


def test_eigen_accepts_a_horizon_before_the_run_snapshots(capsys):
    # eigen takes no snapshot times, so the run's defaults (up to 8.01) do not apply
    assert parse_eigen_config("t_end = 5").snapshot_times == ()
    assert main(["eigen", "--nx", "54", "--t_end", "5", "--power_max_iters", "50"]) == 0
    assert capsys.readouterr().out.startswith("kdvlab eigen probe\n")


def test_eigen_rejects_output_dir(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown key for the eigen command"):
        parse_eigen_config("output_dir = elsewhere")
    cfg_file = tmp_path / "eigen.cfg"
    cfg_file.write_text(f"nx = 54\noutput_dir = {tmp_path / 'o'}\n")
    assert main(["eigen", "--config", str(cfg_file)]) == 1
    assert "unknown key for the eigen command" in capsys.readouterr().err
    assert main(["eigen", "--output_dir", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_eigen_rejects_scheme_and_paper_normalization(tmp_path, capsys):
    # the probe always assembles the lagged matrix and never normalizes
    assert main(["eigen", "--nx", "54", "--scheme", "cn-implicit"]) == 1
    assert "unrecognized arguments: --scheme cn-implicit" in capsys.readouterr().err
    cfg_file = tmp_path / "eigen.cfg"
    cfg_file.write_text("nx = 54\npaper_normalization = on\n")
    assert main(["eigen", "--config", str(cfg_file)]) == 1
    assert "unknown key for the eigen command" in capsys.readouterr().err


def test_unallocatable_grid_is_a_clean_error(tmp_path, capsys):
    # 10^15 doubles (7 PiB) exceed the address space: refused before any page is touched
    args = ["run", "--nx", "1000000000000000", "--output_dir", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("kdvlab run: error: ")


def test_run_outputs_byte_identical(tmp_path):
    a1 = small_run_args(tmp_path, output_dir=str(tmp_path / "a"))
    a2 = small_run_args(tmp_path, output_dir=str(tmp_path / "b"))
    assert main(a1) == 0 and main(a2) == 0
    for name in ("snapshot_t0.5.csv", "run.meta"):
        left = (tmp_path / "a" / name).read_bytes()
        right = (tmp_path / "b" / name).read_bytes().replace(
            str(tmp_path / "b").encode(), str(tmp_path / "a").encode()
        )
        assert left == right


def test_rerun_removes_snapshots_the_new_meta_does_not_list(tmp_path):
    out = tmp_path / "out"
    assert main(small_run_args(tmp_path, t_end="1", snapshot_times="0.5,1")) == 0
    (out / "notes.txt").write_text("kept")
    assert main(small_run_args(tmp_path, t_end="1", snapshot_times="0.25")) == 0
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "run.meta",
                                                     "snapshot_t0.25.csv"]
    assert "snapshot_count = 1" in (out / "run.meta").read_text()


# ---------------------------------------------------------------------------
# scan command
# ---------------------------------------------------------------------------

def test_scan_command_cn_grid(tmp_path):
    assert main(["scan", "--scheme", "cn", "--alpha_list", "0.5,40",
                 "--beta_list", "0.2,2", "--u0_list=-1,1",
                 "--n_theta", "65", "--output_dir", str(tmp_path)]) == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "alpha,beta,u0,max_abs_lambda"
    assert len(lines) == 9
    for line in lines[1:]:
        assert abs(float(line.split(",")[3]) - 1.0) < 1e-12


def test_scan_command_empty_grid(tmp_path):
    assert main(["scan", "--alpha_list", "", "--output_dir", str(tmp_path)]) == 0
    assert (tmp_path / "scan.csv").read_text() == "alpha,beta,u0,max_abs_lambda\n"


@pytest.mark.parametrize("alpha", ["1e250", "1e-300"])  # dx**3 underflows / overflows
def test_scan_rejects_unrepresentable_mesh_ratios(tmp_path, capsys, alpha):
    args = ["scan", "--alpha_list", alpha, "--beta_list", "1", "--output_dir", str(tmp_path)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("kdvlab scan: error: alpha = ")
    assert not (tmp_path / "scan.csv").exists()


def test_scan_command_explicit_reference_row(tmp_path):
    assert main(["scan", "--scheme", "explicit", "--alpha_list", "0.1",
                 "--beta_list", "1", "--u0_list", "0",
                 "--n_theta", "721", "--output_dir", str(tmp_path)]) == 0
    row = (tmp_path / "scan.csv").read_text().splitlines()[1]
    got = float(row.split(",")[3])
    # max_theta |1 + i alpha (2 sin t - sin 2t)| at alpha = 0.1
    expected = math.sqrt(1.0 + (0.1 * 1.5 * math.sqrt(3.0)) ** 2)
    assert got == pytest.approx(expected, abs=1e-4)


# ---------------------------------------------------------------------------
# eigen command
# ---------------------------------------------------------------------------

def test_eigen_command_frozen_midpoint(tmp_path):
    buf = io.StringIO()
    cfg = parse_eigen_config("nx = 54\npower_max_iters = 500")
    assert cmd_eigen(cfg, out=buf) == 0
    report = buf.getvalue()
    assert "method = identity-plus-skew" in report
    assert "certified = true" in report


def test_eigen_command_writes_to_redirected_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["eigen", "--nx=54", "--power_max_iters=50"]) == 0
    assert buf.getvalue().startswith("kdvlab eigen probe\n")
    assert "symbol_bound: sigma_max = " in buf.getvalue()


# Reports of the nx 54 lagged matrices, pinned byte for byte.
EIGEN_GOLDEN = {
    "frozen-midpoint": (
        "n = 50\n"
        "power_iteration: estimate = 1.0000000000000007 iterations = 1 converged = false"
        " residual = 0.0020131473962673877\n"
        "symbol_bound: sigma_max = 1.000592072959066 kind = upper-bound\n"
        "certificate: method = identity-plus-skew certified = true\n"
        "certificate_detail: P = I + K with K^T = -K: eigenvalues 1 + i*mu, sigma_min >= 1\n"
    ),
    "row-varying": (
        "n = 50\n"
        "power_iteration: estimate = 1.0000000000000515 iterations = 1 converged = false"
        " residual = 0.0016451221069903686\n"
        "gram_power_iteration: sigma_max = 1.0002679784970954 iterations = 500"
        " converged = false residual = 0.00054567822217101646\n"
        "certificate: method = LU-factorization certified = true\n"
        "certificate_detail: banded LU with partial pivoting completed with nonzero pivots\n"
    ),
}


@pytest.mark.parametrize("gamma_mode", sorted(EIGEN_GOLDEN))
def test_eigen_report_golden(gamma_mode):
    cfg = parse_eigen_config(f"nx = 54\npower_max_iters = 500\ngamma_mode = {gamma_mode}")
    A, _ = assemble_lagged(cfg.initial_field(), cfg.cn_config())
    assert eigen_report_text(A, cfg.power_tol, cfg.power_max_iters) == EIGEN_GOLDEN[gamma_mode]


def test_eigen_report_identity_sigma():
    report = eigen_report_text(Pentadiagonal.identity(12))
    assert "sigma_max = 1" in report
    assert "certified = true" in report


def test_eigen_report_singular_fixture():
    P = Pentadiagonal(
        sub2=np.zeros(4),
        sub1=np.zeros(5),
        diag=np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0]),
        sup1=np.zeros(5),
        sup2=np.zeros(4),
    )
    report = eigen_report_text(P)
    assert "certified = false" in report


# ---------------------------------------------------------------------------
# converge command
# ---------------------------------------------------------------------------

def converge_args(tmp_path, **extra):
    base = {
        "x_min": "-16",
        "x_max": "20",
        "nx": "226",
        "dt": "0.02",
        "t_end": "0.2",
        "ic": "traveling 0.5",
        "levels": "3",
        "refine": "both",
        "output_dir": str(tmp_path),
    }
    base.update(extra)
    args = ["converge"]
    for key, value in base.items():
        args.extend([f"--{key}", value])
    return args


def test_converge_command_three_levels(tmp_path):
    assert main(converge_args(tmp_path)) == 0
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert lines[0] == "level,h,error_vs_finest,pairwise_order"
    assert len(lines) == 4
    meta = (tmp_path / "converge.meta").read_text()
    assert "observed_order = " in meta
    order = float(meta.split("observed_order = ")[1].split()[0])
    assert order >= 0.8


def test_converge_command_single_level(tmp_path):
    assert main(converge_args(tmp_path, levels="1")) == 0
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",,")  # error and order columns empty
    meta = (tmp_path / "converge.meta").read_text()
    assert "undefined" in meta


def test_converge_command_zero_ic_flags_undefined(tmp_path):
    g = Grid1D(-16.0, 20.0, 226)
    ic_path = tmp_path / "zeros.csv"
    write_field_csv(ic_path, WaveField(g, 0.0, np.zeros(226)))
    assert main(converge_args(tmp_path, ic=f"file {ic_path}", refine="time")) == 0
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    errs = [line.split(",")[2] for line in lines[1:3]]
    assert all(float(e) == 0.0 for e in errs)
    assert "undefined" in (tmp_path / "converge.meta").read_text()


def _huge_ic(tmp_path):
    """Every u = 1e307 on the default x range at nx 201: finite, but B u overflows."""
    g = Grid1D(-20.0, 20.0, 201)
    path = tmp_path / "big.csv"
    write_field_csv(path, WaveField(g, 0.0, np.full(201, 1e307)))
    return f"file {path}"


# every CN scheme's B carries gamma_i = alpha/2 + (3 beta/8) c_i with c ~ 1e307,
# so B u overflows at step one for either dt used here (beta 0.05 and 2.5).
@pytest.mark.parametrize("scheme, dt", [("cn-lagged", "0.01"), ("cn-implicit", "0.5"),
                                        ("explicit", "0.01")])
@pytest.mark.parametrize("times, recorded", [(None, 0), ("0,1", 1)])
def test_overflowing_right_hand_side_is_a_blow_up_at_step_one(tmp_path, capsys, scheme, dt,
                                                              times, recorded):
    args = ["run", "--scheme", scheme, "--nx", "201", "--dt", dt, "--ic", _huge_ic(tmp_path),
            "--output_dir", str(tmp_path / "out")]
    if times is not None:
        args += ["--snapshot_times", times]
    assert main(args) == 2
    assert capsys.readouterr().err == ""
    meta = (tmp_path / "out" / "run.meta").read_text()
    assert "outcome = blow-up\nblow_up_step = 1\n" in meta
    assert f"snapshot_count = {recorded}\n" in meta
    assert (" mass = inf " in meta) == bool(recorded)


def test_overflowing_mass_of_a_recorded_initial_field(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--nx", "201", "--dt", "0.01", "--ic", _huge_ic(tmp_path),
            "--snapshot_times", "0", "--output_dir", str(out)]
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    meta = (out / "run.meta").read_text()
    assert "outcome = completed\n" in meta
    assert "snapshot t = 0 file = snapshot_t0.csv mass = inf max_abs = 9.9999999999999999e+306" in meta


def test_peak_above_9e307_keeps_the_raw_peak_position(tmp_path, capsys):
    # the parabola through 1e308, 1.7e308, 1e308 overflows; peak_x is the sample's x
    g = Grid1D(-20.0, 20.0, 201)
    u = np.full(201, 1e308)
    u[0] = u[-1] = 0.0
    u[100] = 1.7e308
    path = tmp_path / "big2.csv"
    write_field_csv(path, WaveField(g, 0.0, u))
    out = tmp_path / "out"
    assert main(["run", "--nx", "201", "--dt", "0.01", "--ic", f"file {path}",
                 "--snapshot_times", "0", "--output_dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    meta = (out / "run.meta").read_text()
    peak_x = float(meta.split(" peak_x = ")[1].split()[0])
    assert peak_x == 0.0  # the centre sample's x


def _meta_keys(path):
    """``key = value`` lines of a run.meta, other than the snapshot lines."""
    lines = path.read_text().splitlines()
    return dict(ln.split(" = ", 1) for ln in lines
                if " = " in ln and not ln.startswith("snapshot t = "))


def test_run_meta_names_the_lapack_backend(tmp_path):
    assert main(small_run_args(tmp_path)) == 0
    backend = _meta_keys(tmp_path / "out" / "run.meta")["backend"]
    assert backend == banded.solve_backend()
    trf, trs, library = backend.split(" ")
    assert trf.removeprefix("scipy_").startswith("dgbtrf_")
    assert trs == trf.replace("dgbtrf", "dgbtrs")
    assert library == Path(banded._umath_linalg.__file__).name


def test_run_meta_names_the_reference_backend_when_no_symbol_resolves(tmp_path, monkeypatch):
    monkeypatch.setattr(banded, "_lapack_solve",
                        banded._lapack_solver(str(tmp_path / "no-such-lapack.so")))
    assert banded.solve_backend() == "reference"
    assert main(small_run_args(tmp_path)) == 0
    assert _meta_keys(tmp_path / "out" / "run.meta")["backend"] == "reference"


# the benchmark's soliton-implicit call: 12 cn-implicit steps at nx 961
SOLITON_IMPLICIT = {"scheme": "cn-implicit", "gamma_mode": "row-varying", "x_min": "-10",
                    "x_max": "14", "nx": "961", "dt": "0.0025", "t_end": "0.03",
                    "ic": "traveling 0.25", "snapshot_times": "0.03"}


def test_run_meta_summarises_picard_solves_of_cn_implicit(tmp_path):
    keys = dict(SOLITON_IMPLICIT, output_dir=str(tmp_path / "out"))
    assert main(["run"] + [f"--{k}={v}" for k, v in keys.items()]) == 0
    meta = _meta_keys(tmp_path / "out" / "run.meta")
    summary = [meta[f"picard_solves_{stat}"] for stat in ("min", "mean", "max")]
    assert summary == ["3", "3", "3"]
    solves = execute_run(parse_config("", list(keys.items()))).picard_solves
    assert len(solves) == 12
    assert summary == [str(min(solves)), format(sum(solves) / len(solves), ".17g"),
                       str(max(solves))]


def test_run_meta_picard_values_are_empty_when_no_step_completed(tmp_path):
    # B u overflows before the first solve (see the overflow tests above)
    args = ["run", "--scheme", "cn-implicit", "--nx", "201", "--dt", "0.5",
            "--ic", _huge_ic(tmp_path), "--output_dir", str(tmp_path / "out")]
    assert main(args) == 2
    text = (tmp_path / "out" / "run.meta").read_text()
    assert "blow_up_step = 1\n" in text
    for stat in ("min", "mean", "max"):
        assert f"\npicard_solves_{stat} = \n" in text


@pytest.mark.parametrize("scheme, code", [("cn-lagged", 0), ("explicit", 2)])
def test_run_meta_has_no_picard_lines_for_other_schemes(tmp_path, scheme, code):
    assert main(small_run_args(tmp_path, scheme=scheme)) == code
    assert "picard_solves" not in (tmp_path / "out" / "run.meta").read_text()


def test_cli_imports_neither_scipy_nor_numba(tmp_path):
    # a fresh interpreter, since this process has the test extras loaded;
    # importing scipy alone costs about 0.3 s and 28 MB
    code = (
        "import sys\n"
        "from kdvlab.cli import main\n"
        "assert main(['eigen', '--nx', '54']) == 0\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('loaded:', [m for m in ('scipy', 'numba') if m in sys.modules])\n"
    )
    src = str(Path(kdvlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code, *small_run_args(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "loaded: []"
    assert (tmp_path / "out" / "run.meta").is_file()
