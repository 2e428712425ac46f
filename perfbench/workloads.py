"""Benchmark workloads: the argv each one feeds the kdvlab CLI, and the
correctness gates its outputs must pass.

Only the standard library is imported here, so the set-up probe can time
``import kdvlab.cli`` without paying for this module.

The seed draws physical parameters only (initial amplitude, soliton
speed, scan u0 values) from ranges that leave the grid, the step count,
the snapshot count and the Picard iteration count unchanged, so every
seed does the same amount of work.  Seed 0 reproduces the presets.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# Config parser used for each subcommand, by its name in kdvlab.config.
PARSERS = {
    "run": "parse_config",
    "eigen": "parse_eigen_config",
    "scan": "parse_scan_config",
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, ``key = value`` settings, expected exit code."""

    command: str
    keys: Tuple[Tuple[str, str], ...]
    expected_exit: int

    @property
    def argv(self) -> List[str]:
        # ``--key=value`` keeps negative list values from parsing as flags
        return [self.command] + [f"--{k}={v}" for k, v in self.keys]

    def config_text(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.keys) + "\n"

    @property
    def output_dir(self) -> Optional[str]:
        return dict(self.keys).get("output_dir")


@dataclass(frozen=True)
class Outcome:
    """What one call produced: its exit code and captured standard output."""

    code: int
    stdout: str


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    calls: Tuple[Call, ...]
    params: Dict[str, object]
    gate: Callable[["Workload", Path, List[Outcome]], List[str]]
    # Deliberate corruptions of a copy of the outputs; the gate must reject each.
    corruptions: Tuple[Tuple[str, Callable[[Path, List[Outcome]], List[Outcome]]], ...]


# ---------------------------------------------------------------- outputs


def read_meta(path: Path) -> Tuple[Dict[str, str], List[Dict[str, str]]]:
    """``run.meta`` as (key -> value, one dict per ``snapshot`` line)."""
    keys: Dict[str, str] = {}
    snapshots: List[Dict[str, str]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("snapshot t = "):
            tokens = line[len("snapshot "):].split()
            snapshots.append({tokens[i]: tokens[i + 2] for i in range(0, len(tokens) - 2, 3)})
        elif " = " in line:
            key, value = line.split(" = ", 1)
            keys[key] = value
        elif line.endswith(" ="):
            keys[line[:-2]] = ""
    return keys, snapshots


def read_columns(path: Path) -> List[List[float]]:
    """Numeric CSV columns below a one-line header."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines if line]
    return [list(col) for col in zip(*rows)]


def digest(workdir: Path, calls, outcomes: List[Outcome]) -> str:
    """SHA-256 over every output file, captured stdout and exit code."""
    h = hashlib.sha256()
    for call, out in zip(calls, outcomes):
        h.update(f"{call.command} exit {out.code}\n".encode())
        h.update(out.stdout.encode())
        if call.output_dir is None:
            continue
        root = workdir / call.output_dir
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(workdir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _check_exit(call: Call, out: Outcome, fails: List[str]) -> bool:
    if out.code != call.expected_exit:
        fails.append(f"{call.command}: exit {out.code}, expected {call.expected_exit}")
        return False
    return True


def _run_outputs(out_dir: Path, expected: int, fails: List[str]):
    """Meta keys and snapshot files of a run directory, checked for completeness."""
    meta_path = out_dir / "run.meta"
    if not meta_path.is_file():
        fails.append(f"{out_dir.name}: run.meta missing")
        return {}, []
    keys, snaps = read_meta(meta_path)
    files = [s.get("file", "") for s in snaps]
    present = sorted(p.name for p in out_dir.iterdir())
    if len(files) != expected or keys.get("snapshot_count") != str(expected):
        fails.append(f"{out_dir.name}: {len(files)} snapshots listed, expected {expected}")
    elif present != sorted(files + ["run.meta"]):
        fails.append(f"{out_dir.name}: files {present} do not match run.meta")
    return keys, snaps


# ---------------------------------------------------------------- demo-run

DEMO_DT = 0.01
DEMO_STEPS = 24
DEMO_SNAPSHOTS = tuple(round(DEMO_DT * k, 10) for k in range(3, DEMO_STEPS + 1, 3))
L2_DRIFT_MAX = 1e-10  # frozen-midpoint steps are Cayley transforms; measured <= 5.4e-13
EXPLICIT_BLOW_UP_STEP = 5


def _demo(seed: int) -> Workload:
    rng = random.Random(seed)
    ic = "appendix" if seed == 0 else f"paper-eq2 {rng.uniform(3.5, 4.5):.4f}"
    common = (
        ("gamma_mode", "frozen-midpoint"),
        ("nx", "4001"),
        ("dt", repr(DEMO_DT)),
        ("t_end", repr(DEMO_SNAPSHOTS[-1])),
        ("ic", ic),
        ("snapshot_times", ",".join(repr(t) for t in DEMO_SNAPSHOTS)),
    )
    calls = (
        Call("run", (("scheme", "cn-lagged"),) + common + (("output_dir", "out_cn"),), 0),
        Call("run", (("scheme", "explicit"),) + common + (("output_dir", "out_explicit"),), 2),
    )
    return Workload(
        "demo-run", seed, calls, {"ic": ic}, _gate_demo,
        (
            ("drop a snapshot", _on_files(lambda d: _first_snapshot(d / "out_cn").unlink())),
            ("perturb a snapshot", _on_files(lambda d: _scale_u(_first_snapshot(d / "out_cn")))),
            ("wrong blow-up step", _on_files(lambda d: _edit(
                d / "out_explicit" / "run.meta", "blow_up_step = 5", "blow_up_step = 6"))),
            ("cn exit code", _on_exit(0, 1)),
        ),
    )


def _gate_demo(w: Workload, workdir: Path, outs: List[Outcome]) -> List[str]:
    fails: List[str] = []
    cn_call, ex_call = w.calls
    if _check_exit(cn_call, outs[0], fails):
        _, snaps = _run_outputs(workdir / "out_cn", len(DEMO_SNAPSHOTS), fails)
        l2 = []
        for snap in snaps:
            path = workdir / "out_cn" / snap.get("file", "")
            if not path.is_file():
                continue
            x, u = read_columns(path)
            dx = (x[-1] - x[0]) / (len(x) - 1)
            l2.append(sum(v * v for v in u) * dx)
        if l2 and l2[0] > 0:
            drift = max(abs(v - l2[0]) for v in l2) / l2[0]
            if not drift <= L2_DRIFT_MAX:
                fails.append(f"frozen-midpoint L2 drift {drift:.3e} > {L2_DRIFT_MAX:g}")
    if _check_exit(ex_call, outs[1], fails):
        meta = workdir / "out_explicit" / "run.meta"
        step = read_meta(meta)[0].get("blow_up_step") if meta.is_file() else None
        if step != str(EXPLICIT_BLOW_UP_STEP):
            fails.append(f"explicit blow_up_step = {step}, expected {EXPLICIT_BLOW_UP_STEP}")
    return fails


# ---------------------------------------------------------------- soliton-implicit

SOLITON_DT = 0.0025
SOLITON_STEPS = 12
SOLITON_T = round(SOLITON_DT * SOLITON_STEPS, 10)
PEAK_TOL = 0.15  # acceptance criterion 6


def _soliton(seed: int) -> Workload:
    rng = random.Random(seed)
    v = 0.25 if seed == 0 else round(rng.uniform(0.225, 0.275), 4)
    keys = (
        ("scheme", "cn-implicit"),
        ("gamma_mode", "row-varying"),
        ("x_min", "-10"),
        ("x_max", "14"),
        ("nx", "961"),
        ("dt", repr(SOLITON_DT)),
        ("t_end", repr(SOLITON_T)),
        ("ic", f"traveling {v!r}"),
        ("snapshot_times", repr(SOLITON_T)),
        ("output_dir", "out_soliton"),
    )
    return Workload(
        "soliton-implicit", seed, (Call("run", keys, 0),), {"v": v}, _gate_soliton,
        (
            ("shifted peak", _on_files(lambda d: _shift_peak(d / "out_soliton" / "run.meta", 0.2))),
            ("exit code", _on_exit(0, 2)),
        ),
    )


def _gate_soliton(w: Workload, workdir: Path, outs: List[Outcome]) -> List[str]:
    fails: List[str] = []
    if _check_exit(w.calls[0], outs[0], fails):
        _, snaps = _run_outputs(workdir / "out_soliton", 1, fails)
        if snaps:
            target = w.params["v"] * SOLITON_T
            peak = float(snaps[-1].get("peak_x", "nan"))
            if not abs(peak - target) <= PEAK_TOL:
                fails.append(f"final peak_x {peak} not within {PEAK_TOL} of v*T = {target}")
    return fails


# ---------------------------------------------------------------- spectral-probes

SCAN_ALPHAS = "0.01,1,100,1000,10000"
SCAN_BETAS = "0.1,1,10"
SCAN_U0_COUNT = 6
CN_UNIT_TOL = 1e-12
POWER_TOL = 1e-9
CERTIFICATE_LINE = "certificate: method = identity-plus-skew certified = true"


def _spectral(seed: int) -> Workload:
    rng = random.Random(seed)
    if seed == 0:
        ic = "appendix"
        u0 = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    else:
        ic = f"paper-eq2 {rng.uniform(3.5, 4.5):.4f}"
        u0 = tuple(sorted(round(rng.uniform(-2.0, 2.0), 4) for _ in range(SCAN_U0_COUNT)))
    scan_keys = (
        ("alpha_list", SCAN_ALPHAS),
        ("beta_list", SCAN_BETAS),
        ("u0_list", ",".join(repr(u) for u in u0)),
    )
    calls = (
        Call("eigen", (("nx", "4001"), ("gamma_mode", "frozen-midpoint"), ("ic", ic)), 0),
        Call("scan", (("scheme", "cn"),) + scan_keys + (("output_dir", "scan_cn"),), 0),
        Call("scan", (("scheme", "explicit"),) + scan_keys + (("output_dir", "scan_explicit"),), 0),
    )
    return Workload(
        "spectral-probes", seed, calls, {"ic": ic, "u0": u0}, _gate_spectral,
        (
            ("uncertified", _on_stdout(0, lambda t: t.replace("certified = true", "certified = false"))),
            ("power estimate", _on_stdout(0, lambda t: _set_token(t, "power_iteration:", "estimate", "1.000001"))),
            ("cn magnitude", _on_files(lambda d: _edit_last_value(
                d / "scan_cn" / "scan.csv", lambda m: repr(float(m) + 1e-9)))),
            ("explicit magnitude", _on_files(lambda d: _edit_last_value(
                d / "scan_explicit" / "scan.csv", lambda m: "0.999"))),
        ),
    )


def _gate_spectral(w: Workload, workdir: Path, outs: List[Outcome]) -> List[str]:
    fails: List[str] = []
    eigen, scan_cn, scan_ex = w.calls
    if _check_exit(eigen, outs[0], fails):
        text = outs[0].stdout
        if CERTIFICATE_LINE not in text.splitlines():
            fails.append("eigen: identity-plus-skew certificate missing")
        estimate = float(_token(text, "power_iteration:", "estimate") or "nan")
        if not abs(estimate - 1.0) <= POWER_TOL:
            fails.append(f"eigen: power estimate {estimate} differs from 1 by more than {POWER_TOL:g}")
    rows = len(SCAN_ALPHAS.split(",")) * len(SCAN_BETAS.split(",")) * len(w.params["u0"])
    for call, out, ok in ((scan_cn, outs[1], lambda m: abs(m - 1.0) <= CN_UNIT_TOL),
                          (scan_ex, outs[2], lambda m: m >= 1.0)):
        if not _check_exit(call, out, fails):
            continue
        path = workdir / call.output_dir / "scan.csv"
        mags = read_columns(path)[3] if path.is_file() else []
        if len(mags) != rows:
            fails.append(f"{call.output_dir}: {len(mags)} rows, expected {rows}")
        bad = [m for m in mags if not ok(m)]
        if bad:
            fails.append(f"{call.output_dir}: max_abs_lambda out of range, e.g. {bad[0]!r}")
    return fails


# ---------------------------------------------------------------- corruptions


def _on_files(mutate: Callable[[Path], None]):
    def corrupt(workdir: Path, outs: List[Outcome]) -> List[Outcome]:
        mutate(workdir)
        return outs
    return corrupt


def _on_exit(index: int, code: int):
    def corrupt(workdir: Path, outs: List[Outcome]) -> List[Outcome]:
        outs = list(outs)
        outs[index] = Outcome(code, outs[index].stdout)
        return outs
    return corrupt


def _on_stdout(index: int, edit: Callable[[str], str]):
    def corrupt(workdir: Path, outs: List[Outcome]) -> List[Outcome]:
        outs = list(outs)
        outs[index] = Outcome(outs[index].code, edit(outs[index].stdout))
        return outs
    return corrupt


def _first_snapshot(out_dir: Path) -> Path:
    return sorted(out_dir.glob("snapshot_*.csv"))[0]


def _scale_u(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [f"{x},{float(u) * (1 + 1e-6)!r}" for x, u in (ln.split(",") for ln in lines[1:])]
    path.write_text("\n".join([lines[0]] + rows) + "\n", encoding="utf-8")


def _edit(path: Path, old: str, new: str) -> None:
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")


def _shift_peak(meta: Path, delta: float) -> None:
    lines = meta.read_text(encoding="utf-8").splitlines()
    last = max(i for i, ln in enumerate(lines) if ln.startswith("snapshot t = "))
    peak = _token(lines[last], "snapshot", "peak_x")
    lines[last] = _set_token(lines[last], "snapshot", "peak_x", repr(float(peak) + delta))
    meta.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_last_value(path: Path, edit: Callable[[str], str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    head, _, last = lines[-1].rpartition(",")
    lines[-1] = f"{head},{edit(last)}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _token(text: str, prefix: str, key: str) -> Optional[str]:
    """Value of ``key = value`` on the first line starting with ``prefix``."""
    for line in text.splitlines():
        tokens = line.split()
        if line.startswith(prefix) and key in tokens[:-2]:
            return tokens[tokens.index(key) + 2]
    return None


def _set_token(text: str, prefix: str, key: str, value: str) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        tokens = line.split()
        if line.startswith(prefix) and key in tokens[:-2]:
            tokens[tokens.index(key) + 2] = value
            lines[i] = " ".join(tokens) + ("\n" if line.endswith("\n") else "")
            break
    return "".join(lines)


_BY_NAME = {"demo-run": _demo, "soliton-implicit": _soliton, "spectral-probes": _spectral}
NAMES = tuple(_BY_NAME)


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with its parameters drawn from ``seed``."""
    return _BY_NAME[name](seed)
