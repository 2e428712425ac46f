"""Snapshot CSV and run-metadata emission.

Output is fully deterministic: values are printed with 17 significant
digits (lossless for doubles), there are no timestamps, and field order
is fixed, so identical configurations produce byte-identical files.
A snapshot is one ``%`` fill of its grid's CSV template, which a run's
output builds once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

import numpy as np

from .banded import solve_backend
from .errors import ConfigError
from .evolution import RunResult
from .model import Grid1D, WaveField

__all__ = [
    "time_label",
    "snapshot_filename",
    "write_field_csv",
    "read_field_csv",
    "write_run_outputs",
]


def time_label(t: float) -> str:
    """Snapshot-time label: 15 significant digits, trailing zeros dropped.

    15 digits absorbs the couple-of-ulp wobble of times computed as
    n*dt (so step 201 of dt=0.01 labels as ``2.01``) while still
    distinguishing any two distinct time levels.
    """
    return format(float(t), ".15g")


def snapshot_filename(t: float) -> str:
    return f"snapshot_t{time_label(t)}.csv"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_template(grid: Grid1D) -> bytes:
    """The ``x,u`` CSV of ``grid`` with each u value left as a ``%.17g`` slot.

    ``template % tuple(u)`` then formats a whole field in one C-level pass,
    straight to the file's ASCII bytes.  printf ``%.17g`` gives the same
    digits as ``format(v, ".17g")``, and the formatted x text never holds a
    ``%``, so the fill is exact.
    """
    text = "x,u\n" + ("%.17g,%%.17g\n" * grid.nx) % tuple(grid.points().tolist())
    return text.encode("ascii")


def _write_csv(path: Path, template: bytes, field: WaveField) -> None:
    path.write_bytes(template % tuple(field.values.tolist()))


def write_field_csv(path: Path, field: WaveField) -> None:
    """Write one snapshot as ``x,u`` rows with lossless decimal values."""
    _write_csv(path, _csv_template(field.grid), field)


def read_field_csv(path: Path, grid: Grid1D, time: float = 0.0) -> WaveField:
    """Read a snapshot CSV back onto ``grid``; the x column must match it."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read field file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split(",")[:2] != ["x", "u"]:
        raise ConfigError(f"field file {path} must start with an 'x,u' header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 'x,u', got {line!r}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed number in {line!r}") from None
    if len(rows) != grid.nx:
        raise ConfigError(
            f"field file {path} has {len(rows)} rows but the grid has {grid.nx} points"
        )
    xs = np.array([r[0] for r in rows])
    us = np.array([r[1] for r in rows])
    expected = grid.points()
    tol = 1e-9 * (1.0 + np.max(np.abs(expected)))
    if np.max(np.abs(xs - expected)) > tol:
        raise ConfigError(f"field file {path} x column does not match the grid")
    return WaveField(grid, time, us)


def write_run_outputs(out_dir: Path, echo_lines, result: RunResult) -> Tuple[list, Path]:
    """Write per-snapshot CSVs and ``run.meta``; returns (csv paths, meta path).

    Any other ``snapshot_t*.csv`` already in ``out_dir`` is deleted, so the
    directory's snapshots are exactly those that ``run.meta`` lists.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    grid = template = None  # a run's snapshots share one grid object
    for snap in result.snapshots:
        if snap.grid is not grid:  # by identity: a grid ending at -0.0 equals one ending at 0.0
            grid, template = snap.grid, _csv_template(snap.grid)
        path = out_dir / snapshot_filename(snap.time)
        _write_csv(path, template, snap)
        paths.append(path)

    meta = ["# kdvlab run metadata"]
    meta.append(f"outcome = {result.outcome}")
    meta.append(
        "blow_up_step = " + ("" if result.blow_up_step is None else str(result.blow_up_step))
    )
    if result.failure is not None:
        meta.append(f"failure_step = {result.failure_step}")
        meta.append(f"failure = {result.failure}")
    meta.append(f"backend = {solve_backend()}")
    if result.picard_solves is not None:  # empty values when no step completed
        solves = result.picard_solves
        summary = ("",) * 3
        if solves:
            summary = (min(solves), _fmt(sum(solves) / len(solves)), max(solves))
        meta.extend(f"picard_solves_{stat} = {value}"
                    for stat, value in zip(("min", "mean", "max"), summary))
    meta.extend(echo_lines)
    meta.append(f"snapshot_count = {len(result.snapshots)}")
    for snap, diag in zip(result.snapshots, result.diagnostics):
        meta.append(
            f"snapshot t = {time_label(snap.time)} file = {snapshot_filename(snap.time)} "
            f"mass = {_fmt(diag.mass)} max_abs = {_fmt(diag.max_abs)} "
            f"peak_x = {_fmt(diag.peak_x)}"
        )
    meta_path = out_dir / "run.meta"
    meta_path.write_text("\n".join(meta) + "\n", encoding="utf-8")
    listed = {path.name for path in paths}
    for stale in out_dir.glob("snapshot_t*.csv"):
        if stale.name not in listed:
            stale.unlink()
    return paths, meta_path
