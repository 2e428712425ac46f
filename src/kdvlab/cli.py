"""Command-line interface: run, scan, eigen, converge.

Each subcommand reads an optional ``--config`` file of ``key = value``
lines and accepts ``--<key> <value>`` overrides for the same keys, taken
verbatim and applied after the file's lines.
Exit codes: 0 completed, 1 usage or I/O error (in ``converge`` also a
solver failure), 2 blow-up, 3 solver failure: a singular matrix or a
Picard iteration that did not converge.  ``run`` writes its outputs in
either case, with ``outcome = blow-up`` or ``outcome = solver-failure``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analysis import observed_order, stability_scan
from .banded import (
    Pentadiagonal,
    invertibility_certificate,
    power_iteration,
    symbol_bound,
)
from .config import (
    KEYS,
    ConvergeConfig,
    EigenConfig,
    RunConfig,
    ScanConfig,
    parse_config,
    parse_converge_config,
    parse_eigen_config,
    parse_scan_config,
)
from .crank_nicolson import assemble_lagged, run_cn
from .errors import ConfigError, KdvLabError
from .evolution import OUTCOME_BLOW_UP, OUTCOME_COMPLETED, OUTCOME_SOLVER_FAILURE, RunResult
from .explicit import run_explicit
from .runio import _fmt, write_run_outputs

__all__ = [
    "cmd_run",
    "cmd_scan",
    "cmd_eigen",
    "cmd_converge",
    "eigen_report_text",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BLOW_UP = 2
EXIT_SOLVER_FAILURE = 3

EXIT_CODES = {OUTCOME_COMPLETED: EXIT_OK, OUTCOME_BLOW_UP: EXIT_BLOW_UP,
              OUTCOME_SOLVER_FAILURE: EXIT_SOLVER_FAILURE}


def execute_run(cfg: RunConfig) -> RunResult:
    """Run the configured scheme and return the result (no file output)."""
    ic = cfg.initial_field()
    time = cfg.time_grid()
    if cfg.scheme == "explicit":
        return run_explicit(ic, cfg.scheme_params(), time, cfg.snapshot_times)
    return run_cn(ic, cfg.cn_config(), time, cfg.snapshot_times)


def cmd_run(cfg: RunConfig) -> int:
    """Execute a run and write snapshot CSVs plus ``run.meta``; the exit code names the outcome."""
    result = execute_run(cfg)
    if result.failure is not None:
        print(f"kdvlab run: solver failure: step {result.failure_step}: {result.failure}",
              file=sys.stderr)
    write_run_outputs(cfg.output_dir, cfg.echo_lines(), result)
    return EXIT_CODES[result.outcome]


def cmd_scan(cfg: ScanConfig) -> int:
    """Write ``scan.csv``: max |lambda| over theta per (alpha, beta, u0)."""
    thetas = np.linspace(0.0, math.pi, cfg.n_theta)
    ratios = [(a, b) for a in cfg.alpha_list for b in cfg.beta_list]
    rows = stability_scan(cfg.scheme, ratios, cfg.u0_list, thetas)
    lines = ["alpha,beta,u0,max_abs_lambda"]
    for row in rows:
        lines.append(
            f"{_fmt(row.alpha)},{_fmt(row.beta)},"
            f"{_fmt(row.u0)},{_fmt(row.max_magnitude)}"
        )
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    (cfg.output_dir / "scan.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def eigen_report_text(A: Pentadiagonal) -> str:
    """Spectral probe report for one matrix: power iteration, sigma_max and the certificate.

    sigma_max is :func:`symbol_bound`, a certified upper bound for every A;
    the power-iteration probe runs with its default stopping rule.
    """
    plain = power_iteration(A, np.ones(A.n) / math.sqrt(A.n))
    cert = invertibility_certificate(A)
    lines = [
        f"n = {A.n}",
        "power_iteration: "
        f"estimate = {_fmt(plain.estimate)} iterations = {plain.iterations} "
        f"converged = {str(plain.converged).lower()} residual = {_fmt(plain.residual)}",
        f"symbol_bound: sigma_max = {_fmt(symbol_bound(A))} kind = upper-bound",
        f"certificate: method = {cert.method} certified = {str(cert.certified).lower()}",
        f"certificate_detail: {cert.detail}",
    ]
    return "\n".join(lines) + "\n"


def cmd_eigen(cfg: EigenConfig, out=None) -> int:
    """Probe the lagged-coefficient matrix A assembled from the initial state.

    ``out`` defaults to ``sys.stdout`` as it is bound when called.
    """
    out = sys.stdout if out is None else out
    ic = cfg.initial_field()
    A, _ = assemble_lagged(ic, cfg.cn_config())
    header = (
        "kdvlab eigen probe\n"
        f"matrix: lagged-coefficient interior A at t = 0 ({cfg.gamma_mode})\n"
        f"alpha = {_fmt(cfg.scheme_params().alpha)} beta = {_fmt(cfg.scheme_params().beta)}\n"
    )
    out.write(header + eigen_report_text(A))
    return EXIT_OK


def converge_study(cfg: ConvergeConfig):
    """Run all refinement levels; returns (h per level, errors).

    Level k divides dt, nx - 1 or both by 2^k; its h is dt when only dt
    is refined, dx otherwise.  Errors compare each level's final state
    against the finest level on the coarse level's grid points (sup
    norm).  The finest level itself has no error entry.
    """
    finals = []
    hs = []
    for level in range(cfg.levels):
        space = 1 if cfg.refine == "time" else 2**level
        time = 1 if cfg.refine == "space" else 2**level
        level_cfg = type(cfg)(**{**vars(cfg), "nx": (cfg.nx - 1) * space + 1,
                                 "dt": cfg.dt / time, "snapshot_times": (cfg.t_end,)})
        level_cfg.validate()
        result = execute_run(level_cfg)
        if result.failure is not None:
            raise KdvLabError(f"refinement level {level} failed at step {result.failure_step}: "
                              f"{result.failure}")
        if not result.completed:
            raise KdvLabError(
                f"refinement level {level} blew up at step {result.blow_up_step}"
            )
        finals.append(result.snapshots[-1])
        hs.append(level_cfg.dt if cfg.refine == "time" else level_cfg.grid().dx)

    errors = []
    finest = finals[-1]
    for final in finals[:-1]:
        stride = (finest.grid.nx - 1) // (final.grid.nx - 1)  # 1 when only dt is refined
        errors.append(float(np.max(np.abs(final.values - finest.values[::stride]))))
    return hs, errors


def cmd_converge(cfg: ConvergeConfig) -> int:
    """Run the refinement study and write ``converge.csv`` plus ``converge.meta``."""
    hs, errors = converge_study(cfg)

    lines = ["level,h,error_vs_finest,pairwise_order"]
    for level, h in enumerate(hs):
        err = _fmt(errors[level]) if level < len(errors) else ""
        order = ""
        if 1 <= level < len(errors) and errors[level - 1] > 0 and errors[level] > 0:
            order = _fmt(
                math.log2(errors[level - 1] / errors[level])
                / math.log2(hs[level - 1] / hs[level])
            )
        lines.append(f"{level},{_fmt(h)},{err},{order}")

    positive = [(h, e) for h, e in zip(hs, errors) if e > 0]
    if len(positive) >= 2:
        order_line = f"observed_order = {_fmt(observed_order(positive))}"
    elif any(e == 0.0 for e in errors):
        order_line = "observed_order = undefined (zero errors)"
    else:
        order_line = "observed_order = undefined (needs at least two error points)"

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    (cfg.output_dir / "converge.csv").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    meta = ["# kdvlab converge metadata"]
    meta.extend(cfg.echo_lines())
    meta.append(order_line)
    (cfg.output_dir / "converge.meta").write_text(
        "\n".join(meta) + "\n", encoding="utf-8"
    )
    return EXIT_OK


def _add_subcommand(sub, name: str, help_text: str):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", type=Path, default=None, help="key=value config file")
    for key, (_, commands) in KEYS.items():
        if name in commands:
            p.add_argument(f"--{key}", dest=f"key_{key}", default=None, metavar="VALUE")
    return p


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (each build leaves cyclic garbage)."""
    parser = argparse.ArgumentParser(
        prog="kdvlab",
        description="Finite-difference laboratory for the KdV equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(sub, "run", "time-step a scheme and write snapshot CSVs")
    _add_subcommand(sub, "scan", "amplification-factor stability scan")
    _add_subcommand(sub, "eigen", "spectral probes of the implicit matrix")
    _add_subcommand(sub, "converge", "grid-refinement convergence study")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; fold into the documented code 1
        return EXIT_USAGE if exc.code else EXIT_OK

    # looked up per call, so a rebound parse_* name in this module is honoured
    parse, command = {
        "run": (parse_config, cmd_run),
        "scan": (parse_scan_config, cmd_scan),
        "eigen": (parse_eigen_config, cmd_eigen),
        "converge": (parse_converge_config, cmd_converge),
    }[args.command]
    overrides = [
        (key, value)
        for key in KEYS
        if (value := getattr(args, f"key_{key}", None)) is not None
    ]
    try:
        text = "" if args.config is None else args.config.read_text(encoding="utf-8")
        return command(parse(text, overrides))
    except (ConfigError, KdvLabError, OSError, ValueError, MemoryError) as exc:
        print(f"kdvlab {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
