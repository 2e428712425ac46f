"""Key=value run configuration: parsing, validation, defaults.

The accepted format is one ``key = value`` per line, ``#`` starting a
comment, blank lines ignored.  Command-line overrides arrive as
``(key, value)`` pairs, applied after the file's lines and taken
verbatim (``#`` included).  One table, :data:`KEYS`, gives every key its
value kind and the subcommands that accept it; it drives parsing, the
unknown-key errors, the ``--<key>`` flags and the metadata echo.  Every
constraint violation names the offending line or key.  The defaults
reproduce the reference demo pipeline: the [-20, 20] grid with 4001
points, dt = 0.01, frozen-midpoint Crank-Nicolson, and snapshots at
t = 1.01 ... 8.01.
"""

from __future__ import annotations

import math
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Optional, Tuple

from .analysis import scan_ratios
from .crank_nicolson import SchemeConfig, check_cn_grid, check_scheme, check_symbol
from .errors import ConfigError
from .evolution import snapshot_requests
from .model import (
    Grid1D,
    SchemeParams,
    TimeGrid,
    WaveField,
    appendix_profile,
    initial_condition,
    traveling_wave,
)
from .record import Frozen, Record
from .runio import read_field_csv

__all__ = [
    "KEYS",
    "RunConfig",
    "EigenConfig",
    "ScanConfig",
    "ConvergeConfig",
    "parse_config",
    "parse_eigen_config",
    "parse_scan_config",
    "parse_converge_config",
]

IC_KINDS = ("appendix", "paper-eq2", "traveling", "file")
REFINE_MODES = ("time", "space", "both")

DEFAULT_SNAPSHOTS = tuple(k + 0.01 for k in range(1, 9))


class _Config(Record):
    """Base of the subcommand configurations: mutable fields, compared by value.

    ``defaults`` maps each field to its default, read-only; the
    constructor takes fields by keyword.  ``command`` names the
    subcommand whose keys :data:`KEYS` lets the config read.
    """

    def __init__(self, **fields):
        unknown = fields.keys() - self.defaults.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__} has no fields {sorted(unknown)}")
        self.__dict__.update(self.defaults, **fields)


class RunConfig(_Config):
    """Fully validated configuration for one time-stepped run."""

    command = "run"
    defaults = MappingProxyType(dict(
        scheme="cn-lagged", gamma_mode="frozen-midpoint",
        x_min=-20.0, x_max=20.0, nx=4001, dt=0.01, t_end=10.0,
        ic=("appendix", None),  # (kind, the speed or the path of ``ic = file``)
        snapshot_times=DEFAULT_SNAPSHOTS, paper_normalization=False, output_dir=Path("out"),
    ))

    def validate(self) -> None:
        check_scheme(self.scheme, self.gamma_mode, self.paper_normalization)
        kind, value = self.ic
        if kind not in IC_KINDS:
            raise ConfigError(f"ic must be one of {IC_KINDS}, got {kind!r}")
        if kind in ("paper-eq2", "traveling") and (not isinstance(value, float) or value <= 0):
            raise ConfigError(f"ic {kind} needs a positive speed parameter, got {value!r}")
        if kind == "appendix" and value is not None:
            raise ConfigError(f"ic appendix takes no parameter, got {value!r}")
        if kind == "file" and not value:
            raise ConfigError("ic file needs a path")
        # the grid, the time levels, the snapshot rule, the mesh ratios and
        # the cn grid rule check themselves
        try:
            self.grid()
            snapshot_requests(self.snapshot_times, self.time_grid())
            self.scheme_params()
            if self.scheme != "explicit":
                check_cn_grid(self.nx)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def grid(self) -> Grid1D:
        return Grid1D(self.x_min, self.x_max, self.nx)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.t_end, self.dt)

    def scheme_params(self) -> SchemeParams:
        return SchemeParams(dx=self.grid().dx, dt=self.dt)

    def initial_field(self) -> WaveField:
        grid = self.grid()
        kind, value = self.ic
        if kind == "appendix":
            return appendix_profile(grid)
        if kind == "paper-eq2":
            return initial_condition(grid, float(value))
        if kind == "traveling":
            return traveling_wave(grid, float(value), 0.0)
        return read_field_csv(Path(str(value)), grid)

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(self.scheme_params(), self.scheme, self.gamma_mode,
                            self.paper_normalization)

    def echo_lines(self) -> list:
        """Echo of the command's keys as deterministic ``key = value`` lines, in table order."""
        return [
            f"{key} = {kind.show(getattr(self, key))}"
            for key, (kind, commands) in KEYS.items()
            if self.command in commands
        ]


class EigenConfig(RunConfig):
    """Run configuration of the eigen probe, which takes no snapshots."""

    command = "eigen"
    defaults = MappingProxyType(dict(RunConfig.defaults, snapshot_times=()))


class ScanConfig(_Config):
    """Parameter grids for a stability scan."""

    command = "scan"
    defaults = MappingProxyType(dict(scheme="cn", alpha_list=(1000.0,), beta_list=(1.0,),
                                     u0_list=(0.0,), n_theta=257, output_dir=Path("out")))

    def validate(self) -> None:
        # the scan checks its scheme and mesh ratios itself; the command also needs g finite
        try:
            ratios = scan_ratios(self.scheme, [(a, b) for a in self.alpha_list
                                               for b in self.beta_list])
            for alpha, beta in ratios:
                check_symbol(alpha, beta, self.u0_list)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.n_theta < 2:
            raise ConfigError(f"n_theta must be >= 2, got {self.n_theta}")


class ConvergeConfig(RunConfig):
    """Run configuration plus refinement controls for a convergence study."""

    command = "converge"
    defaults = MappingProxyType(dict(
        RunConfig.defaults, levels=3, refine="both", snapshot_times=(),
        ic=("traveling", 0.5), gamma_mode="row-varying",
        x_min=-16.0, x_max=20.0, nx=451, dt=0.02, t_end=1.0,
    ))

    def validate(self) -> None:
        super().validate()
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if self.refine not in REFINE_MODES:
            raise ConfigError(
                f"refine must be one of {REFINE_MODES}, got {self.refine!r}"
            )
        if self.ic[0] == "file" and self.refine != "time" and self.levels > 1:
            raise ConfigError(
                f"ic file needs refine = time when levels > 1, got refine = {self.refine}: "
                "the file holds one grid, and refining in space gives each level another"
            )
        try:
            snapshot_requests((self.t_end,), self.time_grid())
        except ValueError:
            raise ConfigError(
                f"t_end ({self.t_end}) must be an integer multiple of dt ({self.dt}) "
                "so refined runs end at a common time"
            ) from None


def _as_float(value: str, where: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{where}: not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{where}: value must be finite, got {value!r}")
    return out


def _as_int(value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: not an integer: {value!r}") from None


def _as_bool(value: str, where: str) -> bool:
    lowered = value.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"{where}: expected on/off, got {value!r}")


def _as_float_list(value: str, where: str) -> Tuple[float, ...]:
    parts = [p for chunk in value.split(",") for p in chunk.split()]
    return tuple(_as_float(p, where) for p in parts)


def _as_ic(value: str, where: str) -> Tuple[str, Optional[object]]:
    parts = value.split(None, 1)
    kind = parts[0] if parts else ""
    if len(parts) == 2:
        return kind, parts[1] if kind == "file" else _as_float(parts[1], where)
    return kind, None


def _show_ic(kind_value: Tuple[str, Optional[object]]) -> str:
    kind, value = kind_value
    return kind if value is None else f"{kind} {value}"


class _Kind(Frozen):
    """How one key's value is parsed from text and echoed back.

    ``parse(value text, error context)`` gives the value, ``show(value)`` its text.
    """

    def __init__(self, parse: Callable[[str, str], object], show: Callable[[object], str]):
        self.__dict__.update(parse=parse, show=show)


_TEXT = _Kind(lambda value, where: value, str)
_PATH = _Kind(lambda value, where: Path(value), str)
_FLOAT = _Kind(_as_float, repr)
_INT = _Kind(_as_int, str)
_BOOL = _Kind(_as_bool, lambda on: "on" if on else "off")
_FLOATS = _Kind(_as_float_list, lambda values: ",".join(map(repr, values)))
_IC = _Kind(_as_ic, _show_ic)

_STEPPED = ("run", "eigen", "converge")

# Every config key, in the order of the ``--help`` listings and the meta
# echo: its value kind and the subcommands that accept it.  A key names
# the attribute it sets on the subcommand's config class.
KEYS: Dict[str, Tuple[_Kind, Tuple[str, ...]]] = {
    "scheme": (_TEXT, ("run", "scan", "converge")),
    "gamma_mode": (_TEXT, _STEPPED),
    "x_min": (_FLOAT, _STEPPED),
    "x_max": (_FLOAT, _STEPPED),
    "nx": (_INT, _STEPPED),
    "dt": (_FLOAT, _STEPPED),
    "t_end": (_FLOAT, ("run", "converge")),
    "ic": (_IC, _STEPPED),
    "snapshot_times": (_FLOATS, ("run",)),
    "paper_normalization": (_BOOL, ("run", "converge")),
    "alpha_list": (_FLOATS, ("scan",)),
    "beta_list": (_FLOATS, ("scan",)),
    "u0_list": (_FLOATS, ("scan",)),
    "n_theta": (_INT, ("scan",)),
    "output_dir": (_PATH, ("run", "scan", "converge")),
    "levels": (_INT, ("converge",)),
    "refine": (_TEXT, ("converge",)),
}

Overrides = Iterable[Tuple[str, str]]


def _settings(text: str, overrides: Overrides):
    """(error context, key, value) for each file line, then each override."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield f"line {lineno}: key {key!r}", key, value
    for key, value in overrides:
        yield f"key {key!r}", key, value.strip()


def _parse(cls, text: str, overrides: Overrides):
    cfg = cls()
    for where, key, value in _settings(text, overrides):
        kind, commands = KEYS.get(key, (None, ()))
        if cls.command not in commands:
            raise ConfigError(f"{where}: unknown key for the {cls.command} command")
        setattr(cfg, key, kind.parse(value, where))
    cfg.validate()
    return cfg


def parse_config(text: str, overrides: Overrides = ()) -> RunConfig:
    """Parse and validate a run configuration; empty text gives the demo preset."""
    return _parse(RunConfig, text, overrides)


def parse_eigen_config(text: str, overrides: Overrides = ()) -> EigenConfig:
    """Parse an eigen-probe configuration: the grid, step and initial-field keys of a run."""
    return _parse(EigenConfig, text, overrides)


def parse_scan_config(text: str, overrides: Overrides = ()) -> ScanConfig:
    """Parse a stability-scan configuration."""
    return _parse(ScanConfig, text, overrides)


def parse_converge_config(text: str, overrides: Overrides = ()) -> ConvergeConfig:
    """Parse a convergence-study configuration."""
    return _parse(ConvergeConfig, text, overrides)
