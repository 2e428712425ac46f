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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, Dict, Iterable, NamedTuple, Optional, Tuple

from .crank_nicolson import CnConfig, GammaMode, LinearizationKind
from .errors import ConfigError
from .explicit import ExplicitConfig
from .model import (
    Grid1D,
    SchemeParams,
    TimeGrid,
    WaveField,
    appendix_profile,
    initial_condition,
    traveling_wave,
)

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

SCHEMES = ("explicit", "cn-lagged", "cn-implicit")
GAMMA_MODES = tuple(m.value for m in GammaMode)
IC_KINDS = ("appendix", "paper-eq2", "traveling", "file")
REFINE_MODES = ("time", "space", "both")

DEFAULT_SNAPSHOTS = tuple(k + 0.01 for k in range(1, 9))


@dataclass
class RunConfig:
    """Fully validated configuration for one time-stepped run."""

    command: ClassVar[str] = "run"

    scheme: str = "cn-lagged"
    gamma_mode: str = "frozen-midpoint"
    x_min: float = -20.0
    x_max: float = 20.0
    nx: int = 4001
    dt: float = 0.01
    t_end: float = 10.0
    ic_kind: str = "appendix"
    ic_value: Optional[object] = None
    snapshot_times: Tuple[float, ...] = DEFAULT_SNAPSHOTS
    paper_normalization: bool = False
    output_dir: Path = Path("out")

    @property
    def ic(self) -> Tuple[str, Optional[object]]:
        """The ``ic`` key: initial-condition kind and its parameter."""
        return self.ic_kind, self.ic_value

    @ic.setter
    def ic(self, kind_value: Tuple[str, Optional[object]]) -> None:
        self.ic_kind, self.ic_value = kind_value

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.gamma_mode not in GAMMA_MODES:
            raise ConfigError(
                f"gamma_mode must be one of {GAMMA_MODES}, got {self.gamma_mode!r}"
            )
        if not self.x_max > self.x_min:
            raise ConfigError(
                f"x_max ({self.x_max}) must exceed x_min ({self.x_min})"
            )
        if self.nx < 7:
            raise ConfigError(f"nx must be an integer >= 7, got {self.nx}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_end <= 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.ic_kind not in IC_KINDS:
            raise ConfigError(f"ic must be one of {IC_KINDS}, got {self.ic_kind!r}")
        if self.ic_kind in ("paper-eq2", "traveling"):
            if not isinstance(self.ic_value, float) or self.ic_value <= 0:
                raise ConfigError(
                    f"ic {self.ic_kind} needs a positive speed parameter, got {self.ic_value!r}"
                )
        if self.ic_kind == "file" and not self.ic_value:
            raise ConfigError("ic file needs a path")
        times = self.snapshot_times
        for a, b in zip(times, times[1:]):
            if b < a:
                raise ConfigError(
                    f"snapshot_times must be ascending, got {a} before {b}"
                )
        if times and (times[0] < 0.0 or times[-1] > self.t_end):
            raise ConfigError(
                f"snapshot_times must lie in [0, t_end={self.t_end}], got {times}"
            )

    def grid(self) -> Grid1D:
        return Grid1D(self.x_min, self.x_max, self.nx)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.t_end, self.dt)

    def scheme_params(self) -> SchemeParams:
        return SchemeParams.from_grid(self.grid(), self.dt)

    def initial_field(self) -> WaveField:
        grid = self.grid()
        if self.ic_kind == "appendix":
            return appendix_profile(grid)
        if self.ic_kind == "paper-eq2":
            return initial_condition(grid, float(self.ic_value))
        if self.ic_kind == "traveling":
            return traveling_wave(grid, float(self.ic_value), 0.0)
        from .runio import read_field_csv  # local import: runio imports this module's types

        return read_field_csv(Path(str(self.ic_value)), grid)

    def cn_config(self) -> CnConfig:
        linearization = (
            LinearizationKind.IMPLICIT_COEFFICIENT
            if self.scheme == "cn-implicit"
            else LinearizationKind.LAGGED_COEFFICIENT
        )
        return CnConfig(
            params=self.scheme_params(),
            linearization=linearization,
            gamma_mode=GammaMode(self.gamma_mode),
            paper_normalization=self.paper_normalization,
        )

    def explicit_config(self) -> ExplicitConfig:
        return ExplicitConfig(params=self.scheme_params())

    def echo_lines(self) -> list:
        """Config echo as deterministic ``key = value`` lines, in table order."""
        return [
            f"{key} = {kind.show(getattr(self, key))}"
            for key, (kind, _) in KEYS.items()
            if hasattr(self, key)
        ]


@dataclass
class EigenConfig(RunConfig):
    """Run configuration plus the power-iteration controls of the eigen probe."""

    command: ClassVar[str] = "eigen"

    snapshot_times: Tuple[float, ...] = ()
    power_tol: float = 1e-10
    power_max_iters: int = 10_000

    def validate(self) -> None:
        super().validate()
        if self.power_tol <= 0:
            raise ConfigError(f"power_tol must be positive, got {self.power_tol}")
        if self.power_max_iters < 1:
            raise ConfigError(
                f"power_max_iters must be >= 1, got {self.power_max_iters}"
            )


@dataclass
class ScanConfig:
    """Parameter grids for a stability scan."""

    command: ClassVar[str] = "scan"

    scheme: str = "cn"
    alpha_list: Tuple[float, ...] = (1000.0,)
    beta_list: Tuple[float, ...] = (1.0,)
    u0_list: Tuple[float, ...] = (0.0,)
    n_theta: int = 257
    output_dir: Path = Path("out")

    def validate(self) -> None:
        if self.scheme not in ("cn", "explicit"):
            raise ConfigError(
                f"scan scheme must be 'cn' or 'explicit', got {self.scheme!r}"
            )
        for name, values in (("alpha_list", self.alpha_list), ("beta_list", self.beta_list)):
            for v in values:
                if v <= 0:
                    raise ConfigError(f"{name} entries must be positive, got {v}")
        if self.n_theta < 2:
            raise ConfigError(f"n_theta must be >= 2, got {self.n_theta}")


@dataclass
class ConvergeConfig(RunConfig):
    """Run configuration plus refinement controls for a convergence study."""

    command: ClassVar[str] = "converge"

    levels: int = 3
    refine: str = "both"
    snapshot_times: Tuple[float, ...] = ()
    ic_kind: str = "traveling"
    ic_value: Optional[object] = 0.5
    gamma_mode: str = "row-varying"
    x_min: float = -16.0
    x_max: float = 20.0
    nx: int = 451
    dt: float = 0.02
    t_end: float = 1.0

    def validate(self) -> None:
        super().validate()
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if self.refine not in REFINE_MODES:
            raise ConfigError(
                f"refine must be one of {REFINE_MODES}, got {self.refine!r}"
            )
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(
                f"t_end ({self.t_end}) must be an integer multiple of dt ({self.dt}) "
                "so refined runs end at a common time"
            )


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
    if kind in ("paper-eq2", "traveling"):
        raise ConfigError(
            f"{where}: ic {kind} needs a parameter, e.g. 'ic = {kind} 0.5'"
        )
    if kind == "file":
        raise ConfigError(f"{where}: ic file needs a path")
    return kind, None


def _show_ic(kind_value: Tuple[str, Optional[object]]) -> str:
    kind, value = kind_value
    return kind if value is None else f"{kind} {value}"


class _Kind(NamedTuple):
    """How one key's value is parsed from text and echoed back."""

    parse: Callable[[str, str], object]  # (value text, error context) -> value
    show: Callable[[object], str]


_TEXT = _Kind(lambda value, where: value, str)
_PATH = _Kind(lambda value, where: Path(value), str)
_FLOAT = _Kind(_as_float, repr)
_INT = _Kind(_as_int, str)
_BOOL = _Kind(_as_bool, lambda on: "on" if on else "off")
_FLOATS = _Kind(_as_float_list, lambda values: ",".join(map(repr, values)))
_IC = _Kind(_as_ic, _show_ic)

_ALL = ("run", "eigen", "scan", "converge")
_STEPPED = ("run", "eigen", "converge")

# Every config key, in the order of the ``--help`` listings and the meta
# echo: its value kind and the subcommands that accept it.  A key names
# the attribute it sets on the subcommand's config class.
KEYS: Dict[str, Tuple[_Kind, Tuple[str, ...]]] = {
    "scheme": (_TEXT, _ALL),
    "gamma_mode": (_TEXT, _STEPPED),
    "x_min": (_FLOAT, _STEPPED),
    "x_max": (_FLOAT, _STEPPED),
    "nx": (_INT, _STEPPED),
    "dt": (_FLOAT, _STEPPED),
    "t_end": (_FLOAT, _STEPPED),
    "ic": (_IC, _STEPPED),
    "snapshot_times": (_FLOATS, ("run",)),
    "paper_normalization": (_BOOL, _STEPPED),
    "alpha_list": (_FLOATS, ("scan",)),
    "beta_list": (_FLOATS, ("scan",)),
    "u0_list": (_FLOATS, ("scan",)),
    "n_theta": (_INT, ("scan",)),
    "output_dir": (_PATH, ("run", "scan", "converge")),
    "levels": (_INT, ("converge",)),
    "refine": (_TEXT, ("converge",)),
    "power_tol": (_FLOAT, ("eigen",)),
    "power_max_iters": (_INT, ("eigen",)),
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
    """Like :func:`parse_config` but also accepts the power-probe keys."""
    return _parse(EigenConfig, text, overrides)


def parse_scan_config(text: str, overrides: Overrides = ()) -> ScanConfig:
    """Parse a stability-scan configuration."""
    return _parse(ScanConfig, text, overrides)


def parse_converge_config(text: str, overrides: Overrides = ()) -> ConvergeConfig:
    """Parse a convergence-study configuration."""
    return _parse(ConvergeConfig, text, overrides)
