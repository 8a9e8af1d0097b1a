"""Plain-text scenario configuration: [section] headers and key = value
lines, with units encoded in the key names (m, s, m2s, kgs, mps, hz).

The format is diff-friendly and strict: unknown sections or keys are errors
(a wrong unit suffix therefore cannot pass silently), every error names the
key and line, and defaults are filled in at load time so that dumping a
loaded config yields a complete, canonical, byte-stable text. The sha256 of
that canonical dump is embedded in every artifact the CLI writes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable

from .channel import (
    Environment,
    FreeSpace,
    HalfSpaceReflecting,
    RectangularDuctReflecting,
    SourceSpec,
)
from .core import Velocity
from .errors import ConfigError
from .mobility import Trajectory


def _parse_float(raw: str, key: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}", key, line) from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}", key, line)
    return value


def _parse_int(raw: str, key: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}", key, line) from None


def _parse_floats(n: int | None) -> Callable:
    def parse(raw: str, key: str, line: int) -> tuple[float, ...]:
        parts = raw.split()
        if n is not None and len(parts) != n:
            raise ConfigError(f"expected {n} numbers, got {len(parts)}", key, line)
        if n is None and not parts:
            raise ConfigError("expected at least one number", key, line)
        return tuple(_parse_float(p, key, line) for p in parts)
    return parse


def _parse_choice(*choices: str) -> Callable:
    def parse(raw: str, key: str, line: int) -> str:
        if raw not in choices:
            raise ConfigError(f"expected one of {choices}, got {raw!r}", key, line)
        return raw
    return parse


def _parse_floats_empty_or(n: int) -> Callable:
    def parse(raw: str, key: str, line: int) -> tuple[float, ...]:
        if not raw.split():
            return ()
        return _parse_floats(n)(raw, key, line)
    return parse


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_PARSERS = {"float": _parse_float, "int": _parse_int}


def _key(parse: Callable, default=MISSING):
    """A key read by `parse`; without a default it is required."""
    return field(default=default, metadata={"parse": parse})


def _solver_default(name: str):
    """A key whose default is localization.SolverConfig's, read when the
    section is built, so that loading a config imports no localization."""
    def default():
        from .localization import SolverConfig
        return getattr(SolverConfig, name)
    return field(default_factory=default)


# A section's keys are its dataclass fields, in declaration order, so
# dumping is mechanical. A field without a default is a required key.
# Float and int keys are parsed by their annotation, others through _key.

@dataclass
class EnvSection:
    diffusivity_m2s: float
    wind_mps: tuple = _key(_parse_floats(3), (0.0, 0.0, 0.0))
    boundary: str = _key(_parse_choice("free", "halfspace", "duct"), "free")
    duct_width_m: float = 0.0
    duct_height_m: float = 0.0
    # Parsed and ignored: the duct field is exact, with no image order to
    # set. It stays while the benchmark's duct input still writes it.
    image_order: int = 10

    def build(self) -> Environment:
        try:
            if self.boundary == "free":
                b = FreeSpace()
            elif self.boundary == "halfspace":
                b = HalfSpaceReflecting()
            elif self.duct_width_m <= 0 or self.duct_height_m <= 0:
                raise ConfigError(
                    "duct boundary needs duct_width_m and duct_height_m > 0"
                )
            else:
                b = RectangularDuctReflecting(self.duct_width_m, self.duct_height_m)
            return Environment(diffusivity=self.diffusivity_m2s,
                               wind=Velocity(*self.wind_mps), boundary=b)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class SourceSection:
    kind: str = _key(_parse_choice("instant", "continuous"))
    position_m: tuple = _key(_parse_floats(3))
    mass_kg: float = 0.0
    rate_kgs: float = 0.0
    start_s: float = 0.0
    velocity_mps: tuple = _key(_parse_floats(3), (0.0, 0.0, 0.0))

    @property
    def is_moving(self) -> bool:
        return any(v != 0.0 for v in self.velocity_mps)

    def build(self, horizon: float) -> SourceSpec:
        try:
            if self.kind == "instant":
                return SourceSpec.instant(self.position_m, self.mass_kg,
                                          self.start_s)
            if self.is_moving:
                traj = Trajectory.straight_line(
                    self.position_m, self.velocity_mps,
                    t0=self.start_s, t1=max(horizon, self.start_s + 1e-9),
                )
                return SourceSpec.continuous(self.rate_kgs, trajectory=traj,
                                             start_time=self.start_s)
            return SourceSpec.continuous(self.rate_kgs, position=self.position_m,
                                         start_time=self.start_s)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class GridSection:
    # one value, or `min max steps` for a linear sweep
    x_m: tuple = _key(_parse_floats(None))
    y_m: tuple = _key(_parse_floats(None))
    z_m: tuple = _key(_parse_floats(None))
    times_s: tuple = _key(_parse_floats(None))

    @staticmethod
    def _axis(values: tuple, name: str) -> list[float]:
        if len(values) == 1:
            return [values[0]]
        if len(values) == 3:
            lo, hi, steps = values
            n = int(steps)
            if n < 2 or n != steps:
                raise ConfigError("sweep needs an integer step count >= 2", name)
            return [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        raise ConfigError("expected one value or 'min max steps'", name)

    def axes(self) -> tuple[list[float], list[float], list[float]]:
        return (self._axis(self.x_m, "x_m"), self._axis(self.y_m, "y_m"),
                self._axis(self.z_m, "z_m"))


@dataclass
class DetectSection:
    taps: tuple = _key(_parse_floats(None))
    noise: str = _key(_parse_choice("gaussian", "poisson"), "gaussian")
    sigma: float = 0.0
    alpha: float = 0.0
    mode: str = _key(_parse_choice("threshold", "sequence", "difference"),
                     "threshold")
    threshold: float = -1.0          # -1 means "use the midpoint default"
    threshold_delta: float = 0.0
    p1: float = 0.5
    bits_per_frame: int = 16
    trials: int = 1000

    def __post_init__(self):
        if self.threshold < 0 and self.threshold != -1.0:
            raise ConfigError(f"expected a threshold >= 0, or -1 for the midpoint, "
                              f"got {self.threshold!r}", "threshold")
        for key in ("bits_per_frame", "trials"):
            if getattr(self, key) < 1:
                raise ConfigError(f"expected {key} >= 1, got {getattr(self, key)}", key)


@dataclass
class PopulationSection:
    n_agents: int
    domain_m: tuple = _key(_parse_floats(6))
    emission_rate_kgs: float
    initial_infected: int = 1
    breathing_hz: float = 1.0
    mobility: str = _key(_parse_choice("walk", "waypoint", "direction", "scripted"),
                         "waypoint")
    boundary_policy: str = _key(_parse_choice("reflect", "wrap"), "reflect")
    step_len_m: float = 0.5
    step_dt_s: float = 1.0
    speed_min_mps: float = 0.5
    speed_max_mps: float = 1.5
    pause_s: float = 1.0
    speed_mps: float = 1.0
    epoch_s: float = 10.0
    velocity_mps: tuple = _key(_parse_floats(3), (1.0, 0.0, 0.0))

    def __post_init__(self):
        if self.n_agents < 1:
            raise ConfigError(f"expected n_agents >= 1, got {self.n_agents}", "n_agents")
        if not 0 <= self.initial_infected <= self.n_agents:
            raise ConfigError(f"expected 0 <= initial_infected <= n_agents = "
                              f"{self.n_agents}, got {self.initial_infected}",
                              "initial_infected")


@dataclass
class EpidemicSection:
    dose_coefficient: float
    step_s: float
    horizon_s: float
    latency_s: float = 0.0


@dataclass
class LocalizeSection:
    source_kind: str = _key(_parse_choice("steady", "instant", "continuous"),
                            "steady")
    grid_resolution: int = _solver_default("grid_resolution")
    max_iterations: int = _solver_default("max_iterations")
    search_box_m: tuple = _key(_parse_floats_empty_or(6), ())


@dataclass
class SolverSection:
    quadrature_tol: float = 1e-6


@dataclass
class RunSection:
    seed: int = 0


_SECTION_TYPES = {
    "environment": EnvSection,
    "source": SourceSection,
    "grid": GridSection,
    "detection": DetectSection,
    "population": PopulationSection,
    "epidemic": EpidemicSection,
    "localize": LocalizeSection,
    "solver": SolverSection,
    "run": RunSection,
}


@dataclass
class ScenarioConfig:
    environment: EnvSection | None = None
    sources: list[SourceSection] = field(default_factory=list)
    grid: GridSection | None = None
    detection: DetectSection | None = None
    population: PopulationSection | None = None
    epidemic: EpidemicSection | None = None
    localize: LocalizeSection | None = None
    solver: SolverSection = field(default_factory=SolverSection)
    run: RunSection = field(default_factory=RunSection)

    def require(self, *names: str) -> None:
        for name in names:
            if name == "source":
                if not self.sources:
                    raise ConfigError("this command needs at least one [source]")
            elif getattr(self, name) is None:
                raise ConfigError(f"this command needs a [{name}] section")


def _build_section(name: str, raw: dict[str, tuple[str, int]], section_line: int):
    cls = _SECTION_TYPES[name]
    keys = {f.name: f for f in fields(cls)}
    values = {}
    for key, (raw_val, line) in raw.items():
        if key not in keys:
            raise ConfigError(f"unknown key in [{name}]", key, line)
        # Annotations are strings here (from __future__ import annotations).
        parse = keys[key].metadata.get("parse") or _PARSERS[keys[key].type]
        values[key] = parse(raw_val, key, line)
    for key, f in keys.items():
        if key not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key in [{name}]", key, section_line)
    return cls(**values)


def loads_config(text: str) -> ScenarioConfig:
    """Parse configuration text; see load_config."""
    sections: list[tuple[str, int, dict[str, tuple[str, int]]]] = []
    current: dict[str, tuple[str, int]] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTION_TYPES:
                raise ConfigError(f"unknown section [{name}]", line=line_no)
            current = {}
            sections.append((name, line_no, current))
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=line_no)
        if current is None:
            raise ConfigError("key outside any [section]", line=line_no)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in current:
            raise ConfigError("duplicate key", key, line_no)
        current[key] = (val, line_no)

    cfg = ScenarioConfig()
    seen: set[str] = set()
    for name, line_no, raw in sections:
        built = _build_section(name, raw, line_no)
        if name == "source":
            cfg.sources.append(built)
            continue
        if name in seen:
            raise ConfigError(f"duplicate section [{name}]", line=line_no)
        seen.add(name)
        setattr(cfg, name, built)
    return cfg


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario configuration file.

    Unknown sections or keys are rejected (naming the key and line), all
    defaults are applied, and the result round-trips: loading dump_config's
    output reproduces the same configuration.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def dump_config(cfg: ScenarioConfig) -> str:
    """Canonical text form with every key present, defaults included."""
    out: list[str] = []

    def emit(name: str, section) -> None:
        out.append(f"[{name}]")
        for f in fields(section):
            out.append(f"{f.name} = {_fmt(getattr(section, f.name))}")
        out.append("")

    for name in _SECTION_TYPES:
        if name == "source":
            for src in cfg.sources:
                emit("source", src)
            continue
        section = getattr(cfg, name)
        if section is not None:
            emit(name, section)
    return "\n".join(out)


def config_hash(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()
