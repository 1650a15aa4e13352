"""Scenario configuration: defaults, validation, and the key=value file format."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from sys import float_info
from typing import Callable

from . import baseline, defense
from .engine import MAX_NODES, MICROS_PER_MS, MICROS_PER_S
from .errors import ConfigError


@dataclass(frozen=True, slots=True)
class Scheme:
    """How a scheme takes a flow's route from paths ranked best first.
    ``vetter`` returns the function that vets one path, read off its module
    at each route choice so that wrappers installed on the module apply;
    None takes the first path unvetted.  With ``vet_all`` the scheme vets
    every path and takes ``defense.select_route``'s pick; without, it stops
    at its first trusted path."""

    vetter: Callable[[], Callable] | None
    vet_all: bool


#: The one place a scheme is defined.
SCHEME_TABLE = {
    "undefended": Scheme(None, vet_all=False),
    "baseline": Scheme(lambda: baseline.begin_baseline_vetting, vet_all=False),
    "proposed": Scheme(lambda: defense.begin_vetting, vet_all=True),
}
SCHEMES = tuple(SCHEME_TABLE)
#: Seeds are 64-bit: the RNG streams mask wider values, which would alias.
SEED_LIMIT = 1 << 64


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """The one configuration of a run.  ``Simulator`` converts the link
    times to whole microseconds once and the vetting code reads the vetting
    fields as it runs, so the record is frozen."""

    nodes: int = 50
    area_side: float = 1000.0
    radio_range: float = 250.0
    blackholes: int = 0
    colluding_pairs: int = 0
    scheme: str = "proposed"
    flows: int = 10
    packet_rate: float = 4.0
    packet_size: int = 64
    duration: float = 100.0
    seed: int = 1
    t1_ms: int = 50
    k_r: int = 3
    k_m: int = 3
    delta_match: int = 2
    ratio_cap: float = 1.0
    warmup_packets: int = 10
    link_delay_ms: float = 2.0
    link_jitter_ms: float = 1.0
    link_loss: float = 0.0

    def validate(self) -> "ScenarioConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{f.name}: must be an integer")
            if f.type == "float":
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(f"{f.name}: must be a number")
                # false for nan and inf, and for an int past the float range
                if not abs(value) <= float_info.max:
                    raise ConfigError(f"{f.name}: must be finite")
        if self.nodes < 2:
            raise ConfigError("nodes: need at least 2 nodes")
        # node i draws from RNG stream i, below the collusion and set-up streams
        if self.nodes > MAX_NODES:
            raise ConfigError(f"nodes: at most {MAX_NODES}")
        if self.area_side <= 0:
            raise ConfigError("area_side: must be positive")
        if self.radio_range <= 0:
            raise ConfigError("radio_range: must be positive")
        if self.blackholes < 0:
            raise ConfigError("blackholes: must be non-negative")
        if self.colluding_pairs < 0:
            raise ConfigError("colluding_pairs: must be non-negative")
        if self.blackholes + 2 * self.colluding_pairs > self.nodes - 2:
            raise ConfigError(
                "blackholes: blackholes + 2*colluding_pairs must leave at "
                "least two honest nodes (flow endpoints are honest)"
            )
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme: must be one of {', '.join(SCHEMES)}")
        if self.flows < 1:
            raise ConfigError("flows: need at least one flow")
        if self.packet_rate <= 0:
            raise ConfigError("packet_rate: must be positive")
        if self.packet_size <= 0:
            raise ConfigError("packet_size: must be positive")
        if self.duration <= 0:
            raise ConfigError("duration: must be positive")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError("seed: must be within [0, 2**64)")
        if self.t1_ms <= 0:
            raise ConfigError("t1_ms: must be positive")
        if self.k_r < 1:
            raise ConfigError("k_r: must be at least 1")
        if self.k_m < 1:
            raise ConfigError("k_m: must be at least 1")
        if self.delta_match < 0:
            raise ConfigError("delta_match: must be non-negative")
        if self.ratio_cap < 1:
            raise ConfigError("ratio_cap: must be at least 1")
        if self.warmup_packets < 0:
            raise ConfigError("warmup_packets: must be non-negative")
        # a run rounds the delay to the nearest microsecond
        if self.link_delay_ms * MICROS_PER_MS < 1:
            raise ConfigError("link_delay_ms: must be at least 1 microsecond")
        if self.link_jitter_ms < 0:
            raise ConfigError("link_jitter_ms: must be non-negative")
        # the jitter is rounded too: 0.4 us would run a jitter-free link
        if 0 < self.link_jitter_ms * MICROS_PER_MS < 1:
            raise ConfigError("link_jitter_ms: must be 0 or at least 1 microsecond")
        if not 0.0 <= self.link_loss <= 1.0:
            raise ConfigError("link_loss: must be within [0, 1]")
        # a run converts these products to integer times and packet counts
        for key, derived, what in (
            ("duration", self.duration * MICROS_PER_S, "in microseconds"),
            ("packet_rate", self.duration * self.packet_rate, "times duration"),
            ("link_delay_ms", self.link_delay_ms * MICROS_PER_MS, "in microseconds"),
            ("link_jitter_ms", self.link_jitter_ms * MICROS_PER_MS, "in microseconds"),
        ):
            if not derived <= float_info.max:  # each product is non-negative
                raise ConfigError(f"{key}: must be finite {what}")
        return self

    @property
    def scenario_id(self) -> str:
        return f"n{self.nodes}-f{self.flows}-d{self.duration:g}"


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r}") from exc


def parse_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments ignored.  A
    key may appear once: a second line for it is an error, not an override."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot read: not UTF-8 text") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def parse_config(
    file: str | Path | None = None, overrides: dict | None = None
) -> ScenarioConfig:
    """Build a validated config from an optional file plus flag overrides."""
    values: dict = {}
    if file is not None:
        values.update(parse_config_file(file))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = _coerce(key, str(value)) if isinstance(value, str) else value
    return ScenarioConfig(**values).validate()
