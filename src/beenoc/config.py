"""Run configuration: line-oriented `key = value` parsing, validation, defaults."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import NoReturn

from .errors import ConfigError
from .topology import Mesh


@dataclass(frozen=True)
class RunConfig:
    """Validated simulation parameters. `applied_defaults` lists every key
    that was not set explicitly, so no default is ever silent."""

    mesh_width: int
    mesh_height: int
    seed: int
    wire_count: int = 8
    wire_bandwidth: float = 1.0
    t_hop: int = 1
    setup_timeout_factor: float = 4.0
    hop_limit_metric: str = "euclidean"
    backward_bee_count: int = 3
    max_cycles: int = 1_000_000
    trace: bool = False
    workload_file: str | None = None
    traffic_rate: float = 0.005
    traffic_duration: int = 1000
    traffic_pattern: str = "uniform"
    hotspot_node: tuple[int, int] = (0, 0)
    hotspot_fraction: float = 0.1
    bandwidth_values: tuple[float, ...] = (1.0,)
    bandwidth_weights: tuple[float, ...] = (1.0,)
    hold_time_dist: str = "fixed"
    hold_time_mean: float = 100.0
    applied_defaults: tuple[str, ...] = ()


def _parse_bool(value: str) -> bool:
    if value == "on":
        return True
    if value == "off":
        return False
    raise ValueError("expected 'on' or 'off'")


def _parse_node(value: str) -> tuple[int, int]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ValueError("expected 'x,y'")
    return (int(parts[0]), int(parts[1]))


def _parse_floats(value: str) -> tuple[float, ...]:
    return tuple(float(p) for p in value.split(","))


# The parser of each key's value, by its RunConfig field type, in field order.
_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "str | None": lambda value: None if value == "none" else value,  # as echo_lines prints None
    "bool": _parse_bool,
    "tuple[int, int]": _parse_node,
    "tuple[float, ...]": _parse_floats,
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(RunConfig) if f.name != "applied_defaults"}
_REQUIRED_KEYS = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)

# Every float-valued key, scalar or tuple; all must be finite.
_FLOAT_KEYS = tuple(f.name for f in fields(RunConfig) if f.type in ("float", "tuple[float, ...]"))
# Every integer key; a float or bool in a config built in code is refused.
_INT_KEYS = tuple(f.name for f in fields(RunConfig) if f.type == "int")

_TRAFFIC_KEYS = {
    "traffic_rate",
    "traffic_duration",
    "traffic_pattern",
    "hotspot_node",
    "hotspot_fraction",
    "bandwidth_values",
    "bandwidth_weights",
    "hold_time_dist",
    "hold_time_mean",
}


def fail(key: str, why: str) -> NoReturn:
    """Raise the ConfigError of a bad value, naming its key."""
    raise ConfigError(f"key '{key}': {why}")


def validate_config(cfg: RunConfig, explicit: set | None = None) -> None:
    """Range- and cross-checks; raises ConfigError naming the offending key.
    The traffic keys' own rules are `traffic.check_traffic`'s."""

    for key in _FLOAT_KEYS:
        value = getattr(cfg, key)
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            fail(key, "must be finite")
    for key in _INT_KEYS:
        if type(getattr(cfg, key)) is not int:  # bool is an int subclass
            fail(key, "must be an integer")
    hotspot = cfg.hotspot_node
    if not (isinstance(hotspot, tuple) and len(hotspot) == 2 and all(type(v) is int for v in hotspot)):
        fail("hotspot_node", "must be a pair of integers")

    if cfg.mesh_width < 2:
        fail("mesh_width", "all mesh dimensions must be >= 2")
    if cfg.mesh_height < 2:
        fail("mesh_height", "all mesh dimensions must be >= 2")
    if not 0 <= cfg.seed < 2**64:
        fail("seed", "must be a 64-bit unsigned integer")
    if cfg.wire_count < 1:
        fail("wire_count", "must be >= 1")
    if cfg.wire_bandwidth <= 0:
        fail("wire_bandwidth", "must be positive")
    if cfg.t_hop < 1:
        fail("t_hop", "must be >= 1 cycle")
    if cfg.setup_timeout_factor <= 0:
        fail("setup_timeout_factor", "must be positive")
    if cfg.hop_limit_metric not in ("euclidean", "manhattan"):
        fail("hop_limit_metric", "must be 'euclidean' or 'manhattan'")
    if cfg.backward_bee_count not in (1, 2, 3):
        fail("backward_bee_count", "must be 1, 2, or 3")
    if cfg.max_cycles < 1:
        fail("max_cycles", "must be >= 1")
    if cfg.traffic_rate <= 0:
        fail("traffic_rate", "must be positive (see workload_file for explicit workloads)")
    if cfg.traffic_duration < 1:
        fail("traffic_duration", "must be >= 1 cycle")
    from .traffic import check_traffic, traffic_params_from_config  # traffic imports this module

    check_traffic(Mesh(cfg.mesh_width, cfg.mesh_height), traffic_params_from_config(cfg))
    if explicit is not None and cfg.workload_file is not None:
        clash = sorted(_TRAFFIC_KEYS & explicit)
        if clash:
            fail(clash[0], "conflicts with workload_file (pick one workload source)")


def parse_config(text: str) -> RunConfig:
    """Parse the documented line-oriented config format.

    Blank lines and lines starting with '#' are ignored. Unknown keys,
    duplicate keys, missing required keys, and out-of-range values are
    rejected with the offending key and line number.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' (first set on line {entries[key][1]})")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for '{key}'")
        entries[key] = (value, lineno)

    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"missing required key '{key}'")

    kwargs = {}
    for key, (value, lineno) in entries.items():
        try:
            kwargs[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key '{key}': {exc}") from None

    applied = tuple(k for k in _PARSERS if k not in entries)
    cfg = RunConfig(**kwargs, applied_defaults=applied)
    validate_config(cfg, explicit=set(entries))
    return cfg


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def echo_lines(cfg: RunConfig) -> list[str]:
    """Resolved configuration, one `key = value` line per parameter, with
    every applied default marked."""
    defaulted = set(cfg.applied_defaults)
    lines = []
    for f in fields(cfg):
        if f.name == "applied_defaults":
            continue
        suffix = "  (default)" if f.name in defaulted else ""
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}{suffix}")
    return lines
