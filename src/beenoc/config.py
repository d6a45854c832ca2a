"""Run configuration: line-oriented `key = value` parsing, validation, defaults."""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Iterator, NoReturn

from .errors import ConfigError
from .topology import NodeId, is_number


@dataclass(frozen=True)
class RunConfig:
    """Simulation parameters and nothing else, valid once built (`validate_config` runs here)."""

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
    # The fields after workload_file are the traffic keys, which it excludes off their defaults.
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

    def __post_init__(self) -> None:
        validate_config(self)


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


# By RunConfig field type: the parser of a config-file value, and the rule,
# with its message, on a value a config built in code holds.
_FIELD_TYPES = {
    "int": (int, lambda v: type(v) is int, "must be an integer"),
    "float": (float, is_number, "must be a number"),
    "str": (str, lambda v: type(v) is str, "must be a string"),
    # None is written as echo_lines prints it
    "str | None": (lambda value: None if value == "none" else value, lambda v: v is None or type(v) is str,
                   "must be a string or None"),
    "bool": (_parse_bool, lambda v: type(v) is bool, "must be a bool"),
    "tuple[int, int]": (_parse_node, lambda v: isinstance(v, tuple) and len(v) == 2 and all(type(x) is int for x in v),
                        "must be a pair of integers"),
    "tuple[float, ...]": (_parse_floats, lambda v: isinstance(v, tuple) and all(map(is_number, v)),
                          "must be a tuple of numbers"),
}
_KEY_TYPES = {f.name: _FIELD_TYPES[f.type] for f in fields(RunConfig)}
_REQUIRED_KEYS = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)
_TRAFFIC_KEYS = tuple(_KEY_TYPES)[list(_KEY_TYPES).index("workload_file") + 1:]

# Every float-valued key, scalar or tuple; all must be finite, and an int a float holds exactly.
_FLOAT_KEYS = tuple(f.name for f in fields(RunConfig) if f.type in ("float", "tuple[float, ...]"))
_FLOAT_MAX = sys.float_info.max
# Generated traffic may expect at most this many flows (traffic_rate * traffic_duration * nodes):
# a run holds every flow, at about 600 B each.
_MAX_OFFERED_FLOWS = 10**6


def fail(key: str, why: str) -> NoReturn:
    """Raise the ConfigError of a bad value, naming its key."""
    raise ConfigError(f"key '{key}': {why}")


def validate_config(cfg: RunConfig) -> None:
    """Every rule on a config, raising ConfigError that names the key: one pass over the
    types, one over the float keys, then the value rules, the last of which is that a
    `workload_file` excludes any traffic key off its default. `RunConfig` runs it when built."""
    for key, (_, holds, why) in _KEY_TYPES.items():
        if not holds(getattr(cfg, key)):
            fail(key, why)
    for key in _FLOAT_KEYS:
        value = getattr(cfg, key)
        values = value if isinstance(value, tuple) else (value,)
        # false for nan, an infinity and an int beyond float range (math.isfinite raises on it)
        if not all(abs(v) <= _FLOAT_MAX for v in values):
            fail(key, "must be finite")
        if not all(float(v) == v for v in values):  # else the echoed value parses back as another number
            fail(key, "an int for a float key must be one a float holds exactly")

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
    rate_num, rate_den = cfg.traffic_rate.as_integer_ratio()  # exact: the product of ints cannot overflow
    nodes = cfg.mesh_width * cfg.mesh_height
    if cfg.workload_file is None and rate_num * cfg.traffic_duration * nodes > _MAX_OFFERED_FLOWS * rate_den:
        fail("traffic_rate", f"traffic_rate * traffic_duration * nodes expects over {_MAX_OFFERED_FLOWS} flows")
    if cfg.traffic_pattern not in ("uniform", "hotspot", "transpose"):
        fail("traffic_pattern", f"unknown traffic pattern {cfg.traffic_pattern!r}")
    if cfg.traffic_pattern == "transpose" and cfg.mesh_width != cfg.mesh_height:
        fail("traffic_pattern", "transpose traffic needs a square mesh")
    hotspot = NodeId(*cfg.hotspot_node)
    if not (0 <= hotspot.x < cfg.mesh_width and 0 <= hotspot.y < cfg.mesh_height):
        fail("hotspot_node", f"hotspot {hotspot} is outside the mesh")
    if not 0.0 <= cfg.hotspot_fraction <= 1.0:
        fail("hotspot_fraction", "hotspot fraction must be in [0, 1]")
    values, weights = cfg.bandwidth_values, cfg.bandwidth_weights
    if not values:
        fail("bandwidth_values", "bandwidth value set must not be empty")
    if not all(v > 0 for v in values):
        fail("bandwidth_values", "bandwidth values must be positive and finite")
    if len(weights) != len(values):
        fail("bandwidth_weights", "bandwidth weights and values must have the same length")
    if not all(w >= 0 for w in weights):
        fail("bandwidth_weights", "bandwidth weights must be finite and not negative")
    if not any(weights):
        fail("bandwidth_weights", "bandwidth weights must not all be zero")
    if not sum(weights) <= _FLOAT_MAX:  # so the weights can be normalised
        fail("bandwidth_weights", "bandwidth weights must have a finite sum")
    if cfg.hold_time_dist not in ("fixed", "geometric"):
        fail("hold_time_dist", f"unknown hold-time distribution {cfg.hold_time_dist!r}")
    if cfg.hold_time_mean < 1:
        fail("hold_time_mean", "mean hold time must be finite and at least 1 cycle")
    if cfg.workload_file is not None:  # a dataclass field's default is its class attribute
        path = cfg.workload_file
        if path == "none" or path != path.strip() or path.splitlines() != [path]:  # else the echo misreads it
            fail("workload_file", f"{path!r} is not a path one config line holds (a file named none is ./none)")
        clash = [key for key in _TRAFFIC_KEYS if getattr(cfg, key) != getattr(RunConfig, key)]
        if clash:
            fail(min(clash), "conflicts with workload_file (pick one workload source)")


def read_text(path) -> str:
    """The text of a config or workload file, which is UTF-8, without one leading
    byte-order mark; one that does not decode raises ConfigError naming it. Not
    utf-8-sig, whose decode errors would give offsets 3 bytes short after a mark."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"file '{path}' is not UTF-8 text ({exc.reason} at offset {exc.start})") from None


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each (line number, stripped line) of a config or workload text that is
    neither blank nor a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def parse_config(text: str) -> RunConfig:
    """Parse the documented line-oriented config format.

    Blank lines and lines starting with '#' are ignored. Unknown keys,
    duplicate keys, missing required keys, and out-of-range values are
    rejected with the offending key and line number.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, stripped in content_lines(text):
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TYPES:
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
            kwargs[key] = _KEY_TYPES[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key '{key}': {exc}") from None

    return RunConfig(**kwargs)


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
    `(default)` marked on each value that equals its key's default."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        suffix = "  (default)" if value == f.default else ""
        lines.append(f"{f.name} = {_format_value(value)}{suffix}")
    return lines
