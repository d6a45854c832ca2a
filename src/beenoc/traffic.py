"""Reproducible random workload generation.

All draws come from one numpy PCG64 stream in a fixed order (nodes row-major;
per flow: inter-arrival gap, destination, bandwidth, hold time), so the same
seed always yields the same flow list on any platform.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .engine import FlowSpec
from .errors import ConfigError
from .protocol import FlowId
from .topology import Mesh, NodeId


@dataclass(frozen=True, slots=True)
class TrafficParams:
    """Arrival process and per-flow demand distributions.

    `rate` is the per-node Poisson arrival rate in flows per cycle;
    destinations follow one of uniform / hotspot / transpose; bandwidths are
    drawn from a weighted discrete set; hold times are fixed or geometric.
    """

    rate: float
    duration: int
    pattern: str = "uniform"
    hotspot: NodeId = NodeId(0, 0)
    hotspot_fraction: float = 0.1
    bandwidth_values: tuple[float, ...] = (1.0,)
    bandwidth_weights: tuple[float, ...] = (1.0,)
    hold_dist: str = "fixed"
    hold_mean: float = 100.0


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide pseudorandom stream: PCG64 under the given seed."""
    return np.random.Generator(np.random.PCG64(seed))


def traffic_params_from_config(cfg: RunConfig) -> TrafficParams:
    return TrafficParams(
        rate=cfg.traffic_rate,
        duration=cfg.traffic_duration,
        pattern=cfg.traffic_pattern,
        hotspot=NodeId(*cfg.hotspot_node),
        hotspot_fraction=cfg.hotspot_fraction,
        bandwidth_values=cfg.bandwidth_values,
        bandwidth_weights=cfg.bandwidth_weights,
        hold_dist=cfg.hold_time_dist,
        hold_mean=cfg.hold_time_mean,
    )


def _draw_uniform_excluding(mesh: Mesh, excluded: list[NodeId], rng: np.random.Generator) -> NodeId:
    """Uniform draw over the mesh's nodes, in handle order, minus `excluded`."""
    skip = sorted({mesh.handle(e) for e in excluded})
    idx = int(rng.integers(0, mesh.node_count - len(skip)))
    for s in skip:
        if idx >= s:
            idx += 1
    return mesh.node_at(idx)


def _draw_destination(src: NodeId, mesh: Mesh, params: TrafficParams, rng: np.random.Generator) -> NodeId:
    if params.pattern == "transpose":
        return NodeId(src.y, src.x)
    if params.pattern == "hotspot" and src != params.hotspot:
        if rng.random() < params.hotspot_fraction:
            return params.hotspot
        return _draw_uniform_excluding(mesh, [src, params.hotspot], rng)
    return _draw_uniform_excluding(mesh, [src], rng)


def _draw_hold(params: TrafficParams, rng: np.random.Generator) -> int:
    if params.hold_dist == "geometric":
        return int(rng.geometric(1.0 / params.hold_mean))
    return max(1, round(params.hold_mean))


def generate_traffic(mesh: Mesh, params: TrafficParams, rng: np.random.Generator) -> list[FlowSpec]:
    """Deterministic flow list sorted by arrival time. A rate of zero yields
    an empty list; parameters no flow can be drawn from raise ConfigError
    before the first draw."""
    if not 0 <= params.rate < math.inf:
        raise ConfigError("traffic rate must be finite and not negative")
    if not params.bandwidth_values:
        raise ConfigError("bandwidth value set must not be empty")
    if params.pattern not in ("uniform", "hotspot", "transpose"):
        raise ConfigError(f"unknown traffic pattern {params.pattern!r}")
    if params.pattern == "transpose" and mesh.width != mesh.height:
        raise ConfigError("transpose traffic needs a square mesh")
    if len(params.bandwidth_weights) != len(params.bandwidth_values):
        raise ConfigError("bandwidth weights and values must have the same length")
    if not 0.0 <= params.hotspot_fraction <= 1.0:
        raise ConfigError("hotspot fraction must be in [0, 1]")
    if params.pattern == "hotspot" and not mesh.contains(params.hotspot):
        raise ConfigError(f"hotspot {params.hotspot} is outside the mesh")
    if params.hold_dist not in ("fixed", "geometric"):
        raise ConfigError(f"unknown hold-time distribution {params.hold_dist!r}")
    if not 1 <= params.hold_mean < math.inf:
        raise ConfigError("mean hold time must be finite and at least 1 cycle")
    if params.rate == 0:
        return []
    weights = np.asarray(params.bandwidth_weights, dtype=float)
    if not (np.all(np.isfinite(weights) & (weights >= 0)) and weights.sum() > 0):
        raise ConfigError("bandwidth weights must be finite, not negative and not all zero")
    # What Generator.choice(n, p=weights) searches; bisect_right is its draw.
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    bandwidth_cdf = cdf.tolist()
    flows: list[FlowSpec] = []
    for src in mesh.nodes():
        if params.pattern == "transpose" and src.x == src.y:
            continue  # transpose targets itself on the diagonal
        sequence = 0
        clock = 0.0
        while True:
            clock += rng.exponential(1.0 / params.rate)
            if clock > params.duration:
                break
            destination = _draw_destination(src, mesh, params, rng)
            bandwidth = params.bandwidth_values[bisect_right(bandwidth_cdf, rng.random())]
            hold = _draw_hold(params, rng)
            flows.append(
                FlowSpec(
                    flow=FlowId(src, sequence),
                    destination=destination,
                    required_bandwidth=float(bandwidth),
                    arrival_time=math.ceil(clock),
                    hold_time=hold,
                )
            )
            sequence += 1
    flows.sort(key=lambda f: f.arrival_time)
    return flows
