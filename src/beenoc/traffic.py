"""Reproducible random workload generation.

All draws come from one numpy PCG64 stream in a fixed order (nodes row-major;
per flow: inter-arrival gap, destination, bandwidth, hold time), so the same
seed always yields the same flow list on any platform.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .config import RunConfig, fail
from .engine import FlowSpec
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


def check_traffic(mesh: Mesh, params: TrafficParams) -> None:
    """Every rule on the traffic parameters, raising ConfigError that names
    the config key; `validate_config` and `generate_traffic` both run it."""
    if not 0 <= params.rate < math.inf:
        fail("traffic_rate", "traffic rate must be finite and not negative")
    if not math.isfinite(params.duration):  # the arrival loop would never pass it
        fail("traffic_duration", "traffic duration must be finite")
    if params.pattern not in ("uniform", "hotspot", "transpose"):
        fail("traffic_pattern", f"unknown traffic pattern {params.pattern!r}")
    if params.pattern == "transpose" and mesh.width != mesh.height:
        fail("traffic_pattern", "transpose traffic needs a square mesh")
    if not mesh.contains(params.hotspot):
        fail("hotspot_node", f"hotspot {params.hotspot} is outside the mesh")
    if not 0.0 <= params.hotspot_fraction <= 1.0:
        fail("hotspot_fraction", "hotspot fraction must be in [0, 1]")
    values, weights = params.bandwidth_values, params.bandwidth_weights
    if not values:
        fail("bandwidth_values", "bandwidth value set must not be empty")
    if not all(0 < v < math.inf for v in values):
        fail("bandwidth_values", "bandwidth values must be positive and finite")
    if len(weights) != len(values):
        fail("bandwidth_weights", "bandwidth weights and values must have the same length")
    if not all(0 <= w < math.inf for w in weights):
        fail("bandwidth_weights", "bandwidth weights must be finite and not negative")
    if not any(weights):
        fail("bandwidth_weights", "bandwidth weights must not all be zero")
    if params.hold_dist not in ("fixed", "geometric"):
        fail("hold_time_dist", f"unknown hold-time distribution {params.hold_dist!r}")
    if not 1 <= params.hold_mean < math.inf:
        fail("hold_time_mean", "mean hold time must be finite and at least 1 cycle")


def generate_traffic(mesh: Mesh, params: TrafficParams, rng: np.random.Generator) -> list[FlowSpec]:
    """Deterministic flow list sorted by arrival time. A rate of zero yields
    an empty list; `check_traffic` refuses bad parameters before any draw."""
    check_traffic(mesh, params)
    if params.rate == 0:
        return []
    weights = np.asarray(params.bandwidth_weights, dtype=float)
    # What Generator.choice(n, p=weights) searches; bisect_right is its draw.
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    bandwidth_cdf = cdf.tolist()
    bandwidths = tuple(float(v) for v in params.bandwidth_values)
    # Destinations are drawn over node handles, skipping the excluded ones.
    nodes = mesh.nodes()
    last = len(nodes) - 1
    pattern = params.pattern
    hotspot = mesh.handle(params.hotspot) if pattern == "hotspot" else None
    fraction = params.hotspot_fraction
    geometric_p = 1.0 / params.hold_mean if params.hold_dist == "geometric" else None
    fixed_hold = max(1, round(params.hold_mean))
    # Generator.exponential(gap) is gap * standard_exponential(), and below
    # p = 1/3 Generator.geometric(p) is ceil(-standard_exponential() /
    # log1p(-p)), so both are drawn here as numpy draws them, in fewer calls.
    # From a mean of 2**57 up numpy may clamp that to the int64 maximum.
    inverted = geometric_p is not None and geometric_p < 1 / 3 and params.hold_mean < 2**57
    log_q = math.log1p(-geometric_p) if inverted else None
    standard_exponential, integers, random = rng.standard_exponential, rng.integers, rng.random
    gap, duration = 1.0 / params.rate, params.duration
    new, ceil = tuple.__new__, math.ceil
    flows: list[FlowSpec] = []
    append = flows.append
    for src_handle, src in enumerate(nodes):
        # The source's destination rule: its mirror (transpose); the hotspot
        # with probability `fraction`, else a node other than both (hotspot,
        # from any source but the hotspot); else any node but the source.
        mirror = hot = None
        if pattern == "transpose":
            if src.x == src.y:
                continue  # transpose targets itself on the diagonal
            mirror = NodeId(src.y, src.x)
        elif pattern == "hotspot" and src_handle != hotspot:
            hot = nodes[hotspot]
            low, high = sorted((src_handle, hotspot))
        sequence = 0
        clock = 0.0
        while True:
            clock += gap * standard_exponential()
            if clock > duration:
                break
            if mirror is not None:
                destination = mirror
            elif hot is None:
                idx = int(integers(0, last))
                destination = nodes[idx + (idx >= src_handle)]
            elif random() < fraction:
                destination = hot
            else:
                idx = int(integers(0, last - 1))
                idx += idx >= low
                destination = nodes[idx + (idx >= high)]
            bandwidth = bandwidths[bisect_right(bandwidth_cdf, random())]
            # Built without FlowSpec's checks, which hold by construction
            # but for an inverted geometric hold: a zero draw gives 0.
            flow = new(FlowId, (src, sequence))
            if log_q is not None:
                hold = ceil(-standard_exponential() / log_q)
                if hold < 1:
                    raise ValueError(f"flow {flow}: hold_time must be >= 1")
            else:
                hold = fixed_hold if geometric_p is None else int(rng.geometric(geometric_p))
            append(new(FlowSpec, (flow, destination, bandwidth, ceil(clock), hold)))
            sequence += 1
    flows.sort(key=attrgetter("arrival_time"))
    return flows
