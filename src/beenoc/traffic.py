"""Reproducible random workload generation.

All draws come from one numpy PCG64 stream in a fixed order (nodes row-major;
per flow: inter-arrival gap, destination, bandwidth, hold time), so the same
seed always yields the same flow list on any platform.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import attrgetter

import numpy as np

from .config import RunConfig, fail
from .engine import FlowSpec
from .protocol import FlowId
from .topology import Mesh, NodeId


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide pseudorandom stream: PCG64 under the given seed."""
    return np.random.Generator(np.random.PCG64(seed))


def traffic_params_from_config(cfg: RunConfig) -> RunConfig:
    """The config itself: `generate_traffic` reads its traffic keys. Kept for
    `bench/run.py`, which still calls it, until ROADMAP item 1 revises it."""
    return cfg


def generate_traffic(mesh: Mesh, cfg: RunConfig, rng: np.random.Generator) -> list[FlowSpec]:
    """Deterministic flow list sorted by arrival time, from the config's
    traffic keys; `mesh` must be the config's. A `RunConfig` is valid once
    built, so no traffic key needs checking here."""
    if mesh.width != cfg.mesh_width:
        fail("mesh_width", f"config mesh width {cfg.mesh_width} does not match the mesh's {mesh.width}")
    if mesh.height != cfg.mesh_height:
        fail("mesh_height", f"config mesh height {cfg.mesh_height} does not match the mesh's {mesh.height}")
    weights = np.asarray(cfg.bandwidth_weights, dtype=float)
    # What Generator.choice(n, p=weights) searches; bisect_right is its draw.
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    bandwidth_cdf = cdf.tolist()
    bandwidths = tuple(float(v) for v in cfg.bandwidth_values)
    # Destinations are drawn over node handles, skipping the excluded ones.
    nodes = mesh.nodes()
    last = len(nodes) - 1
    pattern = cfg.traffic_pattern
    hotspot = mesh.handle(NodeId(*cfg.hotspot_node)) if pattern == "hotspot" else None
    fraction = cfg.hotspot_fraction
    geometric_p = 1.0 / cfg.hold_time_mean if cfg.hold_time_dist == "geometric" else None
    fixed_hold = max(1, round(cfg.hold_time_mean))
    # Generator.exponential(gap) is gap * standard_exponential(), and below
    # p = 1/3 Generator.geometric(p) is ceil(-standard_exponential() /
    # log1p(-p)), so both are drawn here as numpy draws them, in fewer calls.
    # From a mean of 2**57 up numpy may clamp that to the int64 maximum.
    inverted = geometric_p is not None and geometric_p < 1 / 3 and cfg.hold_time_mean < 2**57
    log_q = math.log1p(-geometric_p) if inverted else None
    standard_exponential, integers, random = rng.standard_exponential, rng.integers, rng.random
    gap, duration = 1.0 / cfg.traffic_rate, cfg.traffic_duration
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
