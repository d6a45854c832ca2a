"""Offered traffic: the demand type, the workload file and the generated stream.

A `FlowSpec` is one offered flow, an immutable tuple validated when built. A
workload is a list of them, read from a file by `parse_workload` or drawn by
`generate_traffic` from the config's traffic keys and a seed. All draws come
from one numpy PCG64 stream in a fixed order (nodes row-major; per flow:
inter-arrival gap, destination, bandwidth, hold time), so the same seed always
yields the same flow list on any platform. Destinations come from its raw
words by Lemire's method.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .config import RunConfig, content_lines, fail
from .errors import ConfigError, DegenerateFlowError
from .protocol import FlowId
from .topology import Mesh, NodeId, is_bandwidth


class _FlowSpecFields(NamedTuple):
    flow: FlowId
    destination: NodeId
    required_bandwidth: float
    arrival_time: int
    hold_time: int


class FlowSpec(_FlowSpecFields):
    """One offered traffic demand: an immutable tuple, validated when built."""

    __slots__ = ()

    def __new__(cls, flow: FlowId, destination: NodeId, required_bandwidth: float, arrival_time: int, hold_time: int):
        if type(flow) is not FlowId:
            raise ValueError(f"flow {flow}: flow id must be a FlowId")
        if flow.source == destination:
            raise DegenerateFlowError(f"flow {flow}: source equals destination")
        if not is_bandwidth(required_bandwidth):
            raise ValueError(f"flow {flow}: required_bandwidth must be positive and finite")
        for name, node in (("source", flow.source), ("destination", destination)):
            # the shape first, then each coordinate; bool is an int subclass
            if not (isinstance(node, tuple) and len(node) == 2 and type(node[0]) is int and type(node[1]) is int):
                raise ValueError(f"flow {flow}: {name} coordinates must be integers")
        if type(flow.sequence) is not int:
            raise ValueError(f"flow {flow}: sequence must be an integer")
        if type(arrival_time) is not int:  # bool is an int subclass
            raise ValueError(f"flow {flow}: arrival_time must be an integer")
        if arrival_time < 0:
            raise ValueError(f"flow {flow}: arrival_time must be >= 0")
        if type(hold_time) is not int:
            raise ValueError(f"flow {flow}: hold_time must be an integer")
        if hold_time < 1:
            raise ValueError(f"flow {flow}: hold_time must be >= 1")
        # Ids, not plain tuples, so that output files print the nodes as "x,y"
        if type(flow.source) is not NodeId or type(destination) is not NodeId:
            flow, destination = FlowId(NodeId(*flow.source), flow.sequence), NodeId(*destination)
        return tuple.__new__(cls, (flow, destination, required_bandwidth, arrival_time, hold_time))

    @classmethod
    def _make(cls, iterable) -> "FlowSpec":  # _replace builds through this: validate it too
        return cls(*iterable)

    @property
    def source(self) -> NodeId:
        return self.flow.source


def parse_workload(text: str, mesh: Mesh) -> list[FlowSpec]:
    """Parse the workload file format: one flow per line,
    src_x,src_y,dst_x,dst_y,bandwidth,arrival_cycle,hold_cycles.
    Blank lines and '#' comments are allowed."""
    flows: list[FlowSpec] = []
    counters: dict[NodeId, int] = defaultdict(int)
    for lineno, stripped in content_lines(text):
        parts = [p.strip() for p in stripped.split(",")]
        if len(parts) != 7:
            raise ConfigError(f"workload line {lineno}: expected 7 comma-separated fields, got {len(parts)}")
        try:
            src = NodeId(int(parts[0]), int(parts[1]))
            dst = NodeId(int(parts[2]), int(parts[3]))
            bandwidth = float(parts[4])
            arrival = int(parts[5])
            hold = int(parts[6])
        except ValueError as exc:
            raise ConfigError(f"workload line {lineno}: {exc}") from None
        for node in (src, dst):
            if not mesh.contains(node):
                raise ConfigError(f"workload line {lineno}: node {node} is outside the mesh")
        flow = FlowId(src, counters[src])
        counters[src] += 1
        try:
            flows.append(FlowSpec(flow, dst, bandwidth, arrival, hold))
        except (DegenerateFlowError, ValueError) as exc:
            raise ConfigError(f"workload line {lineno}: {exc}") from None
    return flows


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide pseudorandom stream: PCG64 under the given seed."""
    return np.random.Generator(np.random.PCG64(seed))


@contextmanager
def bounded_draws(rng: np.random.Generator, high: int) -> Iterator[Callable[[int], int]]:
    """Yields `draw(n)` = `int(rng.integers(0, n))` for 1 <= n <= high: Lemire's method on the low,
    then the high half of each raw 64-bit word, the buffered half read on entry and stored on exit."""
    state = rng.bit_generator.state
    if high > 2**32 or "has_uint32" not in state:  # MT19937's 32-bit words have no buffer
        raise ValueError(f"bounded draws take ranges to 2**32 of 64-bit words, not {high} of {state['bit_generator']}")
    raw, buffered, upper = rng.bit_generator.random_raw, state["has_uint32"], state["uinteger"]
    def draw(n: int) -> int:
        nonlocal buffered, upper
        while n > 1:  # numpy draws nothing for a one-value range
            scaled = n * (upper if buffered else (word := raw()) & 0xFFFFFFFF)
            buffered, upper = (0, upper) if buffered else (1, word >> 32)
            if (leftover := scaled & 0xFFFFFFFF) >= n or leftover >= 2**32 % n:
                return scaled >> 32  # else Lemire's method rejects the draw
        return 0
    try:
        yield draw
    finally:  # a spent buffer keeps its last half, as numpy leaves it
        rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": buffered, "uinteger": upper}


def traffic_params_from_config(cfg: RunConfig) -> RunConfig:
    """The config itself: `generate_traffic` reads its traffic keys. Kept for
    `bench/run.py`'s call, which ROADMAP item 2 drops; item 3 deletes it."""
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
    # numpy's own draws, in fewer calls: Generator.exponential(gap) is gap * standard_exponential();
    # below p = 1/3, geometric(p) is ceil(-standard_exponential() / log1p(-p)), which numpy may
    # clamp from a mean of 2**57 up; integers(0, n) is bounded_draws' draw(n). NEP 19 lets these
    # Generator methods change between numpy releases, not bit generators: the digests check.
    inverted = geometric_p is not None and geometric_p < 1 / 3 and cfg.hold_time_mean < 2**57
    log_q = math.log1p(-geometric_p) if inverted else None
    standard_exponential, random = rng.standard_exponential, rng.random
    gap, duration = 1.0 / cfg.traffic_rate, cfg.traffic_duration
    new, ceil = tuple.__new__, math.ceil
    flows: list[FlowSpec] = []
    append = flows.append
    with bounded_draws(rng, last) as draw:
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
                    idx = draw(last)
                    destination = nodes[idx + (idx >= src_handle)]
                elif random() < fraction:
                    destination = hot
                else:
                    idx = draw(last - 1)
                    idx += idx >= low
                    destination = nodes[idx + (idx >= high)]
                bandwidth = bandwidths[bisect_right(bandwidth_cdf, random())]
                # Built without FlowSpec's checks, which hold by construction but
                # for an inverted geometric hold: a zero draw gives 0, which they refuse.
                flow = new(FlowId, (src, sequence))
                if log_q is not None:
                    hold = ceil(-standard_exponential() / log_q)
                    if hold < 1:
                        FlowSpec(flow, destination, bandwidth, ceil(clock), hold)  # raises
                else:
                    hold = fixed_hold if geometric_p is None else int(rng.geometric(geometric_p))
                append(new(FlowSpec, (flow, destination, bandwidth, ceil(clock), hold)))
                sequence += 1
    flows.sort(key=attrgetter("arrival_time"))
    return flows
