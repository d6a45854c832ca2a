"""Feasibility ground truth: a breadth-first search and a circuit check.

A path is feasible for a demand when it is simple, within the flow's hop
budget, and each of its links fits the demand under Network.fitting_links,
the flood's admission rule, on the network before the run. One contract
holds on idle and loaded meshes of any size: a single flow is established
exactly when a shortest feasible path sets up in time, and then on a
shortest feasible path. The live protocol races against time, so the
contract is claimed only for single-flow or frozen-background scenarios.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .engine import Simulator
from .errors import DegenerateFlowError
from .protocol import FlowId, PortList
from .topology import Mesh, Network, NodeId
from .traffic import FlowSpec


def _wires(net: Network, src: NodeId, dst: NodeId, bandwidth: float, bound: int) -> int:
    """The demand's wires, after checking the inputs both oracle functions take."""
    if src == dst:
        raise DegenerateFlowError("feasibility needs distinct endpoints")
    if type(bound) is not int or bound < 0:  # bool is an int subclass
        raise ValueError(f"hop bound must be a non-negative integer, got {bound!r}")
    return net.wires_for(bandwidth)


def shortest_feasible_length(net: Network, src: NodeId, dst: NodeId, bandwidth: float, bound: int) -> int | None:
    """Hops on a shortest src->dst path of at most `bound` hops whose links all
    fit `bandwidth` on the network's current state, or None if there is none.

    A level-by-level breadth-first search over Network.fitting_links; a
    shortest walk never revisits a node, so the path it measures is simple.
    """
    wires = _wires(net, src, dst, bandwidth, bound)
    goal = net.mesh.handle(dst)
    frontier = [net.mesh.handle(src)]
    seen = set(frontier)
    for length in range(1, bound + 1):
        reached = []
        for node in frontier:
            for _, far in net.fitting_links(node, wires):
                if far == goal:
                    return length
                if far not in seen:
                    seen.add(far)
                    reached.append(far)
        frontier = reached
    return None


def circuit_fits(net: Network, free: list[int], src: NodeId, dst: NodeId, bandwidth: float, bound: int,
                 circuit: PortList) -> bool:
    """Whether `circuit` is a simple src->dst path of at most `bound` hops each
    of whose links had the demand's wires free in `free`, a copy of
    `net.free_by_slot` taken before the run: a run cut by max_cycles may
    still hold wires when it returns."""
    wires = _wires(net, src, dst, bandwidth, bound)
    node = net.mesh.handle(src)
    visited = {node}
    for port in circuit:
        slot = 4 * node + port
        node = net.far_by_slot[slot]
        if node < 0 or free[slot] < wires or node in visited:
            return False
        visited.add(node)
    return circuit.length <= bound and node == net.mesh.handle(dst)


# -- randomized single-flow soundness scenarios ----------------------------

@dataclass(frozen=True, slots=True)
class ScenarioOutcome:
    """Result of one single-flow run compared against the oracle."""

    source: NodeId
    destination: NodeId
    required_bandwidth: float
    established: bool
    path_length: int | None
    min_feasible_length: int | None
    # A setup along a shortest feasible path (2 * length * t_hop cycles) beats the setup
    # timeout (queued at arrival, it wins a tie) and max_cycles; False if none is feasible.
    shortest_in_time: bool
    circuit_fits: bool | None  # circuit_fits on the established circuit; None if none


def single_flow_scenario(cfg: RunConfig, rng: np.random.Generator, saturate: bool) -> ScenarioOutcome:
    """Run one randomized single-flow setup race against the oracle.

    With `saturate` a random subset of directed links is pre-loaded with
    background reservations; the oracle evaluates the network before the run.
    """
    mesh = Mesh(cfg.mesh_width, cfg.mesh_height)
    nodes = list(mesh.nodes())
    src = nodes[int(rng.integers(0, len(nodes)))]
    dst = src
    while dst == src:
        dst = nodes[int(rng.integers(0, len(nodes)))]
    # Between one wire's worth and slightly more than a full link, so idle
    # scenarios mix feasible and infeasible demands. numpy draws below 2**63,
    # so a larger pool is drawn from as if it had 2**63 - 2 wires, and a
    # demand beyond float range is the largest float.
    wires = min(cfg.wire_count, 2**63 - 2)
    bandwidth = min(int(rng.integers(1, wires + 2)) * cfg.wire_bandwidth, sys.float_info.max)
    flow = FlowId(src, 0)
    spec = FlowSpec(flow, dst, bandwidth, arrival_time=0, hold_time=5)
    sim = Simulator(cfg, [spec])
    net = sim.network
    if saturate:
        for index, (node, port) in enumerate(net.links):
            if rng.random() < 0.35:
                held = int(rng.integers(1, wires + 1))
                background = (FlowId(NodeId(0, 0), -(index + 1)), 0)
                net.reserve(node, port, background, held)  # fits: an idle link has wire_count free
    record = sim.records[flow]
    hop_limit, free = record.hop_limit, list(net.free_by_slot)
    shortest = shortest_feasible_length(net, src, dst, bandwidth, hop_limit)
    in_time = shortest is not None and 2 * shortest * cfg.t_hop < sim.setup_timeout(hop_limit)
    sim.run()
    circuit = record.circuit
    return ScenarioOutcome(
        source=src,
        destination=dst,
        required_bandwidth=bandwidth,
        established=circuit is not None,
        path_length=record.path_length,
        min_feasible_length=shortest,
        shortest_in_time=in_time,
        circuit_fits=None if circuit is None else circuit_fits(net, free, src, dst, bandwidth, hop_limit, circuit),
    )


def soundness_violation(outcome: ScenarioOutcome) -> str | None:
    """Explain how `outcome` breaks the oracle contract, or None if sound.

    A flow is established exactly when a shortest feasible path sets up in
    time, and then its circuit fits the network before the run and is a
    shortest feasible path.
    """
    if outcome.established != outcome.shortest_in_time:
        if outcome.established:
            return "established although no feasible path sets up in time"
        return "setup failed although a shortest feasible path sets up in time"
    if outcome.established and not outcome.circuit_fits:
        return "established circuit does not fit the network before the run"
    if outcome.established and outcome.path_length != outcome.min_feasible_length:
        return "established path is longer than the shortest feasible path"
    return None
