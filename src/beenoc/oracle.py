"""Brute-force feasibility ground truth for small meshes.

Exhaustively enumerates the simple paths between two nodes that stay within
a hop budget and whose every directed link fits the demand under the
network's own admission rule, evaluated on the network as it stands (before
the run starts). Used to validate protocol soundness and idle-network
optimality; the live protocol races against time, so equivalence claims are
restricted to single-flow or frozen-background scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .engine import FlowSpec, Simulator
from .errors import DegenerateFlowError, InvariantViolationError, OracleSizeError
from .protocol import FlowId, PortList
from .topology import Mesh, Network, NodeId


def enumerate_feasible(
    net: Network,
    src: NodeId,
    dst: NodeId,
    required_bandwidth: float,
    bound: int,
) -> tuple[PortList, ...]:
    """Every simple src->dst path of length <= bound whose links all admit
    the demand under Network.fitting_links on the network's current state,
    in lexicographic port-code order.

    Tractability guard: accepts meshes up to 5x5, or any mesh when the bound
    is at most 12; anything larger is refused. A bound that is not a
    non-negative int raises ValueError.
    """
    if src == dst:
        raise DegenerateFlowError("feasibility enumeration needs distinct endpoints")
    if type(bound) is not int or bound < 0:  # bool is an int subclass
        raise ValueError(f"hop bound must be a non-negative integer, got {bound!r}")
    mesh = net.mesh
    small_mesh = mesh.width <= 5 and mesh.height <= 5
    if not small_mesh and bound > 12:
        raise OracleSizeError(
            f"refusing exhaustive enumeration: mesh {mesh.width}x{mesh.height} exceeds 5x5 "
            f"and bound {bound} exceeds 12"
        )
    paths: list[PortList] = []
    wires = net.wires_for(required_bandwidth)
    start, goal = mesh.handle(src), mesh.handle(dst)
    visited = {start}

    def explore(current: int, path: PortList) -> None:
        if current == goal:
            paths.append(path)
            return
        if path.length == bound:
            return
        for port, nxt in net.fitting_links(current, wires):  # code order makes the output lexicographic
            if nxt not in visited:
                visited.add(nxt)
                explore(nxt, path.push(port))
                visited.discard(nxt)

    explore(start, PortList())
    return tuple(paths)


# -- randomized single-flow soundness scenarios ----------------------------

@dataclass(frozen=True, slots=True)
class ScenarioOutcome:
    """Result of one single-flow run compared against the exhaustive check."""

    source: NodeId
    destination: NodeId
    required_bandwidth: float
    idle: bool
    established: bool
    path_length: int | None
    forward_path: PortList | None
    feasible_count: int
    min_feasible_length: int | None
    # An idle setup along a shortest feasible path (2 * length * t_hop cycles) beats the setup
    # timeout (queued at arrival, it wins a tie) and max_cycles; False if none is feasible.
    shortest_in_time: bool
    path_in_feasible: bool | None
    manhattan: int


def single_flow_scenario(
    cfg: RunConfig,
    rng: np.random.Generator,
    saturate: bool,
) -> ScenarioOutcome:
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
    # scenarios mix feasible and infeasible demands.
    wires_wanted = int(rng.integers(1, cfg.wire_count + 2))
    bandwidth = wires_wanted * cfg.wire_bandwidth
    flow = FlowId(src, 0)
    spec = FlowSpec(flow, dst, bandwidth, arrival_time=0, hold_time=5)
    sim = Simulator(cfg, [spec])
    if saturate:
        for index, (node, port) in enumerate(sim.network.links):
            if rng.random() < 0.35:
                held = int(rng.integers(1, cfg.wire_count + 1))
                background = (FlowId(NodeId(0, 0), -(index + 1)), 0)
                if not sim.network.reserve(node, port, background, held):
                    where = f"{mesh.node_at(node)}->{port.name}"
                    raise InvariantViolationError(f"background load of {held} wires refused on {where}")
    hop_limit = mesh.hop_limit(src, dst, cfg.hop_limit_metric)
    feasible = enumerate_feasible(sim.network, src, dst, bandwidth, hop_limit)
    shortest = min((p.length for p in feasible), default=None)
    in_time = shortest is not None and 2 * shortest * cfg.t_hop < min(sim.setup_timeout(hop_limit), cfg.max_cycles + 1)
    sim.run()
    record = sim.records[flow]
    forward_path = record.circuit
    established = forward_path is not None
    return ScenarioOutcome(
        source=src,
        destination=dst,
        required_bandwidth=bandwidth,
        idle=not saturate,
        established=established,
        path_length=record.path_length,
        forward_path=forward_path,
        feasible_count=len(feasible),
        min_feasible_length=shortest,
        shortest_in_time=in_time,
        path_in_feasible=(forward_path in feasible) if established else None,
        manhattan=mesh.manhattan(src, dst),
    )


def soundness_violation(outcome: ScenarioOutcome) -> str | None:
    """Explain how `outcome` breaks the oracle contract, or None if sound.

    Every established circuit must be a member of the pre-setup feasible
    set; on an idle mesh an established path must be a shortest member, and
    a setup must not fail when a shortest feasible path is set up in time.
    """
    if outcome.established:
        if not outcome.path_in_feasible:
            return "established circuit is not in the feasible set"
        if outcome.idle and outcome.path_length != outcome.min_feasible_length:
            return "established path is longer than the shortest feasible path on an idle mesh"
    else:
        if outcome.idle and outcome.shortest_in_time:
            return "setup failed on an idle mesh although a feasible path sets up in time"
    return None
