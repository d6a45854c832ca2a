"""One integer admission rule: the flood, the reservation and the oracle
admit a link exactly when its free wires cover ceil(demand / wire_bandwidth)."""

import math
import re

import pytest

from beenoc import (
    ConfigError,
    FlowId,
    FlowSpec,
    Mesh,
    Network,
    NodeId,
    PortDir,
    PortList,
    RunConfig,
    Simulator,
    circuit_fits,
    shortest_feasible_length,
)
from beenoc.topology import hop_budget

from flood_step import flood, flood_sim


def test_fractional_wire_bandwidth_exact_fit_establishes():
    # 0.33 / 0.03 needs all 11 wires, while 11 * 0.03 is 0.32999999999999996 in
    # floating point: a float residual check would refuse every link.
    cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0, wire_count=11, wire_bandwidth=0.03)
    src, dst = NodeId(0, 0), NodeId(3, 3)
    spec = FlowSpec(FlowId(src, 0), dst, 0.33, arrival_time=0, hold_time=10)
    sim = Simulator(cfg, [spec])
    record = sim.records[spec.flow]
    free = list(sim.network.free_by_slot)
    assert shortest_feasible_length(sim.network, src, dst, 0.33, record.hop_limit) == 6
    sim.run()
    assert record.forward_deliveries > 0
    assert record.circuit is not None
    assert circuit_fits(sim.network, free, src, dst, 0.33, record.hop_limit, record.circuit)


def test_flood_reserve_and_oracle_agree_on_two_decimal_grid():
    # Every 2-decimal wire bandwidth and demand in (0, 1]. A link of exactly
    # the needed wires must be admitted and one wire fewer refused, by all
    # three decision points; the needed count is computed in exact integer
    # arithmetic, ceil(j / i) for demand j/100 over wire bandwidth i/100.
    src, dst = NodeId(0, 0), NodeId(1, 1)
    for i in range(1, 101):
        wire_bandwidth = i / 100
        for j in range(1, 101):
            demand = j / 100
            needed = -(-j // i)
            for wires in (needed - 1, needed):
                if wires < 1:
                    continue
                sim, _ = flood_sim(
                    src=(0, 0), dst=(1, 1), bandwidth=demand, tree={src: PortDir.LOCAL},
                    mesh_width=2, mesh_height=2, wire_count=wires, wire_bandwidth=wire_bandwidth,
                )
                net = sim.network
                flooded = bool(flood(sim, src, PortDir.LOCAL, 0))
                feasible = shortest_feasible_length(net, src, dst, demand, 2) is not None
                if feasible:
                    east_north = PortList.from_ports([PortDir.EAST, PortDir.NORTH])
                    assert circuit_fits(net, net.free_by_slot, src, dst, demand, 2, east_north)
                reserved = net.reserve(net.mesh.handle(src), PortDir.EAST, net.wires_for(demand))
                expected = wires >= needed
                assert (flooded, feasible, reserved) == (expected,) * 3, (wire_bandwidth, demand, wires)


@pytest.mark.parametrize(
    "metric,width,height",
    [
        pytest.param("euclidean", 4, 4, id="euclidean"),
        pytest.param("manhattan", 4, 4, id="manhattan"),
        pytest.param("euclidean", 5, 3, id="euclidean-5x3"),
        pytest.param("manhattan", 5, 3, id="manhattan-5x3"),
    ],
)
def test_admission_memo_matches_direct_calls(metric, width, height):
    # Every ordered pair of the mesh, offered twice so that the second
    # flow of each pair is admitted from the memo, at bandwidths of which
    # several need the same wire count. All arrive at cycle 0, so the
    # arrivals, run by hand, schedule every setup timeout. On the 5x3 mesh
    # a handle or offset with its axes swapped reads another node's.
    cfg = RunConfig(
        mesh_width=width, mesh_height=height, seed=0, wire_bandwidth=0.15, t_hop=3, setup_timeout_factor=1.7,
        hop_limit_metric=metric,
    )
    mesh = Mesh(width, height)
    others = mesh.node_count - 1
    bandwidths = (0.3, 0.15, 0.45, 0.31, 1.0, 0.3)
    specs = []
    for round_no in range(2):
        for src in mesh.nodes():
            for n, dst in enumerate(d for d in mesh.nodes() if d != src):
                bandwidth = bandwidths[(len(specs) + round_no) % len(bandwidths)]
                specs.append(FlowSpec(FlowId(src, others * round_no + n), dst, bandwidth, 0, 5))
    sim = Simulator(cfg, specs)
    net = Network(mesh, cfg.wire_count, cfg.wire_bandwidth)
    assert len(sim.records) == 2 * mesh.node_count * others
    time, arrivals = sim.queue.pop_cycle()
    assert time == 0 and len(arrivals) == len(specs)
    for handler, node, rec, port in arrivals:
        handler(sim, node, rec, port)
    timeouts = {}
    while sim.queue:
        time, events = sim.queue.pop_cycle()
        timeouts.update((rec.spec.flow, time) for handler, _, rec, _ in events if handler is Simulator._on_setup_timeout)
    for spec in specs:
        rec = sim.records[spec.flow]
        (sx, sy), (tx, ty) = spec.source, spec.destination
        hop_limit = hop_budget.__wrapped__(abs(tx - sx), abs(ty - sy), metric)  # uncached
        assert rec.hop_limit == hop_limit
        assert (rec.source, rec.destination) == (mesh.handle(spec.source), mesh.handle(spec.destination))
        assert rec.flood_until == hop_limit * cfg.t_hop
        assert rec.wires == net.wires_for(spec.required_bandwidth)
        assert timeouts[spec.flow] == math.ceil(cfg.setup_timeout_factor * hop_limit * cfg.t_hop)


@pytest.mark.parametrize(
    "source,destination,bad",
    [
        ((-1, 0), (0, 0), "source"),
        ((4, 2), (0, 0), "source"),
        ((1, -1), (0, 0), "source"),
        ((1, 4), (0, 0), "source"),
        ((0, 0), (-1, 3), "destination"),
        ((0, 0), (4, 3), "destination"),
        ((3, 3), (2, -1), "destination"),
        ((3, 3), (2, 4), "destination"),
        ((-3, -2), (5, 7), "source"),  # both ends off the mesh: the source is named
    ],
    ids=["source-x-negative", "source-x-past-width", "source-y-negative", "source-y-past-height",
         "destination-x-negative", "destination-x-past-width", "destination-y-negative",
         "destination-y-past-height", "both-ends"],
)
def test_flow_off_the_mesh_is_refused(source, destination, bad):
    # After one good flow, so that the refusal comes from inside the admission loop.
    cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0)
    good = FlowSpec(FlowId(NodeId(0, 0), 0), NodeId(3, 3), 1.0, 0, 5)
    spec = FlowSpec(FlowId(NodeId(*source), 0), NodeId(*destination), 1.0, 0, 5)
    node = NodeId(*source) if bad == "source" else NodeId(*destination)
    message = f"flow {spec.flow}: node {node} is outside the 4x4 mesh"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Simulator(cfg, [good, spec])


def test_duplicate_flow_id_is_refused():
    cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0)
    first = FlowSpec(FlowId(NodeId(1, 2), 3), NodeId(3, 3), 1.0, 0, 5)
    again = FlowSpec(FlowId(NodeId(1, 2), 3), NodeId(0, 0), 2.0, 4, 9)
    with pytest.raises(ConfigError, match="^duplicate flow id 1,2:3$"):
        Simulator(cfg, [first, FlowSpec(FlowId(NodeId(1, 2), 4), NodeId(0, 0), 1.0, 0, 5), again])
