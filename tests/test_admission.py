"""One integer admission rule: the flood, the reservation and the oracle
admit a link exactly when its free wires cover ceil(demand / wire_bandwidth)."""

import math

import pytest

from beenoc import (
    FlowId,
    FlowSpec,
    Mesh,
    Network,
    NodeId,
    PortDir,
    RunConfig,
    Simulator,
    enumerate_feasible,
)

from flood_step import flood, flood_sim


def test_fractional_wire_bandwidth_exact_fit_establishes():
    # 0.33 / 0.03 needs all 11 wires, while 11 * 0.03 is 0.32999999999999996 in
    # floating point: a float residual check would refuse every link.
    cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0, wire_count=11, wire_bandwidth=0.03)
    src, dst = NodeId(0, 0), NodeId(3, 3)
    spec = FlowSpec(FlowId(src, 0), dst, 0.33, arrival_time=0, hold_time=10)
    sim = Simulator(cfg, [spec])
    feasible = enumerate_feasible(sim.network, src, dst, 0.33, sim.mesh.hop_limit(src, dst))
    sim.run()
    record = sim.records[spec.flow]
    assert record.forward_deliveries > 0
    assert record.circuit is not None
    assert len(feasible) > 0
    assert record.circuit in feasible


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
                feasible = len(enumerate_feasible(net, src, dst, demand, 2)) > 0
                reserved = net.reserve(net.mesh.handle(src), PortDir.EAST, ("f", 0), net.wires_for(demand))
                expected = wires >= needed
                assert (flooded, feasible, reserved) == (expected,) * 3, (wire_bandwidth, demand, wires)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_admission_memo_matches_direct_calls(metric):
    # Every ordered pair of a 4x4 mesh, offered twice so that the second
    # flow of each pair is admitted from the memo, at bandwidths of which
    # several need the same wire count. All arrive at cycle 0, so the
    # arrivals, run by hand, schedule every setup timeout.
    cfg = RunConfig(
        mesh_width=4, mesh_height=4, seed=0, wire_bandwidth=0.15, t_hop=3, setup_timeout_factor=1.7,
        hop_limit_metric=metric,
    )
    mesh = Mesh(4, 4)
    bandwidths = (0.3, 0.15, 0.45, 0.31, 1.0, 0.3)
    specs = []
    for round_no in range(2):
        for src in mesh.nodes():
            for n, dst in enumerate(d for d in mesh.nodes() if d != src):
                bandwidth = bandwidths[(len(specs) + round_no) % len(bandwidths)]
                specs.append(FlowSpec(FlowId(src, 15 * round_no + n), dst, bandwidth, 0, 5))
    sim = Simulator(cfg, specs)
    net = Network(mesh, cfg.wire_count, cfg.wire_bandwidth)
    assert len(sim.records) == 2 * 16 * 15
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
        hop_limit = mesh.hop_limit(spec.source, spec.destination, metric)
        assert rec.hop_limit == hop_limit
        assert rec.flood_until == hop_limit * cfg.t_hop
        assert rec.wires == net.wires_for(spec.required_bandwidth)
        assert timeouts[spec.flow] == math.ceil(cfg.setup_timeout_factor * hop_limit * cfg.t_hop)
