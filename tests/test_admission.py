"""One integer admission rule: the flood, the reservation and the oracle
admit a link exactly when its free wires cover ceil(demand / wire_bandwidth)."""

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
    flood_links,
)


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
    assert record.ever_established
    assert len(feasible) > 0
    assert record.winner_route.reverse_complement() in feasible


def test_flood_reserve_and_oracle_agree_on_two_decimal_grid():
    # Every 2-decimal wire bandwidth and demand in (0, 1]. A link of exactly
    # the needed wires must be admitted and one wire fewer refused, by all
    # three decision points; the needed count is computed in exact integer
    # arithmetic, ceil(j / i) for demand j/100 over wire bandwidth i/100.
    src, dst = NodeId(0, 0), NodeId(1, 1)
    mesh = Mesh(2, 2)
    for i in range(1, 101):
        wire_bandwidth = i / 100
        for j in range(1, 101):
            demand = j / 100
            needed = -(-j // i)
            for wires in (needed - 1, needed):
                if wires < 1:
                    continue
                net = Network(mesh, wires, wire_bandwidth)
                tree = {src: PortDir.LOCAL}
                flooded = bool(flood_links(tree, src, PortDir.LOCAL, 0, net, 2, net.wires_for(demand), dst, False))
                feasible = len(enumerate_feasible(net, src, dst, demand, 2)) > 0
                reserved = net.reserve(src, PortDir.EAST, ("f", 0), demand)
                expected = wires >= needed
                assert (flooded, feasible, reserved) == (expected,) * 3, (wire_bandwidth, demand, wires)
