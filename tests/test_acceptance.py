"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here.
"""

import dataclasses

from beenoc import (
    BackwardBee,
    FlowId,
    FlowSpec,
    Mesh,
    NodeId,
    PortDir,
    PortList,
    RunConfig,
    Simulator,
    decode_port,
    encode_port,
    handle_forward_bee,
    run_simulation,
    walk,
    write_report,
)
from beenoc.oracle import single_flow_scenario, soundness_violation
from beenoc.traffic import generate_traffic, make_rng

from flood_step import flood, flood_sim

S, W, E, N, LOCAL = PortDir.SOUTH, PortDir.WEST, PortDir.EAST, PortDir.NORTH, PortDir.LOCAL


def test_criterion_1_route_encoding_golden():
    # Exact: seven easts then seven souths pack to the golden 28-bit string;
    # reversing retraces the path.
    path = PortList()
    for _ in range(7):
        path = path.push(E)
    for _ in range(7):
        path = path.push(S)
    assert path.bitstring() == "1010101010101000000000000000"
    assert path.length == 14
    reverse = path.reverse_complement()
    assert reverse.bitstring() == "1111111111111101010101010101"
    assert list(reverse) == [N] * 7 + [W] * 7
    mesh = Mesh(8, 8)
    start = NodeId(0, 7)
    end = walk(path, start, mesh)[-1]
    assert end == NodeId(7, 0)
    assert walk(reverse, end, mesh)[-1] == start
    print("PASS criterion 1: golden route encoding, reversal, and walk round-trip")


def test_criterion_2_port_codec():
    # Exact, exhaustive over the four ports.
    mapping = {S: 0b00, W: 0b01, N: 0b11, E: 0b10}
    for port, code in mapping.items():
        assert encode_port(port) == code
        assert decode_port(code) is port
        assert decode_port(code ^ 0b11) is port.opposite()
    print("PASS criterion 2: port codec round-trips and complement = opposite")


def test_criterion_3_state_machine_traces():
    # Exact, scripted single-flow scenarios at handler granularity: the
    # flood rule is the engine's flood step, the rest router handlers.
    flow = FlowId(NodeId(0, 0), 0)
    src, dst = NodeId(0, 0), NodeId(2, 2)

    def arrival(ports):
        # what the destination hands the router for a copy that came along
        # `ports`: the flow and the path
        path = PortList.from_ports(ports)
        assert walk(path, src, Mesh(3, 3))[-1] == dst
        return flow, path

    # (a) duplicate kill at an intermediate node: only the first copy sent
    # to (1,0), the one from the source arriving on its west port, floods
    sim, rec = flood_sim(tree={src: LOCAL})
    assert rec.hop_limit == 6
    assert flood(sim, src, LOCAL, 0)
    assert flood(sim, NodeId(1, 0), W, 1)
    assert flood(sim, NodeId(1, 0), N, 3) == []

    # (b) kill at the hop limit
    assert flood(flood_sim(tree={NodeId(1, 1): W})[0], NodeId(1, 1), W, 6) == []

    # (c) destination converts exactly the first min(3, arrivals) bees,
    # given the count of the flow's earlier conversions
    arrivals = [[E, E, N, N], [N, N, E, E], [E, N, E, N], [N, E, N, E], [E, N, N, E]]
    converted = 0
    for ports in arrivals:
        emissions = handle_forward_bee(converted, *arrival(ports), 3, 0)
        converted += sum(1 for _, pkt in emissions if isinstance(pkt, BackwardBee))
    assert converted == 3
    short = [handle_forward_bee(count, *arrival(p), 3, 0) for count, p in enumerate(arrivals[:2])]
    assert all(len(e) == 1 for e in short)  # fewer than three arrivals all convert

    # (d) forward copies never mutate link reservations
    sim, rec = flood_sim(tree={src: LOCAL})
    before = {link: sim.network.free_wires(*link) for link in sim.network.links}
    queue = [(src, LOCAL, 0)]
    while queue:
        node, arrival, hops = queue.pop(0)
        if node != dst:
            queue.extend((far, port.opposite(), hops + 1) for port, far in flood(sim, node, arrival, hops))
    assert {link: sim.network.free_wires(*link) for link in sim.network.links} == before
    print("PASS criterion 3: duplicate kill, hop-limit kill, 3-bee conversion cap, pure discovery")


def conservation_config(seed):
    return RunConfig(
        mesh_width=4,
        mesh_height=4,
        seed=seed,
        wire_count=4,
        traffic_rate=0.0105,
        traffic_duration=1500,
        bandwidth_values=(1.0, 2.0, 3.0),
        bandwidth_weights=(0.5, 0.3, 0.2),
        hold_time_dist="geometric",
        hold_time_mean=80.0,
    )


def test_criterion_4_conservation():
    # Exact. The engine asserts the per-link wire bound after every event it
    # processes (reserve/release-time checks plus per-event dirty-link
    # checks); any violation raises and fails this test. After each run
    # drains, no wire may remain held anywhere.
    worst_cap = 0
    for seed in range(30):
        cfg = conservation_config(seed)
        workload = generate_traffic(Mesh(4, 4), cfg, make_rng(seed))
        assert len(workload) >= 200, f"seed {seed}: workload only {len(workload)} flows"
        report = Simulator(cfg, workload).run()
        assert report.stats.drained
        assert report.stats.final_wires_held == 0, f"seed {seed} leaked wires"
        worst_cap = max(worst_cap, report.stats.max_forward_deliveries_per_flow)
    assert worst_cap <= 4 * 16
    print(f"PASS criterion 4: 30 seeds x >=200 flows conserve wires (max forward events/flow {worst_cap})")


def test_criterion_5_oracle_soundness():
    # Exact: one contract on saturated and idle meshes. A flow is established
    # exactly when a shortest feasible path sets up in time, and then on a
    # shortest path that fits the pre-setup network; idle-mesh failures
    # coincide with no feasible path.
    cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0, wire_count=4)
    rng = make_rng(2024)
    membership_checked = 0
    for index in range(100):
        outcome = single_flow_scenario(cfg, rng, saturate=True)
        violation = soundness_violation(outcome)
        assert violation is None, f"saturated scenario {index}: {violation}"
        if outcome.established:
            membership_checked += 1
    assert membership_checked >= 20
    idle_failed_coincide = 0
    for index in range(40):
        outcome = single_flow_scenario(cfg, rng, saturate=False)
        violation = soundness_violation(outcome)
        assert violation is None, f"idle scenario {index}: {violation}"
        if not outcome.established:
            assert outcome.min_feasible_length is None
            idle_failed_coincide += 1
    print(
        f"PASS criterion 5: 100 saturated + 40 idle scenarios sound "
        f"({membership_checked} circuits checked, {idle_failed_coincide} idle failures with no feasible path)"
    )


def test_criterion_6_idle_network_optimality():
    # Exact: on an idle mesh every established path has manhattan length.
    cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0, wire_count=4)
    mesh = Mesh(4, 4)
    checked = 0
    for src in mesh.nodes():
        for dst in mesh.nodes():
            if src == dst:
                continue
            spec = FlowSpec(FlowId(src, 0), dst, 2.0, 0, 10)
            sim = Simulator(cfg, [spec])
            report = sim.run()
            row = report.flows[0]
            assert row.ever_established, f"{src}->{dst} failed on an idle mesh"
            assert row.path_length == mesh.manhattan(src, dst), f"{src}->{dst} took a detour"
            assert row.setup_latency == 2 * mesh.manhattan(src, dst)
            checked += 1
    assert checked == 16 * 15
    print(f"PASS criterion 6: all {checked} idle-mesh pairs establish at manhattan length")


def test_criterion_7_triple_backward_bee_success_ratio():
    # Offered load calibrated to 20-50% blocking on a 6x6 mesh; k=3 must not
    # trail k=1 by more than 1 percentage point over 30 paired seeds.
    base = RunConfig(
        mesh_width=6,
        mesh_height=6,
        seed=0,
        wire_count=8,
        traffic_rate=0.008,
        traffic_duration=1500,
        bandwidth_values=(1.0,),
        bandwidth_weights=(1.0,),
        hold_time_dist="geometric",
        hold_time_mean=4000.0,
    )
    ratios = {1: [], 3: []}
    for seed in range(30):
        for k in (1, 3):
            cfg = dataclasses.replace(base, seed=seed, backward_bee_count=k)
            workload = generate_traffic(Mesh(6, 6), cfg, make_rng(seed))
            report = Simulator(cfg, workload).run()
            ratios[k].append(report.summary.success_ratio)
    mean_k1 = sum(ratios[1]) / 30
    mean_k3 = sum(ratios[3]) / 30
    paired_diff = mean_k3 - mean_k1
    blocking = 1.0 - mean_k1
    print(
        f"criterion 7 report: k=1 success {mean_k1:.4f} (blocking {blocking:.4f}), "
        f"k=3 success {mean_k3:.4f}, paired difference {paired_diff:+.5f}"
    )
    assert 0.20 <= blocking <= 0.50, f"load drifted out of the calibrated band: {blocking:.3f}"
    assert paired_diff >= -0.01, f"k=3 worse than k=1 beyond the noise guard: {paired_diff:+.5f}"
    print(f"PASS criterion 7: triple backward bees hold the success ratio ({paired_diff:+.5f})")


def test_criterion_8_livelock_freedom_and_determinism(tmp_path):
    # Exact: forward-bee events per flow stay under 4|V|, and identical
    # (config, seed) produce byte-identical CSV files.
    cfg = conservation_config(seed=11)
    outputs = []
    for name in ("first", "second"):
        report = run_simulation(cfg)
        assert report.stats.max_forward_deliveries_per_flow <= 4 * 16
        out = tmp_path / name
        write_report(report, out)
        outputs.append(out)
    first, second = outputs
    assert (first / "flows.csv").read_bytes() == (second / "flows.csv").read_bytes()
    assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()
    print("PASS criterion 8: event cap respected and reruns byte-identical")
