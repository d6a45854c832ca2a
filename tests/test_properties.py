"""Property tests over small random configurations.

Each drawn config is run twice from scratch. The outputs must be
byte-identical, every flow must end settled, and every established circuit
must be a real source-to-destination path within the flow's hop budget.
An untraced run, which does not schedule duplicate forward-bee deliveries,
must report what the traced run of the same config reports, on generated
traffic as well as on a few flows drawn one by one. The copies a traced run
delivers at its destination must be those a plain breadth-first flood finds,
each copy carrying its own port list and each node keeping the set of flows
it has seen, and its backward bees must carry the first of their paths,
rebuilt from the flow's first-copy tree. Against the
oracle, evaluated before the run, on an idle mesh or under frozen
background load: a single flow must be established exactly when a shortest
feasible path sets up in time, and then on a shortest feasible path.
"""

import dataclasses
import tempfile
from collections import deque
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from beenoc import (
    NON_LOCAL_PORTS,
    FlowId,
    FlowSpec,
    Mesh,
    Network,
    PortDir,
    PortList,
    RunConfig,
    Simulator,
    circuit_fits,
    generate_traffic,
    make_rng,
    shortest_feasible_length,
    validate_config,
    walk,
    write_report,
)
from beenoc.topology import OPPOSITE
from test_engine import run_with_ledger


configs = st.builds(
    RunConfig,
    mesh_width=st.integers(2, 5),
    mesh_height=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    wire_count=st.integers(1, 6),
    wire_bandwidth=st.sampled_from([0.5, 1.0]),
    t_hop=st.integers(1, 2),
    hop_limit_metric=st.sampled_from(["euclidean", "manhattan"]),
    backward_bee_count=st.integers(1, 3),
    trace=st.just(True),
    # Drawn from short lists rather than ranges, whose small end hypothesis
    # favours: most runs then offer several flows that overlap in time.
    traffic_rate=st.sampled_from([0.05, 0.1, 0.2]),
    traffic_duration=st.sampled_from([10, 20, 30]),
    bandwidth_values=st.just((0.5, 1.0, 2.0)),
    bandwidth_weights=st.just((1.0, 1.0, 1.0)),
    hold_time_dist=st.sampled_from(["fixed", "geometric"]),
    hold_time_mean=st.sampled_from([1.0, 5.0, 20.0]),
)


def written(report):
    """The files write_report makes of `report`, by name."""
    with tempfile.TemporaryDirectory() as out:
        write_report(report, out)
        return {path.name: path.read_bytes() for path in Path(out).iterdir()}


def run_once(cfg):
    mesh = Mesh(cfg.mesh_width, cfg.mesh_height)
    sim = Simulator(cfg, generate_traffic(mesh, cfg, make_rng(cfg.seed)))
    return sim, written(sim.run())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(configs)
def test_random_configs_are_deterministic_and_settle(cfg):
    validate_config(cfg)
    sim, first = run_once(cfg)
    _, second = run_once(cfg)
    assert set(first) == {"flows.csv", "summary.csv", "trace.tsv"}
    assert first == second

    # A flow sends at most one forward copy per directed link, below the
    # engine's cap of four copies per node.
    most = max((rec.forward_deliveries for rec in sim.records.values()), default=0)
    assert most <= len(sim.network.links) < 4 * sim.mesh.node_count
    for rec in sim.records.values():
        assert rec.phase.value in ("TornDown", "Failed")
        if rec.circuit is None:
            continue
        spec = rec.spec
        nodes = walk(rec.circuit, spec.source, sim.mesh)
        assert nodes[0] == spec.source and nodes[-1] == spec.destination
        assert len(nodes) - 1 == rec.path_length <= rec.hop_limit


@st.composite
def walled_runs(draw):
    """A config cut at a drawn max_cycles, its flows, and a set of their
    destinations whose incoming links are full before the run. The flows are
    either the config's generated traffic, which contends for wires in most
    draws, or up to four drawn one by one. A flood that cannot reach its
    destination ends in a wave of duplicates, which an untraced run does not
    schedule."""
    cfg = draw(configs)
    cfg = dataclasses.replace(
        cfg,
        mesh_width=draw(st.integers(3, 5)),
        mesh_height=draw(st.integers(3, 5)),
        max_cycles=draw(st.one_of(st.integers(1, 60), st.just(RunConfig.max_cycles))),
    )
    mesh = Mesh(cfg.mesh_width, cfg.mesh_height)
    if draw(st.booleans()):
        workload = generate_traffic(mesh, cfg, make_rng(cfg.seed))
    else:
        ends = st.lists(st.sampled_from(list(mesh.nodes())), min_size=2, max_size=2, unique=True)
        workload = []
        for seq, (source, destination) in enumerate(draw(st.lists(ends, min_size=1, max_size=4))):
            flow = FlowId(source, seq)
            workload.append(
                FlowSpec(
                    flow,
                    destination,
                    draw(st.sampled_from([0.5, 1.0, 2.0])),
                    draw(st.integers(0, 20)),
                    draw(st.integers(1, 20)),
                )
            )
    destinations = sorted({spec.destination for spec in workload})
    walled = draw(st.sets(st.sampled_from(destinations), min_size=1, max_size=3)) if destinations else set()
    return cfg, workload, walled


def walled_sim(cfg, workload, walled):
    """A simulator of the flows whose links into the `walled` nodes are full."""
    sim = Simulator(cfg, workload)
    net = sim.network
    for node, port in net.links:
        if net.mesh.node_at(net.far_end(node, port)) in walled:
            assert net.reserve(node, port, cfg.wire_count)
    return sim


def run_walled(cfg, workload, walled):
    report = walled_sim(cfg, workload, walled).run()
    return report, written(report)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(walled_runs())
def test_untraced_run_reports_what_the_traced_run_does(run):
    cfg, workload, walled = run
    validate_config(cfg)
    traced, traced_files = run_walled(cfg, workload, walled)
    plain, plain_files = run_walled(dataclasses.replace(cfg, trace=False), workload, walled)
    del traced_files["trace.tsv"]
    assert plain_files == traced_files
    assert plain.stats == traced.stats
    # One forward copy per directed link at most, also with walls and cuts
    links = Network(Mesh(cfg.mesh_width, cfg.mesh_height), cfg.wire_count, cfg.wire_bandwidth).links
    assert plain.stats.max_forward_deliveries_per_flow <= len(links)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(walled_runs())
def test_every_control_hop_frees_what_its_owner_holds(run):
    # the per-owner ledger of test_engine.run_with_ledger, over walls and cuts
    run_with_ledger(walled_sim(*run))  # the walled configs are traced


@st.composite
def frozen_single_flows(draw, sizes=(2, 3, 4, 5, 6)):
    """A config, one flow, and a frozen background load in wires per link.
    Each link's load takes all its wires or leaves at least four times the
    flow's demand free, so the flow's own reservations (at most three
    backward bees on a link) never change which links fit it. Mesh sides
    are drawn from `sizes`."""
    # Drawn from lists, not ranges, so that larger meshes are not rare.
    width, height = draw(st.sampled_from(sizes)), draw(st.sampled_from(sizes))
    mesh = Mesh(width, height)
    source, destination = draw(st.lists(st.sampled_from(list(mesh.nodes())), min_size=2, max_size=2, unique=True))
    demand = draw(st.integers(1, 2))
    cfg = RunConfig(
        mesh_width=width,
        mesh_height=height,
        seed=0,
        wire_count=4 * demand + draw(st.integers(0, 3)),
        t_hop=draw(st.integers(1, 3)),
        hop_limit_metric=draw(st.sampled_from(["euclidean", "manhattan"])),
        backward_bee_count=draw(st.integers(1, 3)),
    )
    spec = FlowSpec(FlowId(source, 0), destination, float(demand), draw(st.integers(0, 5)), 100_000)
    links = 2 * ((width - 1) * height + width * (height - 1))
    loads = draw(st.lists(st.integers(0, cfg.wire_count - 4 * demand), min_size=links, max_size=links))
    blocked, rng = draw(st.sampled_from([0.0, 0.15, 0.3, 0.5])), draw(st.randoms(use_true_random=False))
    return cfg, spec, [cfg.wire_count if rng.random() < blocked else wires for wires in loads]


def reference_arrivals(net, spec, hop_limit):
    """Port lists of the forward copies reaching the destination, in the
    order a breadth-first flood delivers them: every copy carries its port
    list, a node other than the destination floods only the first copy it
    sees, and a copy goes on every fitting link but its arrival port until it
    has used the budget."""
    queue = deque([(spec.source, PortList(), PortDir.LOCAL)])
    seen = set()
    arrivals = []
    wires = net.wires_for(spec.required_bandwidth)
    while queue:
        node, ports, arrival = queue.popleft()
        if node == spec.destination:
            arrivals.append(ports)
            continue
        if node in seen:
            continue
        seen.add(node)
        if ports.length >= hop_limit:
            continue
        for port in NON_LOCAL_PORTS:
            far = net.mesh.neighbor(node, port)
            if port is not arrival and far is not None and net.free_wires(net.mesh.handle(node), port) >= wires:
                queue.append((far, ports.push(port), port.opposite()))
    return arrivals


def loaded_simulator(cfg, spec, loads):
    """A simulator of the one flow `spec` whose links hold `loads` wires of
    background load, in `Network.links` order."""
    sim = Simulator(cfg, [spec])
    net = sim.network
    for (node, port), wires in zip(net.links, loads):
        if wires:
            assert net.reserve(node, port, wires)
    return sim


def run_against_a_reference_flood(cfg, spec, loads):
    """The reference flood's destination arrivals over the loaded network,
    the simulator after its run, and the report."""
    sim = loaded_simulator(cfg, spec, loads)
    arrivals = reference_arrivals(sim.network, spec, sim.records[spec.flow].hop_limit)
    return arrivals, sim, sim.run()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(frozen_single_flows())
def test_destination_bees_match_a_reference_flood(run):
    # The traced run delivers a copy at the destination after each reference
    # arrival's hop count, in order, and its backward bees carry the paths of
    # the first arrivals, up to the conversion cap, with the route the bee's
    # rule reads off each path. The untraced run, which elides duplicates,
    # sets up the same circuit, won by the same bee, with the same counts.
    cfg, spec, loads = run
    arrivals, sim, report = run_against_a_reference_flood(dataclasses.replace(cfg, trace=True), spec, loads)
    at_destination = [event.hop for event in report.trace if event.kind == "forward" and event.node == spec.destination]
    assert at_destination == [ports.length for ports in arrivals]
    bees = {event.packet.bee_index: event.packet for event in report.trace if event.kind == "backward"}
    assert [bees[index].path for index in sorted(bees)] == arrivals[: cfg.backward_bee_count]
    for bee in bees.values():
        assert bee.owner == (spec.flow, bee.bee_index)
        route = PortList.from_ports(OPPOSITE[(bee.path.bits >> 2 * i) & 0b11] for i in range(bee.path.length))
        assert route == bee.path.reverse_complement()
    # a bee that reaches the destination retraces links that still fit
    assert report.flows[0].ever_established == bool(arrivals)
    rec = sim.records[spec.flow]
    _, plain_sim, plain = run_against_a_reference_flood(dataclasses.replace(cfg, trace=False), spec, loads)
    plain_rec = plain_sim.records[spec.flow]
    assert (plain_rec.circuit, plain_rec.winner) == (rec.circuit, rec.winner)
    assert plain.stats == report.stats


def run_against_the_oracle(sim, spec):
    """The shortest feasible length of the simulator's one flow on its
    network as it stands, whether that path sets up before the flow's setup
    timeout (which wins a tie), the circuit the run establishes
    (`FlowRecord.circuit`) or None, and whether circuit_fits accepts it
    against the network before the run (None without a circuit). The
    configs keep the default max_cycles, far beyond any setup."""
    rec = sim.records[spec.flow]
    args = (spec.source, spec.destination, spec.required_bandwidth, rec.hop_limit)
    free = list(sim.network.free_by_slot)
    shortest = shortest_feasible_length(sim.network, *args)
    in_time = shortest is not None and 2 * shortest * sim.config.t_hop < sim.setup_timeout(rec.hop_limit)
    sim.run()
    fits = None if rec.circuit is None else circuit_fits(sim.network, free, *args, rec.circuit)
    return shortest, in_time, rec.circuit, fits


def assert_the_oracle_contract(shortest, in_time, circuit, fits):
    assert (circuit is not None) == in_time
    if circuit is not None:
        assert fits
        assert circuit.length == shortest


@settings(derandomize=True, max_examples=100, deadline=None)
@given(frozen_single_flows(sizes=(2, 3, 4, 5, 6, 8)))
def test_established_circuit_is_feasible_under_frozen_load(run):
    cfg, spec, loads = run
    assert_the_oracle_contract(*run_against_the_oracle(loaded_simulator(cfg, spec, loads), spec))


@st.composite
def idle_single_flows(draw):
    """A config and one flow whose demand, in wires, runs from one wire to
    one more than a link holds, so that some draws have no feasible path."""
    width, height = draw(st.sampled_from([2, 3, 4, 5])), draw(st.sampled_from([2, 3, 4, 5]))
    mesh = Mesh(width, height)
    source, destination = draw(st.lists(st.sampled_from(list(mesh.nodes())), min_size=2, max_size=2, unique=True))
    cfg = RunConfig(
        mesh_width=width,
        mesh_height=height,
        seed=0,
        wire_count=draw(st.integers(1, 4)),
        wire_bandwidth=draw(st.sampled_from([0.5, 1.0])),
        t_hop=draw(st.integers(1, 3)),
        hop_limit_metric=draw(st.sampled_from(["euclidean", "manhattan"])),
        backward_bee_count=draw(st.integers(1, 3)),
    )
    demand = draw(st.integers(1, cfg.wire_count + 1)) * cfg.wire_bandwidth
    return cfg, FlowSpec(FlowId(source, 0), destination, demand, draw(st.integers(0, 5)), draw(st.integers(1, 50)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(idle_single_flows())
def test_idle_single_flow_is_established_iff_feasible_at_minimum_length(run):
    cfg, spec = run
    sim = Simulator(cfg, [spec])
    shortest, in_time, circuit, fits = run_against_the_oracle(sim, spec)
    assert_the_oracle_contract(shortest, in_time, circuit, fits)
    # idle: every feasible setup is in time, and a shortest path is a manhattan one
    assert in_time == (shortest is not None)
    assert shortest in (None, sim.mesh.manhattan(spec.source, spec.destination))
