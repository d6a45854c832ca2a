import dataclasses
import heapq
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beenoc import (
    BackwardBee,
    ConfigError,
    ControlKind,
    ControlPacket,
    DegenerateFlowError,
    FlowId,
    FlowPhase,
    FlowRecord,
    FlowSpec,
    InvariantViolationError,
    Mesh,
    NodeId,
    PortDir,
    PortList,
    RunConfig,
    Simulator,
    parse_workload,
    run_simulation,
    write_report,
)
from beenoc.engine import CalendarQueue
from beenoc.metrics import SUMMARY_HEADER, TraceEvent, summary_line, trace_line
from beenoc.topology import OPPOSITE
from beenoc.traffic import generate_traffic, make_rng
from test_golden import GOLDEN


def base_config(**overrides):
    defaults = dict(mesh_width=4, mesh_height=4, seed=1)
    defaults.update(overrides)
    return RunConfig(**defaults)


def one_flow(src=(0, 0), dst=(3, 3), bandwidth=2.0, arrival=0, hold=50, seq=0):
    source, destination = NodeId(*src), NodeId(*dst)
    return FlowSpec(FlowId(source, seq), destination, bandwidth, arrival, hold)


def contended_run(seed):
    """Config and generated workload of a contended 4x4 run with mixed demands."""
    cfg = base_config(
        seed=seed,
        wire_count=4,
        traffic_rate=0.0095,
        traffic_duration=1500,
        bandwidth_values=(1.0, 2.0, 3.0),
        bandwidth_weights=(0.5, 0.3, 0.2),
        hold_time_dist="geometric",
        hold_time_mean=80.0,
    )
    return cfg, generate_traffic(Mesh(4, 4), cfg, make_rng(seed))


def run_with_ledger(sim):
    """Run the traced `sim` and replay its events against a ledger, owner key
    -> {slot: wires}; returns the report and the most wires each direction
    held after any event, background load included.

    `Network` keeps free counts only, so this is the per-owner check. The
    replay decides each backward delivery itself: the bee aborts when its
    flow has settled (a timeout while it sets up, or its completion), or when
    the flow is established and the bee is at the end of its path; otherwise
    it reserves the flow's wires on the link behind it if the replayed count
    has them. A release or teardown frees its route's entry at each index
    short of the route's length, and a completion frees the circuit's first
    link, which the source frees inside that event. No owner reserves a link
    it already holds, every free is of wires its owner holds on that link, no
    bee is delivered after it reserved at the source or aborted, the counts
    stay within 0..wire_count after every event (the lower bound by the
    reservation rule) and end equal to the network's, and a drained run ends
    with an empty ledger.
    """
    net, at = sim.network, sim.mesh.handle
    free = list(net.free_by_slot)  # the pool minus the background load
    held = list(net.held_by_class)
    peaks = list(held)
    ledger, phase, winner, done = {}, {}, {}, set()

    def reserve(owner, slot, wires):
        owned = ledger.setdefault(owner, {})
        assert slot not in owned, f"bee {owner} reserves link {slot} twice"
        owned[slot] = wires
        free[slot] -= wires
        held[slot & 3] += wires
        peaks[slot & 3] = max(peaks[slot & 3], held[slot & 3])

    def release(kind, owner, slot, wires):
        owned = ledger.get(owner, {})
        assert owned.pop(slot, None) == wires, f"{kind} of {owner} frees link {slot} it does not hold"
        if not owned:
            del ledger[owner]
        free[slot] += wires
        held[slot & 3] -= wires
        assert free[slot] <= net.wire_count

    report = sim.run()
    assert report.trace is not None, "the ledger replays a traced run"
    for _, kind, node, flow, packet, port, index in report.trace:
        wires = sim.records[flow].wires
        if kind == "arrival":
            phase[flow] = "setting up"
        elif kind == "timeout" and phase[flow] == "setting up":
            phase[flow] = "settled"
        elif kind == "complete":
            phase[flow] = "settled"
            bee = winner[flow]
            release(kind, bee.owner, 4 * at(node) + bee.path.entry(0), wires)
        elif kind == "backward":
            assert packet.owner not in done, f"bee {packet.owner} delivered after it reserved at the source or aborted"
            length = packet.path.length
            slot = 4 * at(node) + port
            if phase[flow] == "settled" or (phase[flow] == "established" and index == length) or free[slot] < wires:
                done.add(packet.owner)
                continue
            reserve(packet.owner, slot, wires)
            if index == length:
                phase[flow], winner[flow] = "established", packet
                done.add(packet.owner)
        elif kind in ("release", "teardown") and index < packet.route.length:
            release(kind, packet.owner, 4 * at(node) + packet.route.entry(index), wires)
    assert free == net.free_by_slot
    assert sum(wires for owned in ledger.values() for wires in owned.values()) == report.stats.final_wires_held
    if report.stats.drained:
        assert ledger == {}
    return report, peaks


class TestFlowSpec:
    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFlowError):
            one_flow(src=(1, 1), dst=(1, 1))

    @pytest.mark.parametrize(
        "kw,message",
        [
            (dict(bandwidth=0.0), "required_bandwidth must be positive"),
            (dict(hold=0), "hold_time must be >= 1"),
            (dict(arrival=-1), "arrival_time must be >= 0"),
            (dict(arrival=1.0), "arrival_time must be an integer"),
            (dict(hold=2.5), "hold_time must be an integer"),
            (dict(hold=10.0), "hold_time must be an integer"),
            (dict(arrival=True), "arrival_time must be an integer"),
            (dict(hold=True), "hold_time must be an integer"),
            (dict(src=(True, 0)), "source coordinates must be integers"),
            (dict(src=(1.0, 0)), "source coordinates must be integers"),
            (dict(dst=(3, 3.0)), "destination coordinates must be integers"),
            (dict(dst=(3, False)), "destination coordinates must be integers"),
            (dict(seq=1.5), "sequence must be an integer"),
            (dict(seq=True), "sequence must be an integer"),
            (dict(seq="a"), "sequence must be an integer"),
            (dict(bandwidth=True), "required_bandwidth must be positive"),
            (dict(bandwidth="1.0"), "required_bandwidth must be positive"),
            (dict(bandwidth=10**400), "required_bandwidth must be positive and finite"),  # beyond float range
        ],
        ids=[f"kw{i}" for i in range(18)],
    )
    def test_bad_fields(self, kw, message):
        with pytest.raises(ValueError, match=message):
            one_flow(**kw)

    @pytest.mark.parametrize(
        "flow,destination,message",
        [
            (((0, 0), 0), (2, 2), re.escape("flow ((0, 0), 0): flow id must be a FlowId")),
            (FlowId((0, 0, 1), 0), (2, 2), re.escape("flow (0, 0, 1):0: source coordinates must be integers")),
            (FlowId((0, 0), 0), (2, 2, 1), re.escape("flow (0, 0):0: destination coordinates must be integers")),
        ],
        ids=["plain-tuple-id", "three-coordinate-source", "three-coordinate-destination"],
    )
    def test_malformed_id_or_node_is_a_value_error(self, flow, destination, message):
        # the shape is checked before any field is read
        with pytest.raises(ValueError, match=message):
            FlowSpec(flow, destination, 1.0, 0, 5)

    def test_replace_is_validated(self):
        spec = one_flow()
        assert spec._replace(hold_time=7).hold_time == 7
        with pytest.raises(ValueError, match="hold_time must be an integer"):
            spec._replace(hold_time=7.5)

    def test_immutable(self):
        spec = one_flow()
        with pytest.raises(AttributeError):
            spec.hold_time = 5

    def test_plain_tuples_write_the_same_files(self, tmp_path):
        # A spec built from plain tuples holds ids, so trace.tsv prints its flow as "0,0:0"
        ids = [one_flow(), one_flow(src=(3, 0), dst=(0, 2), arrival=3)]
        plain = [FlowSpec(FlowId(tuple(s.source), 0), tuple(s.destination), *s[2:]) for s in ids]
        assert plain == ids and type(plain[1].destination) is NodeId
        for name, workload in (("ids", ids), ("plain", plain)):
            write_report(Simulator(base_config(trace=True), workload).run(), tmp_path / name)
        for file in ("flows.csv", "summary.csv", "trace.tsv"):
            assert (tmp_path / "plain" / file).read_bytes() == (tmp_path / "ids" / file).read_bytes(), file
        assert "\t0,0:0\t" in (tmp_path / "ids" / "trace.tsv").read_text()


class TestUnholdableDemand:
    # A demand whose wire quotient overflows to infinity fits no link: every such flow fails.
    @pytest.mark.parametrize(
        "overrides",
        [dict(wire_bandwidth=5e-324), dict(bandwidth_values=(1e308,), wire_bandwidth=0.5)],
        ids=["subnormal-wire", "huge-demand"],
    )
    def test_generated_flows_all_fail(self, overrides):
        report = run_simulation(base_config(traffic_rate=0.01, traffic_duration=200, **overrides))
        assert report.summary.offered > 0
        assert {row.phase for row in report.flows} == {"Failed"}

    def test_explicit_flow_fails(self):
        report = Simulator(base_config(wire_bandwidth=0.5), [one_flow(bandwidth=1.7e308)]).run()
        assert [row.phase for row in report.flows] == ["Failed"]


class TestIdleSingleFlow:
    def test_closed_form_setup(self):
        # an idle 4x4 mesh: the first bee travels a 6-hop manhattan path,
        # and the winning backward bee retraces it, so setup takes 12 hops
        sim = Simulator(base_config(), [one_flow()])
        report = sim.run()
        row = report.flows[0]
        assert row.ever_established
        assert row.phase == "TornDown"
        assert row.setup_latency == 12
        assert row.path_length == 6
        assert row.manhattan == 6
        assert report.stats.drained
        assert report.stats.final_wires_held == 0

    def test_latency_scales_with_hop_cost(self):
        sim = Simulator(base_config(t_hop=3), [one_flow()])
        report = sim.run()
        assert report.flows[0].setup_latency == 36

    def test_infeasible_demand_fails_clean(self):
        sim = Simulator(base_config(), [one_flow(bandwidth=99.0)])
        report = sim.run()
        row = report.flows[0]
        assert row.phase == "Failed"
        assert row.setup_latency is None and row.path_length is None
        assert report.stats.forward_deliveries == 0  # no feasible port to leave by
        assert report.stats.final_wires_held == 0

    def test_empty_workload(self):
        report = Simulator(base_config(), []).run()
        assert report.flows == ()
        assert report.stats.events_processed == 0
        assert report.summary.offered == 0
        assert report.summary.success_ratio is None


class TestTransit:
    def packet(self):
        flow = FlowId(NodeId(0, 0), 0)
        forward = PortList.from_ports([PortDir.EAST, PortDir.EAST])
        return BackwardBee((flow, 0), forward, 1)

    def test_delivery_one_hop_later(self):
        sim = Simulator(base_config(t_hop=1), [])
        sim.clock = 5
        sim.transit(sim.mesh.handle(NodeId(1, 1)), PortDir.EAST, self.packet())
        time, ((_, node, _, arrival_port),) = sim.queue.pop_cycle()
        assert time == 6
        assert sim.mesh.node_at(node) == NodeId(2, 1)
        assert arrival_port is PortDir.WEST

    def test_transit_after_a_hand_driven_pop_lands_in_a_new_bucket(self):
        sim = Simulator(base_config(), [])
        origin = sim.mesh.handle(NodeId(1, 1))
        sim.transit(origin, PortDir.EAST, self.packet())
        time, first = sim.queue.pop_cycle()
        sim.transit(origin, PortDir.NORTH, self.packet())  # the same cycle, after its bucket left the queue
        assert [sim.mesh.node_at(node) for _, node, _, _ in first] == [NodeId(2, 1)]
        again, second = sim.queue.pop_cycle()
        assert time == again == 1
        assert [sim.mesh.node_at(node) for _, node, _, _ in second] == [NodeId(1, 2)]
        assert not sim.queue

    def test_same_cycle_fifo_by_seq(self):
        sim = Simulator(base_config(), [])
        sim.transit(sim.mesh.handle(NodeId(1, 1)), PortDir.EAST, self.packet())
        sim.transit(sim.mesh.handle(NodeId(1, 1)), PortDir.NORTH, self.packet())
        _, ((_, first, _, _), (_, second, _, _)) = sim.queue.pop_cycle()
        assert sim.mesh.node_at(first) == NodeId(2, 1)
        assert sim.mesh.node_at(second) == NodeId(1, 2)
        assert not sim.queue

    def test_through_a_boundary_port_raises(self):
        sim = Simulator(base_config(), [])
        with pytest.raises(InvariantViolationError) as exc:
            sim.transit(sim.mesh.handle(NodeId(3, 1)), PortDir.EAST, self.packet())
        assert str(exc.value) == "transit from 3,1 through EAST leaves the mesh"
        assert not sim.queue

    # The local port's slot at (1,1) would be (2,1)'s south link; at the
    # last handle, (3,3), it lies past the end of the link table.
    @pytest.mark.parametrize("node", [NodeId(1, 1), NodeId(3, 3)])
    def test_through_local_raises(self, node):
        sim = Simulator(base_config(), [])
        with pytest.raises(InvariantViolationError) as exc:
            sim.transit(sim.mesh.handle(node), PortDir.LOCAL, self.packet())
        assert str(exc.value) == f"transit from {node} through LOCAL leaves the mesh"
        assert not sim.queue


def deliver(sim, event):
    """Run one queued (handler, node, payload, arrival_port) event."""
    handler, node, payload, arrival_port = event
    handler(sim, node, payload, arrival_port)


WAVE = Simulator._on_wave


def only_wave(events):
    """The flow record and the (node, arrival_port) copies of a cycle that
    holds one wave."""
    ((handler, rec, copies, port),) = events
    assert handler is WAVE and port is None
    return rec, copies


def flattened(bucket):
    """A bucket's events in per-copy order: each wave's copies in turn, as
    ("forward", node, arrival_port), and every other event as it is."""
    events = []
    for handler, node, payload, port in bucket:
        if handler is WAVE:
            events.extend(("forward", far, arrival) for far, arrival in payload)
        else:
            events.append((handler, node, payload, port))
    return events


class TestFloodScheduling:
    def test_copies_queued_one_hop_later_in_port_order(self):
        # traced, so no copy is elided; the source (0,1) sends to (0,0),
        # (1,1) and (0,2), and the bee at (1,1) goes on to every other link
        sim = Simulator(base_config(t_hop=2, trace=True), [one_flow(src=(0, 1), dst=(3, 3))])
        _, (arrival,) = sim.queue.pop_cycle()
        deliver(sim, arrival)
        sim.clock, events = sim.queue.pop_cycle()
        rec, (_, center, _) = only_wave(events)
        deliver(sim, (WAVE, rec, [center], None))
        time, events = sim.queue.pop_cycle()
        assert time == 4
        # one wave carries the flow's record and the copies, in port order
        payload, copies = only_wave(events)
        assert payload is rec is sim.records[FlowId(NodeId(0, 1), 0)]
        assert [(sim.mesh.node_at(node), port) for node, port in copies] == [
            (NodeId(1, 0), PortDir.NORTH),
            (NodeId(2, 1), PortDir.WEST),
            (NodeId(1, 2), PortDir.SOUTH),
        ]
        # the tree leads every copy's node back through (1,1) to the source
        expected = {
            NodeId(0, 1): PortDir.LOCAL,
            NodeId(1, 1): PortDir.WEST,
            NodeId(1, 0): PortDir.NORTH,
            NodeId(2, 1): PortDir.WEST,
            NodeId(1, 2): PortDir.SOUTH,
        }
        assert {node: rec.tree[sim.mesh.handle(node)] for node in expected} == expected

    def test_destination_bee_is_rebuilt_from_the_tree(self):
        # 3x2 mesh, flow (0,0) -> (2,0), t_hop 2: the copy (1,0) sends east
        # reaches the destination after 2 hops, so its path is [E, E], and
        # its backward bee takes the route [W, W], arriving at (1,0) from the east
        sim = Simulator(base_config(mesh_width=3, mesh_height=2, t_hop=2), [one_flow(src=(0, 0), dst=(2, 0))])
        _, (arrival,) = sim.queue.pop_cycle()
        deliver(sim, arrival)
        sim.clock, events = sim.queue.pop_cycle()
        rec, (east, _) = only_wave(events)
        deliver(sim, (WAVE, rec, [east], None))
        sim.clock, events = sim.queue.pop_cycle()
        _, (to_destination, _) = only_wave(events)
        deliver(sim, (WAVE, rec, [to_destination], None))
        path = PortList.from_ports([PortDir.EAST, PortDir.EAST])
        route = PortList.from_ports([PortDir.WEST, PortDir.WEST])
        assert route == path.reverse_complement()
        time, ((handler, node, bee, port),) = sim.queue.pop_cycle()
        assert (time, handler, sim.mesh.node_at(node), port) == (6, Simulator._on_backward, (1, 0), PortDir.EAST)
        assert bee == BackwardBee((FlowId(NodeId(0, 0), 0), 0), path, 4)
        assert rec.converted == 1
        # the tree path must be as long as the hops the clock allows
        sim.clock += 2
        with pytest.raises(InvariantViolationError, match="tree path of 2 hops after 3"):
            deliver(sim, (WAVE, rec, [to_destination], None))
        # a tree entry pointing off the mesh stops the walk, which must not
        # read the tree at handle -1
        rec.tree[sim.mesh.handle(NodeId(1, 0))] = PortDir.SOUTH
        with pytest.raises(InvariantViolationError, match="tree path leaves the mesh"):
            deliver(sim, (WAVE, rec, [to_destination], None))

    def test_all_elided_fanout_queues_nothing(self):
        # 3x2 mesh, flow (0,0) -> (2,1): the bee at (1,0) is sent on to
        # (1,1), so the one copy the bee at (0,1) could send, also to (1,1),
        # is elided and must not leave an empty cycle behind
        sim = Simulator(base_config(mesh_width=3, mesh_height=2, t_hop=2), [one_flow(src=(0, 0), dst=(2, 1))])
        _, (arrival,) = sim.queue.pop_cycle()
        deliver(sim, arrival)
        sim.clock, events = sim.queue.pop_cycle()
        rec, (east, north) = only_wave(events)
        deliver(sim, (WAVE, rec, [east], None))
        assert sim.queue.pop_cycle()[0] == 4  # the copies sent from (1,0)
        deliver(sim, (WAVE, rec, [north], None))
        assert sim.queue.next_time() > 4
        assert rec.forward_deliveries == 3

    def test_conversion_mid_wave_splits_it(self):
        # 3x3, flow (0,0) -> (1,1), one backward bee, traced: the cycle-2
        # wave is (2,0), then the destination twice, then (0,2). The first
        # destination copy converts, so the cycle-3 bucket is the copy (2,0)
        # sends, the backward bee, and the copy (0,2) sends, in two waves.
        def run_to_cycle_3(one_copy_waves):
            cfg = base_config(mesh_width=3, mesh_height=3, t_hop=1, trace=True, backward_bee_count=1)
            sim = Simulator(cfg, [one_flow(src=(0, 0), dst=(1, 1))])
            while sim.queue.next_time() < 3:
                sim.clock, events = sim.queue.pop_cycle()
                for handler, rec, payload, port in events:
                    if handler is WAVE and one_copy_waves:
                        for copy in payload:
                            deliver(sim, (WAVE, rec, [copy], None))
                    else:
                        deliver(sim, (handler, rec, payload, port))
            return sim, sim.queue.pop_cycle()

        sim, (time, bucket) = run_to_cycle_3(one_copy_waves=False)
        assert time == 3
        assert [event[0] for event in bucket] == [WAVE, Simulator._on_backward, WAVE]
        at = sim.mesh.handle
        assert flattened(bucket)[::2] == [
            ("forward", at(NodeId(2, 1)), PortDir.SOUTH),
            ("forward", at(NodeId(1, 2)), PortDir.WEST),
        ]
        # the same schedule as delivering every copy as a wave of its own
        _, (_, per_copy) = run_to_cycle_3(one_copy_waves=True)
        assert flattened(bucket) == flattened(per_copy)

    @pytest.mark.parametrize("trace", [True, False])
    def test_flood_without_destination_queues_one_wave_per_cycle(self, trace):
        # the links into (2,2) are full, so the flood never meets it
        sim = Simulator(base_config(mesh_width=3, mesh_height=3, t_hop=1, trace=trace), [one_flow(dst=(2, 2))])
        for node, port in ((NodeId(1, 2), PortDir.EAST), (NodeId(2, 1), PortDir.NORTH)):
            assert sim.network.reserve(sim.mesh.handle(node), port, 8)
        handlers = []
        while sim.queue:
            sim.clock, events = sim.queue.pop_cycle()
            handlers.append([event[0] for event in events])
            for event in events:
                deliver(sim, event)
        assert handlers[0] == [Simulator._on_flow_arrival] and handlers[-1] == [Simulator._on_setup_timeout]
        assert len(handlers) > 4 and all(cycle == [WAVE] for cycle in handlers[1:-1])


class TestCalendarQueue:
    # Each step pushes at `delays` cycles from the current one, then, if
    # `drain`, pops the earliest cycle and, after its i-th event, pushes at
    # during[i] cycles from it (0: the cycle being drained).
    steps = st.lists(
        st.tuples(
            st.lists(st.integers(0, 4), max_size=5),
            st.booleans(),
            st.lists(st.integers(0, 2), max_size=4),
        ),
        max_size=30,
    )

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(steps)
    def test_matches_time_seq_heap(self, steps):
        queue, reference, seq = CalendarQueue(), [], itertools.count()
        now = 0

        def push(time):
            item = next(seq)
            queue.bucket(time).append(item)
            heapq.heappush(reference, (time, item))

        def drain(during):
            nonlocal now
            now, items = queue.pop_cycle()
            for i, item in enumerate(items):
                assert heapq.heappop(reference) == (now, item)
                if i < len(during):
                    push(now + during[i])

        for delays, pop, during in steps:
            for delay in delays:
                push(now + delay)
            if pop and queue:
                drain(during)
            assert bool(queue) == bool(reference)
        while queue:
            drain(())
        assert reference == []

    def test_push_after_its_cycle_was_popped_opens_a_fresh_bucket(self):
        queue = CalendarQueue()
        queue.bucket(3).append("a")
        assert queue.bucket(3) == ["a"]  # the pending bucket, handed out again
        time, popped = queue.pop_cycle()
        assert (time, popped) == (3, ["a"]) and not queue
        queue.bucket(3).append("b")
        assert popped == ["a"]
        assert queue.pop_cycle() == (3, ["b"]) and not queue


class TestUtilisationPeak:
    def summary_fields(self, report):
        return dict(zip(SUMMARY_HEADER.split(","), summary_line(report.summary).split(",")))

    def background_sim(self, workload):
        sim = Simulator(base_config(), workload)
        # 4 of the 12 * 8 = 96 east-bound wires of a 4x4 mesh
        assert sim.network.reserve(sim.mesh.handle(NodeId(1, 2)), PortDir.EAST, 4)
        return sim

    def test_background_load_with_no_backward_bee(self):
        report = self.background_sim([one_flow(bandwidth=99.0)]).run()
        assert report.stats.backward_deliveries == 0
        fields = self.summary_fields(report)
        assert fields["util_peak_east"] == "0.041667"
        assert fields["util_peak_north"] == "0.000000"

    def test_empty_workload_over_background_load(self):
        report = self.background_sim([]).run()
        assert self.summary_fields(report)["util_peak_east"] == "0.000000"

    def test_corrupted_background_load_raises_before_run(self):
        sim = Simulator(base_config(), [one_flow()])
        sim.network.wire_count = 3  # corrupt: a link's 8 free wires no longer fit its pool
        with pytest.raises(InvariantViolationError, match="link 1,2->EAST counts 4 free of 3 wires"):
            sim.network.reserve(sim.mesh.handle(NodeId(1, 2)), PortDir.EAST, 4)

    def test_peaks_match_sampling_after_every_event(self):
        # an event writes at most one link, so the replayed peaks after every
        # event are those after every write
        cfg, workload = contended_run(3)
        sim = Simulator(dataclasses.replace(cfg, trace=True), workload)
        report, held = run_with_ledger(sim)
        peaks = [wires / sim.network.wires_by_class[port] for port, wires in enumerate(held)]
        assert min(peaks) > 0
        summary = report.summary
        assert [summary.util_peak_south, summary.util_peak_west, summary.util_peak_east, summary.util_peak_north] == peaks


class TestSetupTimeout:
    def test_timeout_with_no_bees_in_flight(self):
        report = Simulator(base_config(), [one_flow(bandwidth=99.0)]).run()
        assert report.flows[0].phase == "Failed"
        assert report.stats.backward_deliveries == 0
        assert report.stats.control_deliveries == 0

    def test_timeout_invalidates_bee_mid_route(self):
        # hop limit 6, timeout ceil(0.7 * 6) = 5: the backward bee born at
        # (3,0) at cycle 3 has reserved (2,0)'s east link when the timeout
        # fires; at its next hop it is dropped, and its release frees
        # exactly that prefix
        cfg = base_config(mesh_width=4, mesh_height=2, setup_timeout_factor=0.7, trace=True)
        sim = Simulator(cfg, [one_flow(src=(0, 0), dst=(3, 0), bandwidth=1.0)])
        report, _ = run_with_ledger(sim)
        assert report.flows[0].phase == "Failed"
        packets = [event for event in report.trace if event.packet is not None]
        assert [(event.cycle, event.node, event.kind, event.hop) for event in packets] == [
            (4, (2, 0), "backward", 1),
            (5, (1, 0), "backward", 2),  # after the timeout: it reserves nothing
            (6, (2, 0), "release", 0),
            (7, (3, 0), "release", 1),
        ]
        # the release, the bee's own, frees (2,0)'s east link at route index 0 and nothing more
        bee, _, release, _ = (event.packet for event in packets)
        assert release.owner is bee.owner and release.route == PortList.from_ports([PortDir.EAST])
        assert report.stats.control_deliveries == 2
        assert report.stats.final_wires_held == 0
        assert report.stats.drained

    def test_timeout_after_establishment_is_noop(self):
        # default timeout (36) fires long after setup (12); phase is untouched
        report = Simulator(base_config(), [one_flow(hold=100)]).run()
        assert report.flows[0].phase == "TornDown"


class TestRandomizedRun:
    def run_once(self, seed):
        cfg, workload = contended_run(seed)
        return Simulator(cfg, workload).run(), workload

    def test_drains_and_conserves(self):
        report, workload = self.run_once(3)
        assert len(workload) > 100
        assert report.stats.drained
        assert report.stats.final_wires_held == 0
        assert report.summary.established + report.summary.failed == len(workload)

    def test_forward_event_cap_respected(self):
        report, _ = self.run_once(4)
        assert report.stats.max_forward_deliveries_per_flow <= 4 * 16

    def test_established_rows_have_valid_geometry(self):
        report, _ = self.run_once(5)
        for row in report.flows:
            if row.ever_established:
                assert row.path_length >= row.manhattan
                assert row.setup_latency >= 2 * row.manhattan


class TestConfigChecked:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("t_hop", 0),
            ("t_hop", -1),
            ("backward_bee_count", 0),
            # a wrong type in a config built in code: never a TypeError or a silent misreading
            ("trace", "off"),
            ("bandwidth_values", [1.0, 2.0]),
            ("bandwidth_values", "1.0"),
            ("workload_file", 5),
            ("wire_bandwidth", True),
        ],
    )
    def test_simulator_refuses_invalid_config(self, key, value):
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            Simulator(base_config(**{key: value}), [one_flow()])


class TestTrace:
    def test_trace_lines_cover_events(self):
        cfg = base_config(trace=True)
        sim = Simulator(cfg, [one_flow()])
        report = sim.run()
        assert report.trace is not None
        assert len(report.trace) == report.stats.events_processed
        cycles = [event.cycle for event in report.trace]
        assert cycles == sorted(cycles)
        kinds = {event.kind for event in report.trace}
        assert kinds == {"arrival", "forward", "backward", "release", "teardown", "complete", "timeout"}
        nodes = sim.mesh.nodes()
        for event in report.trace:
            assert type(event) is TraceEvent and event.node is nodes[sim.mesh.handle(event.node)]
            lifecycle = event.kind in ("arrival", "complete", "timeout")
            assert (event.port is None, event.hop is None) == (lifecycle, lifecycle)
            assert (event.packet is None) == (lifecycle or event.kind == "forward")
            assert trace_line(event).count("\t") == 6

    def test_trace_off_by_default(self):
        report = Simulator(base_config(), [one_flow()]).run()
        assert report.trace is None

    def test_each_bee_and_control_packet_is_one_object_on_its_route(self):
        # A traced contended churn run: every backward bee and control packet
        # is delivered as the same object at each hop, one t_hop apart, and
        # its trace event's hop is its route index there, as the route's
        # entries lead on from node to node. An established flow's circuit
        # and teardown reuse its winner's path and owner key.
        cfg, workload = contended_run(3)
        sim = Simulator(dataclasses.replace(cfg, trace=True), workload)
        report = sim.run()
        assert report.stats.drained
        delivered = [event for event in report.trace if event.packet is not None]
        assert len(delivered) == report.stats.backward_deliveries + report.stats.control_deliveries > 1000
        objects, hops = {}, {}
        for cycle, kind, node, flow, pkt, port, hop in delivered:
            assert flow == pkt.flow and cycle == pkt.start + hop * cfg.t_hop
            assert kind == ("backward" if type(pkt) is BackwardBee else pkt.kind.value)
            assert objects.setdefault((kind, pkt.flow, pkt.bee_index), pkt) is pkt
            hops.setdefault(id(pkt), []).append((node, port, hop))
        assert {kind for kind, _, _ in objects} == {"backward", "release", "teardown"}
        for pkt in objects.values():
            if type(pkt) is BackwardBee:
                # a bee carries its path; the engine's rule reads its route off it
                route = pkt.path.reverse_complement()
                assert [OPPOSITE[(pkt.path.bits >> 2 * i) & 0b11] for i in range(route.length)] == list(route)
            else:
                route = pkt.route
            route_hops = hops[id(pkt)]
            rec = sim.records[pkt.flow]
            first = 0 if type(pkt) is ControlPacket and pkt.kind is ControlKind.RELEASE else 1
            assert [hop for _, _, hop in route_hops] == list(range(first, first + len(route_hops)))
            if first == 1:  # sent from the bee's destination, or from the teardown's source
                origin = rec.spec.destination if type(pkt) is BackwardBee else rec.spec.source
                assert route_hops[0][:2] == (sim.mesh.neighbor(origin, route.entry(0)), route.entry(0).opposite())
            for (node, _, hop), (next_node, port, _) in zip(route_hops, route_hops[1:]):
                assert (next_node, port) == (sim.mesh.neighbor(node, route.entry(hop)), route.entry(hop).opposite())
            if type(pkt) is ControlPacket:
                assert route_hops[-1][2] == route.length  # it is delivered at the end of its route
            else:
                assert route_hops[-1][2] <= route.length
        established = [rec for rec in sim.records.values() if rec.circuit is not None]
        assert len(established) > 10
        assert {flow for kind, flow, _ in objects if kind == "teardown"} == {rec.spec.flow for rec in established}
        for rec in established:
            bee = objects[("backward", *rec.winner)]
            teardown = objects[("teardown", *rec.winner)]
            assert hops[id(bee)][-1][::2] == (rec.spec.source, bee.path.length)  # it reached the source
            assert rec.circuit is bee.path
            assert teardown.route is bee.path
            assert teardown.owner is bee.owner is rec.winner


class TestMaxCycles:
    def test_truncation_fails_unresolved_flows(self):
        cfg = base_config(max_cycles=5)  # cut off before setup can finish
        report = Simulator(cfg, [one_flow()]).run()
        assert report.flows[0].phase == "Failed"
        assert not report.stats.drained

    def test_a_second_run_is_refused(self):
        # Cut with wires held: a second run would take them for background
        # load and report none held, while the network still holds them.
        sim = Simulator(base_config(max_cycles=20), [one_flow()])
        held = sim.run().stats.final_wires_held
        assert held > 0 and sim.network.total_held() == held
        with pytest.raises(InvariantViolationError, match="a Simulator runs once"):
            sim.run()
        assert sim.network.total_held() == held


class TestConservation:
    """A drained run must hold no wires beyond the background load."""

    def test_wires_held_after_drain_raise(self, monkeypatch):
        # Releases and teardowns that free nothing leave the circuit and the
        # losing bees' reservations held.
        sim = Simulator(base_config(), [one_flow()])
        monkeypatch.setattr(sim.network, "release", lambda node, port, wires: 0)
        with pytest.raises(InvariantViolationError, match="conservation") as info:
            sim.run()
        assert str(info.value) == f"conservation: {sim.network.total_held()} wires still held after drain"
        assert sim.network.total_held() > 0
        assert sim.records[one_flow().flow].phase is FlowPhase.TORN_DOWN

    def test_a_run_cut_with_wires_held_does_not_raise(self):
        # Setup takes 12 cycles and the hold 50, so at cycle 30 the circuit is held.
        report = Simulator(base_config(max_cycles=30), [one_flow()]).run()
        assert report.flows[0].phase == "Established"
        assert not report.stats.drained
        assert report.stats.final_wires_held == 12

    @pytest.mark.parametrize("name", [*sorted(GOLDEN), "contended"])
    def test_every_release_frees_wires(self, name):
        # A circuit is torn down once and a release retraces only what its
        # bee reserved, so every control hop frees wires its owner holds.
        if name == "contended":
            cfg, workload = contended_run(3)
        else:
            cfg = RunConfig(**GOLDEN[name][0])
            workload = generate_traffic(Mesh(cfg.mesh_width, cfg.mesh_height), cfg, make_rng(cfg.seed))
        report, _ = run_with_ledger(Simulator(dataclasses.replace(cfg, trace=True), workload))
        assert report.stats.control_deliveries > 0


class TestElidedDuplicates:
    """Untraced runs count duplicate forward-bee deliveries without scheduling them."""

    def test_elided_tail_keeps_final_cycle_and_mean_utilisation(self):
        # Flow a floods a 3x3 whose links into its destination are full, so
        # its last wave, cut at max_cycles, brings only duplicates. Flow b
        # holds a circuit from cycle 2, so mean utilisation depends on the
        # final cycle.
        a = one_flow(src=(0, 0), dst=(2, 2), bandwidth=1.0)
        b = one_flow(src=(1, 0), dst=(2, 0), bandwidth=1.0)
        reports = {}
        for trace in (True, False):
            sim = Simulator(base_config(mesh_width=3, mesh_height=3, max_cycles=4, trace=trace), [a, b])
            for node, port in ((NodeId(1, 2), PortDir.EAST), (NodeId(2, 1), PortDir.NORTH)):
                assert sim.network.reserve(sim.mesh.handle(node), port, 8)
            reports[trace] = sim.run()
        traced, plain = reports[True], reports[False]
        earlier = {(e.node, e.flow) for e in traced.trace if e.cycle < 4 and e.kind == "forward"}
        last = [e for e in traced.trace if e.cycle == 4]
        assert last and all(e.kind == "forward" and (e.node, e.flow) in earlier for e in last)
        assert plain.stats.final_cycle == traced.stats.final_cycle == 4
        assert plain.stats == traced.stats
        assert plain.summary == traced.summary
        assert plain.summary.util_mean_east > 0

    @pytest.mark.parametrize("trace", [True, False])
    def test_forward_cap_enforced_in_both_modes(self, trace):
        # the event index counts every copy, elided ones included, up to the
        # copy whose delivery passes the cap
        sim = Simulator(base_config(trace=trace), [one_flow()])
        sim._forward_cap = 5
        event = 6 if trace else 7
        message = f"event {event}: flow 0,0:0 exceeded the forward-bee event cap (5)"
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
            sim.run()

    @pytest.mark.parametrize("trace", [True, False])
    def test_settled_flows_drop_reached_nodes(self, trace):
        cfg, workload = contended_run(3)
        sim = Simulator(dataclasses.replace(cfg, trace=trace), workload)
        sim.run()
        assert all(rec.tree is None for rec in sim.records.values())


class TestBoundedState:
    def test_node_entries_belong_to_unsettled_flows(self):
        # A long churn run: 4x4, 4 wires, over a thousand short flows of 1-3
        # wires. A flow's per-node entries are its first-copy tree. After
        # every event the record that event touched holds a tree only while
        # its flow is unsettled and never counts more conversions than the
        # backward-bee cap, so live trees never outnumber the unsettled
        # flows, and the drained run ends with none.
        cfg = base_config(
            seed=11,
            wire_count=4,
            traffic_rate=0.05,
            traffic_duration=1500,
            bandwidth_values=(1.0, 2.0, 3.0),
            bandwidth_weights=(0.5, 0.3, 0.2),
            hold_time_dist="geometric",
            hold_time_mean=40.0,
            trace=True,
        )
        workload = generate_traffic(Mesh(4, 4), cfg, make_rng(cfg.seed))
        settled = (FlowPhase.FAILED, FlowPhase.TORN_DOWN)
        live = set()
        peak = 0

        class Checked(Simulator):
            def _trace_event(self, ev):  # called after every event of a traced run
                nonlocal peak
                payload = ev[2]
                rec = payload if type(payload) is FlowRecord else self.records[payload.flow]
                if rec.phase in settled:
                    assert rec.tree is None
                assert rec.converted <= cfg.backward_bee_count
                (live.add if rec.tree is not None else live.discard)(rec.spec.flow)
                peak = max(peak, len(live))
                return super()._trace_event(ev)

        sim = Checked(cfg, workload)
        report = sim.run()
        assert len(workload) > 1000 and report.stats.drained
        assert report.summary.established > 100 and report.summary.failed > 100
        assert peak > 1
        assert all(rec.tree is None for rec in sim.records.values())
        assert max(rec.converted for rec in sim.records.values()) == cfg.backward_bee_count


class TestDiagnostics:
    def test_violation_names_event_index(self):
        from beenoc import ProtocolCorruptionError

        sim = Simulator(base_config(), [one_flow(arrival=100)])
        flow = FlowId(NodeId(0, 0), 0)
        # delivered one hop after transit, at route index 5 of a 1-entry route
        t_hop = sim.config.t_hop
        bad = BackwardBee((flow, 0), PortList.from_ports([PortDir.EAST]), t_hop - 5 * t_hop)  # route [W]
        sim.transit(sim.mesh.handle(NodeId(0, 0)), PortDir.EAST, bad)
        with pytest.raises(
            ProtocolCorruptionError, match=r"event 0: backward bee of 0,0:0: route index 5 outside 1\.\.1 \(start -4\)"
        ):
            sim.run()


class TestWorkloadParsing:
    def test_round_trip(self):
        text = "# demo\n0,0,3,3,2.0,0,50\n0,0,1,2,1.5,4,10\n\n2,2,0,0,1.0,4,10\n"
        flows = parse_workload(text, Mesh(4, 4))
        assert len(flows) == 3
        assert flows[0].flow == FlowId(NodeId(0, 0), 0)
        assert flows[1].flow == FlowId(NodeId(0, 0), 1)  # per-source counter
        assert flows[2].flow == FlowId(NodeId(2, 2), 0)
        assert flows[1].required_bandwidth == 1.5

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("1,2,3", "7 comma-separated fields"),
            ("0,0,9,9,1.0,0,10", "outside the mesh"),
            ("0,0,1,1,x,0,10", "line 1"),
            ("0,0,0,0,1.0,0,10", "source equals destination"),
            ("0,0,1,1,1.0,0,0", "hold_time"),
            ("0,0,1,1,nan,0,10", "line 1: .* positive and finite"),
            ("0,0,1,1,inf,0,10", "line 1: .* positive and finite"),
        ],
    )
    def test_bad_lines(self, line, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_workload(line, Mesh(4, 4))


class TestRunSimulation:
    def test_generated_workload_path(self):
        cfg = base_config(traffic_rate=0.002, traffic_duration=400)
        report = run_simulation(cfg)
        assert report.summary.offered == len(report.flows)

    def test_workload_file_path(self, tmp_path):
        wl = tmp_path / "flows.txt"
        wl.write_text("0,0,3,3,2.0,0,50\n", encoding="ascii")
        cfg = dataclasses.replace(base_config(), workload_file=str(wl))
        report = run_simulation(cfg)
        assert report.summary.offered == 1
        assert report.flows[0].setup_latency == 12
