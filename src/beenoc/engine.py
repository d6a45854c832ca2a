"""Deterministic discrete-event core.

One global clock in integer cycles, a calendar queue that hands out events
in (time, scheduling order), one transit latency t_hop for every hop, and
the flow lifecycle: SettingUp from arrival until the first backward bee
reaches the source (Established) or the setup timeout fires (Failed), then
TornDown when the hold time ends. Nodes are int handles (Mesh.handle) here,
in the router and in the network; a NodeId is made only for output.

No packet is built per hop. A backward bee or control packet is queued as
the same object at every hop of its route, at route index
(clock - start) // t_hop. Forward copies carry no packet: a copy's hop
count is (clock - arrival_time) // t_hop, and the copies one flood step
sends are queued as one wave, the flow's record and its (node,
arrival_port) copies, to which `Simulator._on_wave` applies the flood rule
over the flow's first-copy tree (frontier batching, as in level-synchronous
BFS). A conversion at the destination closes the open wave, so the
flattened queue is the per-copy schedule; one walk of the tree back to the
source gives the conversion its path, which the backward bee carries, the
winner's circuit keeps and its teardown walks.

Untraced runs do not queue a forward copy the receiver would drop as a
duplicate: once a copy has been sent to a node, a later one bound there
(the destination aside) does nothing. Its delivery is counted when it would
be sent, unless it would fall after max_cycles, and at the end of the run
the clock moves on to the last counted delivery, so `RunStats` and both
CSVs are those of the full schedule. Traced runs queue every copy, and
trace.tsv lists each delivery.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import metrics, router
from .config import RunConfig, read_text
from .errors import ConfigError, InvalidPathError, InvariantViolationError
from .protocol import BackwardBee, ControlKind, ControlPacket, FlowId, PortList
from .topology import NON_LOCAL_PORTS, OPPOSITE, Mesh, Network, PortDir, hop_budget
from .traffic import FlowSpec, generate_traffic, make_rng, parse_workload


class FlowPhase(Enum):
    SETTING_UP = "SettingUp"
    ESTABLISHED = "Established"
    TORN_DOWN = "TornDown"
    FAILED = "Failed"


# Compared by identity: a set would hash both members through Enum.__hash__.
_LEGAL_TRANSITIONS = (
    (FlowPhase.SETTING_UP, FlowPhase.ESTABLISHED),
    (FlowPhase.ESTABLISHED, FlowPhase.TORN_DOWN),
    (FlowPhase.SETTING_UP, FlowPhase.FAILED),
)


@dataclass(slots=True)
class FlowRecord:
    """Mutable per-flow lifecycle state kept by the engine."""

    spec: FlowSpec
    hop_limit: int
    wires: int  # the wires its demand takes on each link, Network.wires_for of it
    source: int  # handles of the flow's ends
    destination: int
    flood_until: int  # arrival_time + hop_limit * t_hop: copies delivered from then on used the budget
    phase: FlowPhase = FlowPhase.SETTING_UP
    setup_latency: int | None = None
    circuit: PortList | None = None  # the winning bee's path, source to destination
    winner: tuple[FlowId, int] | None = None  # the winning bee's owner key, (flow, bee_index)
    forward_deliveries: int = 0
    converted: int = 0  # backward bees its destination has emitted, at most backward_bee_count
    # First-copy tree by node handle: the port the first copy sent to a node
    # arrives on (LOCAL at the source, never set at the destination), else
    # None. Made when the flow arrives; None again once it settles.
    tree: list | None = None

    @property
    def path_length(self) -> int | None:
        """Hops of the winning circuit; None until one is established."""
        return None if self.circuit is None else self.circuit.length


def _setup_timeout(config: RunConfig, hop_limit: int) -> int:
    """Cycles from a flow's arrival to its setup timeout, at most
    max_cycles + 1, since a later deadline never fires either."""
    try:
        cycles = math.ceil(config.setup_timeout_factor * hop_limit * config.t_hop)
    except OverflowError:  # an infinite product, or a t_hop beyond float range
        return config.max_cycles + 1
    return min(cycles, config.max_cycles + 1)


# Read once per event. Reading a member off its Enum class costs about ten
# times a module-global lookup.
_SETTLED = (FlowPhase.FAILED, FlowPhase.TORN_DOWN)
_ESTABLISHED = FlowPhase.ESTABLISHED
_LOCAL = PortDir.LOCAL
_RELEASE = ControlKind.RELEASE
_FORWARDED = router.BackwardOutcome.FORWARDED
_ABORTED = router.BackwardOutcome.ABORTED


class CalendarQueue:
    """Pending events bucketed by cycle (Brown, "Calendar queues", CACM 1988).

    A dict maps each pending cycle to a FIFO list of its events, and a heap
    holds the distinct pending cycles. Events come out in (cycle, push
    order), the order of a heap keyed by (time, sequence number). The
    simulator queues (handler, node, payload, arrival_port) tuples; a flow's
    arrival, completion and setup timeout carry its `FlowRecord` and no port,
    and a wave is (wave step, FlowRecord, [(node, arrival_port), ...], None).
    """

    __slots__ = ("_buckets", "_cycles")

    def __init__(self) -> None:
        self._buckets: dict[int, list] = {}
        self._cycles: list[int] = []

    def __bool__(self) -> bool:
        return bool(self._cycles)

    def bucket(self, time: int) -> list:
        """The list of events pending at `time`; appending to it pushes. A new
        cycle is scheduled at once, so ask only when an event will be appended:
        an empty bucket would still move the clock when it comes out."""
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = []
            heapq.heappush(self._cycles, time)
        return bucket

    def next_time(self) -> int:
        """The earliest pending cycle."""
        return self._cycles[0]

    def pop_cycle(self) -> tuple[int, list]:
        """Remove and return the earliest cycle with its events in push order.

        Items pushed for that cycle afterwards form a new bucket, which comes
        out next.
        """
        time = heapq.heappop(self._cycles)
        return time, self._buckets.pop(time)


class Simulator:
    """Single-threaded deterministic event loop over one mesh network.

    The network may be pre-loaded with background reservations (through
    `network.reserve`) before run() to model frozen contention; the end-of-run
    conservation check accounts for wires held before the first event.
    `records` maps each flow to its lifecycle record. The config is not
    checked again: a `RunConfig` is valid once built.
    """

    def __init__(self, config: RunConfig, workload: Sequence[FlowSpec]):
        self.config = config
        self.mesh = Mesh(config.mesh_width, config.mesh_height)
        self.network = Network(self.mesh, config.wire_count, config.wire_bandwidth)
        # No per-node state exists; the benchmark's traced state count still reads this.
        self.nodes = {}
        self.clock = 0
        self.queue = CalendarQueue()
        self.records: dict[FlowId, FlowRecord] = {}
        self._trace: list[str] | None = [] if config.trace else None
        self._forward_cap = 4 * self.mesh.node_count
        self._t_hop = config.t_hop
        self._far_by_slot = self.network.far_by_slot
        # Duplicate forward bees are elided while the clock is at most this,
        # so that their delivery would still fall within max_cycles.
        self._elide_through = -1 if config.trace else config.max_cycles - config.t_hop
        self._elided_until = 0  # cycle of the last elided delivery
        self._events_processed = 0
        self._backward_deliveries = 0
        self._control_deliveries = 0
        self._util_acc = [0, 0, 0, 0]
        self._peak_held = [0, 0, 0, 0]  # most wires held at once per direction
        # Memos, since a run offers few distinct bandwidths and hop limits: the wires
        # a demand takes, and the cycles from arrival to setup timeout by hop_limit.
        self._wires_for = functools.cache(self.network.wires_for)
        self.setup_timeout = functools.cache(functools.partial(_setup_timeout, config))
        self._admit(workload)

    # -- construction -----------------------------------------------------

    def _admit(self, workload: Sequence[FlowSpec]) -> None:
        """Record and queue the arrival of every flow, in workload order. The
        handles and hop limit are arithmetic on the coordinates."""
        width, height, metric, t_hop = self.mesh.width, self.mesh.height, self.config.hop_limit_metric, self._t_hop
        records, wires_for, bucket = self.records, self._wires_for, self.queue.bucket
        for spec in workload:
            flow, destination, bandwidth, arrival, _ = spec
            (sx, sy), (tx, ty) = flow[0], destination
            if not (0 <= sx < width and 0 <= sy < height and 0 <= tx < width and 0 <= ty < height):
                try:
                    self.mesh.handle(flow.source), self.mesh.handle(destination)
                except InvalidPathError as exc:
                    raise ConfigError(f"flow {flow}: {exc}") from None
            hop_limit = hop_budget(abs(tx - sx), abs(ty - sy), metric)
            src = sy * width + sx
            rec = FlowRecord(spec, hop_limit, wires_for(bandwidth), src, ty * width + tx, arrival + hop_limit * t_hop)
            if records.setdefault(flow, rec) is not rec:  # hashes the flow id once
                raise ConfigError(f"duplicate flow id {flow}")
            bucket(arrival).append((_ARRIVAL, src, rec, None))

    # -- scheduling -------------------------------------------------------

    def transit(self, origin: int, port: PortDir, packet) -> None:
        """Schedule delivery of `packet` one t_hop later at the neighbor of
        node `origin` through `port`, arriving on its opposite port."""
        # The local port's slot would alias the next node's south link.
        destination = self._far_by_slot[4 * origin + port] if port < 4 else -1
        if destination < 0:
            raise InvariantViolationError(
                f"transit from {self.mesh.node_at(origin)} through {port.name} leaves the mesh"
            )
        self.queue.bucket(self.clock + self._t_hop).append(
            (_DELIVERY_HANDLERS[type(packet)], destination, packet, OPPOSITE[port])
        )

    # -- main loop --------------------------------------------------------

    def run(self) -> metrics.MetricsReport:
        initial_held = self.network.total_held()
        queue = self.queue
        max_cycles = self.config.max_cycles
        truncated = False
        if queue and queue.next_time() <= max_cycles:
            # The background load placed before run(); after this only
            # backward bees reserve, and _on_backward raises the peaks.
            self._peak_held = list(self.network.held_by_class)
        while queue:
            if queue.next_time() > max_cycles:
                truncated = True
                break
            time, events = queue.pop_cycle()
            if time < self.clock:
                raise InvariantViolationError(f"event {self._events_processed}: clock would move backward")
            self._advance_clock(time)
            for ev in events:
                handler, node, payload, port = ev
                try:
                    handler(self, node, payload, port)
                except InvariantViolationError as exc:
                    raise type(exc)(f"event {self._events_processed}: {exc}") from exc
                if handler is not _WAVE:  # a wave counts and traces each of its copies
                    self._events_processed += 1
                    if self._trace is not None:
                        self._trace.append(self._trace_line(ev))
        if self._elided_until > self.clock:
            self._advance_clock(self._elided_until)
        if truncated:
            for rec in self.records.values():
                if rec.phase is FlowPhase.SETTING_UP:
                    self._set_phase(rec, FlowPhase.FAILED)
        # A drained run has torn every circuit down, so it holds only the background load.
        final_held = self.network.total_held() - initial_held
        if not truncated and final_held != 0:
            raise InvariantViolationError(f"conservation: {final_held} wires still held after drain")
        return self._build_report(final_held, drained=not truncated)

    def _advance_clock(self, time: int) -> None:
        dt = time - self.clock
        if dt:
            acc = self._util_acc
            south, west, east, north = self.network.held_by_class
            acc[0] += south * dt
            acc[1] += west * dt
            acc[2] += east * dt
            acc[3] += north * dt
        self.clock = time

    # -- event handlers ---------------------------------------------------

    def _on_flow_arrival(self, source: int, rec: FlowRecord, _port: None) -> None:
        self.queue.bucket(self.clock + self.setup_timeout(rec.hop_limit)).append((Simulator._on_setup_timeout, source, rec, None))
        rec.tree = [None] * self.mesh.node_count
        rec.tree[source] = _LOCAL
        self._on_wave(rec, [(source, _LOCAL)], None)

    def _on_wave(self, rec: FlowRecord, copies: list, _port: None) -> None:
        """The flood rule for `copies`, (node, arrival_port) pairs of `rec`'s
        flow delivered now, in order. The first copy sent to a node, unless
        the flow has settled or used its hop budget, goes on every link but
        its arrival port with the flow's wires free, and each new far end but
        the destination enters the tree; when eliding, a copy bound for a node
        in the tree is counted, not queued. Other copies send nothing, and
        are converted at the destination. Each copy is an event, but a LOCAL
        one: the flow starting, inside its arrival event."""
        tree = rec.tree
        clock = self.clock
        spent = tree is None or clock >= rec.flood_until
        destination = rec.destination
        wires = rec.wires
        elide = clock <= self._elide_through
        node_links = self.network.node_links
        free = self.network.free_by_slot
        trace = self._trace
        budget = self._forward_cap - rec.forward_deliveries
        # Each copy counted so far, elided or not, is one event and one delivery.
        base = self._events_processed
        counted = 0
        send = None  # appends to the open wave of copies queued for cycle clock + t_hop
        for node, arrival_port in copies:
            if not spent and tree[node] is arrival_port:
                for port, slot, far in node_links[node]:
                    if port is arrival_port or free[slot] < wires:
                        continue
                    if tree[far] is None:
                        if far != destination:
                            tree[far] = OPPOSITE[port]
                    elif elide:
                        counted += 1
                        self._elided_until = clock + self._t_hop
                        continue
                    if send is None:
                        wave = []
                        send = wave.append
                        self.queue.bucket(clock + self._t_hop).append((_WAVE, rec, wave, None))
                    send((far, OPPOSITE[port]))
                if arrival_port is _LOCAL:
                    continue
            counted += 1
            if counted > budget:
                self._events_processed = base + counted - 1
                raise InvariantViolationError(
                    f"flow {rec.spec.flow} exceeded the forward-bee event cap ({self._forward_cap})"
                )
            # The destination is never in the tree, so every copy there sends nothing.
            if node == destination and tree is not None:
                self._events_processed = base + counted - 1
                path = self._arrived_path(node, rec, arrival_port)
                if emissions := router.handle_forward_bee(
                    rec.converted, rec.spec.flow, path, self.config.backward_bee_count, clock
                ):
                    send = None  # its backward bee follows the copies queued so far
                    for port, packet in emissions:
                        rec.converted += 1
                        self.transit(node, port, packet)
            if trace is not None:
                trace.append(self._trace_line((_WAVE, node, rec, arrival_port)))
        self._events_processed = base + counted
        rec.forward_deliveries += counted

    def _arrived_path(self, node: int, rec: FlowRecord, arrival_port: PortDir) -> PortList:
        """The path, source to destination, of a copy delivered at its
        destination `node`, from one walk of the tree back to the source
        across `arrival_port`. The ports crossed, complemented, are the path's
        entries from its last hop."""
        far_by_slot, tree = self._far_by_slot, rec.tree
        path = length = 0
        port = arrival_port
        while port is not _LOCAL:
            node = far_by_slot[4 * node + port]
            if node < 0:
                raise InvariantViolationError(f"flow {rec.spec.flow}: tree path leaves the mesh")
            path |= (port ^ 0b11) << (2 * length)
            length += 1
            port = tree[node]
        hops = (self.clock - rec.spec.arrival_time) // self._t_hop
        if length != hops:
            raise InvariantViolationError(f"flow {rec.spec.flow}: tree path of {length} hops after {hops}")
        return PortList(path, length)

    def _on_backward(self, node: int, bee: BackwardBee, arrival_port: PortDir) -> None:
        self._backward_deliveries += 1
        rec = self.records[bee.owner[0]]
        index = (self.clock - bee.start) // self._t_hop
        phase, net = rec.phase, self.network
        # A settled flow drops its bees, and once a sibling has won, a bee reaching the source lost the race.
        if phase in _SETTLED or (phase is _ESTABLISHED and index == bee.path.length):
            outcome = _ABORTED
        else:
            outcome = router.handle_backward_bee(node, bee, index, arrival_port, net, rec.wires)
        if outcome is _ABORTED:  # it reserved nothing here
            # The bee reserved the index - 1 links behind it: the last steps of its path, which a release retraces.
            reserved = index - 1
            if reserved > 0:
                route = PortList(bee.path.bits & ((1 << 2 * reserved) - 1), reserved)
                self.transit(node, arrival_port, ControlPacket(_RELEASE, bee.owner, route, self.clock + self._t_hop))
            return
        # Only a reservation raises a direction's peak; this one was on the arrival port's link.
        held = net.held_by_class[arrival_port]
        if held > self._peak_held[arrival_port]:
            self._peak_held[arrival_port] = held
        if outcome is _FORWARDED:  # handle_backward_bee checked index < length
            self.transit(node, OPPOSITE[(bee.path.bits >> 2 * index) & 0b11], bee)
            return
        self._set_phase(rec, _ESTABLISHED)  # accepted at the source
        rec.setup_latency = self.clock - rec.spec.arrival_time
        rec.circuit, rec.winner = bee.path, bee.owner
        self.queue.bucket(self.clock + rec.spec.hold_time).append((Simulator._on_flow_complete, rec.source, rec, None))

    def _on_control(self, node: int, pkt: ControlPacket, _port: PortDir) -> None:
        self._control_deliveries += 1
        wires = self.records[pkt.owner[0]].wires
        port = router.handle_control(node, pkt, (self.clock - pkt.start) // self._t_hop, self.network, wires)
        if port is not None:  # None at the end of its route
            self.transit(node, port, pkt)

    def _on_flow_complete(self, source: int, rec: FlowRecord, _port: None) -> None:
        self._set_phase(rec, FlowPhase.TORN_DOWN)
        teardown = ControlPacket(ControlKind.TEARDOWN, rec.winner, rec.circuit, self.clock)
        # The source frees its own hop, at route index 0; the packet then walks and frees the circuit.
        if (port := router.handle_control(source, teardown, 0, self.network, rec.wires)) is not None:
            self.transit(source, port, teardown)

    def _on_setup_timeout(self, _source: int, rec: FlowRecord, _port: None) -> None:
        if rec.phase is FlowPhase.SETTING_UP:
            self._set_phase(rec, FlowPhase.FAILED)

    def _set_phase(self, rec: FlowRecord, phase: FlowPhase) -> None:
        if (rec.phase, phase) not in _LEGAL_TRANSITIONS:
            raise InvariantViolationError(
                f"flow {rec.spec.flow}: illegal phase transition {rec.phase.value} -> {phase.value}"
            )
        rec.phase = phase
        if phase in _SETTLED:
            # Nothing reads a settled flow's tree: every handler checks settlement first.
            rec.tree = None

    # -- reporting --------------------------------------------------------

    def _trace_line(self, ev: tuple) -> str:
        handler, node, payload, port = ev
        node = self.mesh.node_at(node)
        if port is None:
            return f"{self.clock}\t{_LIFECYCLE_NAMES[handler]}\t{node}\t{payload.spec.flow}\t-\t-\t-"
        if type(payload) is FlowRecord:
            flow, pkt, hop = payload.spec.flow, "forward", (self.clock - payload.spec.arrival_time) // self._t_hop
        else:
            pkt = "backward" if type(payload) is BackwardBee else payload.kind.value
            flow, hop = payload.flow, (self.clock - payload.start) // self._t_hop
        return f"{self.clock}\tdeliver\t{node}\t{flow}\t{pkt}\t{port.name.lower()}\t{hop}"

    def _build_report(self, final_held: int, drained: bool) -> metrics.MetricsReport:
        rows = []
        row = metrics.FlowRow
        forwarded = most_forwarded = 0
        for rec in self.records.values():
            forwarded += rec.forward_deliveries
            most_forwarded = max(most_forwarded, rec.forward_deliveries)
            ((src_x, src_y), seq), (dst_x, dst_y), bandwidth, _, _ = rec.spec
            latency, length = rec.setup_latency, rec.path_length
            manhattan = abs(dst_x - src_x) + abs(dst_y - src_y)
            rows.append(row(seq, src_x, src_y, dst_x, dst_y, bandwidth, rec.phase.value, latency, length, manhattan))
        stats = metrics.RunStats(
            events_processed=self._events_processed,
            forward_deliveries=forwarded,
            backward_deliveries=self._backward_deliveries,
            control_deliveries=self._control_deliveries,
            max_forward_deliveries_per_flow=most_forwarded,
            final_wires_held=final_held,
            drained=drained,
            final_cycle=self.clock,
        )
        util_peak, util_mean = {}, {}
        for port in NON_LOCAL_PORTS:
            wires = self.network.wires_by_class[port]
            util_peak[port] = (self._peak_held[port] / wires) if wires else 0.0
            denom = wires * self.clock
            util_mean[port] = (self._util_acc[port] / denom) if denom else 0.0
        trace = tuple(self._trace) if self._trace is not None else None
        return metrics.build_report(tuple(rows), stats, util_peak, util_mean, trace)


# The handlers of every queued wave of forward copies and of every arrival, read as globals.
_WAVE = Simulator._on_wave
_ARRIVAL = Simulator._on_flow_arrival
# The handler of a packet delivery, by packet type; transit picks it.
_DELIVERY_HANDLERS = {
    BackwardBee: Simulator._on_backward,
    ControlPacket: Simulator._on_control,
}
# Trace names of the flow lifecycle events.
_LIFECYCLE_NAMES = {
    Simulator._on_flow_arrival: "arrival",
    Simulator._on_flow_complete: "complete",
    Simulator._on_setup_timeout: "timeout",
}


def run_simulation(config: RunConfig) -> metrics.MetricsReport:
    """Build the configured workload (explicit file or generated traffic), run
    one simulation, and return its report. Deterministic in (config, seed)."""
    mesh = Mesh(config.mesh_width, config.mesh_height)
    if config.workload_file is not None:
        workload = parse_workload(read_text(config.workload_file), mesh)
    else:
        workload = generate_traffic(mesh, config, make_rng(config.seed))
    return Simulator(config, workload).run()
