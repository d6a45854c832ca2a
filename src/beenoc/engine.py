"""Deterministic discrete-event core.

One global clock in integer cycles, a calendar queue that hands out events
in (time, scheduling order), uniform per-hop transit latency for every
packet, and the flow lifecycle. A flow is SettingUp from its arrival through
discovery and reservation until its first backward bee reaches the source
(Established) or its setup timeout fires (Failed); an established flow is
TornDown when its hold time ends. Every router handler returns a list of
(port, packet) emissions, which the engine transits in order. Nodes are int
handles (Mesh.handle) here, in the router and in the network; a NodeId is
made only for output and messages.

The flood builds no packet per hop. Every hop takes the same t_hop and each
cycle's events come out in scheduling order, so a flow's forward copies
reach a node in the order they were sent, and a copy's hop count is
(clock - arrival_time) // t_hop. The copies one flood step sends are
consecutive in the next cycle's bucket, so they are queued as one wave: the
flow's record and its (node, arrival_port) copies. `Simulator._on_wave`
applies the flood rule to each copy over the flow's first-copy tree,
reading the flow's state once per wave (frontier batching, as in
level-synchronous BFS). A destination conversion transits a backward bee
into the same bucket, so it closes the open wave: flattened, the queue is
the per-copy schedule. At the destination the bee's port list is rebuilt
from the tree for `router.handle_forward_bee`.

Untraced runs do not queue a forward copy the receiver would drop as a
duplicate: once a copy has been sent to a node, a later one bound there
(the destination aside) does nothing. Its delivery is counted
(events_processed, forward_deliveries, the flow's count and its 4|V| cap)
when it would be sent, unless it would fall after max_cycles, and at the
end of the run the clock moves on to the last counted delivery, so
`RunStats` and both CSVs are those of the full schedule. Traced runs queue
every copy, and trace.tsv lists each delivery.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from . import metrics, router
from .config import RunConfig, validate_config
from .errors import ConfigError, DegenerateFlowError, InvalidPathError, InvariantViolationError
from .protocol import BackwardBee, ControlKind, ControlPacket, FlowId, ForwardBee, PortList
from .topology import NON_LOCAL_PORTS, OPPOSITE, Mesh, Network, NodeId, PortDir


class FlowPhase(Enum):
    SETTING_UP = "SettingUp"
    ESTABLISHED = "Established"
    TORN_DOWN = "TornDown"
    FAILED = "Failed"


_LEGAL_TRANSITIONS = {
    (FlowPhase.SETTING_UP, FlowPhase.ESTABLISHED),
    (FlowPhase.ESTABLISHED, FlowPhase.TORN_DOWN),
    (FlowPhase.SETTING_UP, FlowPhase.FAILED),
}


@dataclass(frozen=True, slots=True)
class FlowSpec:
    """One offered traffic demand."""

    flow: FlowId
    destination: NodeId
    required_bandwidth: float
    arrival_time: int
    hold_time: int

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise DegenerateFlowError(f"flow {self.flow}: source equals destination")
        if not 0 < self.required_bandwidth < math.inf:
            raise ValueError(f"flow {self.flow}: required_bandwidth must be positive and finite")
        if self.arrival_time < 0:
            raise ValueError(f"flow {self.flow}: arrival_time must be >= 0")
        if self.hold_time < 1:
            raise ValueError(f"flow {self.flow}: hold_time must be >= 1")

    @property
    def source(self) -> NodeId:
        return self.flow.source


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
    winner_route: PortList | None = None
    winner_index: int | None = None
    forward_deliveries: int = 0
    converted: int = 0  # backward bees its destination has emitted, at most backward_bee_count
    # First-copy tree by node handle: the port the first copy sent to a node
    # arrives on (LOCAL at the source, never set at the destination), else
    # None. Made when the flow arrives; None again once it settles.
    tree: list | None = None

    @property
    def path_length(self) -> int | None:
        """Hops of the winning circuit; None until one is established."""
        return None if self.winner_route is None else self.winner_route.length

    @property
    def ever_established(self) -> bool:
        return self.phase in (FlowPhase.ESTABLISHED, FlowPhase.TORN_DOWN)


# Read once per event. Reading a member off its Enum class costs about ten
# times a module-global lookup.
_SETTLED = (FlowPhase.FAILED, FlowPhase.TORN_DOWN)
_LOCAL = PortDir.LOCAL


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

    def push(self, time: int, item) -> None:
        self.bucket(time).append(item)

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
    `records` maps each flow to its lifecycle record.
    """

    def __init__(self, config: RunConfig, workload: Sequence[FlowSpec]):
        validate_config(config)
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
        # Duplicate forward bees are elided while the clock is at most this,
        # so that their delivery would still fall within max_cycles.
        self._elide_through = -1 if config.trace else config.max_cycles - config.t_hop
        # Cycle of the last elided delivery.
        self._elided_until = 0
        self._events_processed = 0
        self._forward_deliveries = 0
        self._backward_deliveries = 0
        self._control_deliveries = 0
        self._util_acc = [0, 0, 0, 0]
        self._util_peak = [0.0, 0.0, 0.0, 0.0]
        for spec in workload:
            self._admit(spec)

    # -- construction -----------------------------------------------------

    def _admit(self, spec: FlowSpec) -> None:
        try:
            source, destination = self.mesh.handle(spec.source), self.mesh.handle(spec.destination)
        except InvalidPathError as exc:
            raise ConfigError(f"flow {spec.flow}: {exc}") from None
        if spec.flow in self.records:
            raise ConfigError(f"duplicate flow id {spec.flow}")
        hop_limit = self.mesh.hop_limit(spec.source, spec.destination, self.config.hop_limit_metric)
        wires = self.network.wires_for(spec.required_bandwidth)
        rec = FlowRecord(spec, hop_limit, wires, source, destination, spec.arrival_time + hop_limit * self._t_hop)
        self.records[spec.flow] = rec
        self.queue.push(spec.arrival_time, (Simulator._on_flow_arrival, source, rec, None))

    # -- scheduling -------------------------------------------------------

    def transit(self, origin: int, port: PortDir, packet) -> None:
        """Schedule delivery of `packet` at the neighbor of node `origin`
        through `port`, one t_hop later, arriving on the neighbor's opposite
        port."""
        try:
            destination = self.network.far_end(origin, port)
        except InvalidPathError:
            raise InvariantViolationError(
                f"transit from {self.mesh.node_at(origin)} through {port.name} leaves the mesh"
            ) from None
        self.queue.push(
            self.clock + self._t_hop, (_DELIVERY_HANDLERS[type(packet)], destination, packet, OPPOSITE[port])
        )

    # -- main loop --------------------------------------------------------

    def run(self) -> metrics.MetricsReport:
        initial_held = self.network.total_held()
        self.network.drain_dirty()
        queue = self.queue
        max_cycles = self.config.max_cycles
        truncated = False
        if queue and queue.next_time() <= max_cycles:
            # Background load placed before run(); after this only backward
            # bees reserve, and _on_backward samples after each of them.
            for port in NON_LOCAL_PORTS:
                self._track_peak_util(port)
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
        final_held = self.network.total_held() - initial_held
        established = (rec for rec in self.records.values() if rec.phase is FlowPhase.ESTABLISHED)
        expected = sum(rec.path_length * rec.wires for rec in established)
        if not truncated and final_held != expected:
            raise InvariantViolationError(
                f"conservation: {final_held} wires still held after drain, expected {expected}"
            )
        return self._build_report(final_held, drained=not truncated)

    def _advance_clock(self, time: int) -> None:
        dt = time - self.clock
        if dt:
            for port, held in enumerate(self.network.held_by_class):
                self._util_acc[port] += held * dt
        self.clock = time

    def _track_peak_util(self, port: PortDir) -> None:
        """Raise direction `port`'s peak utilisation to its current value. It
        rises only when wires are reserved on a link of that direction, so
        sampling there after each reservation finds every event's peaks."""
        wires = self.network.wires_by_class[port]
        if wires:
            util = self.network.held_by_class[port] / wires
            if util > self._util_peak[port]:
                self._util_peak[port] = util

    # -- event handlers ---------------------------------------------------

    def _on_flow_arrival(self, source: int, rec: FlowRecord, _port: None) -> None:
        timeout = math.ceil(self.config.setup_timeout_factor * rec.hop_limit * self._t_hop)
        self.queue.push(self.clock + timeout, (Simulator._on_setup_timeout, source, rec, None))
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
                bee = self._arrived_bee(node, rec, arrival_port)
                if emissions := router.handle_forward_bee(rec.converted, bee, self.config.backward_bee_count):
                    send = None  # its backward bee follows the copies queued so far
                    for port, packet in emissions:
                        rec.converted += 1
                        self.transit(node, port, packet)
            if trace is not None:
                trace.append(self._trace_line((_WAVE, node, rec, arrival_port)))
        self._events_processed = base + counted
        self._forward_deliveries += counted
        rec.forward_deliveries += counted

    def _arrived_bee(self, node: int, rec: FlowRecord, arrival_port: PortDir) -> ForwardBee:
        """The forward bee a copy delivered at its destination `node` carries:
        its port list is the tree path to the sender, far_end(node,
        arrival_port), plus the last hop, and its length is the hop count."""
        backward = []
        port = arrival_port
        while port is not PortDir.LOCAL:
            node = self.network.far_end(node, port)
            backward.append(OPPOSITE[port])
            port = rec.tree[node]
        ports = PortList()
        for port in reversed(backward):
            ports = ports.push(port, rec.hop_limit)
        spec, hops = rec.spec, (self.clock - rec.spec.arrival_time) // self._t_hop
        if ports.length != hops:
            raise InvariantViolationError(f"flow {spec.flow}: tree path of {ports.length} hops after {hops}")
        return ForwardBee(spec.flow, spec.destination, spec.required_bandwidth, ports)

    def _on_backward(self, node: int, bee: BackwardBee, arrival_port: PortDir) -> None:
        self._backward_deliveries += 1
        rec = self.records[bee.flow]
        if rec.phase in _SETTLED:
            # Flow is already settled; drop the bee and free its prefix.
            for port, packet in router.release_for_backward_bee(bee, arrival_port):
                self.transit(node, port, packet)
            return
        won = rec.phase is FlowPhase.ESTABLISHED  # at the source: a sibling was accepted first
        outcome = router.handle_backward_bee(node, bee, arrival_port, self.network, rec.wires, won)
        self.network.drain_dirty()
        if outcome.kind != "aborted":  # the bee reserved on its arrival port's link
            self._track_peak_util(arrival_port)
        if outcome.kind == "accepted":
            self._establish(rec, bee)
        for port, packet in outcome.emissions:
            self.transit(node, port, packet)

    def _on_control(self, node: int, pkt: ControlPacket, arrival_port: PortDir) -> None:
        self._control_deliveries += 1
        for port, packet in router.handle_control(node, pkt, arrival_port, self.network):
            self.transit(node, port, packet)
        self.network.drain_dirty()

    def _establish(self, rec: FlowRecord, bee: BackwardBee) -> None:
        self._set_phase(rec, FlowPhase.ESTABLISHED)
        rec.setup_latency = self.clock - rec.spec.arrival_time
        rec.winner_route = bee.route
        rec.winner_index = bee.bee_index
        self.queue.push(self.clock + rec.spec.hold_time, (Simulator._on_flow_complete, rec.source, rec, None))

    def _on_flow_complete(self, source: int, rec: FlowRecord, _port: None) -> None:
        if rec.phase is not FlowPhase.ESTABLISHED:
            raise InvariantViolationError(f"flow {rec.spec.flow} completed while {rec.phase.value}")
        self._set_phase(rec, FlowPhase.TORN_DOWN)
        route = rec.winner_route.reverse_complement()
        teardown = ControlPacket(
            kind=ControlKind.TEARDOWN, flow=rec.spec.flow, bee_index=rec.winner_index, route=route, next_index=0
        )
        # The source frees its own hop first, then the packet travels the
        # forward path releasing every circuit link.
        for port, packet in router.handle_control(source, teardown, PortDir.LOCAL, self.network):
            self.transit(source, port, packet)
        self.network.drain_dirty()

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
        elif type(payload) is BackwardBee:
            flow, pkt, hop = payload.flow, "backward", payload.next_index
        else:
            flow, pkt, hop = payload.flow, payload.kind.value, payload.next_index
        return f"{self.clock}\tdeliver\t{node}\t{flow}\t{pkt}\t{port.name.lower()}\t{hop}"

    def _build_report(self, final_held: int, drained: bool) -> metrics.MetricsReport:
        rows = []
        for rec in self.records.values():
            spec = rec.spec
            rows.append(
                metrics.FlowRow(
                    flow_seq=spec.flow.sequence,
                    src_x=spec.source.x,
                    src_y=spec.source.y,
                    dst_x=spec.destination.x,
                    dst_y=spec.destination.y,
                    bandwidth=spec.required_bandwidth,
                    phase=rec.phase.value,
                    setup_latency=rec.setup_latency,
                    path_length=rec.path_length,
                    manhattan=self.mesh.manhattan(spec.source, spec.destination),
                    ever_established=rec.ever_established,
                )
            )
        stats = metrics.RunStats(
            events_processed=self._events_processed,
            forward_deliveries=self._forward_deliveries,
            backward_deliveries=self._backward_deliveries,
            control_deliveries=self._control_deliveries,
            max_forward_deliveries_per_flow=max(
                (rec.forward_deliveries for rec in self.records.values()), default=0
            ),
            final_wires_held=final_held,
            drained=drained,
            final_cycle=self.clock,
        )
        util_peak = {}
        util_mean = {}
        for port in NON_LOCAL_PORTS:
            denom = self.network.wires_by_class[port] * self.clock
            util_peak[port] = self._util_peak[port]
            util_mean[port] = (self._util_acc[port] / denom) if denom else 0.0
        trace = tuple(self._trace) if self._trace is not None else None
        return metrics.build_report(self.config, tuple(rows), stats, util_peak, util_mean, trace)


# The handler of every queued wave of forward copies, read as a global.
_WAVE = Simulator._on_wave
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


# -- workload I/O ---------------------------------------------------------

def parse_workload(text: str, mesh: Mesh) -> list[FlowSpec]:
    """Parse the workload file format: one flow per line,
    src_x,src_y,dst_x,dst_y,bandwidth,arrival_cycle,hold_cycles.
    Blank lines and '#' comments are allowed."""
    flows: list[FlowSpec] = []
    counters: dict[NodeId, int] = defaultdict(int)
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
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


def load_workload(path, mesh: Mesh) -> list[FlowSpec]:
    return parse_workload(Path(path).read_text(encoding="ascii"), mesh)


def run_simulation(config: RunConfig, workload: Sequence[FlowSpec] | None = None) -> metrics.MetricsReport:
    """Build the workload (explicit file or generated traffic), run one
    simulation, and return its report. Deterministic in (config, seed)."""
    mesh = Mesh(config.mesh_width, config.mesh_height)
    if workload is None:
        if config.workload_file is not None:
            workload = load_workload(config.workload_file, mesh)
        else:
            from .traffic import generate_traffic, make_rng, traffic_params_from_config

            workload = generate_traffic(mesh, traffic_params_from_config(config), make_rng(config.seed))
    return Simulator(config, workload).run()
