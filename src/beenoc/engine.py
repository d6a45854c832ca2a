"""Deterministic discrete-event core.

One global clock in integer cycles, a calendar queue that hands out events
in (time, scheduling order), uniform per-hop transit latency for every
packet, and the flow lifecycle. A flow is SettingUp from its arrival through
discovery and reservation until its first backward bee reaches the source
(Established) or its setup timeout fires (Failed); an established flow is
TornDown when its hold time ends. Every router handler returns a list of
(port, packet) emissions, which the engine transits in order.

The flood builds no packet per hop. Every hop takes the same t_hop and each
cycle's events come out in scheduling order, so a flow's forward copies
reach a node in the order they were sent, and a copy's hop count is
(clock - arrival_time) // t_hop. A queued copy carries only its flow's
record, over whose first-copy tree `router.flood_links` applies the flood
rule; each copy goes straight into the bucket of cycle clock + t_hop. At the
destination the engine rebuilds the bee's port list from the tree for
`router.handle_forward_bee`.

Untraced runs do not schedule the forward copies the receiver would drop as
duplicates: once a copy has been sent to a node, a later one bound there
(the destination aside) finds it a duplicate or the flow settled and does
nothing. The router reports such a copy as a `(port, None)` link, and
the engine counts its delivery (events_processed, forward_deliveries, the
flow's count and its 4|V| cap) when it is emitted. A delivery that would
fall after max_cycles is scheduled as usual, and at the end of the run the
clock moves on to the last counted delivery, so `RunStats` and both CSVs are
those of the full schedule. Traced runs schedule every delivery, so that
trace.tsv lists each of them.
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
from .router import NodeState
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
    # Wires the flow's demand takes on each link, Network.wires_for of it.
    wires: int
    phase: FlowPhase = FlowPhase.SETTING_UP
    setup_latency: int | None = None
    winner_route: PortList | None = None
    winner_index: int | None = None
    forward_deliveries: int = 0
    # First-copy tree: each node a forward copy was sent to, the destination
    # aside, to the port the first copy arrives on, and the source to LOCAL;
    # set when the flow arrives and dropped when it settles.
    tree: dict | None = None

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


class CalendarQueue:
    """Pending events bucketed by cycle (Brown, "Calendar queues", CACM 1988).

    A dict maps each pending cycle to a FIFO list of its events, and a heap
    holds the distinct pending cycles. Events come out in (cycle, push
    order), the order of a heap keyed by (time, sequence number). The
    simulator queues (handler, node, payload, arrival_port) tuples; a forward
    copy carries its flow's `FlowRecord`, and so do a flow's arrival,
    completion and setup timeout, with no port.
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
        self.nodes = {n: NodeState(n) for n in self.mesh.nodes()}
        self.clock = 0
        self.queue = CalendarQueue()
        self.records: dict[FlowId, FlowRecord] = {}
        self._trace: list[str] | None = [] if config.trace else None
        self._forward_cap = 4 * self.mesh.node_count
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
        for node in (spec.source, spec.destination):
            if not self.mesh.contains(node):
                raise ConfigError(f"flow {spec.flow}: node {node} is outside the mesh")
        if spec.flow in self.records:
            raise ConfigError(f"duplicate flow id {spec.flow}")
        hop_limit = self.mesh.hop_limit(spec.source, spec.destination, self.config.hop_limit_metric)
        rec = FlowRecord(spec=spec, hop_limit=hop_limit, wires=self.network.wires_for(spec.required_bandwidth))
        self.records[spec.flow] = rec
        self.queue.push(spec.arrival_time, (Simulator._on_flow_arrival, spec.source, rec, None))

    # -- scheduling -------------------------------------------------------

    def transit(self, origin: NodeId, port: PortDir, packet) -> None:
        """Schedule delivery of `packet` at the neighbor through `port`, one
        t_hop later, arriving on the neighbor's opposite port."""
        try:
            destination = self.network.far_end(origin, port)
        except InvalidPathError:
            raise InvariantViolationError(f"transit from {origin} through {port.name} leaves the mesh") from None
        self.queue.push(
            self.clock + self.config.t_hop, (_DELIVERY_HANDLERS[type(packet)], destination, packet, OPPOSITE[port])
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
            self._track_peak_util()
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

    def _track_peak_util(self) -> None:
        """Raise each direction's peak utilisation to its current value.

        Utilisation rises only when wires are reserved, so sampling after
        each reservation finds the same peaks as sampling after every event.
        """
        for port, (held, wires) in enumerate(zip(self.network.held_by_class, self.network.wires_by_class)):
            if wires:
                util = held / wires
                if util > self._util_peak[port]:
                    self._util_peak[port] = util

    # -- event handlers ---------------------------------------------------

    def _on_flow_arrival(self, source: NodeId, rec: FlowRecord, _port: None) -> None:
        timeout = math.ceil(self.config.setup_timeout_factor * rec.hop_limit * self.config.t_hop)
        self.queue.push(self.clock + timeout, (Simulator._on_setup_timeout, source, rec, None))
        rec.tree = {source: PortDir.LOCAL}
        self._flood(source, rec, PortDir.LOCAL, 0)

    def _on_forward(self, node: NodeId, rec: FlowRecord, arrival_port: PortDir) -> None:
        if rec.phase in _SETTLED:
            self._count_forward(rec, 1)
        elif node == rec.spec.destination:
            self._count_forward(rec, 1)
            for port, packet in router.handle_forward_bee(
                self.nodes[node], self._arrived_bee(node, rec, arrival_port), self.config.backward_bee_count
            ):
                self.transit(node, port, packet)
        else:
            self._flood(node, rec, arrival_port, 1)

    def _flood(self, node: NodeId, rec: FlowRecord, arrival_port: PortDir, delivered: int) -> None:
        """Send a forward copy on from `node`, where it was `delivered` (1) or
        its flow arrived (0), counting that delivery with the elided copies:
        each link `router.flood_links` picks gets a copy at clock + t_hop."""
        clock = self.clock
        t_hop = self.config.t_hop
        links = router.flood_links(
            rec.tree, node, arrival_port, self._hops(rec), self.network, rec.hop_limit, rec.wires,
            rec.spec.destination, clock <= self._elide_through,
        )
        bucket = None
        elided = 0
        for port, far in links:
            if far is None:
                elided += 1
                continue
            if bucket is None:
                bucket = self.queue.bucket(clock + t_hop)
            bucket.append((Simulator._on_forward, far, rec, OPPOSITE[port]))
        if elided:
            self._events_processed += elided
            self._elided_until = clock + t_hop
        self._count_forward(rec, delivered + elided)

    def _arrived_bee(self, node: NodeId, rec: FlowRecord, arrival_port: PortDir) -> ForwardBee:
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
        spec, hops = rec.spec, self._hops(rec)
        if ports.length != hops:
            raise InvariantViolationError(f"flow {spec.flow}: tree path of {ports.length} hops after {hops}")
        return ForwardBee(spec.flow, spec.destination, spec.required_bandwidth, ports)

    def _hops(self, rec: FlowRecord) -> int:
        """Hops taken by a forward copy of `rec`'s flow delivered now."""
        return (self.clock - rec.spec.arrival_time) // self.config.t_hop

    def _count_forward(self, rec: FlowRecord, deliveries: int) -> None:
        self._forward_deliveries += deliveries
        rec.forward_deliveries += deliveries
        if rec.forward_deliveries > self._forward_cap:
            raise InvariantViolationError(
                f"flow {rec.spec.flow} exceeded the forward-bee event cap ({self._forward_cap})"
            )

    def _on_backward(self, node: NodeId, bee: BackwardBee, arrival_port: PortDir) -> None:
        self._backward_deliveries += 1
        rec = self.records[bee.flow]
        if rec.phase in _SETTLED:
            # Flow is already settled; drop the bee and free its prefix.
            for port, packet in router.release_for_backward_bee(bee, arrival_port):
                self.transit(node, port, packet)
            return
        outcome = router.handle_backward_bee(self.nodes[node], bee, arrival_port, self.network)
        self.network.drain_dirty()
        self._track_peak_util()
        if outcome.kind == "accepted":
            self._establish(rec, bee)
        for port, packet in outcome.emissions:
            self.transit(node, port, packet)

    def _on_control(self, node: NodeId, pkt: ControlPacket, arrival_port: PortDir) -> None:
        self._control_deliveries += 1
        for port, packet in router.handle_control(self.nodes[node], pkt, arrival_port, self.network):
            self.transit(node, port, packet)
        self.network.drain_dirty()

    def _establish(self, rec: FlowRecord, bee: BackwardBee) -> None:
        self._set_phase(rec, FlowPhase.ESTABLISHED)
        rec.setup_latency = self.clock - rec.spec.arrival_time
        rec.winner_route = bee.route
        rec.winner_index = bee.bee_index
        self.queue.push(self.clock + rec.spec.hold_time, (Simulator._on_flow_complete, rec.spec.source, rec, None))

    def _on_flow_complete(self, source: NodeId, rec: FlowRecord, _port: None) -> None:
        if rec.phase is not FlowPhase.ESTABLISHED:
            raise InvariantViolationError(f"flow {rec.spec.flow} completed while {rec.phase.value}")
        self._set_phase(rec, FlowPhase.TORN_DOWN)
        route = rec.winner_route.reverse_complement()
        teardown = ControlPacket(
            kind=ControlKind.TEARDOWN, flow=rec.spec.flow, bee_index=rec.winner_index, route=route, next_index=0
        )
        # The source frees its own hop first, then the packet travels the
        # forward path releasing every circuit link.
        for port, packet in router.handle_control(self.nodes[source], teardown, PortDir.LOCAL, self.network):
            self.transit(source, port, packet)
        self.network.drain_dirty()

    def _on_setup_timeout(self, _source: NodeId, rec: FlowRecord, _port: None) -> None:
        if rec.phase is FlowPhase.SETTING_UP:
            self._set_phase(rec, FlowPhase.FAILED)

    def _set_phase(self, rec: FlowRecord, phase: FlowPhase) -> None:
        if (rec.phase, phase) not in _LEGAL_TRANSITIONS:
            raise InvariantViolationError(
                f"flow {rec.spec.flow}: illegal phase transition {rec.phase.value} -> {phase.value}"
            )
        rec.phase = phase
        if phase in _SETTLED:
            # A settled flow sends no more forward copies.
            rec.tree = None

    # -- reporting --------------------------------------------------------

    def _trace_line(self, ev: tuple) -> str:
        handler, node, payload, port = ev
        if port is None:
            return f"{self.clock}\t{_LIFECYCLE_NAMES[handler]}\t{node}\t{payload.spec.flow}\t-\t-\t-"
        if type(payload) is FlowRecord:
            flow, pkt, hop = payload.spec.flow, "forward", self._hops(payload)
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
