"""Per-node protocol state machine.

Forward copies flood toward the destination and reserve nothing; the flood
rule itself is one engine step over the flow's first-copy tree. The
destination turns the earliest arrivals, rebuilt as forward bees carrying
their port lists, into backward bees; backward bees reserve wires hop by
hop on the links the data will use (each arrival claims the link back toward
the node it came from, i.e. the source-to-destination direction); the
earliest backward bee to reach the source wins the circuit. Failed and
losing bees free their reservations with release packets, and a teardown
from the source dismantles the winning circuit after data transfer.

Every handler reports what it sends as a list of (port, packet) emissions,
empty when nothing leaves the node, which the engine transits in list order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import InvalidPathError, ProtocolCorruptionError
from .protocol import BackwardBee, ControlKind, ControlPacket, FlowId, ForwardBee
from .topology import Network, PortDir

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class FlowTableEntry:
    """Distributed circuit state held at one node for one backward-bee instance."""

    flow: FlowId
    bee_index: int
    in_port: PortDir
    out_port: PortDir
    wires_held: int


@dataclass(slots=True)
class NodeState:
    """Mutable per-node protocol state, touched only by the engine loop. A
    flow's dest_arrivals and source_accepted entries go when it settles."""

    id: int  # the node's handle (Mesh.handle); messages print its NodeId
    # Always empty: a flow's visited nodes live in its first-copy tree. Kept
    # because the benchmark's state count still reads it.
    seen: set = field(default_factory=set)
    flow_table: dict = field(default_factory=dict)
    dest_arrivals: dict = field(default_factory=dict)
    source_accepted: set = field(default_factory=set)


@dataclass(slots=True)
class BackwardOutcome:
    """Result of processing one backward-bee delivery."""

    kind: str  # "forwarded" | "accepted" | "aborted"
    emissions: list


def handle_forward_bee(state: NodeState, bee: ForwardBee, convert_cap: int = 3) -> list:
    """Convert a forward bee delivered at its destination; returns its
    (port, BackwardBee) emission, or nothing once the earliest `convert_cap`
    bees of the flow (cap 3) have been converted. The destination is exempt
    from duplicate suppression. Forward bees reserve nothing.
    """
    count = state.dest_arrivals.get(bee.flow, 0)
    if count >= convert_cap:
        return []
    state.dest_arrivals[bee.flow] = count + 1
    route = bee.ports.reverse_complement()
    return [(route.entry(0), BackwardBee(bee.flow, count, route, 1, bee.required_bandwidth))]


def release_for_backward_bee(bee: BackwardBee, arrival_port: PortDir) -> list:
    """Release packet freeing the reserved prefix of a dead backward bee.

    The bee delivered here had reserved `next_index - 1` links at the nodes
    behind it; the release retraces them toward the destination. Returns the
    (port, packet) emission in a list, empty when nothing was reserved yet.
    """
    reserved = bee.next_index - 1
    if reserved <= 0:
        return []
    route = bee.route.prefix(reserved).reverse_complement()
    pkt = ControlPacket(kind=ControlKind.RELEASE, flow=bee.flow, bee_index=bee.bee_index, route=route, next_index=0)
    return [(arrival_port, pkt)]


def handle_backward_bee(
    state: NodeState,
    bee: BackwardBee,
    arrival_port: PortDir,
    net: Network,
    wires: int,
) -> BackwardOutcome:
    """Process one backward-bee delivery.

    Every arrival first reserves `wires` wires, the flow's demand, on the
    link back toward the node the bee came from (the link data will use when
    flowing source to destination) and records a flow-table entry. At the source the first bee of its flow
    is accepted and the circuit is established; later siblings release their
    whole reserved route. A failed reservation releases the reserved prefix
    and kills the bee.
    """
    route = bee.route
    if not 1 <= bee.next_index <= route.length:
        raise ProtocolCorruptionError(f"backward bee of {bee.flow}: next_index {bee.next_index} out of range")
    at_source = bee.next_index == route.length
    if at_source and bee.flow in state.source_accepted:
        # Lost the race; nothing was reserved at the source for this bee.
        return BackwardOutcome("aborted", release_for_backward_bee(bee, arrival_port))
    key = (bee.flow, bee.bee_index)
    if not net.reserve(state.id, arrival_port, key, wires):
        return BackwardOutcome("aborted", release_for_backward_bee(bee, arrival_port))
    if at_source:
        state.source_accepted.add(bee.flow)
        state.flow_table[key] = FlowTableEntry(bee.flow, bee.bee_index, arrival_port, PortDir.LOCAL, wires)
        return BackwardOutcome("accepted", [])
    out_port = route.entry(bee.next_index)
    state.flow_table[key] = FlowTableEntry(bee.flow, bee.bee_index, arrival_port, out_port, wires)
    forwarded = BackwardBee(bee.flow, bee.bee_index, route, bee.next_index + 1, bee.required_bandwidth)
    return BackwardOutcome("forwarded", [(out_port, forwarded)])


def handle_control(
    state: NodeState,
    pkt: ControlPacket,
    arrival_port: PortDir,
    net: Network,
) -> list:
    """Process one teardown/release delivery; returns its forwarding emission.

    At each node with route entries left the packet frees its owner's wires
    on the link named by the next route entry, deletes the matching
    flow-table entry, and travels on through that port. Releasing wires that
    are not held is a protocol warning, not an error, so repeated teardowns
    are harmless. A packet at the end of its route emits nothing.
    """
    if pkt.next_index > pkt.route.length:
        raise ProtocolCorruptionError(f"control packet of {pkt.flow}: next_index {pkt.next_index} out of range")
    if pkt.next_index == pkt.route.length:
        return []
    port = pkt.route.entry(pkt.next_index)
    key = (pkt.flow, pkt.bee_index)
    try:
        freed = net.release(state.id, port, key)
    except InvalidPathError:
        raise ProtocolCorruptionError(
            f"control route of {pkt.flow} leaves the mesh at {net.mesh.node_at(state.id)}"
        ) from None
    if freed == 0:
        logger.warning(
            "%s at %s found no reservation for %s bee %d on %s",
            pkt.kind.value,
            net.mesh.node_at(state.id),
            pkt.flow,
            pkt.bee_index,
            port.name,
        )
    state.flow_table.pop(key, None)
    return [(port, ControlPacket(pkt.kind, pkt.flow, pkt.bee_index, pkt.route, pkt.next_index + 1))]
