"""Per-node protocol state machine.

Forward bees flood toward the destination and only record ports; the
destination turns the earliest arrivals into backward bees; backward bees
reserve wires hop by hop on the links the data will use (each arrival claims
the link back toward the node it came from, i.e. the source-to-destination
direction); the earliest backward bee to reach the source wins the circuit.
Failed and losing bees free their reservations with release packets, and a
teardown from the source dismantles the winning circuit after data transfer.

Every handler reports what it sends as a list of (port, packet) emissions,
empty when nothing leaves the node; the engine transits each in list order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import InvalidPathError, ProtocolCorruptionError
from .protocol import BackwardBee, ControlKind, ControlPacket, FlowId, ForwardBee
from .topology import Network, NodeId, PortDir

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
    """Mutable per-node protocol state, touched only by the engine loop."""

    id: NodeId
    seen: set = field(default_factory=set)
    flow_table: dict = field(default_factory=dict)
    dest_arrivals: dict = field(default_factory=dict)
    source_accepted: set = field(default_factory=set)


@dataclass(slots=True)
class BackwardOutcome:
    """Result of processing one backward-bee delivery."""

    kind: str  # "forwarded" | "accepted" | "aborted"
    emissions: list


def handle_forward_bee(
    state: NodeState,
    bee: ForwardBee,
    arrival_port: PortDir,
    net: Network,
    hop_limit: int,
    convert_cap: int = 3,
    reached: set | None = None,
) -> list:
    """Process one forward-bee delivery; returns its (port, packet) emissions.

    At the destination the earliest `convert_cap` bees (cap 3) become backward
    bees; the destination is exempt from duplicate suppression. Elsewhere the
    bee is re-broadcast on the links flood_links() picks, and a copy it elides
    is the emission `(port, None)`. Forward bees reserve nothing.
    """
    if state.id == bee.destination:
        count = state.dest_arrivals.get(bee.flow, 0)
        if count >= convert_cap:
            return []
        state.dest_arrivals[bee.flow] = count + 1
        route = bee.ports.reverse_complement()
        back = BackwardBee(
            flow=bee.flow, bee_index=count, route=route, next_index=1, required_bandwidth=bee.required_bandwidth
        )
        return [(route.entry(0), back)]
    wires = net.wires_for(bee.required_bandwidth)
    return [
        (port, None if far is None else bee.advanced(port, hop_limit))
        for port, far in flood_links(state, bee, arrival_port, net, hop_limit, wires, reached)
    ]


def flood_links(
    state: NodeState,
    bee: ForwardBee,
    arrival_port: PortDir,
    net: Network,
    hop_limit: int,
    wires: int,
    reached: set | None = None,
) -> list:
    """The flood rule away from the bee's destination: the (port, far end)
    links the bee is copied onto. None if the node has seen the flow or the
    bee has used its hop budget; else, in port-code order, every link but the
    arrival port's with `wires` wires free (Network.fitting_links).

    `reached`, when given, is the set of nodes the flow's bees have already
    been sent to, its source included. A copy bound for such a node other
    than the destination would arrive after the earlier one and be dropped
    there, so it is elided: its pair is `(port, None)`. Every other copy
    adds its far end to the set.
    """
    if bee.flow in state.seen:
        return []
    state.seen.add(bee.flow)
    if bee.ports.length >= hop_limit:
        return []
    links = net.fitting_links(state.id, wires)
    if reached is None:
        return [link for link in links if link[0] is not arrival_port]
    out = []
    for port, far in links:
        if port is arrival_port:
            continue
        if far in reached and far != bee.destination:
            out.append((port, None))
        else:
            reached.add(far)
            out.append((port, far))
    return out


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
) -> BackwardOutcome:
    """Process one backward-bee delivery.

    Every arrival first reserves wires on the link back toward the node the
    bee came from (the link data will use when flowing source to destination)
    and records a flow-table entry. At the source the first bee of its flow
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
    if not net.reserve(state.id, arrival_port, key, bee.required_bandwidth):
        return BackwardOutcome("aborted", release_for_backward_bee(bee, arrival_port))
    if at_source:
        state.source_accepted.add(bee.flow)
        state.flow_table[key] = FlowTableEntry(
            bee.flow, bee.bee_index, arrival_port, PortDir.LOCAL, net.wires_for(bee.required_bandwidth)
        )
        return BackwardOutcome("accepted", [])
    out_port = route.entry(bee.next_index)
    state.flow_table[key] = FlowTableEntry(
        bee.flow, bee.bee_index, arrival_port, out_port, net.wires_for(bee.required_bandwidth)
    )
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
        raise ProtocolCorruptionError(f"control route of {pkt.flow} leaves the mesh at {state.id}") from None
    if freed == 0:
        logger.warning(
            "%s at %s found no reservation for %s bee %d on %s",
            pkt.kind.value,
            state.id,
            pkt.flow,
            pkt.bee_index,
            port.name,
        )
    state.flow_table.pop(key, None)
    return [(port, ControlPacket(pkt.kind, pkt.flow, pkt.bee_index, pkt.route, pkt.next_index + 1))]
