"""Protocol handlers for one node; they keep no per-node state.

Forward copies flood toward the destination and reserve nothing; the flood
rule itself is one engine step over the flow's first-copy tree. The
destination turns the earliest arrivals, rebuilt as forward bees carrying
their port lists, into backward bees; backward bees reserve wires hop by
hop on the links the data will use (each arrival claims the link back toward
the node it came from, i.e. the source-to-destination direction); the
earliest backward bee to reach the source wins the circuit. Failed and
losing bees free their reservations with release packets, and a teardown
from the source dismantles the winning circuit after data transfer.

A node is its int handle. A bee's reservation lives only in `Network`, under
the key (flow, bee_index); the engine passes in its flow's other facts.
Every handler reports what it sends as a list of (port, packet) emissions,
empty when nothing leaves the node, which the engine transits in list order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import InvalidPathError, ProtocolCorruptionError
from .protocol import BackwardBee, ControlKind, ControlPacket, ForwardBee
from .topology import Network, PortDir

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class BackwardOutcome:
    """Result of processing one backward-bee delivery."""

    kind: str  # "forwarded" | "accepted" | "aborted"
    emissions: list


def handle_forward_bee(count: int, bee: ForwardBee, convert_cap: int) -> list:
    """Convert a forward bee delivered at its destination after `count` of
    its flow's bees; returns its (port, BackwardBee) emission with bee_index
    `count`, or nothing once `count` reaches `convert_cap`. The destination
    is exempt from duplicate suppression. Forward bees reserve nothing.
    """
    if count >= convert_cap:
        return []
    route = bee.ports.reverse_complement()
    return [(route.entry(0), BackwardBee(bee.flow, count, route, 1))]


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
    node: int,
    bee: BackwardBee,
    arrival_port: PortDir,
    net: Network,
    wires: int,
    won: bool,
) -> BackwardOutcome:
    """Process one backward-bee delivery at `node`.

    Every arrival first reserves `wires` wires, the flow's demand, on the
    link back toward the node the bee came from (the link data will use when
    flowing source to destination), held under (flow, bee_index). At the
    source the first bee of its flow is accepted and the circuit is
    established; a later sibling, arriving once its flow has `won`, releases
    its whole reserved route. A failed reservation releases the reserved
    prefix and kills the bee.
    """
    route = bee.route
    if not 1 <= bee.next_index <= route.length:
        raise ProtocolCorruptionError(f"backward bee of {bee.flow}: next_index {bee.next_index} out of range")
    at_source = bee.next_index == route.length
    if at_source and won:
        # Lost the race; nothing was reserved at the source for this bee.
        return BackwardOutcome("aborted", release_for_backward_bee(bee, arrival_port))
    if not net.reserve(node, arrival_port, (bee.flow, bee.bee_index), wires):
        return BackwardOutcome("aborted", release_for_backward_bee(bee, arrival_port))
    if at_source:
        return BackwardOutcome("accepted", [])
    out_port = route.entry(bee.next_index)
    return BackwardOutcome("forwarded", [(out_port, BackwardBee(bee.flow, bee.bee_index, route, bee.next_index + 1))])


def handle_control(
    node: int,
    pkt: ControlPacket,
    arrival_port: PortDir,
    net: Network,
) -> list:
    """Process one teardown/release delivery at `node`; returns its
    forwarding emission.

    At each node with route entries left the packet frees its owner's wires
    on the link named by the next route entry and travels on through that
    port. Releasing wires that are not held is a protocol warning, not an
    error, so repeated teardowns are harmless. A packet at the end of its
    route emits nothing.
    """
    if pkt.next_index > pkt.route.length:
        raise ProtocolCorruptionError(f"control packet of {pkt.flow}: next_index {pkt.next_index} out of range")
    if pkt.next_index == pkt.route.length:
        return []
    port = pkt.route.entry(pkt.next_index)
    try:
        freed = net.release(node, port, (pkt.flow, pkt.bee_index))
    except InvalidPathError:
        raise ProtocolCorruptionError(
            f"control route of {pkt.flow} leaves the mesh at {net.mesh.node_at(node)}"
        ) from None
    if freed == 0:
        logger.warning(
            "%s at %s found no reservation for %s bee %d on %s",
            pkt.kind.value,
            net.mesh.node_at(node),
            pkt.flow,
            pkt.bee_index,
            port.name,
        )
    return [(port, ControlPacket(pkt.kind, pkt.flow, pkt.bee_index, pkt.route, pkt.next_index + 1))]
