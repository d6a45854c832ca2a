"""Protocol handlers for one node; they keep no per-node state.

Forward copies flood toward the destination and reserve nothing; the flood
rule is one engine step. The destination turns the earliest arrivals into
backward bees, each carrying the path it read off the flow's tree. A bee
retraces its path from the far end, reserving wires hop by hop on the links
the data will use (each arrival claims the link back toward the node it came
from), and the first to reach the source wins: its path is the circuit.
Failed and losing bees free their wires with release packets, and a teardown
from the source dismantles the circuit after data transfer.

A node is its int handle. A bee's reservation lives only in `Network`, under
its `owner` key (flow, bee_index), built once with the bee. The engine
passes in a packet's route index, (clock - start) // t_hop, and sends the
same packet on at the next hop.
"""

from __future__ import annotations

import logging
from enum import Enum

from .errors import InvalidPathError, ProtocolCorruptionError
from .protocol import BackwardBee, ControlKind, ControlPacket, FlowId, PortList
from .topology import NON_LOCAL_PORTS, OPPOSITE, Network, PortDir

logger = logging.getLogger(__name__)


class BackwardOutcome(Enum):
    """Result of processing one backward-bee delivery."""

    FORWARDED = "forwarded"  # the engine sends the bee on through OPPOSITE[(path.bits >> 2 * index) & 0b11]
    ACCEPTED = "accepted"  # the circuit is established
    ABORTED = "aborted"  # the engine sends release_for_backward_bee's packet

    @property
    def kind(self) -> str:
        return self.value


_FORWARDED, _ACCEPTED, _ABORTED = BackwardOutcome  # read as globals on the per-hop path


def handle_forward_bee(count: int, flow: FlowId, path: PortList, convert_cap: int, clock: int) -> list:
    """Convert a copy of `flow` delivered at its destination at cycle `clock`
    after `count` of its flow's bees, given the path it took: [(port,
    BackwardBee)] with bee_index `count` and start `clock`, sent back across
    the path's last hop, or [] once `count` reaches `convert_cap`."""
    if count >= convert_cap:
        return []
    return [(OPPOSITE[path.bits & 0b11], BackwardBee((flow, count), path, clock))]


def release_for_backward_bee(bee: BackwardBee, index: int, start: int) -> ControlPacket | None:
    """Release packet freeing the reserved prefix of a dead backward bee, or
    None when it reserved nothing. Delivered at route index `index`, the bee
    had reserved `index - 1` links behind it; the release, at its index 0 at
    cycle `start`, retraces them: the last `index - 1` steps of its path."""
    reserved = index - 1
    if reserved <= 0:
        return None
    route = PortList(bee.path.bits & ((1 << 2 * reserved) - 1), reserved)
    return ControlPacket(ControlKind.RELEASE, bee.owner, route, start)


def handle_backward_bee(
    node: int, bee: BackwardBee, index: int, arrival_port: PortDir, net: Network, wires: int, won: bool
) -> BackwardOutcome:
    """Process the delivery of `bee` at `node`, at route index `index`.

    Every arrival first reserves `wires` wires, the flow's demand, on the
    link back toward the node the bee came from (the link data will use when
    flowing source to destination), held under (flow, bee_index). At the
    source the first bee of its flow is accepted and the circuit is
    established; a later sibling, arriving once its flow has `won`, aborts
    and releases its whole reserved route. A failed reservation aborts the
    bee, which releases its reserved prefix.
    """
    length = bee.path.length
    if not 1 <= index <= length:
        raise ProtocolCorruptionError(
            f"backward bee of {bee.flow}: route index {index} outside 1..{length} (start {bee.start})"
        )
    if index == length and won:  # lost the race; nothing was reserved at the source
        return _ABORTED
    if not net.reserve(node, arrival_port, bee.owner, wires):
        return _ABORTED
    return _ACCEPTED if index == length else _FORWARDED


def handle_control(node: int, pkt: ControlPacket, index: int, net: Network) -> PortDir | None:
    """Process the delivery of a teardown/release at `node`, at route index
    `index`: free its owner's wires on the link the entry at `index` names,
    and return that port to send it on through, or None at the end of the
    route. No run releases wires that are not held; a packet built by hand
    that does logs a protocol warning, not an error.
    """
    route = pkt.route
    length = route.length
    if not 0 <= index <= length:
        raise ProtocolCorruptionError(
            f"control packet of {pkt.flow}: route index {index} outside 0..{length} (start {pkt.start})"
        )
    if index == length:
        return None
    port = NON_LOCAL_PORTS[(route.bits >> 2 * (length - 1 - index)) & 0b11]  # route.entry(index), checked above
    try:
        freed = net.release(node, port, pkt.owner)
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
    return port
