"""Per-node protocol state machine.

Forward copies flood toward the destination and reserve nothing; a flow's
first-copy tree (flood_links) records where they went. The destination turns
the earliest arrivals, rebuilt as forward bees carrying their port lists,
into backward bees; backward bees reserve wires hop by hop on the links the
data will use (each arrival claims the link back toward the node it came
from, i.e. the source-to-destination direction); the earliest backward bee
to reach the source wins the circuit. Failed and losing bees free their
reservations with release packets, and a teardown from the source dismantles
the winning circuit after data transfer.

Every handler reports what it sends as a list of (port, packet) emissions,
empty when nothing leaves the node, which the engine transits in list order;
flood_links returns the (port, far end) links the engine queues copies on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import InvalidPathError, ProtocolCorruptionError
from .protocol import BackwardBee, ControlKind, ControlPacket, FlowId, ForwardBee
from .topology import OPPOSITE, Network, NodeId, PortDir

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


def flood_links(
    tree: dict, node: NodeId, arrival_port: PortDir, hops: int, net: Network, hop_limit: int, wires: int,
    destination: NodeId, elide: bool,
) -> list:
    """The flood rule away from a flow's destination: the (port, far end)
    links a forward copy delivered at `node` after `hops` hops is sent on.

    `tree` is the flow's first-copy tree: each node a copy has been sent to,
    the destination aside, mapped to the port that first copy arrives on,
    and the source to LOCAL. Copies reach a node in the order they were sent,
    so a delivery on any other port is a duplicate and sends nothing, as
    does one that has used the hop budget. Otherwise the copy goes, in
    port-code order, on every link but the arrival port's with `wires` wires
    free (Network.fitting_links), and each far end not yet in the tree joins
    it. With `elide`, a copy bound for a node already in the tree would be
    dropped there, so it is not sent: its pair is `(port, None)`.
    """
    if tree[node] is not arrival_port or hops >= hop_limit:
        return []
    out = []
    for port, far in net.fitting_links(node, wires):
        if port is arrival_port:
            continue
        if far not in tree:
            if far != destination:
                tree[far] = OPPOSITE[port]
        elif elide:
            far = None
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
