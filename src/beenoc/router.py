"""Protocol handlers for one node; they keep no per-node state.

Forward copies flood toward the destination and reserve nothing; the flood
rule is one engine step. The destination turns the earliest arrivals into
backward bees, each carrying the path it read off the flow's tree. A bee
retraces its path from the far end, reserving wires hop by hop on the links
the data will use (each arrival claims the link back toward the node it came
from), and the first to reach the source wins: its path is the circuit.
Release packets free what failed and losing bees reserved, and a teardown
from the source dismantles the circuit after data transfer.

A node is its int handle. `Network` keeps only each link's free-wire count;
who holds what follows from the route index: a bee at index i holds its
flow's wires on the i - 1 links behind it, and a winner on every link of its
circuit, so a release or teardown frees the flow's wires on each hop it
walks. The engine passes in a packet's route index, (clock - start) //
t_hop, and the flow's wires, and sends the same packet on at the next hop.
Only `handle_forward_bee` takes flow state; the engine alone decides, from
its flow's phase, that a bee lost the race or outlived its flow, and builds
every release.
"""

from __future__ import annotations

from enum import Enum

from .errors import InvalidPathError, ProtocolCorruptionError
from .protocol import BackwardBee, ControlPacket, FlowId, PortList
from .topology import NON_LOCAL_PORTS, OPPOSITE, Network, PortDir


class BackwardOutcome(Enum):
    """Result of processing one backward-bee delivery."""

    FORWARDED = "forwarded"  # the engine sends the bee on through OPPOSITE[(path.bits >> 2 * index) & 0b11]
    ACCEPTED = "accepted"  # the circuit is established
    ABORTED = "aborted"  # its reservation failed; the engine releases its prefix

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


def handle_backward_bee(
    node: int, bee: BackwardBee, index: int, arrival_port: PortDir, net: Network, wires: int
) -> BackwardOutcome:
    """Process the delivery of `bee` at `node`, at route index `index`: reserve
    `wires` wires, the flow's demand, on the link back toward the node the bee
    came from (the link data will use when flowing source to destination).
    A failed reservation aborts the bee; one made at the source accepts it,
    and its path is the circuit.
    """
    length = bee.path.length
    if not 1 <= index <= length:
        raise ProtocolCorruptionError(
            f"backward bee of {bee.flow}: route index {index} outside 1..{length} (start {bee.start})"
        )
    if not net.reserve(node, arrival_port, wires):
        return _ABORTED
    return _ACCEPTED if index == length else _FORWARDED


def handle_control(node: int, pkt: ControlPacket, index: int, net: Network, wires: int) -> PortDir | None:
    """Process the delivery of a teardown/release at `node`, at route index
    `index`: free `wires` wires, the flow's demand, on the link the entry at
    `index` names, and return that port to send it on through, or None at
    the end of the route.
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
        net.release(node, port, wires)
    except InvalidPathError:
        raise ProtocolCorruptionError(
            f"control route of {pkt.flow} leaves the mesh at {net.mesh.node_at(node)}"
        ) from None
    return port
