"""Protocol messages and the bit-packed port-list route codec.

A route is recorded as a sequence of 2-bit output-port codes instead of node
addresses, so its size is independent of the mesh's address width. Reversing
the entry order and complementing both bits of every entry turns a discovered
path into the route that retraces it from the far end.

Flow ids and packets are immutable NamedTuples, so the per-event dict and set
lookups keyed by them hash and compare in C.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

from .errors import InvalidPathError, InvalidPortError
from .topology import NON_LOCAL_PORTS, Mesh, NodeId, PortDir


def encode_port(port: PortDir) -> int:
    """2-bit wire code of a non-local port (south 00, west 01, east 10, north 11)."""
    if port > 0b11:
        raise InvalidPortError("the local port has no wire code")
    return int(port)


def decode_port(code: int) -> PortDir:
    if not 0 <= code <= 3:
        raise InvalidPortError(f"port code {code} is not a 2-bit value")
    return PortDir(code)


@dataclass(frozen=True, slots=True)
class PortList:
    """Immutable bit-packed sequence of 2-bit port codes.

    The first entry occupies the most significant bit pair, so the integer
    `bits` reads like the wire-order bit string. A list of length L occupies
    exactly 2L bits regardless of mesh size.
    """

    bits: int = 0
    length: int = 0

    def __post_init__(self) -> None:
        if self.length < 0 or self.bits < 0 or self.bits >> (2 * self.length):
            raise ValueError(f"port list bits {self.bits:#x} do not fit {self.length} entries")

    def push(self, port: PortDir) -> "PortList":
        """New list with `port` appended."""
        return PortList((self.bits << 2) | encode_port(port), self.length + 1)

    def entry(self, index: int) -> PortDir:
        if not 0 <= index < self.length:
            raise IndexError(f"entry {index} out of range for length {self.length}")
        return NON_LOCAL_PORTS[(self.bits >> (2 * (self.length - 1 - index))) & 0b11]

    def reverse_complement(self) -> "PortList":
        """Reverse the entries (2-bit granularity), then complement both bits
        of each entry. Following the result from a path's endpoint retraces
        the path back to its start."""
        bits, out = self.bits, 0
        for _ in range(self.length):  # the last entry first
            out = out << 2 | (bits & 0b11) ^ 0b11
            bits >>= 2
        return PortList(out, self.length)

    def bitstring(self) -> str:
        if self.length == 0:
            return ""
        return format(self.bits, f"0{2 * self.length}b")

    def packed_bytes(self) -> bytes:
        """Big-endian packing: first entry in the top bits of the first byte,
        final partial byte zero-padded. Size is ceil(2L/8) bytes."""
        nbytes = (2 * self.length + 7) // 8
        return (self.bits << (8 * nbytes - 2 * self.length)).to_bytes(nbytes, "big")

    @classmethod
    def from_ports(cls, ports) -> "PortList":
        lst = cls()
        for port in ports:
            lst = lst.push(port)
        return lst

    def __iter__(self) -> Iterator[PortDir]:
        for i in range(self.length):
            yield self.entry(i)

    def __len__(self) -> int:
        return self.length


def walk(path: PortList, start: NodeId, mesh: Mesh) -> list[NodeId]:
    """Node sequence visited by following `path` from `start` (start included).

    Raises InvalidPathError if any step leaves the mesh.
    """
    if not mesh.contains(start):
        raise InvalidPathError(f"walk start {start} is outside the mesh")
    nodes = [start]
    current = start
    for i, port in enumerate(path):
        nxt = mesh.neighbor(current, port)
        if nxt is None:
            raise InvalidPathError(f"step {i} ({port.name}) leaves the mesh at {current}")
        nodes.append(nxt)
        current = nxt
    return nodes


class FlowId(NamedTuple):
    """Globally unique flow identity: source node plus a per-source counter."""

    source: NodeId
    sequence: int

    def __str__(self) -> str:
        return f"{self.source}:{self.sequence}"


class ForwardBee(NamedTuple):
    """Flooding discovery packet. Records its path as port codes and never
    reserves anything; its hop count is the recorded path length."""

    flow: FlowId
    destination: NodeId
    required_bandwidth: float
    ports: PortList

    def advanced(self, port: PortDir) -> "ForwardBee":
        """Copy of this bee one hop further through `port`."""
        return ForwardBee(self.flow, self.destination, self.required_bandwidth, self.ports.push(port))


class BackwardBee(NamedTuple):
    """Reservation packet retracing a discovered path from the destination.

    `path` is the discovered path in forward order, source to destination;
    the bee's route is its reverse complement, read off in place. At cycle c
    the bee is at route index i = (c - start) // t_hop, `start` being its
    conversion, leaves through OPPOSITE[(path.bits >> 2 * i) & 0b11], and
    has reserved its flow's wires on the first i - 1 links of its route.
    `owner` is (flow, bee_index).
    """

    owner: tuple[FlowId, int]
    path: PortList
    start: int

    flow = property(lambda self: self.owner[0])  # for messages and the trace
    bee_index = property(lambda self: self.owner[1])


class ControlKind(Enum):
    TEARDOWN = "teardown"
    RELEASE = "release"


class ControlPacket(NamedTuple):
    """Small packet that frees the wires one bee holds along `route`.

    A teardown travels the forward path from the source after data transfer;
    a release retraces the links a failed or losing backward bee reserved.
    `owner` is that bee's (flow, bee_index); each hop frees the flow's wires.
    The packet is at route index 0 at cycle `start`.
    """

    kind: ControlKind
    owner: tuple[FlowId, int]
    route: PortList
    start: int

    flow = property(lambda self: self.owner[0])  # for messages and the trace
    bee_index = property(lambda self: self.owner[1])


# Serialized forward-bee layout (all fields big-endian): source (x u16,
# y u16), flow sequence u32, destination (x u16, y u16), hop count u16
# (the port-list length), required bandwidth f64, port-list length u16, then
# the packed port bits.
_FORWARD_HEADER = struct.Struct(">HHIHHHdH")


def serialize_forward_bee(bee: ForwardBee) -> bytes:
    header = _FORWARD_HEADER.pack(
        bee.flow.source.x,
        bee.flow.source.y,
        bee.flow.sequence,
        bee.destination.x,
        bee.destination.y,
        bee.ports.length,
        bee.required_bandwidth,
        bee.ports.length,
    )
    return header + bee.ports.packed_bytes()


FORWARD_HEADER_SIZE = _FORWARD_HEADER.size
