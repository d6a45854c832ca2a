"""2D mesh geometry: node coordinates, port directions, and directed links
with spatial-division-multiplexed wire pools."""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidPathError, InvalidPortError, InvariantViolationError


class PortDir(IntEnum):
    """Router ports of a mesh node.

    Non-local ports carry a 2-bit wire code (south 00, west 01, east 10,
    north 11) chosen so that complementing both bits yields the code of the
    opposite port. A port's value is its code, so ports index per-direction
    lists directly. The local port has no code and never appears in a route.
    """

    SOUTH = 0b00
    WEST = 0b01
    EAST = 0b10
    NORTH = 0b11
    LOCAL = 4

    # Print as an Enum member ("PortDir.EAST"), not as the integer code.
    __str__ = Enum.__str__
    __format__ = Enum.__format__

    def opposite(self) -> "PortDir":
        if self is PortDir.LOCAL:
            raise InvalidPortError("the local port has no opposite")
        return OPPOSITE[self]


# Canonical iteration order for broadcasts and enumeration: by wire code.
NON_LOCAL_PORTS = (PortDir.SOUTH, PortDir.WEST, PortDir.EAST, PortDir.NORTH)
# OPPOSITE[port] is port.opposite() for every non-local port.
OPPOSITE = tuple(PortDir(code ^ 0b11) for code in range(4))
# (dx, dy) by port code. Axis convention: east increases x, north increases y.
_DELTAS = ((0, -1), (-1, 0), (1, 0), (0, 1))


class NodeId(NamedTuple):
    """Grid coordinates of a mesh node (x: column, y: row, both 0-based).

    An immutable tuple, so it hashes and compares in C and equals the plain
    tuple (x, y).
    """

    x: int
    y: int

    def __str__(self) -> str:
        return f"{self.x},{self.y}"


@dataclass(frozen=True, slots=True)
class Mesh:
    """A width x height 2D mesh."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if type(self.width) is not int or type(self.height) is not int:  # bool is an int subclass
            raise ValueError("mesh dimensions must be integers")
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")

    def contains(self, node: NodeId) -> bool:
        return 0 <= node.x < self.width and 0 <= node.y < self.height

    def handle(self, node: NodeId) -> int:
        """The node's int handle, y * width + x; raises outside the mesh."""
        if not self.contains(node):
            raise InvalidPathError(f"node {node} is outside the {self.width}x{self.height} mesh")
        return node.y * self.width + node.x

    def node_at(self, handle: int) -> NodeId:
        """The node whose handle is `handle`; the inverse of handle()."""
        if not 0 <= handle < self.width * self.height:
            raise InvalidPathError(f"node handle {handle} is outside the {self.width}x{self.height} mesh")
        return NodeId(handle % self.width, handle // self.width)

    def nodes(self) -> tuple[NodeId, ...]:
        """All nodes in row-major order (y outer, x inner), so by handle: one
        table per mesh shape, shared."""
        return _node_table(self.width, self.height)

    @property
    def node_count(self) -> int:
        return self.width * self.height

    def neighbor(self, node: NodeId, port: PortDir) -> NodeId | None:
        """Adjacent node in direction `port`, or None at the mesh boundary."""
        if port is PortDir.LOCAL:
            raise InvalidPortError("neighbor lookup needs a non-local port")
        self.handle(node)  # raises for a node outside the mesh
        dx, dy = _DELTAS[port]
        nxt = NodeId(node.x + dx, node.y + dy)
        return nxt if self.contains(nxt) else None

    def manhattan(self, a: NodeId, b: NodeId) -> int:
        return abs(a.x - b.x) + abs(a.y - b.y)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)  # bool is an int subclass


def is_bandwidth(value) -> bool:
    """The one rule on a demand's and a wire's bandwidth: a number in (0, float max]."""
    return is_number(value) and 0 < value <= sys.float_info.max


@functools.cache
def hop_budget(adx: int, ady: int, metric: str) -> int:
    """Forward-bee hop budget of two nodes |dx| and |dy| apart: twice their
    distance under `metric` ("euclidean" or "manhattan"), rounded up, as hop
    counts are integral. Cached: a shape has at most width x height offsets."""
    if metric == "euclidean":
        return math.ceil(2.0 * math.sqrt(adx * adx + ady * ady))
    if metric == "manhattan":
        return 2 * (adx + ady)
    raise ValueError(f"unknown hop-limit metric {metric!r}")


@functools.cache
def _node_table(width: int, height: int) -> tuple[NodeId, ...]:
    return tuple(NodeId(x, y) for y in range(height) for x in range(width))


@functools.cache
def _link_tables(width: int, height: int) -> tuple[tuple, tuple, tuple[int, ...]]:
    """node_links, far_by_slot and the links in each direction of a width x
    height mesh (see Network); built once per shape, shared and never written."""
    # Handle offset of the neighbor through each port, by port code.
    steps = (-width, -1, 1, width)
    far_by_slot = [-1] * (4 * width * height)
    node_links = []
    links_by_class = [0, 0, 0, 0]
    for y in range(height):
        for x in range(width):
            node = y * width + x
            present = (y > 0, x > 0, x < width - 1, y < height - 1)
            links = []
            for port in NON_LOCAL_PORTS:
                if present[port]:
                    far_by_slot[4 * node + port] = far = node + steps[port]
                    links.append((port, 4 * node + port, far))
                    links_by_class[port] += 1
            node_links.append(tuple(links))
    return tuple(node_links), tuple(far_by_slot), tuple(links_by_class)


class Network:
    """Mesh plus the wire pool of every directed link, with reservation accounting.

    Each physical channel is two directed links, each with `wire_count`
    wires. A link's state is its free-wire count; who holds the other wires
    is the engine's to know (a bee at route index i holds its flow's wires on
    the i - 1 links behind it, a winner on every link of its circuit). Only
    reserve()/release() write a link, and each ends by checking the link it
    wrote. A link admits bandwidth b when wires_for(b) wires are free: the
    flood, reservation and the oracle all use this test.

    Nodes are int handles (Mesh.handle). The link leaving node n through a
    port is slot 4 * n + port code in flat per-link tables. Read-only views
    serve the engine: `node_links[n]`, node n's links as (port, slot, far
    end) by port code, `free_by_slot`, and `far_by_slot` (-1: no link); the
    tuples `node_links` and `far_by_slot` are shared by all meshes of a shape.
    """

    def __init__(self, mesh: Mesh, wire_count: int, wire_bandwidth: float) -> None:
        if type(wire_count) is not int:  # bool is an int subclass
            raise ValueError("wire_count must be an integer")
        if wire_count < 1:
            raise ValueError("wire_count must be >= 1")
        if not is_bandwidth(wire_bandwidth):
            raise ValueError("wire_bandwidth must be positive and finite")
        self.mesh = mesh
        self.wire_count = wire_count
        self.wire_bandwidth = wire_bandwidth
        self.node_links, self.far_by_slot, links_by_class = _link_tables(mesh.width, mesh.height)
        self._node_count = len(self.node_links)
        self.free_by_slot = [0 if far < 0 else wire_count for far in self.far_by_slot]
        self.wires_by_class = [links * wire_count for links in links_by_class]
        self.held_by_class = [0, 0, 0, 0]

    @property
    def links(self) -> tuple[tuple[int, PortDir], ...]:
        """(node handle, port) of every directed link, nodes in handle order
        and each node's ports in code order."""
        return tuple((node, port) for node, links in enumerate(self.node_links) for port, _, _ in links)

    def _index(self, node: int, port: PortDir) -> int:
        """Index of an existing link; raises for the local port or a missing link."""
        # The local port (value 4) would otherwise alias the next node's link.
        if 0 <= node < self._node_count and port < 4:
            index = 4 * node + port
            if self.far_by_slot[index] >= 0:
                return index
        raise InvalidPathError(f"no link leaving {self.mesh.node_at(node)} toward {port.name}")

    def far_end(self, node: int, port: PortDir) -> int:
        """The node the link leaving `node` through `port` leads to."""
        return self.far_by_slot[self._index(node, port)]

    def free_wires(self, node: int, port: PortDir) -> int:
        return self.free_by_slot[self._index(node, port)]

    def residual(self, node: int, port: PortDir) -> float:
        return self.free_wires(node, port) * self.wire_bandwidth

    def wires_for(self, bandwidth: float) -> int:
        """Wires needed to carry `bandwidth`: the ceiling of bandwidth /
        wire_bandwidth, each read as the decimal its repr() prints, in exact
        rational arithmetic. So 0.3 / 0.15 needs exactly 2 wires, and any
        excess, however small, takes another wire. A demand above
        `wire_count` wires fits no link, so it is capped at `wire_count + 1`.
        """
        if not is_bandwidth(bandwidth):
            raise ValueError("bandwidth must be positive and finite")
        return min(math.ceil(Fraction(repr(bandwidth)) / Fraction(repr(self.wire_bandwidth))), self.wire_count + 1)

    def fitting_links(self, node: int, wires: int) -> list[tuple[PortDir, int]]:
        """(port, far end) of each link leaving `node`, in port-code order,
        that has at least `wires` wires free."""
        if not 0 <= node < self._node_count:
            raise InvalidPathError(f"node handle {node} is outside the {self.mesh.width}x{self.mesh.height} mesh")
        free = self.free_by_slot
        return [(port, far) for port, slot, far in self.node_links[node] if free[slot] >= wires]

    def reserve(self, node: int, port: PortDir, wires: int) -> bool:
        """Try to reserve `wires` wires on the link leaving `node` via `port`.
        Returns False (link unchanged) when they do not fit."""
        index = 4 * node + port
        if not (0 <= node < self._node_count and port < 4) or self.far_by_slot[index] < 0:
            self._index(node, port)  # raises; its test is inlined above for the per-hop path
        if wires < 1:
            raise ValueError("a reservation needs at least one wire")
        free = self.free_by_slot
        if free[index] < wires:
            return False
        free[index] -= wires
        self.held_by_class[port] += wires
        self.drain_dirty(index)
        return True

    def release(self, node: int, port: PortDir, wires: int) -> int:
        """Free `wires` held wires on the given link; returns the wires freed."""
        index = 4 * node + port
        if not (0 <= node < self._node_count and port < 4) or self.far_by_slot[index] < 0:
            self._index(node, port)  # raises; its test is inlined above
        if wires < 1:
            raise ValueError("a release frees at least one wire")
        self.free_by_slot[index] += wires
        self.held_by_class[port] -= wires
        self.drain_dirty(index)
        return wires

    def total_held(self) -> int:
        return sum(self.held_by_class)

    def drain_dirty(self, index: int) -> None:
        """Check link `index`, which reserve() or release() has just written:
        its free-wire count must lie in 0..wire_count. Only a write can break
        that, and both writers end with this check, so every link holds it at
        all times; a release of wires the link does not hold shows once its
        free count passes wire_count, or at the end-of-run conservation
        check. It keeps this name because the benchmark's layer tracer looks
        the method up by it.
        """
        if 0 <= self.free_by_slot[index] <= self.wire_count:
            return
        raise InvariantViolationError(
            f"link {self.mesh.node_at(index // 4)}->{PortDir(index % 4).name} counts "
            f"{self.free_by_slot[index]} free of {self.wire_count} wires"
        )
