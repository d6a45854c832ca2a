"""2D mesh geometry: node coordinates, port directions, and directed links
with spatial-division-multiplexed wire pools."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterator, NamedTuple

from .errors import (
    DegenerateFlowError,
    InvalidPathError,
    InvalidPortError,
    InvariantViolationError,
)


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

    @property
    def code(self) -> int:
        if self._value_ > 0b11:
            raise InvalidPortError("the local port has no wire code")
        return self._value_

    def opposite(self) -> "PortDir":
        if self is PortDir.LOCAL:
            raise InvalidPortError("the local port has no opposite")
        return OPPOSITE[self]

    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]


# Canonical iteration order for broadcasts and enumeration: by wire code.
NON_LOCAL_PORTS = (PortDir.SOUTH, PortDir.WEST, PortDir.EAST, PortDir.NORTH)
# OPPOSITE[port] is port.opposite() for every non-local port.
OPPOSITE = tuple(PortDir(code ^ 0b11) for code in range(4))
# Indexed by port value. Axis convention: east increases x, north increases y.
_DELTAS = ((0, -1), (-1, 0), (1, 0), (0, 1), (0, 0))


class NodeId(NamedTuple):
    """Grid coordinates of a mesh node (x: column, y: row, both 0-based).

    An immutable tuple, so it hashes and compares in C and equals the plain
    tuple (x, y).
    """

    x: int
    y: int

    def step(self, port: PortDir) -> "NodeId":
        dx, dy = port.delta()
        return NodeId(self.x + dx, self.y + dy)

    def __str__(self) -> str:
        return f"{self.x},{self.y}"


@dataclass(frozen=True, slots=True)
class Mesh:
    """A width x height 2D mesh."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")

    def contains(self, node: NodeId) -> bool:
        return 0 <= node.x < self.width and 0 <= node.y < self.height

    def nodes(self) -> Iterator[NodeId]:
        """All nodes in row-major order (y outer, x inner)."""
        for y in range(self.height):
            for x in range(self.width):
                yield NodeId(x, y)

    @property
    def node_count(self) -> int:
        return self.width * self.height

    def neighbor(self, node: NodeId, port: PortDir) -> NodeId | None:
        """Adjacent node in direction `port`, or None at the mesh boundary."""
        if port is PortDir.LOCAL:
            raise InvalidPortError("neighbor lookup needs a non-local port")
        if not self.contains(node):
            raise InvalidPathError(f"node {node} is outside the {self.width}x{self.height} mesh")
        nxt = node.step(port)
        return nxt if self.contains(nxt) else None

    def manhattan(self, a: NodeId, b: NodeId) -> int:
        return abs(a.x - b.x) + abs(a.y - b.y)

    def hop_limit(self, src: NodeId, dst: NodeId, metric: str = "euclidean") -> int:
        """Forward-bee hop budget: twice the src-dst distance, rounded up.

        The default metric is euclidean; hop counts are integral so the
        budget is the ceiling. `manhattan` is available as an alternative.
        """
        if src == dst:
            raise DegenerateFlowError(f"flow {src} -> {dst} needs no circuit")
        dx = dst.x - src.x
        dy = dst.y - src.y
        if metric == "euclidean":
            return math.ceil(2.0 * math.sqrt(dx * dx + dy * dy))
        if metric == "manhattan":
            return 2 * (abs(dx) + abs(dy))
        raise ValueError(f"unknown hop-limit metric {metric!r}")


class Network:
    """Mesh plus the wire pool of every directed link, with reservation accounting.

    Each physical channel between neighbors is modeled as two independent
    directed links, each with its own pool of `wire_count` wires. A link's
    state is a dict mapping each owner, a (flow, bee index) key, to the wires
    it holds, plus a count of its free wires; only this class reads or writes
    them. Admission goes through fits()/fitting_links() and mutation through
    reserve()/release(), so the wire arithmetic, the per-direction totals and
    the wire-count bound live in one place.

    Internally the link leaving node (x, y) through a port is numbered
    (y * width + x) * 4 + port code, and every per-link table is a flat list
    in that order. Slots of links that leave the mesh hold no reservation
    dict and -1 free wires, so no demand fits them. A per-node table maps
    each node of the mesh to its first slot, so nodes outside the mesh have
    no links.
    """

    def __init__(self, mesh: Mesh, wire_count: int, wire_bandwidth: float) -> None:
        if wire_count < 1:
            raise ValueError("wire_count must be >= 1")
        if wire_bandwidth <= 0.0:
            raise ValueError("wire_bandwidth must be positive")
        self.mesh = mesh
        self.wire_count = wire_count
        self.wire_bandwidth = wire_bandwidth
        slots = 4 * mesh.node_count
        self._reservations: list[dict | None] = [None] * slots
        self._free: list[int] = [-1] * slots
        self._far_end: list[NodeId | None] = [None] * slots
        self._base: dict[NodeId, int] = {}
        links = []
        for number, node in enumerate(mesh.nodes()):
            self._base[node] = 4 * number
            for port in NON_LOCAL_PORTS:
                far = mesh.neighbor(node, port)
                if far is not None:
                    index = 4 * number + port
                    self._reservations[index] = {}
                    self._free[index] = wire_count
                    self._far_end[index] = far
                    links.append((node, port))
        self._links = tuple(links)
        self.held_by_class = [0, 0, 0, 0]
        self.wires_by_class = [0, 0, 0, 0]
        for (_, port) in links:
            self.wires_by_class[port] += wire_count
        self._dirty: list[int] = []

    @property
    def links(self) -> tuple[tuple[NodeId, PortDir], ...]:
        """(node, port) of every directed link, nodes in row-major order and
        each node's ports in code order."""
        return self._links

    def _index(self, node: NodeId, port: PortDir) -> int:
        """Index of an existing link; raises for the local port or a missing link."""
        base = self._base.get(node)
        # The local port (value 4) would otherwise alias the next node's link.
        if base is not None and port < 4:
            index = base + port
            if self._reservations[index] is not None:
                return index
        raise InvalidPathError(f"no link leaving {node} toward {port.name}")

    def holders(self, node: NodeId, port: PortDir) -> dict:
        """A copy of the link's reservations: owner key -> wires held."""
        return dict(self._reservations[self._index(node, port)])

    def far_end(self, node: NodeId, port: PortDir) -> NodeId:
        """The node the link leaving `node` through `port` leads to."""
        return self._far_end[self._index(node, port)]

    def free_wires(self, node: NodeId, port: PortDir) -> int:
        return self._free[self._index(node, port)]

    def residual(self, node: NodeId, port: PortDir) -> float:
        return self.free_wires(node, port) * self.wire_bandwidth

    def wires_for(self, bandwidth: float) -> int:
        """Wires needed to carry `bandwidth`: ceil(bandwidth / wire_bandwidth).

        A tiny slack absorbs binary-float artifacts in the quotient so that
        e.g. 0.3 / 0.15 still needs exactly 2 wires.
        """
        if bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")
        return max(1, math.ceil(bandwidth / self.wire_bandwidth - 1e-9))

    def fits(self, node: NodeId, port: PortDir, bandwidth: float) -> bool:
        """The admission rule: the link has wires_for(bandwidth) wires free.

        Flooding, reservation and the feasibility oracle all decide with it.
        """
        return self.free_wires(node, port) >= self.wires_for(bandwidth)

    def fitting_links(self, node: NodeId, wires: int) -> list[tuple[PortDir, NodeId]]:
        """(port, far end) of each link leaving `node`, in port-code order,
        that has at least `wires` wires free: the admission rule of fits()
        for a demand of `wires` wires, applied to all of a node's links."""
        base = self._base.get(node)
        if base is None:
            raise InvalidPathError(f"node {node} is outside the {self.mesh.width}x{self.mesh.height} mesh")
        free = self._free
        far_end = self._far_end
        return [(port, far_end[base + port]) for port in NON_LOCAL_PORTS if free[base + port] >= wires]

    def reserve(self, node: NodeId, port: PortDir, key, bandwidth: float) -> bool:
        """Try to reserve wires for `key` on the link leaving `node` via `port`.

        Returns False (link unchanged) when the link does not fit `bandwidth`.
        """
        index = self._index(node, port)
        need = self.wires_for(bandwidth)
        if self._free[index] < need:
            return False
        reservations = self._reservations[index]
        if key in reservations:
            raise InvariantViolationError(f"duplicate reservation by {key} on {node}->{port.name}")
        reservations[key] = need
        self._free[index] -= need
        self.held_by_class[port] += need
        self._dirty.append(index)
        return True

    def release(self, node: NodeId, port: PortDir, key) -> int:
        """Free `key`'s wires on the given link; returns the wires freed (0 if none)."""
        index = self._index(node, port)
        wires = self._reservations[index].pop(key, 0)
        self._free[index] += wires
        self.held_by_class[port] -= wires
        self._dirty.append(index)
        return wires

    def total_held(self) -> int:
        return sum(self.held_by_class)

    def drain_dirty(self) -> None:
        """Check every link touched since the last call, then forget them.

        A touched link must hold between 0 and wire_count wires, summed from
        its reservations, and that sum plus its free-wire count must be
        wire_count. Only a touched link can have broken either, so calling
        this after every reserve() or release() checks the whole network at
        the cost of the links they touched.
        """
        if not self._dirty:
            return
        wire_count = self.wire_count
        for index in self._dirty:
            held = sum(self._reservations[index].values())
            if 0 <= held <= wire_count and held + self._free[index] == wire_count:
                continue
            node, port = self._link_at(index)
            if not 0 <= held <= wire_count:
                raise InvariantViolationError(f"link {node}->{port.name} holds {held} of {wire_count} wires")
            raise InvariantViolationError(
                f"link {node}->{port.name} holds {held} wires but counts {self._free[index]} free of {wire_count}"
            )
        self._dirty = []

    def _link_at(self, index: int) -> tuple[NodeId, PortDir]:
        node = index // 4
        return NodeId(node % self.mesh.width, node // self.mesh.width), PortDir(index % 4)

    def residual_snapshot(self) -> dict[tuple[NodeId, PortDir], float]:
        """Frozen residual bandwidth of every directed link."""
        return {(node, port): self.residual(node, port) for node, port in self._links}
