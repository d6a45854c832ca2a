"""2D mesh geometry: node coordinates, port directions, and directed links
with spatial-division-multiplexed wire pools."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import (
    DegenerateFlowError,
    InvalidPathError,
    InvalidPortError,
    InvariantViolationError,
)


class PortDir(Enum):
    """Router ports of a mesh node.

    Non-local ports carry a 2-bit wire code (south 00, west 01, east 10,
    north 11) chosen so that complementing both bits yields the code of the
    opposite port. The local port has no code and never appears in a route.
    """

    SOUTH = 0b00
    WEST = 0b01
    EAST = 0b10
    NORTH = 0b11
    LOCAL = 4

    @property
    def code(self) -> int:
        if self is PortDir.LOCAL:
            raise InvalidPortError("the local port has no wire code")
        return self.value

    def opposite(self) -> "PortDir":
        if self is PortDir.LOCAL:
            raise InvalidPortError("the local port has no opposite")
        return PortDir(self.value ^ 0b11)

    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]


# Axis convention: east increases x, north increases y.
_DELTAS = {
    PortDir.SOUTH: (0, -1),
    PortDir.WEST: (-1, 0),
    PortDir.EAST: (1, 0),
    PortDir.NORTH: (0, 1),
    PortDir.LOCAL: (0, 0),
}

# Canonical iteration order for broadcasts and enumeration: by wire code.
NON_LOCAL_PORTS = (PortDir.SOUTH, PortDir.WEST, PortDir.EAST, PortDir.NORTH)


@dataclass(frozen=True, slots=True)
class NodeId:
    """Grid coordinates of a mesh node (x: column, y: row, both 0-based)."""

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
    it holds; only this class reads or writes it. Admission goes through
    fits() and mutation through reserve()/release(), so the wire arithmetic,
    the per-direction totals and the wire-count bound live in one place.
    """

    def __init__(self, mesh: Mesh, wire_count: int, wire_bandwidth: float) -> None:
        if wire_count < 1:
            raise ValueError("wire_count must be >= 1")
        if wire_bandwidth <= 0.0:
            raise ValueError("wire_bandwidth must be positive")
        self.mesh = mesh
        self.wire_count = wire_count
        self.wire_bandwidth = wire_bandwidth
        self._links: dict[tuple[NodeId, PortDir], dict] = {}
        for node in mesh.nodes():
            for port in NON_LOCAL_PORTS:
                if mesh.neighbor(node, port) is not None:
                    self._links[(node, port)] = {}
        self.held_by_class: dict[PortDir, int] = {p: 0 for p in NON_LOCAL_PORTS}
        self.wires_by_class: dict[PortDir, int] = {p: 0 for p in NON_LOCAL_PORTS}
        for (_, port) in self._links:
            self.wires_by_class[port] += wire_count
        self._dirty: set[tuple[NodeId, PortDir]] = set()

    @property
    def links(self):
        """(node, port) of every directed link, nodes in row-major order and
        each node's ports in code order."""
        return self._links.keys()

    def _reservations(self, node: NodeId, port: PortDir) -> dict:
        try:
            return self._links[(node, port)]
        except KeyError:
            raise InvalidPathError(f"no link leaving {node} toward {port.name}") from None

    def holders(self, node: NodeId, port: PortDir) -> dict:
        """A copy of the link's reservations: owner key -> wires held."""
        return dict(self._reservations(node, port))

    def free_wires(self, node: NodeId, port: PortDir) -> int:
        return self.wire_count - sum(self._reservations(node, port).values())

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

    def reserve(self, node: NodeId, port: PortDir, key, bandwidth: float) -> bool:
        """Try to reserve wires for `key` on the link leaving `node` via `port`.

        Returns False (link unchanged) when the link does not fit `bandwidth`.
        """
        if not self.fits(node, port, bandwidth):
            return False
        reservations = self._links[(node, port)]
        if key in reservations:
            raise InvariantViolationError(f"duplicate reservation by {key} on {node}->{port.name}")
        need = self.wires_for(bandwidth)
        reservations[key] = need
        self.held_by_class[port] += need
        self._dirty.add((node, port))
        return True

    def release(self, node: NodeId, port: PortDir, key) -> int:
        """Free `key`'s wires on the given link; returns the wires freed (0 if none)."""
        wires = self._reservations(node, port).pop(key, 0)
        self.held_by_class[port] -= wires
        self._dirty.add((node, port))
        return wires

    def total_held(self) -> int:
        return sum(self.held_by_class.values())

    def drain_dirty(self) -> None:
        """Check the wire-count bound on every link touched since the last
        call, then forget them.

        Only a touched link can have broken the bound, so calling this after
        every event checks the whole network at the cost of the event's links.
        """
        for key in self._dirty:
            held = sum(self._links[key].values())
            if not 0 <= held <= self.wire_count:
                raise InvariantViolationError(
                    f"link {key[0]}->{key[1].name} holds {held} of {self.wire_count} wires"
                )
        self._dirty = set()

    def residual_snapshot(self) -> dict[tuple[NodeId, PortDir], float]:
        """Frozen residual bandwidth of every directed link."""
        return {(node, port): self.residual(node, port) for node, port in self._links}
