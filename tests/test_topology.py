import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beenoc import (
    InvalidPathError,
    InvalidPortError,
    InvariantViolationError,
    Mesh,
    Network,
    NodeId,
    PortDir,
)
from beenoc.topology import NON_LOCAL_PORTS, hop_budget, is_bandwidth


def at(net, x, y):
    """Handle of node (x, y) of `net`'s mesh."""
    return net.mesh.handle(NodeId(x, y))


@pytest.mark.parametrize("width,height", [(2.5, 3), (3.0, 3), (3, 3.0), (True, 3), (3, True)])
def test_mesh_refuses_non_integer_dimensions(width, height):
    # (3.0, 3) would also hash like (3, 3) in the per-shape table caches.
    with pytest.raises(ValueError, match="mesh dimensions must be integers"):
        Mesh(width, height)


class TestNeighbor:
    def test_east_from_origin(self):
        mesh = Mesh(4, 4)
        assert mesh.neighbor(NodeId(0, 0), PortDir.EAST) == NodeId(1, 0)

    def test_west_off_mesh(self):
        mesh = Mesh(4, 4)
        assert mesh.neighbor(NodeId(0, 0), PortDir.WEST) is None

    def test_north_off_mesh_at_top(self):
        mesh = Mesh(4, 4)
        assert mesh.neighbor(NodeId(3, 3), PortDir.NORTH) is None

    def test_axis_convention(self):
        mesh = Mesh(3, 3)
        assert mesh.neighbor(NodeId(1, 1), PortDir.NORTH) == NodeId(1, 2)
        assert mesh.neighbor(NodeId(1, 1), PortDir.SOUTH) == NodeId(1, 0)
        assert mesh.neighbor(NodeId(1, 1), PortDir.EAST) == NodeId(2, 1)
        assert mesh.neighbor(NodeId(1, 1), PortDir.WEST) == NodeId(0, 1)

    def test_local_rejected(self):
        mesh = Mesh(4, 4)
        with pytest.raises(InvalidPortError):
            mesh.neighbor(NodeId(0, 0), PortDir.LOCAL)

    def test_round_trip_everywhere(self):
        # neighbor(neighbor(n, d), opposite(d)) == n whenever both exist
        mesh = Mesh(5, 3)
        for node in mesh.nodes():
            for port in NON_LOCAL_PORTS:
                nxt = mesh.neighbor(node, port)
                if nxt is not None:
                    assert mesh.neighbor(nxt, port.opposite()) == node


class TestHandles:
    @pytest.mark.parametrize("width", range(1, 8))
    @pytest.mark.parametrize("height", range(1, 6))
    def test_round_trip(self, width, height):
        mesh = Mesh(width, height)
        handles = [mesh.handle(node) for node in mesh.nodes()]
        assert handles == list(range(width * height))  # row-major order is handle order
        assert [mesh.node_at(h) for h in handles] == list(mesh.nodes())
        for bad in (-1, width * height):
            with pytest.raises(InvalidPathError):
                mesh.node_at(bad)
        for bad in (NodeId(width, 0), NodeId(-1, 0), NodeId(0, height), NodeId(0, -1)):
            with pytest.raises(InvalidPathError):
                mesh.handle(bad)


class TestPorts:
    def test_opposites(self):
        assert PortDir.SOUTH.opposite() is PortDir.NORTH
        assert PortDir.NORTH.opposite() is PortDir.SOUTH
        assert PortDir.WEST.opposite() is PortDir.EAST
        assert PortDir.EAST.opposite() is PortDir.WEST

    def test_local_has_no_opposite(self):
        with pytest.raises(InvalidPortError):
            PortDir.LOCAL.opposite()


class TestHopLimit:
    @pytest.mark.parametrize(
        "src,dst,expected",
        [
            (NodeId(0, 0), NodeId(3, 4), 10),  # 2 * 5 exactly
            (NodeId(0, 0), NodeId(1, 0), 2),
            (NodeId(0, 0), NodeId(1, 1), 3),  # ceil(2 * sqrt(2))
        ],
    )
    def test_euclidean(self, src, dst, expected):
        assert hop_budget(abs(dst.x - src.x), abs(dst.y - src.y), "euclidean") == expected

    def test_manhattan_metric(self):
        assert hop_budget(1, 1, metric="manhattan") == 4

    def test_at_least_manhattan(self):
        mesh = Mesh(6, 6)
        for src in mesh.nodes():
            for dst in mesh.nodes():
                if src != dst:
                    assert hop_budget(abs(dst.x - src.x), abs(dst.y - src.y), "euclidean") >= mesh.manhattan(src, dst)


class TestResidualBandwidth:
    def test_partial(self):
        net = Network(Mesh(2, 2), 8, 1.0)
        assert net.reserve(at(net, 0, 0), PortDir.EAST, 3)
        assert net.residual(at(net, 0, 0), PortDir.EAST) == 5.0

    def test_empty(self):
        net = Network(Mesh(2, 2), 8, 1.0)
        assert net.residual(at(net, 0, 0), PortDir.EAST) == 8.0

    def test_saturated(self):
        net = Network(Mesh(2, 2), 4, 0.5)
        assert net.reserve(at(net, 0, 0), PortDir.EAST, net.wires_for(2.0))
        assert net.residual(at(net, 0, 0), PortDir.EAST) == 0.0


class TestNetworkReservations:
    @pytest.mark.parametrize(
        "wire_count,wire_bandwidth,message",
        [
            (0, 1.0, "wire_count must be >= 1"),
            (2.5, 1.0, "wire_count must be an integer"),
            (True, 1.0, "wire_count must be an integer"),
            (4, 0.0, "wire_bandwidth must be positive"),
            (4, -1.0, "wire_bandwidth must be positive"),
            (4, float("inf"), "wire_bandwidth must be positive and finite"),
            (4, float("nan"), "wire_bandwidth must be positive and finite"),
            (4, 10**400, "wire_bandwidth must be positive and finite"),
            (4, True, "wire_bandwidth must be positive and finite"),
            (4, "1", "wire_bandwidth must be positive and finite"),
        ],
        ids=["zero-wires", "fractional-wires", "bool-wires", "zero-bandwidth", "negative-bandwidth",
             "infinite-bandwidth", "nan-bandwidth", "beyond-float-bandwidth", "bool-bandwidth", "string-bandwidth"],
    )
    def test_unholdable_wire_parameters_rejected(self, wire_count, wire_bandwidth, message):
        with pytest.raises(ValueError, match=message):
            Network(Mesh(3, 3), wire_count, wire_bandwidth)

    def test_reserve_monotone(self):
        net = Network(Mesh(3, 3), 8, 1.0)
        node, port = at(net, 1, 1), PortDir.EAST
        last = net.residual(node, port)
        for i in range(4):
            assert net.reserve(node, port, 2)
            assert net.residual(node, port) <= last
            last = net.residual(node, port)
        assert last == 0.0
        for i in range(4):
            before = net.residual(node, port)
            assert net.release(node, port, 2) == 2
            assert net.residual(node, port) >= before
        assert net.residual(node, port) == 8.0

    def test_insufficient_wires_leave_link_unchanged(self):
        # 8 wires, 6 already held: a 2.5-unit demand needs 3 wires and fails
        net = Network(Mesh(3, 3), 8, 1.0)
        node, port = at(net, 0, 0), PortDir.EAST
        assert net.reserve(node, port, 6)
        before = (list(net.free_by_slot), list(net.held_by_class))
        assert not net.reserve(node, port, net.wires_for(2.5))
        assert (list(net.free_by_slot), list(net.held_by_class)) == before
        assert net.residual(node, port) == 2.0

    def test_exact_fit_single_wire(self):
        net = Network(Mesh(3, 3), 8, 1.0)
        assert net.reserve(at(net, 1, 1), PortDir.NORTH, net.wires_for(1.0))
        assert net.free_wires(at(net, 1, 1), PortDir.NORTH) == 7
        assert net.held_by_class == [0, 0, 0, 1]

    def test_reservation_needs_a_wire(self):
        net = Network(Mesh(3, 3), 8, 1.0)
        with pytest.raises(ValueError):
            net.reserve(at(net, 0, 0), PortDir.EAST, 0)
        assert net.total_held() == 0
        # and so does a release, even of a link that holds wires
        assert net.reserve(at(net, 0, 0), PortDir.EAST, 2)
        with pytest.raises(ValueError):
            net.release(at(net, 0, 0), PortDir.EAST, 0)
        assert net.free_wires(at(net, 0, 0), PortDir.EAST) == 6 and net.total_held() == 2

    def test_drain_dirty_checks_touched_links(self):
        # reserve() and release() check the link they write as their last
        # step; nothing else checks, so an untouched corrupted link is silent.
        net = Network(Mesh(3, 3), 8, 1.0)
        assert net.reserve(at(net, 0, 0), PortDir.EAST, 3)
        net.wire_count = 4  # corrupt: every link now counts more free wires than it has
        assert net.free_wires(at(net, 0, 1), PortDir.EAST) == 8
        assert not net.reserve(at(net, 0, 0), PortDir.EAST, 6)  # refused: it writes and checks nothing
        with pytest.raises(InvariantViolationError, match="link 0,0->EAST counts 6 free of 4 wires"):
            net.release(at(net, 0, 0), PortDir.EAST, 1)

    def test_drain_dirty_checks_free_count(self):
        # a release of more wires than the link holds passes wire_count
        net = Network(Mesh(3, 3), 8, 1.0)
        assert net.reserve(at(net, 1, 1), PortDir.NORTH, 3)
        with pytest.raises(InvariantViolationError, match="link 1,1->NORTH counts 9 free of 8 wires"):
            net.release(at(net, 1, 1), PortDir.NORTH, 4)

    def test_drain_dirty_checks_held_wires_when_the_pool_adds_up(self):
        # held wires are wire_count minus the free count, so held and free
        # always add up to the pool; more held than the pool has shows as a
        # negative free count
        net = Network(Mesh(3, 3), 8, 1.0)
        assert net.reserve(at(net, 1, 1), PortDir.EAST, 8)
        net.free_by_slot[4 * at(net, 1, 1) + PortDir.EAST] = -2  # corrupt: 10 held of 8
        with pytest.raises(InvariantViolationError, match="link 1,1->EAST counts -1 free of 8 wires"):
            net.release(at(net, 1, 1), PortDir.EAST, 1)

    def test_release_absent_raises(self):
        # nothing is held on an idle link, so any release frees wires it does not hold
        net = Network(Mesh(3, 3), 8, 1.0)
        with pytest.raises(InvariantViolationError, match="link 0,0->EAST counts 9 free of 8 wires"):
            net.release(at(net, 0, 0), PortDir.EAST, 1)

    def test_link_population(self):
        # 2 * (w-1) * h horizontal plus 2 * w * (h-1) vertical directed links
        net = Network(Mesh(4, 3), 8, 1.0)
        assert len(net.links) == 2 * 3 * 3 + 2 * 4 * 2

    def test_wires_for_rounding(self):
        net = Network(Mesh(2, 2), 8, 1.0)
        assert net.wires_for(2.5) == 3
        assert net.wires_for(1.0) == 1
        net_half = Network(Mesh(2, 2), 8, 0.5)
        assert net_half.wires_for(0.5) == 1
        assert net_half.wires_for(0.75) == 2
        # binary-float quotient artifacts must not add a phantom wire
        net_q = Network(Mesh(2, 2), 8, 0.15)
        assert net_q.wires_for(0.3) == 2
        # the decimals the floats print are divided exactly, so any excess takes a wire
        assert net_q.wires_for(0.1 + 0.2) == 3  # 0.30000000000000004
        for bandwidth in (2.0000000001, 2.0000000009, 2.000000001):
            assert net.wires_for(bandwidth) == 3

    def test_wires_for_caps_a_demand_no_link_holds(self):
        # the quotient overflows to infinity; any demand above wire_count wires fits no link
        net = Network(Mesh(2, 2), 8, 0.5)
        assert net.wires_for(1e308) == 9 and type(net.wires_for(1e308)) is int
        assert net.wires_for(4.5) == 9 and net.wires_for(4.0) == 8
        assert Network(Mesh(2, 2), 8, 5e-324).wires_for(1.0) == 9

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("inf"), float("nan"), 10**400, True, "1"],
                             ids=["0.0", "-1.0", "inf", "nan", "beyond-float", "bool", "string"])
    def test_wires_for_refuses_unholdable_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            Network(Mesh(2, 2), 8, 1.0).wires_for(bandwidth)


def exact(value) -> Fraction:
    """The decimal `value` prints, as an exact rational."""
    return Fraction(repr(value))


# Every value is_bandwidth accepts: floats and ints in (0, float max].
bandwidths = st.one_of(
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
    st.integers(1, int(sys.float_info.max)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bandwidths, bandwidths, st.integers(1, 2**40))
def test_wires_for_is_the_fewest_wires_that_carry_the_demand(bandwidth, wire_bandwidth, wire_count):
    assert is_bandwidth(bandwidth) and is_bandwidth(wire_bandwidth)
    wires = Network(Mesh(1, 1), wire_count, wire_bandwidth).wires_for(bandwidth)
    assert type(wires) is int and 1 <= wires <= wire_count + 1
    if wires <= wire_count:
        assert wires * exact(wire_bandwidth) >= exact(bandwidth)
    assert (wires - 1) * exact(wire_bandwidth) < exact(bandwidth)


class TestLinkAddressing:
    # Links are numbered handle * 4 + port code, and a handle is
    # y * width + x. None of these may reach a real link of a 3x3 mesh
    # through that arithmetic: a NodeId outside the mesh has no handle, and
    # the network refuses handles outside it, the local port and missing links.
    BAD_LINKS = [
        pytest.param(NodeId(3, 0), PortDir.EAST, id="x-past-width-aliases-(0,1)"),
        pytest.param(NodeId(-1, 0), PortDir.EAST, id="negative-x-wraps-to-last-node"),
        pytest.param(NodeId(0, 3), PortDir.SOUTH, id="y-past-height"),
        pytest.param(NodeId(0, 1), PortDir.LOCAL, id="local-aliases-next-node-south"),
        pytest.param(NodeId(0, 0), PortDir.WEST, id="missing-boundary-link"),
        pytest.param(-1, PortDir.EAST, id="negative-handle-wraps-to-last-node"),
        pytest.param(9, PortDir.SOUTH, id="handle-past-node-count"),
    ]
    QUERIES = {
        # the admission rule, as the flood and the oracle apply it
        "fits": lambda net, node, port: net.free_wires(node, port) >= 1,
        "reserve": lambda net, node, port: net.reserve(node, port, 1),
        "release": lambda net, node, port: net.release(node, port, 1),
        "free_wires": lambda net, node, port: net.free_wires(node, port),
        "far_end": lambda net, node, port: net.far_end(node, port),
    }

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @pytest.mark.parametrize("node,port", BAD_LINKS)
    def test_rejected(self, query, node, port):
        net = Network(Mesh(3, 3), 8, 1.0)
        with pytest.raises(InvalidPathError):
            self.QUERIES[query](net, net.mesh.handle(node) if isinstance(node, NodeId) else node, port)
        assert net.total_held() == 0

    def test_fitting_links_rejects_node_outside_mesh(self):
        net = Network(Mesh(3, 3), 8, 1.0)
        for node in (9, -1, 100):
            with pytest.raises(InvalidPathError):
                net.fitting_links(node, 1)

    def test_fitting_links_skips_missing_and_full_links(self):
        net = Network(Mesh(3, 3), 8, 1.0)
        assert [port for port, _ in net.fitting_links(at(net, 0, 0), 1)] == [PortDir.EAST, PortDir.NORTH]
        center = at(net, 1, 1)
        assert net.reserve(center, PortDir.WEST, 6)
        assert [port for port, _ in net.fitting_links(center, 2)] == list(NON_LOCAL_PORTS)
        assert [port for port, _ in net.fitting_links(center, 3)] == [PortDir.SOUTH, PortDir.EAST, PortDir.NORTH]
        assert net.fitting_links(center, 9) == []

    def test_far_end_matches_mesh_neighbor(self):
        net = Network(Mesh(4, 3), 8, 1.0)
        mesh = net.mesh
        for node, port in net.links:
            assert mesh.node_at(net.far_end(node, port)) == mesh.neighbor(mesh.node_at(node), port)
        for node in mesh.nodes():
            expected = [(port, mesh.neighbor(node, port)) for port in NON_LOCAL_PORTS]
            got = [(port, mesh.node_at(far)) for port, far in net.fitting_links(mesh.handle(node), 8)]
            assert got == [(port, far) for port, far in expected if far is not None]


@st.composite
def loaded_networks(draw):
    """A network of 1x1 to 6x6 nodes with a random background load on each link."""
    mesh = Mesh(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    net = Network(mesh, draw(st.integers(1, 6)), 1.0)
    for node, port in net.links:
        held = draw(st.integers(0, net.wire_count))
        if held:
            assert net.reserve(node, port, held)
    return net


@settings(derandomize=True, max_examples=100, deadline=None)
@given(loaded_networks(), st.integers(1, 7))
def test_fitting_links_are_the_links_with_enough_free_wires(net, wires):
    # the ports with free_wires >= wires, in code order, each paired with
    # the far end Mesh.neighbor names
    mesh = net.mesh
    for node in mesh.nodes():
        handle = mesh.handle(node)
        expected = [
            (port, mesh.neighbor(node, port))
            for port in NON_LOCAL_PORTS
            if mesh.neighbor(node, port) is not None and net.free_wires(handle, port) >= wires
        ]
        got = net.fitting_links(handle, wires)
        assert [(port, mesh.node_at(far)) for port, far in got] == expected
        assert all(net.free_wires(handle, port) >= wires for port, _ in got)


def links_by_neighbor(mesh):
    """node_links, far_by_slot and the links in each direction of `mesh`,
    found node by node with Mesh.neighbor."""
    node_links, far_by_slot, per_class = [], [-1] * (4 * mesh.node_count), [0, 0, 0, 0]
    for y in range(mesh.height):
        for x in range(mesh.width):
            node, links = NodeId(x, y), []
            for port in NON_LOCAL_PORTS:
                if (far := mesh.neighbor(node, port)) is not None:
                    slot = 4 * mesh.handle(node) + port
                    far_by_slot[slot] = mesh.handle(far)
                    links.append((port, slot, far_by_slot[slot]))
                    per_class[port] += 1
            node_links.append(tuple(links))
    return tuple(node_links), tuple(far_by_slot), per_class


@pytest.mark.parametrize("width,height", [(2, 2), (2, 5), (5, 2), (1, 3), (3, 7), (16, 16)])
def test_shared_link_tables_match_per_node_arithmetic(width, height):
    mesh = Mesh(width, height)
    node_links, far_by_slot, per_class = links_by_neighbor(mesh)
    net = Network(mesh, 3, 1.0)
    assert net.node_links == node_links
    assert net.far_by_slot == far_by_slot
    assert net.wires_by_class == [3 * links for links in per_class]
    assert net.free_by_slot == [3 if far >= 0 else 0 for far in far_by_slot]
    assert net.links == tuple((node, port) for node, links in enumerate(node_links) for port, _, _ in links)
    assert mesh.nodes() == tuple(NodeId(x, y) for y in range(height) for x in range(width))
    # built once per shape: another network of it, at any wire count, shares the tables
    other = Network(Mesh(width, height), 5, 2.0)
    assert other.node_links is net.node_links and other.far_by_slot is net.far_by_slot
    assert other.wires_by_class == [5 * links for links in per_class]


def test_networks_of_one_shape_share_no_link_state():
    a, b = Network(Mesh(3, 2), 4, 1.0), Network(Mesh(3, 2), 4, 1.0)

    def state(net):
        return list(net.free_by_slot), list(net.wires_by_class), list(net.held_by_class)

    before = state(b)
    assert a.reserve(at(a, 1, 0), PortDir.EAST, 3)
    assert a.reserve(at(a, 1, 1), PortDir.SOUTH, 1)
    assert a.release(at(a, 1, 0), PortDir.EAST, 3) == 3
    assert a.reserve(at(a, 0, 0), PortDir.NORTH, 4)
    Network(Mesh(3, 2), 7, 1.0)  # the same shape at another wire count
    assert state(b) == before
    assert a.free_wires(at(a, 1, 1), PortDir.SOUTH) == 3 and a.free_wires(at(a, 0, 0), PortDir.NORTH) == 0
