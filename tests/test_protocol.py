import random

import pytest

from beenoc import (
    BackwardBee,
    ControlKind,
    ControlPacket,
    FlowId,
    ForwardBee,
    InvalidPathError,
    InvalidPortError,
    Mesh,
    NodeId,
    PortDir,
    PortList,
    PortListOverflowError,
    decode_port,
    encode_port,
    serialize_forward_bee,
    walk,
)
from beenoc.protocol import FORWARD_HEADER_SIZE
from beenoc.topology import NON_LOCAL_PORTS

BLUE_BITS = "1010101010101000000000000000"
BLUE_REVERSED_BITS = "1111111111111101010101010101"


def blue_path() -> PortList:
    lst = PortList()
    for _ in range(7):
        lst = lst.push(PortDir.EAST)
    for _ in range(7):
        lst = lst.push(PortDir.SOUTH)
    return lst


class TestPortCodec:
    @pytest.mark.parametrize(
        "port,code",
        [(PortDir.SOUTH, 0b00), (PortDir.WEST, 0b01), (PortDir.NORTH, 0b11), (PortDir.EAST, 0b10)],
    )
    def test_mapping(self, port, code):
        assert encode_port(port) == code

    def test_round_trip(self):
        for port in NON_LOCAL_PORTS:
            assert decode_port(encode_port(port)) is port

    def test_complement_is_opposite(self):
        for port in NON_LOCAL_PORTS:
            assert decode_port(encode_port(port) ^ 0b11) is port.opposite()

    def test_local_has_no_code(self):
        with pytest.raises(InvalidPortError):
            encode_port(PortDir.LOCAL)

    def test_bad_code(self):
        with pytest.raises(InvalidPortError):
            decode_port(5)


class TestPortListPush:
    def test_single_entry(self):
        assert PortList().push(PortDir.EAST).bitstring() == "10"

    def test_blue_path_bits(self):
        lst = blue_path()
        assert lst.bitstring() == BLUE_BITS
        assert lst.length == 14

    def test_push_preserves_prefix(self):
        lst = PortList()
        rng = random.Random(11)
        history = []
        for _ in range(20):
            port = rng.choice(NON_LOCAL_PORTS)
            history.append(port)
            lst = lst.push(port)
            assert list(lst) == history

    def test_overflow(self):
        lst = PortList().push(PortDir.EAST, limit=2).push(PortDir.EAST, limit=2)
        with pytest.raises(PortListOverflowError):
            lst.push(PortDir.EAST, limit=2)

    def test_local_port_rejected(self):
        with pytest.raises(InvalidPortError):
            PortList().push(PortDir.LOCAL)

    def test_prefix(self):
        lst = blue_path()
        assert lst.prefix(7).bitstring() == "10" * 7
        assert lst.prefix(0).length == 0
        assert lst.prefix(14) == lst


def seed_bee(ports: PortList = PortList()) -> ForwardBee:
    return ForwardBee(FlowId(NodeId(2, 1), 5), NodeId(0, 3), 0.5, ports)


class TestForwardBeeAdvanced:
    def test_appends_one_hop(self):
        rng = random.Random(23)
        bee = seed_bee()
        history = []
        for _ in range(40):
            port = rng.choice(NON_LOCAL_PORTS)
            history.append(port)
            bee = bee.advanced(port, limit=40)
            assert list(bee.ports) == history
            assert bee[:3] == seed_bee()[:3]
        with pytest.raises(PortListOverflowError):
            bee.advanced(PortDir.EAST, limit=40)

    @pytest.mark.parametrize(
        "packet,field",
        [
            (seed_bee(), "ports"),
            (BackwardBee(FlowId(NodeId(0, 0), 0), 1, PortList(), 1), "next_index"),
            (ControlPacket(ControlKind.RELEASE, FlowId(NodeId(0, 0), 0), 1, PortList(), 0), "next_index"),
        ],
        ids=["forward", "backward", "control"],
    )
    def test_packets_are_immutable(self, packet, field):
        with pytest.raises(AttributeError):
            setattr(packet, field, getattr(packet, field))


class TestIdFormats:
    # Trace lines, log lines and error messages embed these strings.
    def test_node_id(self):
        node = NodeId(3, 12)
        assert str(node) == "3,12"
        assert f"{node}" == "3,12"
        assert repr(node) == "NodeId(x=3, y=12)"

    def test_flow_id(self):
        flow = FlowId(NodeId(3, 12), 7)
        assert str(flow) == "3,12:7"
        assert f"flow {flow}" == "flow 3,12:7"
        assert repr(flow) == "FlowId(source=NodeId(x=3, y=12), sequence=7)"

    def test_equal_ids_hash_equal(self):
        assert NodeId(1, 2) == NodeId(1, 2) and hash(NodeId(1, 2)) == hash(NodeId(1, 2))
        flow = FlowId(NodeId(1, 2), 9)
        twin = FlowId(NodeId(1, 2), 9)
        assert flow == twin and hash(flow) == hash(twin)
        assert len({flow, twin, FlowId(NodeId(2, 1), 9)}) == 2


def entrywise_reverse_complement(ports):
    # independent oracle: reverse the entry order, flip each to its opposite
    return [p.opposite() for p in reversed(ports)]


class TestReverseComplement:
    def test_empty(self):
        assert PortList().reverse_complement() == PortList()

    def test_single(self):
        assert PortList().push(PortDir.EAST).reverse_complement().bitstring() == "01"

    def test_blue_path_golden(self):
        reversed_route = blue_path().reverse_complement()
        assert reversed_route.bitstring() == BLUE_REVERSED_BITS
        assert list(reversed_route) == [PortDir.NORTH] * 7 + [PortDir.WEST] * 7

    def test_matches_entrywise_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            ports = [rng.choice(NON_LOCAL_PORTS) for _ in range(rng.randrange(0, 30))]
            expected = entrywise_reverse_complement(ports)
            assert list(PortList.from_ports(ports).reverse_complement()) == expected

    def test_round_trip(self):
        rng = random.Random(37)
        for _ in range(200):
            ports = [rng.choice(NON_LOCAL_PORTS) for _ in range(rng.randrange(0, 30))]
            lst = PortList.from_ports(ports)
            assert lst.reverse_complement().reverse_complement() == lst


def random_walkable_path(mesh, rng, max_len=24):
    start = NodeId(rng.randrange(mesh.width), rng.randrange(mesh.height))
    lst = PortList()
    current = start
    for _ in range(rng.randrange(0, max_len)):
        options = [p for p in NON_LOCAL_PORTS if mesh.neighbor(current, p) is not None]
        port = rng.choice(options)
        lst = lst.push(port)
        current = mesh.neighbor(current, port)
    return start, current, lst


class TestWalk:
    def test_blue_path_walk(self):
        mesh = Mesh(8, 8)
        start = NodeId(0, 7)  # top row: seven easts then seven souths fit
        nodes = walk(blue_path(), start, mesh)
        assert nodes[0] == start
        assert nodes[-1] == NodeId(7, 0)
        assert len(nodes) == 15
        # retracing the reversed route lands back at the start
        back = walk(blue_path().reverse_complement(), nodes[-1], mesh)
        assert back[-1] == start

    def test_empty_path(self):
        mesh = Mesh(4, 4)
        assert walk(PortList(), NodeId(2, 1), mesh) == [NodeId(2, 1)]

    def test_off_mesh(self):
        mesh = Mesh(4, 4)
        with pytest.raises(InvalidPathError):
            walk(PortList.from_bitstring("01"), NodeId(0, 0), mesh)

    def test_path_inversion_property(self):
        mesh = Mesh(6, 5)
        rng = random.Random(51)
        for _ in range(200):
            start, end, path = random_walkable_path(mesh, rng)
            reverse = path.reverse_complement()
            nodes = walk(reverse, end, mesh)
            assert nodes[-1] == start


class TestSerialization:
    def test_size_is_two_bits_per_entry(self):
        # 2L bits plus the fixed header, regardless of mesh size
        rng = random.Random(67)
        for length in range(0, 41):
            ports = [rng.choice(NON_LOCAL_PORTS) for _ in range(length)]
            bee = ForwardBee(
                flow=FlowId(NodeId(0, 0), 0),
                destination=NodeId(1, 1),
                required_bandwidth=1.0,
                ports=PortList.from_ports(ports),
            )
            assert len(serialize_forward_bee(bee)) == FORWARD_HEADER_SIZE + (2 * length + 7) // 8

    def test_blue_path_packed_bytes(self):
        bee = ForwardBee(
            flow=FlowId(NodeId(0, 7), 3),
            destination=NodeId(7, 0),
            required_bandwidth=2.0,
            ports=blue_path(),
        )
        data = serialize_forward_bee(bee)
        assert data[FORWARD_HEADER_SIZE:] == b"\xaa\xa8\x00\x00"
        assert data[:2] == (0).to_bytes(2, "big")  # source x
        assert data[2:4] == (7).to_bytes(2, "big")  # source y

    def test_bitstring_round_trip(self):
        lst = PortList.from_bitstring(BLUE_BITS)
        assert lst == blue_path()
        assert PortList.from_bitstring("") == PortList()
