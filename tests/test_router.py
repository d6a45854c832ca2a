import pytest

from beenoc import (
    BackwardBee,
    ControlKind,
    ControlPacket,
    FlowId,
    FlowPhase,
    InvariantViolationError,
    Mesh,
    Network,
    NodeId,
    PortDir,
    PortList,
    ProtocolCorruptionError,
    walk,
)
from beenoc.router import BackwardOutcome, handle_backward_bee, handle_control, handle_forward_bee
from beenoc.topology import OPPOSITE

from flood_step import flood, flood_sim, tree_of

S, W, E, N, LOCAL = PortDir.SOUTH, PortDir.WEST, PortDir.EAST, PortDir.NORTH, PortDir.LOCAL


def make_net(width=3, height=3, wire_count=8, wire_bandwidth=1.0):
    mesh = Mesh(width, height)
    return mesh, Network(mesh, wire_count, wire_bandwidth)


def at(mesh, x, y):
    """Handle of node (x, y)."""
    return mesh.handle(NodeId(x, y))


def backward_bee(flow, bee_index, forward, start=0):
    """The backward bee of `flow` retracing the forward path `forward`, a
    PortList, as its destination converts it."""
    return BackwardBee((flow, bee_index), forward, start)


def leaving_port(bee, index):
    """The port a backward bee leaves through at route index `index`, by the
    engine's rule, checked against its route: the path reverse-complemented."""
    port = OPPOSITE[(bee.path.bits >> 2 * index) & 0b11]
    assert port is bee.path.reverse_complement().entry(index)
    return port


def deliver_backward_until_done(mesh, net, dest, bee, wires):
    """Walk a backward bee of a flow demanding `wires` wires hop by hop from
    its birth at `dest`, sending the same bee on through its route entry at
    each forwarded hop; returns the final delivery's (node, route index,
    outcome)."""
    node, index, outcome = dest, 0, BackwardOutcome.FORWARDED
    while outcome is BackwardOutcome.FORWARDED:
        port = leaving_port(bee, index)
        node, index = mesh.neighbor(node, port), index + 1
        outcome = handle_backward_bee(mesh.handle(node), bee, index, port.opposite(), net, wires)
    return node, index, outcome


def deliver_control_chain(mesh, net, origin, port, pkt, index, wires):
    """Deliver `pkt` of a flow demanding `wires` wires, sent from `origin`
    through `port` to arrive at route index `index`, hop by hop until its
    route runs out."""
    node = origin
    while port is not None:
        node = mesh.neighbor(node, port)
        port = handle_control(mesh.handle(node), pkt, index, net, wires)
        index += 1
    assert index == pkt.route.length + 1


# The engine alone decides that a bee outlived its flow or lost the race, and
# builds every release; those rules are tested through a simulator whose
# flood never starts, with bees sent by hand from the destination.


def send_bees(sim, *paths):
    """Send one backward bee of the simulator's flow per forward path (a
    list of ports) from its destination, all now and in order; returns them."""
    (rec,) = sim.records.values()
    bees = []
    for bee_index, ports in enumerate(paths):
        bee = BackwardBee((rec.spec.flow, bee_index), PortList.from_ports(ports), sim.clock)
        sim.transit(rec.destination, leaving_port(bee, 0), bee)
        bees.append(bee)
    return bees


def deliveries(report, kind):
    """(cycle, node, route index) of each traced delivery of packets of `kind`."""
    lines = (line.split("\t") for line in report.trace)
    return [(int(cycle), node, int(hop)) for cycle, event, node, _, pkt, _, hop in lines if pkt == kind]


# The flood rule is one engine step over a flow's first-copy tree; the
# TestForwardBee flood tests drive it through flood_step.


def tree_path(tree, mesh, node):
    """Ports of the first-copy tree's path from the flow's source to `node`."""
    ports = []
    while tree[node] is not LOCAL:
        ports.append(tree[node].opposite())
        node = mesh.neighbor(node, tree[node])
    return ports[::-1]


class TestForwardBee:
    def test_duplicate_killed_at_intermediate(self):
        # the source (0,0) sends its first copy to (1,0), arriving from the
        # west; a later copy arriving from the north is a duplicate
        sim, rec = flood_sim(tree={NodeId(0, 0): LOCAL})
        assert flood(sim, NodeId(0, 0), LOCAL, 0)
        assert tree_of(sim, rec)[NodeId(1, 0)] is W
        assert flood(sim, NodeId(1, 0), W, 1)
        assert flood(sim, NodeId(1, 0), N, 3) == []

    def test_killed_at_hop_limit(self):
        sim, rec = flood_sim(tree={NodeId(1, 1): W})
        assert flood(sim, NodeId(1, 1), W, rec.hop_limit) == []
        assert flood(sim, NodeId(1, 1), W, rec.hop_limit - 1)

    def test_broadcast_excludes_arrival_port(self):
        # center of an idle 3x3, first copy arrived from the west source:
        # east, north and south are open, the copy never turns back west
        sim, rec = flood_sim(src=(0, 1), tree={NodeId(0, 1): LOCAL, NodeId(1, 1): W})
        links = flood(sim, NodeId(1, 1), W, 1)
        assert {port for port, _ in links} == {S, E, N}
        tree = tree_of(sim, rec)
        for port, far in links:
            assert far == sim.mesh.neighbor(NodeId(1, 1), port)
            assert tree[far] is port.opposite()
            assert tree_path(tree, sim.mesh, far) == [E, port]

    def test_broadcast_respects_residual(self):
        sim, rec = flood_sim(src=(0, 1), tree={NodeId(0, 1): LOCAL, NodeId(1, 1): W}, wire_count=4)
        sim.network.reserve(at(sim.mesh, 1, 1), E, 4)  # saturate the east link
        links = flood(sim, NodeId(1, 1), W, 1)
        assert {port for port, _ in links} == {S, N}

    def test_source_injection_broadcasts_everywhere(self):
        sim, rec = flood_sim(src=(1, 1), tree={NodeId(1, 1): LOCAL})
        links = flood(sim, NodeId(1, 1), LOCAL, 0)
        assert {port for port, _ in links} == {S, W, E, N}
        tree = tree_of(sim, rec)
        assert len(tree) == 5
        assert all(tree_path(tree, sim.mesh, far) == [port] for port, far in links)
        assert rec.forward_deliveries == 0  # the flow starting is not a delivery

    def test_corner_source_two_ports(self):
        sim, rec = flood_sim(tree={NodeId(0, 0): LOCAL})
        links = flood(sim, NodeId(0, 0), LOCAL, 0)
        assert {port for port, _ in links} == {E, N}

    def test_destination_converts_first_three(self):
        flow = FlowId(NodeId(0, 0), 4)
        dest = NodeId(2, 2)
        paths = [[E, E, N, N], [N, N, E, E], [E, N, E, N], [N, E, N, E], [E, N, N, E]]
        backward = []
        for count, path in enumerate(paths):
            forward = PortList.from_ports(path)
            assert walk(forward, NodeId(0, 0), Mesh(3, 3))[-1] == dest
            # the destination hands over the path; the bee's route is its reverse complement
            route = forward.reverse_complement()
            emissions = handle_forward_bee(count, flow, forward, 3, 17)
            if count < 3:
                assert len(emissions) == 1
                port, back = emissions[0]
                assert isinstance(back, BackwardBee)
                assert back.owner == (flow, count) and (back.flow, back.bee_index) == (flow, count)
                assert back.path is forward
                assert port is route.entry(0) is leaving_port(back, 0)
                assert back.start == 17  # at route index 0 at the cycle of its conversion
                backward.append(back)
            else:
                assert emissions == []
        assert len(backward) == 3

    def test_destination_cap_one(self):
        flow = FlowId(NodeId(0, 0), 5)
        dest = NodeId(2, 2)
        first = PortList.from_ports([E, E, N, N])
        second = PortList.from_ports([N, N, E, E])
        assert walk(first, NodeId(0, 0), Mesh(3, 3))[-1] == walk(second, NodeId(0, 0), Mesh(3, 3))[-1] == dest
        assert len(handle_forward_bee(0, flow, first, convert_cap=1, clock=0)) == 1
        assert handle_forward_bee(1, flow, second, convert_cap=1, clock=0) == []

    def test_forward_bees_never_touch_links(self):
        # flood a whole flow over the mesh: discovery must leave every
        # reservation pool untouched
        sim, rec = flood_sim(tree={NodeId(0, 0): LOCAL})
        net = sim.network
        src, dst = NodeId(0, 0), NodeId(2, 2)
        before = {link: net.free_wires(*link) for link in net.links}
        queue = [(src, LOCAL, 0)]
        deliveries = 0
        while queue:
            node, arrival, hops = queue.pop(0)
            deliveries += 1
            if node != dst:
                links = flood(sim, node, arrival, hops)
                queue.extend((far, port.opposite(), hops + 1) for port, far in links)
        assert deliveries > 1
        assert net.total_held() == 0
        assert {link: net.free_wires(*link) for link in net.links} == before

    def test_copies_to_reached_nodes_are_elided(self):
        # center of an idle 3x3, first copy from the west source; (1,0) and
        # (1,2) were already sent a copy, (2,1) is the destination
        planted = {NodeId(0, 1): LOCAL, NodeId(1, 1): W, NodeId(1, 0): W, NodeId(1, 2): W}
        sim, rec = flood_sim(src=(0, 1), dst=(2, 1), trace=False, tree=planted)
        links = flood(sim, NodeId(1, 1), W, 1)
        assert links == [(E, NodeId(2, 1))]  # the destination always gets its copy
        assert rec.forward_deliveries == 3  # this delivery and the two elided copies, counted now
        tree = tree_of(sim, rec)
        assert NodeId(2, 1) not in tree  # nor is it ever in the tree
        assert tree[NodeId(1, 0)] is W and tree[NodeId(1, 2)] is W
        # without elision the duplicates are sent, and the tree keeps the first copies
        sim, rec = flood_sim(src=(0, 1), dst=(2, 1), tree={**planted, NodeId(1, 1): S})
        assert flood(sim, NodeId(1, 1), S, 1) == [
            (W, NodeId(0, 1)),
            (E, NodeId(2, 1)),
            (N, NodeId(1, 2)),
        ]
        assert rec.forward_deliveries == 1
        tree = tree_of(sim, rec)
        assert tree[NodeId(0, 1)] is LOCAL and tree[NodeId(1, 2)] is W

    def test_new_far_ends_join_reached(self):
        sim, rec = flood_sim(trace=False, tree={NodeId(0, 0): LOCAL})
        links = flood(sim, NodeId(0, 0), LOCAL, 0)
        assert len(links) == 2 and rec.forward_deliveries == 0  # nothing elided
        assert tree_of(sim, rec) == {NodeId(0, 0): LOCAL, NodeId(1, 0): W, NodeId(0, 1): S}
        # (1,1) is reached through (1,0) first; the copy from (0,1) is elided
        from_east = flood(sim, NodeId(1, 0), W, 1)
        assert [port for port, _ in from_east] == [E, N] and rec.forward_deliveries == 1
        from_north = flood(sim, NodeId(0, 1), S, 1)
        assert [port for port, _ in from_north] == [N] and rec.forward_deliveries == 3
        assert tree_of(sim, rec)[NodeId(1, 1)] is S

    def test_flood_pairs_ports_with_far_ends(self):
        # center of a 3x3 whose north link is full for a 2-wire demand
        planted = {NodeId(0, 1): LOCAL, NodeId(1, 1): W}
        sim, rec = flood_sim(src=(0, 1), bandwidth=2.0, tree=planted, wire_count=4)
        assert sim.network.reserve(at(sim.mesh, 1, 1), N, 3)
        links = flood(sim, NodeId(1, 1), W, 1)
        assert links == [(S, NodeId(1, 0)), (E, NodeId(2, 1))]
        assert flood(sim, NodeId(1, 1), S, 1) == []  # not the first copy
        # each far end is entered with the port its copy arrives on
        tree = tree_of(sim, rec)
        assert tree[NodeId(1, 0)] is N and tree[NodeId(2, 1)] is W


class TestBackwardBee:
    def test_single_hop_accepted(self):
        mesh, net = make_net()
        flow = FlowId(NodeId(0, 0), 0)
        bee = backward_bee(flow, 0, PortList.from_ports([E]))  # forward east -> route west
        node, index, outcome = deliver_backward_until_done(mesh, net, NodeId(1, 0), bee, net.wires_for(2.5))
        assert node == NodeId(0, 0) and index == 1
        assert outcome.kind == "accepted"
        # the source holds the data-direction first hop: 3 wires of 8, and nothing else
        assert net.free_wires(at(mesh, 0, 0), E) == 5
        assert net.total_held() == 3
        # in a run, a sibling reaching the source once its flow has won loses
        # the race: it reserved nothing and sends no release
        sim, rec = flood_sim(dst=(1, 0), bandwidth=2.5, wire_count=8, max_cycles=1)
        send_bees(sim, [E], [E])
        report = sim.run()
        assert rec.phase is FlowPhase.ESTABLISHED and rec.winner == (flow, 0)
        assert report.stats.backward_deliveries == 2 and report.stats.control_deliveries == 0
        assert sim.network.free_wires(at(sim.mesh, 0, 0), E) == 5 and sim.network.total_held() == 3

    def test_multi_hop_reserves_data_path(self):
        mesh, net = make_net()
        flow = FlowId(NodeId(0, 0), 1)
        forward = PortList.from_ports([E, N])
        bee = backward_bee(flow, 0, forward)
        # at the first hop the bee reserves and is sent on through route entry 1
        assert handle_backward_bee(at(mesh, 1, 0), bee, 1, N, net, 1) is BackwardOutcome.FORWARDED
        assert leaving_port(bee, 1) is W
        assert handle_backward_bee(at(mesh, 0, 0), bee, 2, E, net, 1) is BackwardOutcome.ACCEPTED
        # exactly the links a source->destination walk would use
        assert net.free_wires(at(mesh, 0, 0), E) == 7
        assert net.free_wires(at(mesh, 1, 0), N) == 7
        assert net.total_held() == 2

    def test_reservation_failure_releases_prefix(self):
        # 5x2, flow (0,0) -> (4,0) of 2 wires of 4; (1,0)'s east link has 3
        # held, so the bee reserves (3,0) and (2,0) east and fails at (1,0)
        sim, rec = flood_sim(dst=(4, 0), bandwidth=2.0, mesh_width=5, mesh_height=2, wire_count=4)
        net = sim.network
        assert net.reserve(at(sim.mesh, 1, 0), E, 3)
        send_bees(sim, [E, E, E, E])
        report = sim.run()
        assert deliveries(report, "backward") == [(1, "3,0", 1), (2, "2,0", 2), (3, "1,0", 3)]
        # the release retraces the two reserved links, from route index 0 one hop later
        assert deliveries(report, "release") == [(4, "2,0", 0), (5, "3,0", 1), (6, "4,0", 2)]
        assert report.stats.drained and report.stats.final_wires_held == 0
        # only the background reservation survives
        assert rec.phase is FlowPhase.SETTING_UP
        assert net.total_held() == 3 and net.free_wires(at(sim.mesh, 1, 0), E) == 1

    def test_failure_with_empty_prefix_emits_nothing(self):
        # the bee's first reservation, at route index 1, fails: no release is sent
        sim, _ = flood_sim(dst=(2, 0), bandwidth=2.0, wire_count=4)
        sim.network.reserve(at(sim.mesh, 1, 0), E, 4)
        send_bees(sim, [E, E])
        report = sim.run()
        assert deliveries(report, "backward") == [(1, "1,0", 1)]
        assert report.stats.control_deliveries == 0 and deliveries(report, "release") == []
        assert sim.network.total_held() == 4

    def test_losing_sibling_releases_only_its_own_wires(self):
        # two sibling bees whose routes share the 1,0 -> 2,0 data link reach
        # the source in one cycle; the second lost the race, and its release
        # must leave the winner's wires in place
        sim, rec = flood_sim(dst=(3, 1), bandwidth=2.0, mesh_width=4, mesh_height=2, wire_count=4, max_cycles=8)
        net, mesh = sim.network, sim.mesh
        flow = rec.spec.flow
        send_bees(sim, [E, E, E, N], [E, E, N, E])  # routes S W W W and W S W W
        report = sim.run()
        assert rec.winner == (flow, 0) and rec.circuit == PortList.from_ports([E, E, E, N])
        assert deliveries(report, "backward")[-2:] == [(4, "0,0", 4), (4, "0,0", 4)]
        # the loser reserved three links, which its release frees, and
        # nothing at the source
        assert deliveries(report, "release") == [(5, "1,0", 0), (6, "2,0", 1), (7, "2,1", 2), (8, "3,1", 3)]
        # the winner's four-link circuit is intact, nothing else is held
        assert net.total_held() == 8
        for spot, port in [((0, 0), E), ((1, 0), E), ((2, 0), E), ((3, 0), N)]:
            assert net.free_wires(at(mesh, *spot), port) == 2
        # run on, the winner's teardown frees the rest
        sim, rec = flood_sim(dst=(3, 1), bandwidth=2.0, mesh_width=4, mesh_height=2, wire_count=4)
        send_bees(sim, [E, E, E, N], [E, E, N, E])
        report = sim.run()
        assert rec.phase is FlowPhase.TORN_DOWN
        assert report.stats.drained and sim.network.total_held() == 0

    def test_corrupt_index_rejected(self):
        mesh, net = make_net()
        bee = backward_bee(FlowId(NodeId(0, 0), 4), 0, PortList.from_ports([E]))  # route W
        for index in (0, 2, 5):
            with pytest.raises(ProtocolCorruptionError, match=rf"route index {index} outside 1\.\.1 \(start 0\)"):
                handle_backward_bee(at(mesh, 0, 0), bee, index, E, net, 1)
        assert net.total_held() == 0


class TestControl:
    def build_circuit(self, mesh, net, flow, forward_ports, wires=1):
        forward = PortList.from_ports(forward_ports)
        dest = NodeId(0, 0)
        for port in forward:
            dest = mesh.neighbor(dest, port)
        bee = backward_bee(flow, 0, forward)
        _, _, outcome = deliver_backward_until_done(mesh, net, dest, bee, wires)
        assert outcome.kind == "accepted"
        return forward

    def test_teardown_restores_three_hop_circuit(self):
        mesh, net = make_net()
        flow = FlowId(NodeId(0, 0), 0)
        forward = self.build_circuit(mesh, net, flow, [E, E, N], wires=2)
        assert net.total_held() == 6
        teardown = ControlPacket(ControlKind.TEARDOWN, (flow, 0), forward, 0)
        port = handle_control(at(mesh, 0, 0), teardown, 0, net, 2)  # the source frees its own hop
        assert port is E and net.total_held() == 4
        deliver_control_chain(mesh, net, NodeId(0, 0), port, teardown, 1, 2)
        assert net.total_held() == 0
        assert all(net.free_wires(*link) == 8 for link in net.links)

    def test_zero_length_release_is_noop(self):
        mesh, net = make_net()
        pkt = ControlPacket(ControlKind.RELEASE, (FlowId(NodeId(0, 0), 1), 0), PortList(), 0)
        before = {link: net.free_wires(*link) for link in net.links}
        assert handle_control(at(mesh, 1, 1), pkt, 0, net, 1) is None
        assert {link: net.free_wires(*link) for link in net.links} == before

    def test_corrupt_index_rejected(self):
        mesh, net = make_net()
        flow = FlowId(NodeId(0, 0), 5)
        pkt = ControlPacket(ControlKind.RELEASE, (flow, 0), PortList.from_ports([E]), 0)
        for index in (-1, 2):
            with pytest.raises(
                ProtocolCorruptionError, match=rf"control packet of 0,0:5: route index {index} outside 0\.\.1 \(start 0\)"
            ):
                handle_control(at(mesh, 0, 0), pkt, index, net, 1)

    def test_route_leaving_the_mesh_is_corruption(self):
        mesh, net = make_net()
        flow = FlowId(NodeId(0, 0), 3)
        pkt = ControlPacket(ControlKind.RELEASE, (flow, 0), PortList.from_ports([W]), 0)
        with pytest.raises(ProtocolCorruptionError, match="control route of 0,0:3 leaves the mesh at 0,0"):
            handle_control(at(mesh, 0, 0), pkt, 0, net, 1)

    def test_double_teardown_is_caught(self):
        # a second teardown frees wires no link holds: the source's link
        # would count more free wires than its pool
        mesh, net = make_net()
        flow = FlowId(NodeId(0, 0), 2)
        forward = self.build_circuit(mesh, net, flow, [E, N])
        teardown = ControlPacket(ControlKind.TEARDOWN, (flow, 0), forward, 0)
        port = handle_control(at(mesh, 0, 0), teardown, 0, net, 1)
        deliver_control_chain(mesh, net, NodeId(0, 0), port, teardown, 1, 1)
        assert net.total_held() == 0
        with pytest.raises(InvariantViolationError, match="link 0,0->EAST counts 9 free of 8 wires"):
            handle_control(at(mesh, 0, 0), ControlPacket(ControlKind.TEARDOWN, (flow, 0), forward, 0), 0, net, 1)
