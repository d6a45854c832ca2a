import logging

import pytest

from beenoc import (
    BackwardBee,
    ControlKind,
    ControlPacket,
    FlowId,
    ForwardBee,
    Mesh,
    Network,
    NodeId,
    NodeState,
    PortDir,
    PortList,
    ProtocolCorruptionError,
    flood_links,
    handle_backward_bee,
    handle_control,
    handle_forward_bee,
)

S, W, E, N, LOCAL = PortDir.SOUTH, PortDir.WEST, PortDir.EAST, PortDir.NORTH, PortDir.LOCAL


def make_net(width=3, height=3, wire_count=8, wire_bandwidth=1.0):
    mesh = Mesh(width, height)
    net = Network(mesh, wire_count, wire_bandwidth)
    states = {n: NodeState(n) for n in mesh.nodes()}
    return mesh, net, states


def make_bee(flow, dst, ports=(), bandwidth=1.0):
    lst = PortList.from_ports(ports)
    return ForwardBee(flow, dst, bandwidth, lst)


def deliver_backward_until_done(mesh, net, states, dest, bee):
    """Walk a backward bee hop by hop from its birth at `dest`; returns the
    final (node, outcome)."""
    port = bee.route.entry(0)
    node = mesh.neighbor(dest, port)
    arrival = port.opposite()
    while True:
        outcome = handle_backward_bee(states[node], bee, arrival, net)
        if outcome.kind != "forwarded":
            return node, outcome
        port, bee = outcome.emissions[0]
        node = mesh.neighbor(node, port)
        arrival = port.opposite()


def deliver_control_chain(mesh, net, states, origin, emissions):
    """Deliver the control packet emitted at `origin` until its route runs out."""
    node = origin
    while emissions:
        ((port, pkt),) = emissions
        node = mesh.neighbor(node, port)
        emissions = handle_control(states[node], pkt, port.opposite(), net)


def tree_path(tree, mesh, node):
    """Ports of the first-copy tree's path from the flow's source to `node`."""
    ports = []
    while tree[node] is not LOCAL:
        ports.append(tree[node].opposite())
        node = mesh.neighbor(node, tree[node])
    return ports[::-1]


def flood(tree, node, arrival, hops, net, dst=NodeId(2, 2), hop_limit=8, wires=1, elide=False):
    return flood_links(tree, node, arrival, hops, net, hop_limit, wires, dst, elide)


class TestForwardBee:
    def test_duplicate_killed_at_intermediate(self):
        # the source (0,0) sends its first copy to (1,0), arriving from the
        # west; a later copy arriving from the north is a duplicate
        mesh, net, states = make_net()
        tree = {NodeId(0, 0): LOCAL}
        assert flood(tree, NodeId(0, 0), LOCAL, 0, net)
        assert tree[NodeId(1, 0)] is W
        assert flood(tree, NodeId(1, 0), W, 1, net)
        assert flood(tree, NodeId(1, 0), N, 3, net) == []

    def test_killed_at_hop_limit(self):
        mesh, net, states = make_net()
        assert flood({NodeId(1, 1): W}, NodeId(1, 1), W, 4, net, hop_limit=4) == []
        assert flood({NodeId(1, 1): W}, NodeId(1, 1), W, 3, net, hop_limit=4)

    def test_broadcast_excludes_arrival_port(self):
        # center of an idle 3x3, first copy arrived from the west source:
        # east, north and south are open, the copy never turns back west
        mesh, net, states = make_net()
        tree = {NodeId(0, 1): LOCAL, NodeId(1, 1): W}
        links = flood(tree, NodeId(1, 1), W, 1, net)
        assert {port for port, _ in links} == {S, E, N}
        for port, far in links:
            assert far == mesh.neighbor(NodeId(1, 1), port)
            assert tree[far] is port.opposite()
            assert tree_path(tree, mesh, far) == [E, port]

    def test_broadcast_respects_residual(self):
        mesh, net, states = make_net(wire_count=4)
        net.reserve(NodeId(1, 1), E, ("bg", 0), 4.0)  # saturate the east link
        links = flood({NodeId(0, 1): LOCAL, NodeId(1, 1): W}, NodeId(1, 1), W, 1, net)
        assert {port for port, _ in links} == {S, N}

    def test_source_injection_broadcasts_everywhere(self):
        mesh, net, states = make_net()
        tree = {NodeId(1, 1): LOCAL}
        links = flood(tree, NodeId(1, 1), LOCAL, 0, net)
        assert {port for port, _ in links} == {S, W, E, N}
        assert len(tree) == 5
        assert all(tree_path(tree, mesh, far) == [port] for port, far in links)

    def test_corner_source_two_ports(self):
        mesh, net, states = make_net()
        links = flood({NodeId(0, 0): LOCAL}, NodeId(0, 0), LOCAL, 0, net)
        assert {port for port, _ in links} == {E, N}

    def test_destination_converts_first_three(self):
        mesh, net, states = make_net()
        flow = FlowId(NodeId(0, 0), 4)
        dest = NodeId(2, 2)
        paths = [[E, E, N, N], [N, N, E, E], [E, N, E, N], [N, E, N, E], [E, N, N, E]]
        backward = []
        for i, path in enumerate(paths):
            emissions = handle_forward_bee(states[dest], make_bee(flow, dest, path))
            if i < 3:
                assert len(emissions) == 1
                port, back = emissions[0]
                assert isinstance(back, BackwardBee)
                assert back.bee_index == i
                assert back.route == PortList.from_ports(path).reverse_complement()
                assert port is back.route.entry(0)
                assert back.next_index == 1
                backward.append(back)
            else:
                assert emissions == []
        assert states[dest].dest_arrivals[flow] == 3
        assert len(backward) == 3

    def test_destination_cap_one(self):
        mesh, net, states = make_net()
        flow = FlowId(NodeId(0, 0), 5)
        dest = NodeId(2, 2)
        first = make_bee(flow, dest, [E, E, N, N])
        second = make_bee(flow, dest, [N, N, E, E])
        assert len(handle_forward_bee(states[dest], first, convert_cap=1)) == 1
        assert handle_forward_bee(states[dest], second, convert_cap=1) == []

    def test_forward_bees_never_touch_links(self):
        # flood a whole flow over the mesh: discovery must leave every
        # reservation pool untouched
        mesh, net, states = make_net()
        src, dst = NodeId(0, 0), NodeId(2, 2)
        before = net.residual_snapshot()
        tree = {src: LOCAL}
        queue = [(src, LOCAL, 0)]
        deliveries = 0
        while queue:
            node, arrival, hops = queue.pop(0)
            deliveries += 1
            if node != dst:
                links = flood(tree, node, arrival, hops, net, dst, hop_limit=6)
                queue.extend((far, port.opposite(), hops + 1) for port, far in links)
        assert deliveries > 1
        assert net.total_held() == 0
        assert net.residual_snapshot() == before

    def test_copies_to_reached_nodes_are_elided(self):
        # center of an idle 3x3, first copy from the west source; (1,0) and
        # (1,2) were already sent a copy, (2,1) is the destination
        mesh, net, states = make_net()
        tree = {NodeId(0, 1): LOCAL, NodeId(1, 1): W, NodeId(1, 0): W, NodeId(1, 2): W}
        links = flood(tree, NodeId(1, 1), W, 1, net, dst=NodeId(2, 1), elide=True)
        assert links == [(S, None), (E, NodeId(2, 1)), (N, None)]  # the destination always gets its copy
        assert NodeId(2, 1) not in tree  # nor is it ever in the tree
        assert tree[NodeId(1, 0)] is W and tree[NodeId(1, 2)] is W
        # without elision the duplicates are sent, and the tree keeps the first copies
        tree[NodeId(1, 1)] = S
        assert flood(tree, NodeId(1, 1), S, 1, net, dst=NodeId(2, 1)) == [
            (W, NodeId(0, 1)),
            (E, NodeId(2, 1)),
            (N, NodeId(1, 2)),
        ]
        assert tree[NodeId(0, 1)] is LOCAL and tree[NodeId(1, 2)] is W

    def test_new_far_ends_join_reached(self):
        mesh, net, states = make_net()
        tree = {NodeId(0, 0): LOCAL}
        links = flood(tree, NodeId(0, 0), LOCAL, 0, net, elide=True)
        assert all(far is not None for _, far in links)
        assert tree == {NodeId(0, 0): LOCAL, NodeId(1, 0): W, NodeId(0, 1): S}
        # (1,1) is reached through (1,0) first; the copy from (0,1) is elided
        from_east = flood(tree, NodeId(1, 0), W, 1, net, elide=True)
        from_north = flood(tree, NodeId(0, 1), S, 1, net, elide=True)
        assert [(port, far is None) for port, far in from_east] == [(E, False), (N, False)]
        assert [(port, far is None) for port, far in from_north] == [(E, True), (N, False)]
        assert tree[NodeId(1, 1)] is S

    def test_flood_links_pair_ports_with_far_ends(self):
        # center of a 3x3 whose north link is full for a 2-wire demand
        mesh, net, states = make_net(wire_count=4)
        assert net.reserve(NodeId(1, 1), N, ("bg", 0), 3.0)
        tree = {NodeId(0, 1): LOCAL, NodeId(1, 1): W}
        links = flood(tree, NodeId(1, 1), W, 1, net, wires=2)
        assert links == [(S, NodeId(1, 0)), (E, NodeId(2, 1))]
        assert flood(tree, NodeId(1, 1), S, 1, net, wires=2) == []  # not the first copy
        # each far end is entered with the port its copy arrives on
        assert tree[NodeId(1, 0)] is N and tree[NodeId(2, 1)] is W


class TestBackwardBee:
    def test_single_hop_accepted(self):
        mesh, net, states = make_net()
        flow = FlowId(NodeId(0, 0), 0)
        route = PortList.from_ports([E]).reverse_complement()  # forward east -> route west
        bee = BackwardBee(flow, 0, route, 1, 2.5)
        node, outcome = deliver_backward_until_done(mesh, net, states, NodeId(1, 0), bee)
        assert node == NodeId(0, 0)
        assert outcome.kind == "accepted"
        # the source holds the data-direction first hop: 3 wires of 8
        assert net.residual(NodeId(0, 0), E) == 5.0
        entry = states[NodeId(0, 0)].flow_table[(flow, 0)]
        assert entry.in_port is E and entry.out_port is LOCAL and entry.wires_held == 3
        assert flow in states[NodeId(0, 0)].source_accepted

    def test_multi_hop_reserves_data_path(self):
        mesh, net, states = make_net()
        flow = FlowId(NodeId(0, 0), 1)
        forward = PortList.from_ports([E, N])
        bee = BackwardBee(flow, 0, forward.reverse_complement(), 1, 1.0)
        node, outcome = deliver_backward_until_done(mesh, net, states, NodeId(1, 1), bee)
        assert outcome.kind == "accepted"
        # exactly the links a source->destination walk would use
        assert net.holders(NodeId(0, 0), E) == {(flow, 0): 1}
        assert net.holders(NodeId(1, 0), N) == {(flow, 0): 1}
        assert net.total_held() == 2

    def test_reservation_failure_releases_prefix(self):
        mesh, net, states = make_net(wire_count=4)
        flow = FlowId(NodeId(0, 0), 2)
        forward = PortList.from_ports([E, E])
        net.reserve(NodeId(0, 0), E, ("bg", 0), 4.0)  # the final reservation will fail
        bee = BackwardBee(flow, 0, forward.reverse_complement(), 1, 2.0)
        node, outcome = deliver_backward_until_done(mesh, net, states, NodeId(2, 0), bee)
        assert node == NodeId(0, 0)
        assert outcome.kind == "aborted"
        assert len(outcome.emissions) == 1
        deliver_control_chain(mesh, net, states, node, outcome.emissions)
        # only the background reservation survives
        assert net.total_held() == 4
        assert net.holders(NodeId(1, 0), E) == {}
        assert all((flow, 0) not in st.flow_table for st in states.values())

    def test_failure_with_empty_prefix_emits_nothing(self):
        mesh, net, states = make_net(wire_count=4)
        flow = FlowId(NodeId(0, 0), 3)
        net.reserve(NodeId(1, 0), E, ("bg", 0), 4.0)
        bee = BackwardBee(flow, 0, PortList.from_ports([E, E]).reverse_complement(), 1, 2.0)
        outcome = handle_backward_bee(states[NodeId(1, 0)], bee, E, net)
        assert outcome.kind == "aborted"
        assert outcome.emissions == []
        assert net.total_held() == 4

    def test_losing_sibling_releases_only_its_own_wires(self):
        # two sibling bees whose routes share the 1,0 -> 2,0 data link; the
        # loser's release must leave the winner's wires in place
        mesh, net, states = make_net(width=4, height=2, wire_count=4)
        flow = FlowId(NodeId(0, 0), 0)
        route1 = PortList.from_ports([E, E, E, N]).reverse_complement()  # S W W W
        route2 = PortList.from_ports([E, E, N, E]).reverse_complement()  # W S W W
        bee1 = BackwardBee(flow, 0, route1, 1, 2.0)
        bee2 = BackwardBee(flow, 1, route2, 1, 2.0)
        _, first = deliver_backward_until_done(mesh, net, states, NodeId(3, 1), bee1)
        assert first.kind == "accepted"
        node, second = deliver_backward_until_done(mesh, net, states, NodeId(3, 1), bee2)
        assert second.kind == "aborted"
        assert net.holders(NodeId(1, 0), E) == {(flow, 0): 2, (flow, 1): 2}  # both held pre-release
        deliver_control_chain(mesh, net, states, node, second.emissions)
        assert net.holders(NodeId(1, 0), E) == {(flow, 0): 2}
        # the winner's four-link circuit is intact, nothing else is held
        assert net.total_held() == 8
        for spot, port in [(NodeId(0, 0), E), (NodeId(1, 0), E), (NodeId(2, 0), E), (NodeId(3, 0), N)]:
            assert net.holders(spot, port) == {(flow, 0): 2}

    def test_corrupt_index_rejected(self):
        mesh, net, states = make_net()
        bee = BackwardBee(FlowId(NodeId(0, 0), 4), 0, PortList.from_ports([W]), 5, 1.0)
        with pytest.raises(ProtocolCorruptionError):
            handle_backward_bee(states[NodeId(0, 0)], bee, E, net)


class TestControl:
    def build_circuit(self, mesh, net, states, flow, forward_ports, bandwidth=1.0):
        forward = PortList.from_ports(forward_ports)
        dest = NodeId(0, 0)
        for port in forward:
            dest = mesh.neighbor(dest, port)
        bee = BackwardBee(flow, 0, forward.reverse_complement(), 1, bandwidth)
        node, outcome = deliver_backward_until_done(mesh, net, states, dest, bee)
        assert outcome.kind == "accepted"
        return forward

    def test_teardown_restores_three_hop_circuit(self):
        mesh, net, states = make_net()
        flow = FlowId(NodeId(0, 0), 0)
        forward = self.build_circuit(mesh, net, states, flow, [E, E, N], bandwidth=2.0)
        assert net.total_held() == 6
        teardown = ControlPacket(ControlKind.TEARDOWN, flow, 0, forward, 0)
        emissions = handle_control(states[NodeId(0, 0)], teardown, LOCAL, net)
        deliver_control_chain(mesh, net, states, NodeId(0, 0), emissions)
        assert net.total_held() == 0
        assert all(not st.flow_table for st in states.values())

    def test_zero_length_release_is_noop(self):
        mesh, net, states = make_net()
        pkt = ControlPacket(ControlKind.RELEASE, FlowId(NodeId(0, 0), 1), 0, PortList(), 0)
        before = net.residual_snapshot()
        assert handle_control(states[NodeId(1, 1)], pkt, E, net) == []
        assert net.residual_snapshot() == before

    def test_route_leaving_the_mesh_is_corruption(self):
        mesh, net, states = make_net()
        flow = FlowId(NodeId(0, 0), 3)
        pkt = ControlPacket(ControlKind.RELEASE, flow, 0, PortList.from_ports([W]), 0)
        with pytest.raises(ProtocolCorruptionError, match="control route of 0,0:3 leaves the mesh at 0,0"):
            handle_control(states[NodeId(0, 0)], pkt, E, net)

    def test_double_teardown_warns_but_survives(self, caplog):
        mesh, net, states = make_net()
        flow = FlowId(NodeId(0, 0), 2)
        forward = self.build_circuit(mesh, net, states, flow, [E, N])
        for round_no in range(2):
            teardown = ControlPacket(ControlKind.TEARDOWN, flow, 0, forward, 0)
            with caplog.at_level(logging.WARNING, logger="beenoc.router"):
                emissions = handle_control(states[NodeId(0, 0)], teardown, LOCAL, net)
                deliver_control_chain(mesh, net, states, NodeId(0, 0), emissions)
            if round_no == 1:
                assert any("no reservation" in rec.message for rec in caplog.records)
        assert net.total_held() == 0
