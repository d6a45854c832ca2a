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
    PortDir,
    PortList,
    ProtocolCorruptionError,
    handle_backward_bee,
    handle_control,
    handle_forward_bee,
)

from flood_step import flood, flood_sim, tree_of

S, W, E, N, LOCAL = PortDir.SOUTH, PortDir.WEST, PortDir.EAST, PortDir.NORTH, PortDir.LOCAL


def make_net(width=3, height=3, wire_count=8, wire_bandwidth=1.0):
    mesh = Mesh(width, height)
    return mesh, Network(mesh, wire_count, wire_bandwidth)


def at(mesh, x, y):
    """Handle of node (x, y)."""
    return mesh.handle(NodeId(x, y))


def make_bee(flow, dst, ports=(), bandwidth=1.0):
    lst = PortList.from_ports(ports)
    return ForwardBee(flow, dst, bandwidth, lst)


def deliver_backward_until_done(mesh, net, dest, bee, wires, won=False):
    """Walk a backward bee of a flow demanding `wires` wires hop by hop from
    its birth at `dest`, the flow having `won` its circuit or not; returns
    the final (node, outcome)."""
    port = bee.route.entry(0)
    node = mesh.neighbor(dest, port)
    arrival = port.opposite()
    while True:
        outcome = handle_backward_bee(mesh.handle(node), bee, arrival, net, wires, won)
        if outcome.kind != "forwarded":
            return node, outcome
        port, bee = outcome.emissions[0]
        node = mesh.neighbor(node, port)
        arrival = port.opposite()


def deliver_control_chain(mesh, net, origin, emissions):
    """Deliver the control packet emitted at `origin` until its route runs out."""
    node = origin
    while emissions:
        ((port, pkt),) = emissions
        node = mesh.neighbor(node, port)
        emissions = handle_control(mesh.handle(node), pkt, port.opposite(), net)


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
        sim.network.reserve(at(sim.mesh, 1, 1), E, ("bg", 0), 4)  # saturate the east link
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
            emissions = handle_forward_bee(count, make_bee(flow, dest, path), 3)
            if count < 3:
                assert len(emissions) == 1
                port, back = emissions[0]
                assert isinstance(back, BackwardBee)
                assert back.bee_index == count
                assert back.route == PortList.from_ports(path).reverse_complement()
                assert port is back.route.entry(0)
                assert back.next_index == 1
                backward.append(back)
            else:
                assert emissions == []
        assert len(backward) == 3

    def test_destination_cap_one(self):
        flow = FlowId(NodeId(0, 0), 5)
        dest = NodeId(2, 2)
        first = make_bee(flow, dest, [E, E, N, N])
        second = make_bee(flow, dest, [N, N, E, E])
        assert len(handle_forward_bee(0, first, convert_cap=1)) == 1
        assert handle_forward_bee(1, second, convert_cap=1) == []

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
        assert sim.network.reserve(at(sim.mesh, 1, 1), N, ("bg", 0), 3)
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
        route = PortList.from_ports([E]).reverse_complement()  # forward east -> route west
        bee = BackwardBee(flow, 0, route, 1)
        node, outcome = deliver_backward_until_done(mesh, net, NodeId(1, 0), bee, net.wires_for(2.5))
        assert node == NodeId(0, 0)
        assert outcome.kind == "accepted"
        # the source holds the data-direction first hop: 3 wires of 8, under the bee's key
        assert net.free_wires(at(mesh, 0, 0), E) == 5
        assert net.holders(at(mesh, 0, 0), E) == {(flow, 0): 3}
        # once the flow has won, a sibling reaching the source loses the race
        sibling = BackwardBee(flow, 1, route, 1)
        node, outcome = deliver_backward_until_done(mesh, net, NodeId(1, 0), sibling, 3, won=True)
        assert node == NodeId(0, 0) and outcome.kind == "aborted" and outcome.emissions == []
        assert net.holders(at(mesh, 0, 0), E) == {(flow, 0): 3}

    def test_multi_hop_reserves_data_path(self):
        mesh, net = make_net()
        flow = FlowId(NodeId(0, 0), 1)
        forward = PortList.from_ports([E, N])
        bee = BackwardBee(flow, 0, forward.reverse_complement(), 1)
        node, outcome = deliver_backward_until_done(mesh, net, NodeId(1, 1), bee, 1)
        assert outcome.kind == "accepted"
        # exactly the links a source->destination walk would use
        assert net.holders(at(mesh, 0, 0), E) == {(flow, 0): 1}
        assert net.holders(at(mesh, 1, 0), N) == {(flow, 0): 1}
        assert net.total_held() == 2

    def test_reservation_failure_releases_prefix(self):
        mesh, net = make_net(wire_count=4)
        flow = FlowId(NodeId(0, 0), 2)
        forward = PortList.from_ports([E, E])
        net.reserve(at(mesh, 0, 0), E, ("bg", 0), 4)  # the final reservation will fail
        bee = BackwardBee(flow, 0, forward.reverse_complement(), 1)
        node, outcome = deliver_backward_until_done(mesh, net, NodeId(2, 0), bee, 2)
        assert node == NodeId(0, 0)
        assert outcome.kind == "aborted"
        assert len(outcome.emissions) == 1
        deliver_control_chain(mesh, net, node, outcome.emissions)
        # only the background reservation survives; no link holds the bee's key
        assert net.total_held() == 4
        assert net.holders(at(mesh, 1, 0), E) == {}
        assert all((flow, 0) not in net.holders(*link) for link in net.links)

    def test_failure_with_empty_prefix_emits_nothing(self):
        mesh, net = make_net(wire_count=4)
        flow = FlowId(NodeId(0, 0), 3)
        net.reserve(at(mesh, 1, 0), E, ("bg", 0), 4)
        bee = BackwardBee(flow, 0, PortList.from_ports([E, E]).reverse_complement(), 1)
        outcome = handle_backward_bee(at(mesh, 1, 0), bee, E, net, 2, False)
        assert outcome.kind == "aborted"
        assert outcome.emissions == []
        assert net.total_held() == 4

    def test_losing_sibling_releases_only_its_own_wires(self):
        # two sibling bees whose routes share the 1,0 -> 2,0 data link; the
        # loser's release must leave the winner's wires in place
        mesh, net = make_net(width=4, height=2, wire_count=4)
        flow = FlowId(NodeId(0, 0), 0)
        route1 = PortList.from_ports([E, E, E, N]).reverse_complement()  # S W W W
        route2 = PortList.from_ports([E, E, N, E]).reverse_complement()  # W S W W
        bee1 = BackwardBee(flow, 0, route1, 1)
        bee2 = BackwardBee(flow, 1, route2, 1)
        _, first = deliver_backward_until_done(mesh, net, NodeId(3, 1), bee1, 2)
        assert first.kind == "accepted"
        node, second = deliver_backward_until_done(mesh, net, NodeId(3, 1), bee2, 2, won=True)
        assert second.kind == "aborted"
        assert net.holders(at(mesh, 1, 0), E) == {(flow, 0): 2, (flow, 1): 2}  # both held pre-release
        deliver_control_chain(mesh, net, node, second.emissions)
        assert net.holders(at(mesh, 1, 0), E) == {(flow, 0): 2}
        # the winner's four-link circuit is intact, nothing else is held
        assert net.total_held() == 8
        for spot, port in [((0, 0), E), ((1, 0), E), ((2, 0), E), ((3, 0), N)]:
            assert net.holders(at(mesh, *spot), port) == {(flow, 0): 2}

    def test_corrupt_index_rejected(self):
        mesh, net = make_net()
        bee = BackwardBee(FlowId(NodeId(0, 0), 4), 0, PortList.from_ports([W]), 5)
        with pytest.raises(ProtocolCorruptionError):
            handle_backward_bee(at(mesh, 0, 0), bee, E, net, 1, False)


class TestControl:
    def build_circuit(self, mesh, net, flow, forward_ports, wires=1):
        forward = PortList.from_ports(forward_ports)
        dest = NodeId(0, 0)
        for port in forward:
            dest = mesh.neighbor(dest, port)
        bee = BackwardBee(flow, 0, forward.reverse_complement(), 1)
        node, outcome = deliver_backward_until_done(mesh, net, dest, bee, wires)
        assert outcome.kind == "accepted"
        return forward

    def test_teardown_restores_three_hop_circuit(self):
        mesh, net = make_net()
        flow = FlowId(NodeId(0, 0), 0)
        forward = self.build_circuit(mesh, net, flow, [E, E, N], wires=2)
        assert net.total_held() == 6
        teardown = ControlPacket(ControlKind.TEARDOWN, flow, 0, forward, 0)
        emissions = handle_control(at(mesh, 0, 0), teardown, LOCAL, net)
        deliver_control_chain(mesh, net, NodeId(0, 0), emissions)
        assert net.total_held() == 0
        assert all(not net.holders(*link) for link in net.links)

    def test_zero_length_release_is_noop(self):
        mesh, net = make_net()
        pkt = ControlPacket(ControlKind.RELEASE, FlowId(NodeId(0, 0), 1), 0, PortList(), 0)
        before = {link: net.free_wires(*link) for link in net.links}
        assert handle_control(at(mesh, 1, 1), pkt, E, net) == []
        assert {link: net.free_wires(*link) for link in net.links} == before

    def test_route_leaving_the_mesh_is_corruption(self):
        mesh, net = make_net()
        flow = FlowId(NodeId(0, 0), 3)
        pkt = ControlPacket(ControlKind.RELEASE, flow, 0, PortList.from_ports([W]), 0)
        with pytest.raises(ProtocolCorruptionError, match="control route of 0,0:3 leaves the mesh at 0,0"):
            handle_control(at(mesh, 0, 0), pkt, E, net)

    def test_double_teardown_warns_but_survives(self, caplog):
        mesh, net = make_net()
        flow = FlowId(NodeId(0, 0), 2)
        forward = self.build_circuit(mesh, net, flow, [E, N])
        for round_no in range(2):
            teardown = ControlPacket(ControlKind.TEARDOWN, flow, 0, forward, 0)
            with caplog.at_level(logging.WARNING, logger="beenoc.router"):
                emissions = handle_control(at(mesh, 0, 0), teardown, LOCAL, net)
                deliver_control_chain(mesh, net, NodeId(0, 0), emissions)
            if round_no == 1:
                assert any("no reservation" in rec.message for rec in caplog.records)
        assert net.total_held() == 0
