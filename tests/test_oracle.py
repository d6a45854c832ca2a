import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beenoc import (
    NON_LOCAL_PORTS,
    DegenerateFlowError,
    InvalidPathError,
    Mesh,
    Network,
    NodeId,
    PortDir,
    PortList,
    RunConfig,
    ScenarioOutcome,
    circuit_fits,
    single_flow_scenario,
    shortest_feasible_length,
    soundness_violation,
    walk,
)
from beenoc.topology import hop_budget
from beenoc.traffic import make_rng

S, W, E, N = PortDir.SOUTH, PortDir.WEST, PortDir.EAST, PortDir.NORTH


def idle_network(mesh, wire_count=8, wire_bandwidth=1.0):
    return Network(mesh, wire_count, wire_bandwidth)


def two_by_two_with(held_by_port):
    """A 2x2 network of four wires whose links out of (0,0) hold the given wires."""
    mesh = Mesh(2, 2)
    net = Network(mesh, 4, 1.0)
    for port, held in held_by_port.items():
        assert net.reserve(mesh.handle(NodeId(0, 0)), port, held)
    return net


def fitting_port_lists(net, src, dst, bandwidth, bound):
    """Every port list of 1 to `bound` entries that circuit_fits accepts on the
    network as it stands, by brute force over all 4 ** length lists."""
    free = list(net.free_by_slot)
    return [
        ports
        for length in range(1, bound + 1)
        for ports in itertools.product(NON_LOCAL_PORTS, repeat=length)
        if circuit_fits(net, free, src, dst, bandwidth, bound, PortList.from_ports(ports))
    ]


class TestEnumerateFeasible:
    """The feasible paths of a flow, as shortest_feasible_length and circuit_fits see them."""

    def test_two_by_two_has_exactly_two_paths(self):
        net = idle_network(Mesh(2, 2))
        assert fitting_port_lists(net, NodeId(0, 0), NodeId(1, 1), 1.0, 3) == [(E, N), (N, E)]
        assert shortest_feasible_length(net, NodeId(0, 0), NodeId(1, 1), 1.0, 4) == 2

    def test_degenerate_endpoints(self):
        net = idle_network(Mesh(2, 2))
        with pytest.raises(DegenerateFlowError):
            shortest_feasible_length(net, NodeId(0, 0), NodeId(0, 0), 1.0, 4)
        with pytest.raises(DegenerateFlowError):
            circuit_fits(net, net.free_by_slot, NodeId(0, 0), NodeId(0, 0), 1.0, 4, PortList())

    def test_saturated_source_cut_empty(self):
        net = two_by_two_with({E: 4, N: 4})
        assert shortest_feasible_length(net, NodeId(0, 0), NodeId(1, 1), 1.0, 4) is None
        assert fitting_port_lists(net, NodeId(0, 0), NodeId(1, 1), 1.0, 3) == []

    def test_residual_equal_to_demand_passes(self):
        net = two_by_two_with({E: 3, N: 4})
        assert shortest_feasible_length(net, NodeId(0, 0), NodeId(1, 1), 1.0, 4) == 2
        assert fitting_port_lists(net, NodeId(0, 0), NodeId(1, 1), 1.0, 3) == [(E, N)]
        assert shortest_feasible_length(net, NodeId(0, 0), NodeId(1, 1), 2.0, 4) is None

    def test_detour_beyond_manhattan(self):
        # (0,0)->E is full, so (1,0) is three hops away: north, east, south
        net = two_by_two_with({E: 4})
        assert shortest_feasible_length(net, NodeId(0, 0), NodeId(1, 0), 1.0, 3) == 3
        assert shortest_feasible_length(net, NodeId(0, 0), NodeId(1, 0), 1.0, 2) is None

    @pytest.mark.parametrize("bound", [-1, 2.5, 4.0, True, None])
    def test_bad_bound_refused(self, bound):
        net = idle_network(Mesh(3, 3))
        with pytest.raises(ValueError, match="hop bound must be a non-negative integer"):
            shortest_feasible_length(net, NodeId(0, 0), NodeId(2, 2), 1.0, bound)
        with pytest.raises(ValueError, match="hop bound must be a non-negative integer"):
            circuit_fits(net, net.free_by_slot, NodeId(0, 0), NodeId(2, 2), 1.0, bound, PortList())

    def test_zero_bound_finds_nothing(self):
        assert shortest_feasible_length(idle_network(Mesh(3, 3)), NodeId(0, 0), NodeId(2, 2), 1.0, 0) is None

    def test_non_finite_bandwidth_refused(self):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            shortest_feasible_length(idle_network(Mesh(3, 3)), NodeId(0, 0), NodeId(2, 2), float("inf"), 4)

    def test_paths_respect_bound_and_walk(self):
        # circuit_fits accepts a port list exactly when it walks, without
        # revisiting a node, from the source to the destination within the bound
        mesh = Mesh(3, 3)
        src, dst = NodeId(0, 0), NodeId(2, 1)
        bound = hop_budget(2, 1, "euclidean")
        accepted = fitting_port_lists(idle_network(mesh), src, dst, 1.0, bound)
        walked = []
        for length in range(1, bound + 1):
            for ports in itertools.product(NON_LOCAL_PORTS, repeat=length):
                try:
                    nodes = walk(PortList.from_ports(ports), src, mesh)
                except InvalidPathError:
                    continue
                if nodes[-1] == dst and len(set(nodes)) == len(nodes):
                    walked.append(ports)
        assert len(accepted) > 0
        assert accepted == walked
        assert min(map(len, accepted)) == shortest_feasible_length(idle_network(mesh), src, dst, 1.0, bound) == 3

    def test_any_mesh_size(self):
        mesh = Mesh(16, 16)
        src, dst = NodeId(0, 0), NodeId(15, 15)
        bound = hop_budget(15, 15, "euclidean")
        assert shortest_feasible_length(idle_network(mesh), src, dst, 1.0, bound) == 30

    def test_circuit_judged_on_the_given_free_counts(self):
        net = two_by_two_with({E: 3})
        src, dst = NodeId(0, 0), NodeId(1, 1)
        path = PortList.from_ports([E, N])
        assert circuit_fits(net, net.free_by_slot, src, dst, 1.0, 2, path)
        assert not circuit_fits(net, net.free_by_slot, src, dst, 2.0, 2, path)  # one wire free on (0,0)->E
        assert not circuit_fits(net, net.free_by_slot, src, dst, 1.0, 1, path)  # over the bound
        assert not circuit_fits(net, [0] * len(net.free_by_slot), src, dst, 1.0, 2, path)


def bitmask_paths(net, start, goal, wires, bound):
    """Every simple path start -> goal of at most `bound` hops whose links
    each have `wires` free wires, as port tuples: a depth-first search over a
    visited-node bitmask that reads the network only through free_wires and
    far_end, independently of the oracle."""
    paths = []

    def explore(node, visited, ports):
        if node == goal:
            paths.append(tuple(ports))
            return
        if len(ports) == bound:
            return
        for port in NON_LOCAL_PORTS:
            try:
                far = net.far_end(node, port)
            except InvalidPathError:  # no link on this side of the mesh
                continue
            if not visited >> far & 1 and net.free_wires(node, port) >= wires:
                explore(far, visited | 1 << far, ports + [port])

    explore(start, 1 << start, [])
    return paths


@st.composite
def loaded_feasibility_queries(draw):
    """A 2x2 to 4x4 network with random background reservations, two
    distinct endpoints, a wire demand and a hop bound."""
    mesh = Mesh(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    wire_count = draw(st.integers(1, 4))
    net = Network(mesh, wire_count, 1.0)
    for node, port in net.links:  # about half the links stay idle
        if held := draw(st.one_of(st.just(0), st.integers(0, wire_count))):
            assert net.reserve(node, port, held)
    src, dst = draw(st.lists(st.sampled_from(list(mesh.nodes())), min_size=2, max_size=2, unique=True))
    return net, src, dst, draw(st.integers(1, wire_count)), draw(st.integers(1, mesh.node_count))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(loaded_feasibility_queries())
def test_oracle_matches_a_bitmask_search(query):
    net, src, dst, wires, bound = query
    expected = bitmask_paths(net, net.mesh.handle(src), net.mesh.handle(dst), wires, bound)
    assert len(set(expected)) == len(expected)
    shortest = shortest_feasible_length(net, src, dst, float(wires), bound)
    assert shortest == min((len(path) for path in expected), default=None)
    free = list(net.free_by_slot)
    for path in expected:
        assert circuit_fits(net, free, src, dst, float(wires), bound, PortList.from_ports(path))
        # out and back along the first link, then the path: not simple, though
        # every link fits and the bound allows the two extra hops
        looped = PortList.from_ports([path[0], path[0].opposite(), *path])
        roomy = [net.wire_count] * len(free)
        assert circuit_fits(net, roomy, src, dst, float(wires), bound, PortList.from_ports(path))
        assert not circuit_fits(net, roomy, src, dst, float(wires), bound + 2, looped)
        # the same path once its first link has one wire too few
        blocked = list(free)
        blocked[4 * net.mesh.handle(src) + path[0]] = wires - 1
        assert not circuit_fits(net, blocked, src, dst, float(wires), bound, PortList.from_ports(path))


class TestScenarios:
    def test_each_breach_of_the_contract_is_named(self):
        ok = ScenarioOutcome(NodeId(0, 0), NodeId(1, 1), 1.0, True, 2, 2, True, True)
        assert soundness_violation(ok) is None
        assert soundness_violation(dataclasses.replace(ok, established=False, path_length=None, circuit_fits=None)) == (
            "setup failed although a shortest feasible path sets up in time")
        assert soundness_violation(dataclasses.replace(ok, shortest_in_time=False)) == (
            "established although no feasible path sets up in time")
        assert soundness_violation(dataclasses.replace(ok, circuit_fits=False)) == (
            "established circuit does not fit the network before the run")
        assert soundness_violation(dataclasses.replace(ok, path_length=3)) == (
            "established path is longer than the shortest feasible path")
        failed = ScenarioOutcome(NodeId(0, 0), NodeId(1, 1), 1.0, False, None, None, False, None)
        assert soundness_violation(failed) is None

    def test_idle_scenarios_sound(self):
        cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0, wire_count=4)
        rng = make_rng(17)
        mesh = Mesh(4, 4)
        established = 0
        for _ in range(25):
            outcome = single_flow_scenario(cfg, rng, saturate=False)
            assert soundness_violation(outcome) is None
            if outcome.established:
                established += 1
                assert outcome.path_length == mesh.manhattan(outcome.source, outcome.destination)
        assert established > 0

    def test_saturated_scenarios_sound(self):
        cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0, wire_count=4)
        rng = make_rng(19)
        checked = 0
        for _ in range(25):
            outcome = single_flow_scenario(cfg, rng, saturate=True)
            assert soundness_violation(outcome) is None
            if outcome.established:
                checked += 1
                assert outcome.circuit_fits
                assert outcome.path_length == outcome.min_feasible_length
        assert checked > 0
