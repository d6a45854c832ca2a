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
    OracleSizeError,
    PortDir,
    PortList,
    RunConfig,
    enumerate_feasible,
    single_flow_scenario,
    soundness_violation,
    walk,
)
from beenoc.traffic import make_rng

S, W, E, N = PortDir.SOUTH, PortDir.WEST, PortDir.EAST, PortDir.NORTH


def idle_network(mesh, wire_count=8, wire_bandwidth=1.0):
    return Network(mesh, wire_count, wire_bandwidth)


class TestEnumerateFeasible:
    def test_two_by_two_has_exactly_two_paths(self):
        mesh = Mesh(2, 2)
        feasible = enumerate_feasible(idle_network(mesh), NodeId(0, 0), NodeId(1, 1), 1.0, 4)
        assert [list(p) for p in feasible.paths] == [[E, N], [N, E]]
        assert feasible.min_length() == 2

    def test_degenerate_endpoints(self):
        mesh = Mesh(2, 2)
        with pytest.raises(DegenerateFlowError):
            enumerate_feasible(idle_network(mesh), NodeId(0, 0), NodeId(0, 0), 1.0, 4)

    def test_saturated_source_cut_empty(self):
        mesh = Mesh(2, 2)
        net = Network(mesh, 4, 1.0)
        net.reserve(mesh.handle(NodeId(0, 0)), E, ("bg", 0), 4)
        net.reserve(mesh.handle(NodeId(0, 0)), N, ("bg", 1), 4)
        feasible = enumerate_feasible(net, NodeId(0, 0), NodeId(1, 1), 1.0, 4)
        assert len(feasible) == 0

    def test_residual_equal_to_demand_passes(self):
        mesh = Mesh(2, 2)
        net = Network(mesh, 4, 1.0)
        net.reserve(mesh.handle(NodeId(0, 0)), E, ("bg", 0), 3)
        feasible = enumerate_feasible(net, NodeId(0, 0), NodeId(1, 1), 1.0, 4)
        assert PortList.from_ports([E, N]) in feasible

    def test_size_guard(self):
        mesh = Mesh(6, 6)
        with pytest.raises(OracleSizeError):
            enumerate_feasible(idle_network(mesh), NodeId(0, 0), NodeId(5, 5), 1.0, 13)
        # small bound keeps a big mesh tractable, small mesh allows big bounds
        enumerate_feasible(idle_network(mesh), NodeId(0, 0), NodeId(1, 1), 1.0, 3)
        small = Mesh(5, 5)
        enumerate_feasible(idle_network(small), NodeId(0, 0), NodeId(4, 4), 1.0, 14)

    def test_paths_respect_bound_and_walk(self):
        mesh = Mesh(3, 3)
        src, dst = NodeId(0, 0), NodeId(2, 1)
        bound = mesh.hop_limit(src, dst)
        feasible = enumerate_feasible(idle_network(mesh), src, dst, 1.0, bound)
        assert len(feasible) > 0
        for path in feasible.paths:
            assert path.length <= bound
            nodes = walk(path, src, mesh)
            assert nodes[-1] == dst
            assert len(set(nodes)) == len(nodes)  # simple

    def test_deterministic_lexicographic_order(self):
        mesh = Mesh(3, 3)
        first = enumerate_feasible(idle_network(mesh), NodeId(0, 0), NodeId(2, 2), 1.0, 6)
        second = enumerate_feasible(idle_network(mesh), NodeId(0, 0), NodeId(2, 2), 1.0, 6)
        assert first.paths == second.paths
        codes = [tuple(p.entry(i).code for i in range(p.length)) for p in first.paths]
        assert codes == sorted(codes)


def bitmask_paths(net, start, goal, wires, bound):
    """Every simple path start -> goal of at most `bound` hops whose links
    each have `wires` free wires, as port tuples: a depth-first search over a
    visited-node bitmask that reads the network only through free_wires and
    far_end, independently of enumerate_feasible."""
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
            assert net.reserve(node, port, ("bg", 0), held)
    src, dst = draw(st.lists(st.sampled_from(list(mesh.nodes())), min_size=2, max_size=2, unique=True))
    return net, src, dst, draw(st.integers(1, wire_count)), draw(st.integers(1, mesh.node_count))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(loaded_feasibility_queries())
def test_enumerate_feasible_matches_a_bitmask_search(query):
    net, src, dst, wires, bound = query
    feasible = enumerate_feasible(net, src, dst, float(wires), bound)
    expected = bitmask_paths(net, net.mesh.handle(src), net.mesh.handle(dst), wires, bound)
    assert len(set(expected)) == len(expected)
    assert sorted(tuple(path) for path in feasible.paths) == sorted(expected)


class TestScenarios:
    def test_idle_scenarios_sound(self):
        cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0, wire_count=4)
        rng = make_rng(17)
        established = 0
        for _ in range(25):
            outcome = single_flow_scenario(cfg, rng, saturate=False)
            assert soundness_violation(outcome) is None
            if outcome.established:
                established += 1
                assert outcome.path_length == outcome.manhattan
        assert established > 0

    def test_saturated_scenarios_sound(self):
        cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0, wire_count=4)
        rng = make_rng(19)
        checked_membership = 0
        for _ in range(25):
            outcome = single_flow_scenario(cfg, rng, saturate=True)
            assert soundness_violation(outcome) is None
            if outcome.established:
                checked_membership += 1
                assert outcome.path_in_feasible
        assert checked_membership > 0
