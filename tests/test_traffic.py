import ast
import graphlib
import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beenoc
from beenoc import ConfigError, FlowId, FlowSpec, Mesh, NodeId, RunConfig
from beenoc.traffic import bounded_draws, generate_traffic, make_rng, traffic_params_from_config


def params(**overrides):
    defaults = dict(mesh_width=4, mesh_height=4, seed=0, traffic_rate=0.01, traffic_duration=500)
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestGenerateTraffic:
    def test_rate_zero_refused_when_built(self):
        with pytest.raises(ConfigError, match="key 'traffic_rate'"):
            params(traffic_rate=0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            generate_traffic(Mesh(4, 4), params(traffic_rate=-1.0), make_rng(1))

    def test_empty_bandwidth_set_rejected(self):
        with pytest.raises(ConfigError):
            generate_traffic(Mesh(4, 4), params(bandwidth_values=()), make_rng(1))

    @pytest.mark.parametrize(
        "weights,message",
        [((1.0,), "bandwidth weights"), ((1.0, 0.5, 0.5), "bandwidth weights"), ((1.0, -0.5), "bandwidth weights"),
         ((-1.0, 2.0), "bandwidth weights"), ((1.0, float("nan")), "key 'bandwidth_weights': must be finite"),
         ((0.0, 0.0), "bandwidth weights")],
        ids=["too-few", "too-many", "negative", "negative-first", "nan", "all-zero"],
    )
    def test_bad_bandwidth_weights_rejected_before_any_draw(self, weights, message):
        rng = make_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match=message):
            generate_traffic(Mesh(4, 4), params(bandwidth_values=(1.0, 2.0), bandwidth_weights=weights), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"hold_time_dist": "poisson"}, "hold-time distribution"),
            ({"hold_time_dist": "geometric", "hold_time_mean": 0.5}, "mean hold time"),
            ({"hold_time_mean": 0.0}, "mean hold time"),
            ({"hold_time_mean": float("inf")}, "key 'hold_time_mean': must be finite"),
            ({"hotspot_fraction": 1.5}, "hotspot fraction"),
            ({"hotspot_fraction": -0.1}, "hotspot fraction"),
            ({"traffic_pattern": "hotspot", "hotspot_node": (4, 0), "hotspot_fraction": 1.0}, "outside the mesh"),
            ({"traffic_pattern": "hotspot", "hotspot_node": (0, 7), "hotspot_fraction": 0.5}, "outside the mesh"),
            ({"bandwidth_values": (1.0, -2.0), "bandwidth_weights": (0.5, 0.5)}, "bandwidth values"),
            ({"bandwidth_values": (0.0,)}, "bandwidth values"),
            ({"bandwidth_values": (float("inf"),)}, "key 'bandwidth_values': must be finite"),
            ({"bandwidth_values": (2.0, float("nan")), "bandwidth_weights": (0.5, 0.5)},
             "key 'bandwidth_values': must be finite"),
            ({"traffic_duration": float("nan")}, "key 'traffic_duration': must be an integer"),
            ({"traffic_duration": float("inf")}, "key 'traffic_duration': must be an integer"),
            ({"traffic_rate": 0.0, "bandwidth_weights": (-1.0,)}, "key 'traffic_rate': must be positive"),
            ({"hotspot_node": (9, 9)}, "outside the mesh"),
            ({"mesh_width": 5}, "key 'mesh_width'"),
            ({"mesh_height": 3}, "key 'mesh_height'"),
        ],
        ids=["unknown-hold", "geometric-mean-below-1", "zero-mean", "infinite-mean", "fraction-above-1",
             "negative-fraction", "hotspot-off-mesh-all", "hotspot-off-mesh-half", "negative-bandwidth",
             "zero-bandwidth", "infinite-bandwidth", "nan-bandwidth", "nan-duration", "infinite-duration",
             "negative-weight-at-rate-zero", "hotspot-off-mesh-uniform", "other-mesh-width", "other-mesh-height"],
    )
    def test_bad_params_rejected_before_any_draw(self, overrides, message):
        rng = make_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match=message):
            generate_traffic(Mesh(4, 4), params(**overrides), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "key,overrides",
        [
            ("traffic_rate", {"traffic_rate": -1.0}),
            ("traffic_pattern", {"traffic_pattern": "zigzag"}),
            ("traffic_pattern", {"traffic_pattern": "transpose", "mesh_height": 3}),
            ("hotspot_node", {"hotspot_node": (4, 0)}),
            ("hotspot_node", {"hotspot_node": (0, -1)}),
            ("hotspot_fraction", {"hotspot_fraction": 1.5}),
            ("hotspot_fraction", {"hotspot_fraction": -0.1}),
            ("bandwidth_values", {"bandwidth_values": ()}),
            ("bandwidth_values", {"bandwidth_values": (0.0,)}),
            ("bandwidth_values", {"bandwidth_values": (float("inf"),)}),
            ("bandwidth_weights", {"bandwidth_weights": (1.0, 1.0)}),
            ("bandwidth_weights", {"bandwidth_weights": (-1.0,)}),
            ("bandwidth_weights", {"bandwidth_weights": (float("nan"),)}),
            ("bandwidth_weights", {"bandwidth_weights": (0.0,)}),
            ("hold_time_dist", {"hold_time_dist": "poisson"}),
            ("hold_time_mean", {"hold_time_mean": 0.5}),
            ("hold_time_mean", {"hold_time_mean": float("inf")}),
            ("bandwidth_values", {"bandwidth_values": [1.0, 2.0]}),
            ("bandwidth_values", {"bandwidth_values": "1.0"}),
            ("hotspot_node", {"hotspot_node": (1, 2, 3)}),
            ("hotspot_node", {"hotspot_node": (1.5, 0)}),
        ],
        ids=["negative-rate", "unknown-pattern", "transpose-not-square", "hotspot-x-off-mesh",
             "hotspot-y-off-mesh", "fraction-above-1", "negative-fraction", "no-bandwidths", "zero-bandwidth",
             "infinite-bandwidth", "weights-too-many", "negative-weight", "nan-weight", "all-zero-weights",
             "unknown-hold", "mean-below-1", "infinite-mean", "bandwidths-in-a-list", "bandwidths-in-a-string",
             "hotspot-triple", "hotspot-fractional"],
    )
    def test_config_and_generator_refuse_alike(self, key, overrides):
        # the config refuses the value when built, so generate_traffic never gets it
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            RunConfig(**{"mesh_width": 4, "mesh_height": 4, "seed": 1, **overrides})

    @pytest.mark.parametrize("rate,duration", [(0.005, 1000), (0.02, 300)])
    def test_config_defaults_are_the_param_defaults(self, rate, duration):
        # RunConfig is the one copy of the traffic defaults; the bench's wrapper hands it on as is
        cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0, traffic_rate=rate, traffic_duration=duration)
        assert traffic_params_from_config(cfg) is cfg

    def test_same_seed_same_flows(self):
        p = params(bandwidth_values=(1.0, 2.0), bandwidth_weights=(0.7, 0.3), hold_time_dist="geometric")
        first = generate_traffic(Mesh(4, 4), p, make_rng(99))
        second = generate_traffic(Mesh(4, 4), p, make_rng(99))
        assert first == second

    def test_different_seeds_differ(self):
        first = generate_traffic(Mesh(4, 4), params(), make_rng(1))
        second = generate_traffic(Mesh(4, 4), params(), make_rng(2))
        assert first != second

    def test_sorted_by_arrival_and_unique_ids(self):
        flows = generate_traffic(Mesh(4, 4), params(traffic_rate=0.05), make_rng(5))
        arrivals = [f.arrival_time for f in flows]
        assert arrivals == sorted(arrivals)
        assert len({f.flow for f in flows}) == len(flows)

    def test_flow_fields_within_spec(self):
        mesh = Mesh(4, 4)
        p = params(traffic_rate=0.05, bandwidth_values=(1.0, 2.5), bandwidth_weights=(0.5, 0.5))
        flows = generate_traffic(mesh, p, make_rng(6))
        assert flows
        for f in flows:
            assert mesh.contains(f.source) and mesh.contains(f.destination)
            assert f.source != f.destination
            assert f.required_bandwidth in (1.0, 2.5)
            assert f.hold_time >= 1
            assert 0 <= f.arrival_time <= p.traffic_duration + 1


class TestPatterns:
    def test_transpose_targets_mirror(self):
        flows = generate_traffic(Mesh(4, 4), params(traffic_rate=0.05, traffic_pattern="transpose"), make_rng(7))
        assert flows
        for f in flows:
            assert f.destination == NodeId(f.source.y, f.source.x)
            assert f.source.x != f.source.y  # the diagonal targets itself and is skipped
        from_1_2 = [f for f in flows if f.source == NodeId(1, 2)]
        assert from_1_2 and all(f.destination == NodeId(2, 1) for f in from_1_2)

    def test_transpose_needs_square_mesh(self):
        with pytest.raises(ConfigError):
            generate_traffic(Mesh(4, 3), params(mesh_height=3, traffic_pattern="transpose"), make_rng(1))

    def test_hotspot_bias(self):
        hotspot = NodeId(2, 2)
        p = params(traffic_rate=0.08, traffic_duration=1000, traffic_pattern="hotspot", hotspot_node=hotspot,
                   hotspot_fraction=0.6)
        flows = generate_traffic(Mesh(4, 4), p, make_rng(8))
        hits = sum(1 for f in flows if f.destination == hotspot)
        assert flows and 0.4 < hits / len(flows) < 0.8

    def test_uniform_covers_destinations(self):
        flows = generate_traffic(Mesh(4, 4), params(traffic_rate=0.08, traffic_duration=1500), make_rng(9))
        destinations = {f.destination for f in flows}
        assert len(destinations) == 16  # every node is someone's destination


def choice_bandwidths(mesh, p, seed):
    """The bandwidths of a uniform, fixed-hold generation in generation order,
    replaying its stream with `Generator.choice(n, p=...)` for each bandwidth
    draw: per flow an inter-arrival gap, a destination, then the bandwidth."""
    rng = make_rng(seed)
    weights = np.asarray(p.bandwidth_weights, dtype=float)
    weights = weights / weights.sum()
    bandwidths = []
    for _ in mesh.nodes():
        clock = 0.0
        while True:
            clock += rng.exponential(1.0 / p.traffic_rate)
            if clock > p.traffic_duration:
                break
            rng.integers(0, mesh.node_count - 1)
            bandwidths.append(p.bandwidth_values[int(rng.choice(len(weights), p=weights))])
    return bandwidths


weight_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.integers(1, 9).map(float)), min_size=1, max_size=7
).filter(lambda weights: sum(weights) > 0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(weight_vectors, st.integers(0, 2**32))
def test_bandwidth_draw_is_generator_choice(weights, seed):
    # the same seed gives the same bandwidth sequence as drawing each one
    # with Generator.choice, zero weights included
    mesh = Mesh(3, 3)
    p = params(mesh_width=3, mesh_height=3, traffic_rate=0.05, traffic_duration=200,
               bandwidth_values=tuple(range(1, len(weights) + 1)), bandwidth_weights=tuple(weights))
    flows = generate_traffic(mesh, p, make_rng(seed))
    flows.sort(key=lambda f: (f.source.y, f.source.x, f.flow.sequence))
    assert [f.required_bandwidth for f in flows] == choice_bandwidths(mesh, p, seed)


# The full stream of each pattern and hold rule, pinned: every draw, its
# order and its arguments decide these bytes. Mesh, rate and bandwidth set
# are fixed; changing any of them needs new digests. The mean hold is 37.4,
# except in the last case: at a mean of 3, p = 1/3, numpy draws a geometric
# hold by search instead of by inversion.
STREAM_CASES = {
    ("uniform", "fixed", 37.4):
        "1f68869206e3d52f4dbb7071375a43be034e45f04ff5f1c8caab838abcdf6f37",
    ("uniform", "geometric", 37.4):
        "4124afbbdcf336db2e9306c56b74b1a0eec8c930becdd301635fc29a5eb89f64",
    ("hotspot", "fixed", 37.4):
        "c0200894c0cdbf91184a795b941b855d397af152398c529d089eee9dac47e39b",
    ("hotspot", "geometric", 37.4):
        "8b1b2c519ef07f5294d7a1f9792f64e4c33f72b823247049a582b683dc323a7d",
    ("transpose", "fixed", 37.4):
        "c6ce0959e53ad71823e1317c7f4cb0d82661e6b5d6ce25c32ac8e8072c8d9e33",
    ("transpose", "geometric", 37.4):
        "78a474750d3c23d5c7e82de54ffc5616a436164626ddd8b0d8bb67cea3a153e0",
    ("uniform", "geometric", 3.0):
        "93c57358f6ace835c10e125d0b499c798dd04059d338357d98b2f40daa1a9094",
}


def stream_digest(flows) -> str:
    lines = (
        repr((f.flow.source.x, f.flow.source.y, f.flow.sequence, f.destination.x, f.destination.y,
              f.required_bandwidth, f.arrival_time, f.hold_time))
        for f in flows
    )
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


@pytest.mark.parametrize(
    "pattern,hold_dist,hold_mean",
    [pytest.param(*case, id="-".join(case[:2]) + ("" if case[2] == 37.4 else f"-mean-{case[2]:g}"))
     for case in sorted(STREAM_CASES)],
)
def test_traffic_stream_digest(pattern, hold_dist, hold_mean):
    hotspot = NodeId(1, 2)
    p = params(
        mesh_width=5,
        mesh_height=5,
        traffic_rate=0.03,
        traffic_duration=400,
        traffic_pattern=pattern,
        hotspot_node=hotspot,
        hotspot_fraction=0.3,
        bandwidth_values=(1.0, 2.0, 3.5),
        bandwidth_weights=(0.5, 0.3, 0.2),
        hold_time_dist=hold_dist,
        hold_time_mean=hold_mean,
    )
    flows = generate_traffic(Mesh(5, 5), p, make_rng(2024))
    assert len(flows) > 200
    if pattern == "hotspot":  # the hotspot's own flows draw uniformly, without the biased draw
        assert any(f.source == hotspot for f in flows)
    assert stream_digest(flows) == STREAM_CASES[pattern, hold_dist, hold_mean]


def reference_traffic(mesh, p, rng):
    """The flow list drawn from `rng` with Generator.exponential, integers,
    random and geometric, each called as the distribution it samples, and
    built with the validating FlowSpec constructor."""
    nodes = [NodeId(x, y) for y in range(mesh.height) for x in range(mesh.width)]
    weights = np.asarray(p.bandwidth_weights, dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    flows = []
    for src in nodes:
        if p.traffic_pattern == "transpose" and src.x == src.y:
            continue
        biased = p.traffic_pattern == "hotspot" and src != p.hotspot_node
        others = [n for n in nodes if n != src and not (biased and n == p.hotspot_node)]
        clock, sequence = 0.0, 0
        while True:
            clock += rng.exponential(1.0 / p.traffic_rate)
            if clock > p.traffic_duration:
                break
            if p.traffic_pattern == "transpose":
                destination = NodeId(src.y, src.x)
            elif biased and rng.random() < p.hotspot_fraction:
                destination = p.hotspot_node
            else:
                destination = others[int(rng.integers(0, len(others)))]
            bandwidth = p.bandwidth_values[int(np.searchsorted(cdf, rng.random(), side="right"))]
            if p.hold_time_dist == "geometric":
                hold = int(rng.geometric(1.0 / p.hold_time_mean))
            else:
                hold = max(1, round(p.hold_time_mean))
            flows.append(FlowSpec(FlowId(src, sequence), destination, bandwidth, math.ceil(clock), hold))
            sequence += 1
    flows.sort(key=lambda f: f.arrival_time)
    return flows


hold_means = st.one_of(
    st.floats(1.0, 3.0),
    st.floats(3.0, 1e4),
    st.sampled_from((3.0, math.nextafter(3.0, 0.0), math.nextafter(3.0, 4.0), 1e300)),
)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.floats(0.002, 0.15),
    hold_means,
    st.sampled_from(("uniform", "hotspot", "transpose")),
    st.sampled_from(("fixed", "geometric")),
    st.integers(2, 6),
    st.integers(2, 6),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.booleans(),
)
def test_stream_matches_direct_numpy_calls(seed, rate, hold_mean, pattern, hold_dist, width, height, hotspot,
                                           buffered):
    # the same flows, FlowSpec for FlowSpec, and the same end state as
    # drawing each value with the numpy sampler of its distribution: mean
    # holds on both sides of 3 and beyond 2**57, meshes from 2x2 (whose
    # hotspot draw has the smallest range, 2) to 6x6, and a stream that
    # starts with a buffered 32-bit half
    height = width if pattern == "transpose" else height
    mesh = Mesh(width, height)
    p = params(mesh_width=width, mesh_height=height, traffic_rate=rate, traffic_duration=150,
               traffic_pattern=pattern, hotspot_node=NodeId(hotspot[0] % width, hotspot[1] % height),
               hotspot_fraction=0.4, bandwidth_values=(1.0, 2.0, 3.0), bandwidth_weights=(0.5, 0.3, 0.2),
               hold_time_dist=hold_dist, hold_time_mean=hold_mean)
    ours, numpys = make_rng(seed), make_rng(seed)
    if buffered:  # both start with a buffered 32-bit half
        ours.integers(0, 7)
        numpys.integers(0, 7)
    flows = generate_traffic(mesh, p, ours)
    assert flows == reference_traffic(mesh, p, numpys)
    assert ours.bit_generator.state == numpys.bit_generator.state
    assert all(type(f) is FlowSpec and type(f.flow) is FlowId for f in flows)


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("n", [1, 2, 3, 15, 255, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32])
def test_bounded_draws_are_generator_integers(n, buffered):
    # draw(n) gives int(Generator.integers(0, n)) and leaves the same state,
    # uniform draws between (they take whole words and leave the buffered
    # half alone); only the large n run Lemire's rejection loop
    ours, numpys = make_rng(n), make_rng(n)
    if buffered:  # both start with a buffered 32-bit half
        ours.integers(0, 7)
        numpys.integers(0, 7)
    values, expected = [], []
    with bounded_draws(ours, n) as draw:
        for i in range(5000):
            values.append(draw(n))
            if i % 3 == 0:
                ours.random()
    for i in range(5000):
        expected.append(int(numpys.integers(0, n)))
        if i % 3 == 0:
            numpys.random()
    assert values == expected
    assert ours.bit_generator.state == numpys.bit_generator.state


def test_bounded_draws_refuse_what_numpy_draws_otherwise_and_store_the_buffer_on_error():
    # numpy draws a range beyond 2**32 by 64-bit Lemire and MT19937's 32-bit
    # words with no buffered half, so bounded_draws refuses both; an error
    # inside the block still stores the buffer
    rng = make_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"to 2\*\*32 of 64-bit words, not 4294967297 of PCG64$"):
        with bounded_draws(rng, 2**32 + 1):
            pass
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="not 15 of MT19937$"):
        with bounded_draws(np.random.Generator(np.random.MT19937(3)), 15):
            pass
    reference = make_rng(3)
    with pytest.raises(KeyError):
        with bounded_draws(rng, 15) as draw:
            assert draw(15) == int(reference.integers(0, 15))
            raise KeyError("interrupted")
    assert rng.bit_generator.state == reference.bit_generator.state


class ZeroHoldStream(np.random.Generator):
    """A PCG64 generator whose standard exponentials alternate 1.0 and
    0.0: a flow's gap, then its inverted geometric hold."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))
        self.next_exponential = 1.0

    def standard_exponential(self):
        value, self.next_exponential = self.next_exponential, 1.0 - self.next_exponential
        return value


def test_zero_geometric_hold_raises_flowspec_error():
    # ceil(-0.0 / log1p(-p)) is 0, as numpy's own inversion would give;
    # generate_traffic refuses it with FlowSpec's message
    with pytest.raises(ValueError) as refused:
        FlowSpec(FlowId(NodeId(0, 0), 0), NodeId(1, 0), 1.0, 10, 0)
    p = params(traffic_rate=0.1, hold_time_dist="geometric", hold_time_mean=40.0)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        generate_traffic(Mesh(4, 4), p, ZeroHoldStream())


def test_package_imports_form_layers():
    # Each module imports at its top only, and the package's relative imports,
    # wherever written, form no cycle: the workload layer needs nothing from the engine.
    nested, graph = [], {}
    for path in sorted(Path(beenoc.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(func)):
                    nested.append(f"{path.stem}.{func.name}")
        graph[path.stem] = {
            target
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for target in ([node.module] if node.module else [alias.name for alias in node.names])
        }
    cycle = None
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        cycle = exc.args[1]
    assert (nested, cycle) == ([], None)


# Tests that patch a package name on purpose: the one that counts validate_config
# calls, and the one that makes run_simulation raise to reach the CLI's error path.
PATCHING_TESTS = ("test_validated_once_when_built_and_never_again", "test_invariant_violation_exit_3")


def package_patches(tests: Path) -> list[str]:
    """file:line of each place outside PATCHING_TESTS where a test under
    `tests` sets an attribute of a beenoc module or class: an assignment to
    or deletion of one, setattr, monkeypatch.setattr or mock.patch.object on
    one, or a patch of a "beenoc..." name."""
    found = []
    for path in sorted(tests.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        package = set()  # names bound to beenoc modules and to what they export
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "beenoc":
                package.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                package.update(
                    alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name.split(".")[0] == "beenoc"
                )
        exempt = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name in PATCHING_TESTS
            for node in ast.walk(func)
        }

        def of_package(expr) -> bool:
            while isinstance(expr, ast.Attribute):
                expr = expr.value
            if isinstance(expr, ast.Constant):
                return isinstance(expr.value, str) and expr.value.split(".")[0] == "beenoc"
            return isinstance(expr, ast.Name) and expr.id in package

        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
                elements = [t for target in targets for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
                hit = any(isinstance(t, ast.Attribute) and of_package(t.value) for t in elements)
            elif isinstance(node, ast.Call) and node.args:
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                hit = name in ("setattr", "object", "patch", "delattr") and of_package(node.args[0])
            else:
                hit = False
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_test_patches_a_package_module_or_class():
    # Tests observe a run through its report, its trace events and public
    # objects, and may patch an instance, but not the package's names.
    assert package_patches(Path(__file__).parent) == []
