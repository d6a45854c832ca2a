import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beenoc import ConfigError, Mesh, NodeId
from beenoc.traffic import TrafficParams, generate_traffic, make_rng


def params(**overrides):
    defaults = dict(rate=0.01, duration=500)
    defaults.update(overrides)
    return TrafficParams(**defaults)


class TestGenerateTraffic:
    def test_rate_zero_gives_empty_list(self):
        assert generate_traffic(Mesh(4, 4), params(rate=0.0), make_rng(1)) == []

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            generate_traffic(Mesh(4, 4), params(rate=-1.0), make_rng(1))

    def test_empty_bandwidth_set_rejected(self):
        with pytest.raises(ConfigError):
            generate_traffic(Mesh(4, 4), params(bandwidth_values=()), make_rng(1))

    @pytest.mark.parametrize(
        "weights",
        [(1.0,), (1.0, 0.5, 0.5), (1.0, -0.5), (-1.0, 2.0), (1.0, float("nan")), (0.0, 0.0)],
        ids=["too-few", "too-many", "negative", "negative-first", "nan", "all-zero"],
    )
    def test_bad_bandwidth_weights_rejected_before_any_draw(self, weights):
        rng = make_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="bandwidth weights"):
            generate_traffic(Mesh(4, 4), params(bandwidth_values=(1.0, 2.0), bandwidth_weights=weights), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"hold_dist": "poisson"}, "hold-time distribution"),
            ({"hold_dist": "geometric", "hold_mean": 0.5}, "mean hold time"),
            ({"hold_mean": 0.0}, "mean hold time"),
            ({"hold_mean": float("inf")}, "mean hold time"),
            ({"hotspot_fraction": 1.5}, "hotspot fraction"),
            ({"hotspot_fraction": -0.1}, "hotspot fraction"),
            ({"pattern": "hotspot", "hotspot": NodeId(4, 0), "hotspot_fraction": 1.0}, "outside the mesh"),
            ({"pattern": "hotspot", "hotspot": NodeId(0, 7), "hotspot_fraction": 0.5}, "outside the mesh"),
        ],
        ids=["unknown-hold", "geometric-mean-below-1", "zero-mean", "infinite-mean", "fraction-above-1",
             "negative-fraction", "hotspot-off-mesh-all", "hotspot-off-mesh-half"],
    )
    def test_bad_params_rejected_before_any_draw(self, overrides, message):
        rng = make_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match=message):
            generate_traffic(Mesh(4, 4), params(**overrides), rng)
        assert rng.bit_generator.state == state

    def test_same_seed_same_flows(self):
        p = params(bandwidth_values=(1.0, 2.0), bandwidth_weights=(0.7, 0.3), hold_dist="geometric")
        first = generate_traffic(Mesh(4, 4), p, make_rng(99))
        second = generate_traffic(Mesh(4, 4), p, make_rng(99))
        assert first == second

    def test_different_seeds_differ(self):
        first = generate_traffic(Mesh(4, 4), params(), make_rng(1))
        second = generate_traffic(Mesh(4, 4), params(), make_rng(2))
        assert first != second

    def test_sorted_by_arrival_and_unique_ids(self):
        flows = generate_traffic(Mesh(4, 4), params(rate=0.05), make_rng(5))
        arrivals = [f.arrival_time for f in flows]
        assert arrivals == sorted(arrivals)
        assert len({f.flow for f in flows}) == len(flows)

    def test_flow_fields_within_spec(self):
        mesh = Mesh(4, 4)
        p = params(rate=0.05, bandwidth_values=(1.0, 2.5), bandwidth_weights=(0.5, 0.5))
        flows = generate_traffic(mesh, p, make_rng(6))
        assert flows
        for f in flows:
            assert mesh.contains(f.source) and mesh.contains(f.destination)
            assert f.source != f.destination
            assert f.required_bandwidth in (1.0, 2.5)
            assert f.hold_time >= 1
            assert 0 <= f.arrival_time <= p.duration + 1


class TestPatterns:
    def test_transpose_targets_mirror(self):
        flows = generate_traffic(Mesh(4, 4), params(rate=0.05, pattern="transpose"), make_rng(7))
        assert flows
        for f in flows:
            assert f.destination == NodeId(f.source.y, f.source.x)
            assert f.source.x != f.source.y  # the diagonal targets itself and is skipped
        from_1_2 = [f for f in flows if f.source == NodeId(1, 2)]
        assert from_1_2 and all(f.destination == NodeId(2, 1) for f in from_1_2)

    def test_transpose_needs_square_mesh(self):
        with pytest.raises(ConfigError):
            generate_traffic(Mesh(4, 3), params(pattern="transpose"), make_rng(1))

    def test_hotspot_bias(self):
        hotspot = NodeId(2, 2)
        p = params(rate=0.08, duration=1000, pattern="hotspot", hotspot=hotspot, hotspot_fraction=0.6)
        flows = generate_traffic(Mesh(4, 4), p, make_rng(8))
        hits = sum(1 for f in flows if f.destination == hotspot)
        assert flows and 0.4 < hits / len(flows) < 0.8

    def test_uniform_covers_destinations(self):
        flows = generate_traffic(Mesh(4, 4), params(rate=0.08, duration=1500), make_rng(9))
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
            clock += rng.exponential(1.0 / p.rate)
            if clock > p.duration:
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
    p = params(rate=0.05, duration=200, bandwidth_values=tuple(range(1, len(weights) + 1)), bandwidth_weights=tuple(weights))
    flows = generate_traffic(mesh, p, make_rng(seed))
    flows.sort(key=lambda f: (f.source.y, f.source.x, f.flow.sequence))
    assert [f.required_bandwidth for f in flows] == choice_bandwidths(mesh, p, seed)
