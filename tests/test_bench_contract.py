"""The benchmark's layer tracer still fits the package.

`bench/tracing.py` wraps the router handlers from `beenoc.router` and reads
their arguments and results to split setup latency into discovery and
reservation. It is imported here as it stands and run over the contended
churn golden, so a router or engine signature it no longer fits fails the
suite, not only the traced benchmark. The engine decides a backward bee's
race loss and its flow's settlement before it calls the router, so every
router call for a backward bee makes one reservation, and every control hop
frees the flow's wires on one link, which `Network.release` returns.
"""

import importlib.util
from pathlib import Path

import pytest

from beenoc import FlowId, FlowSpec, Mesh, NodeId, RunConfig, Simulator, write_report
from beenoc.traffic import generate_traffic, make_rng, traffic_params_from_config

from test_golden import GOLDEN

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def simulator(cfg):
    flows = generate_traffic(Mesh(cfg.mesh_width, cfg.mesh_height), traffic_params_from_config(cfg), make_rng(cfg.seed))
    return Simulator(cfg, flows), flows


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_layer_tracer_runs_the_churn_golden(trace, tmp_path):
    cfg = RunConfig(**GOLDEN["churn4x4"][0], trace=trace)
    tracer = load_tracing().LayerTracer()
    sim, flows = simulator(cfg)
    # run() raises unless discovery + reservation is every established flow's setup latency
    write_report(tracer.run(sim, flows), tmp_path / "wrapped")
    assert len(tracer.discovery_cycles) == len(tracer.reservation_cycles) > 0
    for name in ("router.forward", "router.backward", "router.control"):
        assert tracer.calls[name][0] > 0, name
    assert tracer.calls["router.backward"][0] == tracer.calls["topology.reserve"][0]
    write_report(simulator(RunConfig(**GOLDEN["churn4x4"][0]))[0].run(), tmp_path / "plain")
    wrapped, plain = ((tmp_path / d / "flows.csv").read_bytes() for d in ("wrapped", "plain"))
    assert wrapped == plain


def test_setup_latency_splits_at_the_winners_emission():
    # Setup latency is discovery, until the destination emits the winning
    # bee, plus reservation, the winner's path_length hops: a backward bee
    # never waits. Each link write is checked once, inside the writer.
    cfg = RunConfig(**GOLDEN["churn4x4"][0])
    tracer = load_tracing().LayerTracer()
    report = tracer.run(*simulator(cfg))
    established = [row for row in report.flows if row.ever_established]
    assert established
    assert sorted(tracer.reservation_cycles) == sorted(row.path_length * cfg.t_hop for row in established)
    assert sorted(tracer.discovery_cycles) == sorted(
        row.setup_latency - row.path_length * cfg.t_hop for row in established
    )
    checks = tracer.calls["topology.drain_dirty"][0]
    assert checks == tracer.reserve_ok + tracer.calls["topology.release"][0] > 0
    # The tracer counts a release that returns 0 as empty. In a drained run
    # every reservation is freed exactly once, by a release that returns the
    # wires it freed.
    assert report.stats.drained
    assert tracer.release_empty == 0
    assert tracer.calls["topology.release"][0] == tracer.reserve_ok
    assert tracer.live_reservations_peak > 0


@pytest.mark.parametrize("t_hop", [1, 2])
def test_idle_mesh_setup_is_twice_the_manhattan_distance(t_hop):
    # criterion 6: on an idle mesh discovery and reservation each take manhattan * t_hop
    cfg = RunConfig(mesh_width=4, mesh_height=4, seed=1, t_hop=t_hop)
    flows = [FlowSpec(FlowId(NodeId(0, 3), 0), NodeId(3, 1), 1.0, 0, 20)]
    tracer = load_tracing().LayerTracer()
    (row,) = tracer.run(Simulator(cfg, flows), flows).flows
    assert row.manhattan == row.path_length == 5
    assert row.setup_latency == 2 * row.manhattan * t_hop
    assert tracer.discovery_cycles == tracer.reservation_cycles == [row.manhattan * t_hop]
