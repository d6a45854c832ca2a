"""The benchmark's layer tracer still fits the package.

`bench/tracing.py` wraps the router handlers and reads their arguments and
results to split setup latency into discovery and reservation. It is
imported here as it stands and run over the contended churn golden, so a
router or engine signature it no longer fits fails the suite, not only the
traced benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from beenoc import Mesh, RunConfig, Simulator, write_report
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
    write_report(simulator(RunConfig(**GOLDEN["churn4x4"][0]))[0].run(), tmp_path / "plain")
    wrapped, plain = ((tmp_path / d / "flows.csv").read_bytes() for d in ("wrapped", "plain"))
    assert wrapped == plain
