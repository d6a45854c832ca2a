"""Property test over small random configurations.

Each drawn config is run twice from scratch. The outputs must be
byte-identical, every flow must end settled, and every established circuit
must be a real source-to-destination path within the flow's hop budget.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from beenoc import (
    Mesh,
    RunConfig,
    Simulator,
    generate_traffic,
    make_rng,
    traffic_params_from_config,
    validate_config,
    walk,
    write_report,
)

OUTPUT_FILES = ("flows.csv", "summary.csv", "trace.tsv")

configs = st.builds(
    RunConfig,
    mesh_width=st.integers(2, 5),
    mesh_height=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    wire_count=st.integers(1, 6),
    wire_bandwidth=st.sampled_from([0.5, 1.0]),
    t_hop=st.integers(1, 2),
    hop_limit_metric=st.sampled_from(["euclidean", "manhattan"]),
    backward_bee_count=st.integers(1, 3),
    trace=st.just(True),
    traffic_rate=st.sampled_from([0.01, 0.05, 0.1]),
    traffic_duration=st.integers(1, 40),
    bandwidth_values=st.just((0.5, 1.0, 2.0)),
    bandwidth_weights=st.just((1.0, 1.0, 1.0)),
    hold_time_dist=st.sampled_from(["fixed", "geometric"]),
    hold_time_mean=st.sampled_from([1.0, 5.0, 20.0]),
)


def run_once(cfg):
    mesh = Mesh(cfg.mesh_width, cfg.mesh_height)
    sim = Simulator(cfg, generate_traffic(mesh, traffic_params_from_config(cfg), make_rng(cfg.seed)))
    report = sim.run()
    with tempfile.TemporaryDirectory() as out:
        write_report(report, out)
        files = {name: (Path(out) / name).read_bytes() for name in OUTPUT_FILES}
    return sim, files


@settings(derandomize=True, max_examples=150, deadline=None)
@given(configs)
def test_random_configs_are_deterministic_and_settle(cfg):
    validate_config(cfg)
    sim, first = run_once(cfg)
    _, second = run_once(cfg)
    assert first == second

    for rec in sim.records.values():
        assert rec.phase.value in ("TornDown", "Failed")
        if not rec.ever_established:
            continue
        spec = rec.spec
        nodes = walk(rec.winner_route.reverse_complement(), spec.source, sim.mesh)
        assert nodes[0] == spec.source and nodes[-1] == spec.destination
        assert len(nodes) - 1 == rec.path_length <= rec.hop_limit
