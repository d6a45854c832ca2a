"""Property tests over small random configurations.

Each drawn config is run twice from scratch. The outputs must be
byte-identical, every flow must end settled, and every established circuit
must be a real source-to-destination path within the flow's hop budget.
An untraced run, which does not schedule duplicate forward-bee deliveries,
must report what the traced run of the same config reports, on generated
traffic as well as on a few flows drawn one by one.
"""

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from beenoc import (
    FlowId,
    FlowSpec,
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
    # Drawn from short lists rather than ranges, whose small end hypothesis
    # favours: most runs then offer several flows that overlap in time.
    traffic_rate=st.sampled_from([0.05, 0.1, 0.2]),
    traffic_duration=st.sampled_from([10, 20, 30]),
    bandwidth_values=st.just((0.5, 1.0, 2.0)),
    bandwidth_weights=st.just((1.0, 1.0, 1.0)),
    hold_time_dist=st.sampled_from(["fixed", "geometric"]),
    hold_time_mean=st.sampled_from([1.0, 5.0, 20.0]),
)


def written(report):
    """The files write_report makes of `report`, by name."""
    with tempfile.TemporaryDirectory() as out:
        write_report(report, out)
        return {path.name: path.read_bytes() for path in Path(out).iterdir()}


def run_once(cfg):
    mesh = Mesh(cfg.mesh_width, cfg.mesh_height)
    sim = Simulator(cfg, generate_traffic(mesh, traffic_params_from_config(cfg), make_rng(cfg.seed)))
    return sim, written(sim.run())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(configs)
def test_random_configs_are_deterministic_and_settle(cfg):
    validate_config(cfg)
    sim, first = run_once(cfg)
    _, second = run_once(cfg)
    assert set(first) == {"flows.csv", "summary.csv", "trace.tsv"}
    assert first == second

    for rec in sim.records.values():
        assert rec.phase.value in ("TornDown", "Failed")
        if not rec.ever_established:
            continue
        spec = rec.spec
        nodes = walk(rec.winner_route.reverse_complement(), spec.source, sim.mesh)
        assert nodes[0] == spec.source and nodes[-1] == spec.destination
        assert len(nodes) - 1 == rec.path_length <= rec.hop_limit


@st.composite
def walled_runs(draw):
    """A config cut at a drawn max_cycles, its flows, and a set of their
    destinations whose incoming links are full before the run. The flows are
    either the config's generated traffic, which contends for wires in most
    draws, or up to four drawn one by one. A flood that cannot reach its
    destination ends in a wave of duplicates, which an untraced run does not
    schedule."""
    cfg = draw(configs)
    cfg = dataclasses.replace(
        cfg,
        mesh_width=draw(st.integers(3, 5)),
        mesh_height=draw(st.integers(3, 5)),
        max_cycles=draw(st.one_of(st.integers(1, 60), st.just(RunConfig.max_cycles))),
    )
    mesh = Mesh(cfg.mesh_width, cfg.mesh_height)
    if draw(st.booleans()):
        workload = generate_traffic(mesh, traffic_params_from_config(cfg), make_rng(cfg.seed))
    else:
        ends = st.lists(st.sampled_from(list(mesh.nodes())), min_size=2, max_size=2, unique=True)
        workload = []
        for seq, (source, destination) in enumerate(draw(st.lists(ends, min_size=1, max_size=4))):
            flow = FlowId(source, seq)
            workload.append(
                FlowSpec(
                    flow,
                    destination,
                    draw(st.sampled_from([0.5, 1.0, 2.0])),
                    draw(st.integers(0, 20)),
                    draw(st.integers(1, 20)),
                )
            )
    destinations = sorted({spec.destination for spec in workload})
    walled = draw(st.sets(st.sampled_from(destinations), min_size=1, max_size=3)) if destinations else set()
    return cfg, workload, walled


def run_walled(cfg, workload, walled):
    sim = Simulator(cfg, workload)
    net = sim.network
    for node, port in net.links:
        if net.far_end(node, port) in walled:
            assert net.reserve(node, port, ("background", 0), cfg.wire_count * cfg.wire_bandwidth)
    report = sim.run()
    return report, written(report)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(walled_runs())
def test_untraced_run_reports_what_the_traced_run_does(run):
    cfg, workload, walled = run
    validate_config(cfg)
    traced, traced_files = run_walled(cfg, workload, walled)
    plain, plain_files = run_walled(dataclasses.replace(cfg, trace=False), workload, walled)
    del traced_files["trace.tsv"]
    assert plain_files == traced_files
    assert plain.stats == traced.stats
