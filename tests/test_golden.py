"""Byte-for-byte golden outputs of three small runs.

A behaviour-neutral change must leave flows.csv, summary.csv and trace.tsv
identical. The first two digests were recorded before the event record was
reworked, the third before forward bees stopped carrying a port list per
hop; the kind checks make sure the goldens exercise every event kind and
every packet kind, so an identical digest means something. An untraced run
skips the forward-bee deliveries it can count in advance, so it must still
write the traced run's flows.csv and summary.csv.
"""

import hashlib

import pytest

from beenoc import Mesh, RunConfig, Simulator, run_simulation, write_report
from beenoc.traffic import generate_traffic, make_rng

GOLDEN = {
    # Contended 4x4 churn: mixed 1-3 wire demands, geometric holds.
    "churn4x4": (
        dict(
            mesh_width=4,
            mesh_height=4,
            seed=7,
            wire_count=4,
            traffic_rate=0.05,
            traffic_duration=200,
            bandwidth_values=(1.0, 2.0, 3.0),
            bandwidth_weights=(0.5, 0.3, 0.2),
            hold_time_dist="geometric",
            hold_time_mean=40.0,
        ),
        {
            "flows.csv": "58818187b18d6cc1db9b3f680786fedc6195f64fbfd3f7513418fec9d8d1ab19",
            "summary.csv": "db4ccbef61cb26a3079b917ec0372f77a12d1d8192fb04111fd356718dad1d94",
            "trace.tsv": "ae3d63d177279eeab2efd168ad718e2c1bd11e0d03ebb8bcb0fed5899b096a86",
        },
    ),
    # 5x5 hotspot with fractional wires, t_hop 2, one backward bee, a
    # Manhattan hop budget and a short setup timeout.
    "hotspot5x5": (
        dict(
            mesh_width=5,
            mesh_height=5,
            seed=11,
            wire_count=3,
            wire_bandwidth=0.5,
            t_hop=2,
            setup_timeout_factor=2.0,
            hop_limit_metric="manhattan",
            backward_bee_count=1,
            traffic_rate=0.02,
            traffic_duration=200,
            traffic_pattern="hotspot",
            hotspot_node=(2, 2),
            hotspot_fraction=0.3,
            bandwidth_values=(0.5, 1.0),
            bandwidth_weights=(0.7, 0.3),
        ),
        {
            "flows.csv": "96e424d355c4f323b407b6924c85aa3e72be50488a9347ed193945a09706fbc1",
            "summary.csv": "fd38d2e3d0b07c3ae1ca378295ccdce8b2502c7db74f2b43340aa7945b5e3345",
            "trace.tsv": "b65a82307e99eccc6e137b3174bc087f44d97d644f4cf66ee002295f7e5a9b01",
        },
    ),
    # 6x6 with t_hop 3 cut off at cycle 250 while flows still flood: pins
    # hop counts derived from the clock, the last cycle at which an untraced
    # run elides duplicate forward bees, and truncation.
    "cutoff6x6": (
        dict(
            mesh_width=6,
            mesh_height=6,
            seed=3,
            wire_count=2,
            t_hop=3,
            max_cycles=250,
            traffic_rate=0.02,
            traffic_duration=240,
            bandwidth_values=(1.0, 2.0),
            bandwidth_weights=(0.6, 0.4),
            hold_time_mean=60.0,
        ),
        {
            "flows.csv": "95018467c454747ab6217fa325956425c61e57ffdc2a6a206396fe7501602ae0",
            "summary.csv": "8f3c47808a031b5a2cc815e39ae0d640043f41a8d8f69e33adfcb05160409510",
            "trace.tsv": "7280a4ea5c6700367aed1cd268737f5598dba3c83bbef573d6b373f22454e367",
        },
    ),
}


def _digests(tmp_path, names):
    return {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in names}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden(name, tmp_path):
    overrides, digests = GOLDEN[name]
    write_report(run_simulation(RunConfig(**overrides, trace=True)), tmp_path)
    assert _digests(tmp_path, digests) == digests

    rows = [line.split("\t") for line in (tmp_path / "trace.tsv").read_text().splitlines()]
    assert {row[1] for row in rows} == {"arrival", "deliver", "complete", "timeout"}
    assert {row[4] for row in rows if row[1] == "deliver"} == {"forward", "backward", "teardown", "release"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_untraced_outputs_match_golden(name, tmp_path):
    overrides, digests = GOLDEN[name]
    write_report(run_simulation(RunConfig(**overrides)), tmp_path)
    csvs = ("flows.csv", "summary.csv")
    assert _digests(tmp_path, csvs) == {f: digests[f] for f in csvs}
    assert not (tmp_path / "trace.tsv").exists()


def test_each_link_write_is_drained_once():
    # reserve() and release() end by checking the link they wrote, once,
    # and nothing else checks: not run(), not a refused reservation. Writes
    # are successful reservations and releases.
    cfg = RunConfig(**GOLDEN["churn4x4"][0])
    mesh = Mesh(cfg.mesh_width, cfg.mesh_height)
    sim = Simulator(cfg, generate_traffic(mesh, cfg, make_rng(cfg.seed)))
    net, calls, refused = sim.network, [], []
    reserve, release, drain_dirty = net.reserve, net.release, net.drain_dirty

    def reserving(node, port, *args):
        calls.append(("write", 4 * node + port))
        if not (ok := reserve(node, port, *args)):
            refused.append(calls.pop())
        return ok

    def releasing(node, port, *args):
        calls.append(("write", 4 * node + port))
        return release(node, port, *args)

    def checking(index):
        calls.append(("check", index))
        drain_dirty(index)

    net.reserve, net.release, net.drain_dirty = reserving, releasing, checking
    report = sim.run()
    slots = [slot for _, slot in calls[::2]]
    assert report.summary.failed > 0 and report.summary.torn_down > 0 and slots and refused
    assert calls == [call for slot in slots for call in (("write", slot), ("check", slot))]
