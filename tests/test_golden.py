"""Byte-for-byte golden outputs of two small traced runs.

A behaviour-neutral change must leave flows.csv, summary.csv and trace.tsv
identical. The digests below were recorded before the event record was
reworked; the kind checks make sure the goldens exercise every event kind
and every packet kind, so an identical digest means something.
"""

import hashlib

import pytest

from beenoc import RunConfig, run_simulation, write_report

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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden(name, tmp_path):
    overrides, digests = GOLDEN[name]
    write_report(run_simulation(RunConfig(**overrides, trace=True)), tmp_path)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests}
    assert got == digests

    rows = [line.split("\t") for line in (tmp_path / "trace.tsv").read_text().splitlines()]
    assert {row[1] for row in rows} == {"arrival", "deliver", "complete", "timeout"}
    assert {row[4] for row in rows if row[1] == "deliver"} == {"forward", "backward", "teardown", "release"}
