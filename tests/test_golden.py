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

from beenoc import ControlPacket, Mesh, PortList, RunConfig, Simulator, run_simulation, write_report
from beenoc.traffic import generate_traffic, make_rng, traffic_params_from_config

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


def test_routes_are_reversed_at_most_once_per_control_packet(monkeypatch):
    # The destination reads each backward route off its tree in order, and
    # a release or teardown takes its route from the bee's forward path, so
    # the contended churn golden reverse-complements no more port lists
    # than it sends control packets.
    reversals = 0
    reverse_complement = PortList.reverse_complement

    def counting(ports):
        nonlocal reversals
        reversals += 1
        return reverse_complement(ports)

    sent = {}  # id -> every control packet sent, kept alive so that ids stay distinct
    transit = Simulator.transit

    def recording(sim, origin, port, packet):
        if type(packet) is ControlPacket:
            sent[id(packet)] = packet
        transit(sim, origin, port, packet)

    monkeypatch.setattr(PortList, "reverse_complement", counting)
    monkeypatch.setattr(Simulator, "transit", recording)
    report = run_simulation(RunConfig(**GOLDEN["churn4x4"][0]))
    assert report.summary.torn_down > 0 and report.stats.control_deliveries > 0
    assert {pkt.kind.value for pkt in sent.values()} == {"release", "teardown"}
    assert reversals <= len(sent)


def test_each_link_write_is_drained_once():
    # A handler checks the link it wrote right after writing it, and only
    # then: a backward bee that reserves nothing and a control packet at the
    # end of its route do not drain. Writes are successful reservations and
    # releases; run() first checks the load placed before it, here none.
    cfg = RunConfig(**GOLDEN["churn4x4"][0])
    mesh = Mesh(cfg.mesh_width, cfg.mesh_height)
    sim = Simulator(cfg, generate_traffic(mesh, traffic_params_from_config(cfg), make_rng(cfg.seed)))
    net, calls = sim.network, []
    reserve, release, drain_dirty = net.reserve, net.release, net.drain_dirty

    def reserving(*args):
        if ok := reserve(*args):
            calls.append("write")
        return ok

    def releasing(*args):
        calls.append("write")
        return release(*args)

    def draining():
        calls.append("drain")
        drain_dirty()

    net.reserve, net.release, net.drain_dirty = reserving, releasing, draining
    report = sim.run()
    writes = calls.count("write")
    assert report.summary.failed > 0 and report.summary.torn_down > 0 and writes > 0
    assert calls.count("drain") == writes + 1
    assert calls == ["drain"] + ["write", "drain"] * writes
