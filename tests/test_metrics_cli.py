import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beenoc import (
    ConfigError,
    FlowId,
    FlowSpec,
    Mesh,
    NodeId,
    RunConfig,
    Simulator,
    echo_lines,
    generate_traffic,
    make_rng,
    parse_config,
    run_simulation,
    validate_config,
    write_report,
)
from beenoc import config as config_module
from beenoc.cli import cli_main
from beenoc.config import _format_value
from beenoc.errors import InvariantViolationError
from beenoc.metrics import (
    FLOWS_HEADER,
    SUMMARY_HEADER,
    FlowRow,
    RunStats,
    build_report,
    flow_row_line,
    nearest_rank_percentile,
)

MINIMAL = "mesh_width = 4\nmesh_height = 4\nseed = 7\n"
ROOT = Path(__file__).resolve().parent.parent

# A valid value off its default for every RunConfig field but the required
# keys and workload_file, and, written out, the traffic keys a workload file excludes.
OFF_DEFAULT = {
    "wire_count": 4, "wire_bandwidth": 2.0, "t_hop": 2, "setup_timeout_factor": 2.0,
    "hop_limit_metric": "manhattan", "backward_bee_count": 2, "max_cycles": 500, "trace": True,
    "traffic_rate": 0.01, "traffic_duration": 500, "traffic_pattern": "hotspot", "hotspot_node": (1, 1),
    "hotspot_fraction": 0.5, "bandwidth_values": (2.0,), "bandwidth_weights": (2.0,),
    "hold_time_dist": "geometric", "hold_time_mean": 50.0,
}
TRAFFIC_KEYS = ("traffic_rate", "traffic_duration", "traffic_pattern", "hotspot_node", "hotspot_fraction",
                "bandwidth_values", "bandwidth_weights", "hold_time_dist", "hold_time_mean")


class TestParseConfig:
    def test_minimal_applies_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mesh_width == 4 and cfg.seed == 7
        assert cfg.wire_count == 8
        assert cfg.backward_bee_count == 3
        assert cfg.traffic_rate == 0.005 and cfg.workload_file is None

    def test_a_parsed_config_equals_the_one_built_in_code(self):
        assert parse_config(MINIMAL) == RunConfig(mesh_width=4, mesh_height=4, seed=7)

    def test_defaults_are_echoed(self):
        cfg = parse_config(MINIMAL + "t_hop = 2\nwire_count = 8\n")
        lines = echo_lines(cfg)
        joined = "\n".join(lines)
        assert "t_hop = 2" in joined and "t_hop = 2  (default)" not in joined
        assert "seed = 7" in lines
        # a value equal to its default is marked, whether or not the file sets it
        assert "wire_count = 8  (default)" in lines and "backward_bee_count = 3  (default)" in lines
        assert sum(line.endswith("  (default)") for line in lines) == len(lines) - 4

    def test_echo_parses_back_to_the_same_config(self):
        cfg = parse_config(MINIMAL + "t_hop = 2\nbandwidth_values = 1.0,2.5\nbandwidth_weights = 0.5,0.5\n")
        assert cfg.workload_file is None
        echoed = "\n".join(line.removesuffix("  (default)") for line in echo_lines(cfg))
        assert "workload_file = none" in echoed.splitlines()
        assert parse_config(echoed) == cfg

    def test_comments_and_blanks_ok(self):
        cfg = parse_config("# header\n\n" + MINIMAL)
        assert cfg.mesh_width == 4

    @pytest.mark.parametrize(
        "extra,fragment",
        [
            ("backward_bee_count = 4\n", "backward_bee_count"),
            ("backward_bee_count = 0\n", "backward_bee_count"),
            ("wire_bandwidth = 0\n", "wire_bandwidth"),
            ("bogus = 1\n", "unknown key"),
            ("t_hop = fast\n", "t_hop"),
            ("hop_limit_metric = chebyshev\n", "hop_limit_metric"),
            ("hotspot_node = 9,9\n", "hotspot_node"),
            ("traffic_rate = 0\n", "traffic_rate"),
            ("bandwidth_values = 1.0,2.0\nbandwidth_weights = 1.0\n", "bandwidth_weights"),
            ("traffic_rate = inf\n", "key 'traffic_rate': must be finite"),
            ("setup_timeout_factor = inf\n", "key 'setup_timeout_factor': must be finite"),
            ("wire_bandwidth = nan\n", "key 'wire_bandwidth': must be finite"),
            ("hold_time_mean = nan\n", "key 'hold_time_mean': must be finite"),
            ("bandwidth_values = 1,2\nbandwidth_weights = 1,nan\n", "key 'bandwidth_weights': must be finite"),
            ("bandwidth_values = 1,2\nbandwidth_weights = 1e308,1e308\n", "key 'bandwidth_weights': .* finite sum"),
        ],
    )
    def test_bad_values(self, extra, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(MINIMAL + extra)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "wire_bandwidth",
            "setup_timeout_factor",
            "traffic_rate",
            "hotspot_fraction",
            "hold_time_mean",
            "bandwidth_values",
            "bandwidth_weights",
        ],
    )
    def test_code_built_non_finite_rejected(self, key, bad):
        # library callers build RunConfig directly and never go through parse_config
        overrides = dict(bandwidth_values=(1.0, 2.0), bandwidth_weights=(1.0, 1.0))
        overrides[key] = (1.0, bad) if key.startswith("bandwidth_") else bad
        with pytest.raises(ConfigError, match=f"key '{key}': must be finite"):
            RunConfig(mesh_width=4, mesh_height=4, seed=1, **overrides)

    @pytest.mark.parametrize(
        "key,bad,message",
        [
            ("mesh_width", 4.5, "must be an integer"),
            ("mesh_height", 4.0, "must be an integer"),
            ("seed", True, "must be an integer"),
            ("wire_count", 2.5, "must be an integer"),
            ("t_hop", 1.5, "must be an integer"),
            ("backward_bee_count", 2.0, "must be an integer"),
            ("max_cycles", 1e6, "must be an integer"),
            ("traffic_duration", 100.0, "must be an integer"),
            ("hotspot_node", (0, 0, 0), "must be a pair of integers"),
            ("hotspot_node", (0.0, 1), "must be a pair of integers"),
            ("hotspot_node", (False, 1), "must be a pair of integers"),
        ],
    )
    def test_code_built_non_integer_rejected(self, key, bad, message):
        # parse_config only ever produces ints; RunConfig built in code can hold anything
        fields = dict(mesh_width=4, mesh_height=4, seed=1)
        fields[key] = bad
        with pytest.raises(ConfigError, match=f"key '{key}': {message}"):
            validate_config(RunConfig(**fields))

    def test_code_built_int_a_float_does_not_hold_rejected(self):
        with pytest.raises(ConfigError, match="key 'traffic_rate': an int for a float key must be one a float holds"):
            RunConfig(mesh_width=4, mesh_height=4, seed=1, traffic_rate=2**64 + 1)
        with pytest.raises(ConfigError, match="key 'bandwidth_values': an int for a float key"):
            RunConfig(mesh_width=4, mesh_height=4, seed=1, bandwidth_values=(1, 2**53 + 1), bandwidth_weights=(1, 1))
        assert RunConfig(mesh_width=4, mesh_height=4, seed=1, hold_time_mean=2**64).hold_time_mean == 2**64

    def test_offered_load_beyond_the_flow_bound_rejected(self):
        # generate_traffic would draw about 2e300 arrivals per node and never end
        with pytest.raises(ConfigError, match="key 'traffic_rate': .* expects over 1000000 flows"):
            RunConfig(mesh_width=4, mesh_height=4, seed=1, traffic_rate=1e300, traffic_duration=2)
        with pytest.raises(ConfigError, match="key 'traffic_rate'"):  # compared exactly, not in floats
            RunConfig(mesh_width=4, mesh_height=4, seed=1, traffic_rate=5e-324, traffic_duration=10**400)
        assert RunConfig(mesh_width=4, mesh_height=4, seed=1, traffic_rate=1.0, traffic_duration=62_500)
        with pytest.raises(ConfigError, match="key 'traffic_rate'"):
            RunConfig(mesh_width=4, mesh_height=4, seed=1, traffic_rate=1.0, traffic_duration=62_501)

    def test_validated_once_when_built_and_never_again(self, tmp_path, monkeypatch):
        calls = []
        real = config_module.validate_config
        monkeypatch.setattr(config_module, "validate_config", lambda cfg: calls.append(cfg) or real(cfg))
        cfg = parse_config(MINIMAL + "traffic_rate = 0.01\ntraffic_duration = 100\n")
        assert len(calls) == 1
        Simulator(cfg, generate_traffic(Mesh(4, 4), cfg, make_rng(cfg.seed)))
        run_simulation(cfg)
        assert len(calls) == 1
        path = write_config(tmp_path, MINIMAL + "traffic_rate = 0.01\ntraffic_duration = 100\n")
        calls.clear()
        assert cli_main(["run", "--config", path, "--seed", "5", "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 2  # the parse, then the seed override's dataclasses.replace

    def test_duplicate_key_names_line(self):
        with pytest.raises(ConfigError, match="line 4: duplicate key 'seed'"):
            parse_config(MINIMAL + "seed = 9\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key 'seed'"):
            parse_config("mesh_width = 4\nmesh_height = 4\n")

    def test_small_mesh_rejected(self):
        with pytest.raises(ConfigError, match="mesh_width"):
            parse_config("mesh_width = 1\nmesh_height = 4\nseed = 1\n")

    def test_workload_conflicts_with_traffic_keys(self):
        with pytest.raises(ConfigError, match="conflicts with workload_file"):
            parse_config(MINIMAL + "workload_file = flows.txt\ntraffic_rate = 0.1\n")

    def test_code_built_workload_conflicts_with_a_traffic_key_off_its_default(self):
        with pytest.raises(ConfigError, match="key 'traffic_rate': conflicts with workload_file"):
            RunConfig(mesh_width=4, mesh_height=4, seed=1, workload_file="w.txt", traffic_rate=0.1)
        with pytest.raises(ConfigError, match="key 'hold_time_mean': conflicts with workload_file"):
            dataclasses.replace(RunConfig(mesh_width=4, mesh_height=4, seed=1, hold_time_mean=50.0), workload_file="w.txt")

    @pytest.mark.parametrize("key", sorted(OFF_DEFAULT))
    def test_workload_conflicts_with_exactly_the_traffic_keys(self, key):
        optional = {f.name for f in dataclasses.fields(RunConfig)} - {"mesh_width", "mesh_height", "seed"}
        assert set(OFF_DEFAULT) == optional - {"workload_file"}
        assert OFF_DEFAULT[key] != getattr(RunConfig, key)
        kwargs = dict(mesh_width=4, mesh_height=4, seed=1, workload_file="w.txt", **{key: OFF_DEFAULT[key]})
        if key in TRAFFIC_KEYS:
            with pytest.raises(ConfigError, match=f"key '{key}': conflicts with workload_file"):
                RunConfig(**kwargs)
        else:
            assert getattr(RunConfig(**kwargs), key) == OFF_DEFAULT[key]

    def test_workload_beside_a_traffic_key_at_its_default(self):
        # the key changes nothing about the run, so it is no conflict
        cfg = parse_config(MINIMAL + "workload_file = flows.txt\ntraffic_rate = 0.005\n")
        assert cfg == RunConfig(mesh_width=4, mesh_height=4, seed=7, workload_file="flows.txt")

    def test_transpose_needs_square(self):
        with pytest.raises(ConfigError, match="square"):
            parse_config("mesh_width = 4\nmesh_height = 3\nseed = 1\ntraffic_pattern = transpose\n")


def tiny_run(tmp_path, seed=7, **overrides):
    cfg = RunConfig(mesh_width=4, mesh_height=4, seed=seed, **overrides)
    source, dest = NodeId(0, 0), NodeId(2, 3)
    flows = [
        FlowSpec(FlowId(source, 0), dest, 2.0, 0, 30),
        FlowSpec(FlowId(dest, 0), NodeId(1, 0), 99.0, 5, 30),  # infeasible
    ]
    report = Simulator(cfg, flows).run()
    write_report(report, tmp_path)
    return report


class TestWriteReport:
    def test_headers_are_the_frozen_literals(self):
        # The README's File formats section; the headers are derived from FlowRow's and Summary's fields.
        assert FLOWS_HEADER == "flow_seq,src_x,src_y,dst_x,dst_y,bandwidth,phase,setup_latency,path_length,manhattan"
        assert SUMMARY_HEADER == (
            "offered,established,failed,torn_down,success_ratio,mean_setup_latency,p95_setup_latency,"
            "mean_path_stretch,control_packets_per_flow,forward_deliveries,backward_deliveries,"
            "control_deliveries,util_peak_south,util_mean_south,util_peak_west,util_mean_west,"
            "util_peak_east,util_mean_east,util_peak_north,util_mean_north"
        )

    def test_readme_config_table_lists_the_defaults(self):
        # The README's Config format table is the documented copy of RunConfig's defaults; a row may name two keys.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for line in table.splitlines():
            if line.startswith("| `"):
                keys, default = line.split("|")[1:3]
                for key in re.findall(r"`(\w+)`", keys):
                    documented[key] = default.strip().strip("`")
        assert documented == {
            f.name: "required" if f.default is dataclasses.MISSING else _format_value(f.default)
            for f in dataclasses.fields(RunConfig)
        }

    def test_empty_run_headers_only(self, tmp_path):
        report = Simulator(RunConfig(mesh_width=4, mesh_height=4, seed=1), []).run()
        write_report(report, tmp_path)
        assert (tmp_path / "flows.csv").read_text() == FLOWS_HEADER + "\n"
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert len(summary) == 2

    def test_flow_rows(self, tmp_path):
        tiny_run(tmp_path)
        lines = (tmp_path / "flows.csv").read_text().splitlines()
        assert lines[0] == FLOWS_HEADER
        assert lines[1] == "0,0,0,2,3,2.000000,TornDown,10,5,5"
        assert lines[2] == "0,2,3,1,0,99.000000,Failed,,,4"

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        tiny_run(a)
        tiny_run(b)
        assert (a / "flows.csv").read_bytes() == (b / "flows.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_established_path_at_least_manhattan(self, tmp_path):
        tiny_run(tmp_path)
        for line in (tmp_path / "flows.csv").read_text().splitlines()[1:]:
            fields = line.split(",")
            if fields[6] in ("Established", "TornDown"):
                assert int(fields[8]) >= int(fields[9])

    def test_summary_recomputes_from_flow_rows(self, tmp_path):
        report = tiny_run(tmp_path)
        rows = [line.split(",") for line in (tmp_path / "flows.csv").read_text().splitlines()[1:]]
        established = [r for r in rows if r[6] in ("Established", "TornDown")]
        offered = len(rows)
        assert report.summary.offered == offered
        assert report.summary.established == len(established)
        assert report.summary.success_ratio == len(established) / offered
        latencies = [int(r[7]) for r in established]
        assert report.summary.mean_setup_latency == sum(latencies) / len(latencies)
        stretches = [int(r[8]) / int(r[9]) for r in established]
        assert report.summary.mean_path_stretch == sum(stretches) / len(stretches)

    def test_trace_written_when_enabled(self, tmp_path):
        tiny_run(tmp_path, trace=True)
        trace = (tmp_path / "trace.tsv").read_text().splitlines()
        assert trace
        assert all(len(line.split("\t")) == 7 for line in trace)


def flow_row(seq, phase, manhattan, latency, detour, bandwidth):
    """A FlowRow as a run reports it: an established or torn-down row has a
    latency and a path at least as long as its distance, any other neither."""
    ever = phase in ("TornDown", "Established")
    length = manhattan + 2 * detour if ever else None
    return FlowRow(seq, 0, 0, 1, 1, bandwidth, phase, latency if ever else None, length, manhattan)


drawn_rows = st.lists(
    st.tuples(
        st.sampled_from(["Failed", "TornDown", "Established", "SettingUp"]),
        st.integers(1, 12),
        st.integers(2, 500),
        st.integers(0, 5),
        st.sampled_from([0.5, 1.0, 3.0]),
    ),
    max_size=40,
)
flow_rows = drawn_rows.map(lambda drawn: tuple(flow_row(seq, *fields) for seq, fields in enumerate(drawn)))
failed_rows = drawn_rows.map(lambda drawn: tuple(flow_row(seq, "Failed", *fields[1:]) for seq, fields in enumerate(drawn)))


def multi_pass_summary_fields(flows):
    """The summary's row-derived fields by one pass per quantity."""
    established_rows = [r for r in flows if r.ever_established]
    latencies = [r.setup_latency for r in established_rows]
    stretches = [r.path_length / r.manhattan for r in established_rows]
    return (
        len(established_rows),
        sum(1 for r in flows if r.phase == "Failed"),
        sum(1 for r in flows if r.phase == "TornDown"),
        (len(established_rows) / len(flows)) if flows else None,
        (sum(latencies) / len(latencies)) if latencies else None,
        nearest_rank_percentile(latencies, 0.95),
        (sum(stretches) / len(stretches)) if stretches else None,
    )


_scalars = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.text(max_size=6), st.none(),
    st.sampled_from([2**64, 10**400, -(10**400), 5e-324, 1.7e308]),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    key=st.sampled_from([k for k in config_module._KEY_TYPES if k not in ("mesh_width", "mesh_height")]),
    value=st.one_of(_scalars, st.lists(_scalars, max_size=3).map(tuple)),
)
def test_a_config_either_is_refused_or_is_valid(key, value):
    # one key at a time on a 4x4 base, so no draw builds a large link table
    try:
        cfg = RunConfig(**{"mesh_width": 4, "mesh_height": 4, "seed": 0, key: value})
    except ConfigError:
        return
    validate_config(cfg)
    Simulator(cfg, [])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    workload=st.sampled_from([None, "flows.txt"]),
    key=st.sampled_from([k for k in config_module._KEY_TYPES if k not in ("mesh_width", "mesh_height")]),
    value=st.one_of(_scalars, st.lists(_scalars, max_size=3).map(tuple)),
)
@example(workload=None, key="traffic_rate", value=2**64 + 1)  # echoes as an int, parses back as a float
@example(workload=None, key="bandwidth_values", value=(1, 2**53 + 1))
@example(workload=None, key="workload_file", value="none")  # echoes as the unset value
@example(workload=None, key="workload_file", value=" x")
@example(workload=None, key="workload_file", value="")
@example(workload=None, key="workload_file", value="a\x1cb")  # a line break to str.splitlines
def test_a_config_echoes_to_text_that_parses_back_equal(workload, key, value):
    try:
        cfg = RunConfig(**{"mesh_width": 4, "mesh_height": 4, "seed": 0, "workload_file": workload, key: value})
    except ConfigError:
        return
    echoed = "\n".join(line.removesuffix("  (default)") for line in echo_lines(cfg))
    assert parse_config(echoed) == cfg


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(st.just(()), flow_rows, failed_rows))
def test_summary_matches_the_multi_pass_formulas(flows):
    stats = RunStats(7, 5, 3, 2, 1, 0, True, 100)
    peaks = {port: 0.25 * port for port in range(4)}
    summary = build_report(flows, stats, peaks, peaks, None).summary
    got = (
        summary.established, summary.failed, summary.torn_down, summary.success_ratio,
        summary.mean_setup_latency, summary.p95_setup_latency, summary.mean_path_stretch,
    )
    assert got == multi_pass_summary_fields(flows)  # floats compared exactly
    assert summary.offered == len(flows)
    assert summary.control_packets_per_flow == ((5 + 3 + 2) / len(flows) if flows else None)


class TestFlowRowLine:
    @pytest.mark.parametrize(
        "row,line",
        [
            (FlowRow(3, 0, 1, 2, 3, 99.0, "Failed", None, None, 4), "3,0,1,2,3,99.000000,Failed,,,4"),
            (FlowRow(0, 1, 1, 3, 0, 2.5, "Established", 14, 3, 3), "0,1,1,3,0,2.500000,Established,14,3,3"),
            (FlowRow(12, 2, 0, 0, 2, 1.0, "TornDown", 9, 6, 4), "12,2,0,0,2,1.000000,TornDown,9,6,4"),
        ],
        ids=["failed", "established", "torn-down"],
    )
    def test_line(self, row, line):
        assert flow_row_line(row) == line
        assert len(line.split(",")) == len(FLOWS_HEADER.split(","))

    def test_row_is_an_immutable_named_record(self):
        row = FlowRow(0, 1, 1, 3, 0, 2.5, "Established", 14, 3, 3)
        assert FlowRow._fields == (
            "flow_seq", "src_x", "src_y", "dst_x", "dst_y", "bandwidth",
            "phase", "setup_latency", "path_length", "manhattan",
        )
        assert FLOWS_HEADER.split(",") == list(FlowRow._fields)
        assert row.ever_established
        with pytest.raises(AttributeError):
            row.phase = "TornDown"


# Extreme values that a config may hold, each set over a 4x4 mesh at seed 7.
EXTREMES = {
    "timeout-factor-max": {"setup_timeout_factor": "1e308"},
    "timeout-factor-subnormal": {"setup_timeout_factor": "5e-324"},
    "t-hop-10**400": {"t_hop": 10**400},
    "t-hop-2**62": {"t_hop": 2**62},
    "wire-count-10**30": {"wire_count": 10**30},
    "wire-count-2**62": {"wire_count": 2**62},
    "wire-bandwidth-max": {"wire_bandwidth": "1e308"},
    "wire-bandwidth-subnormal": {"wire_bandwidth": "5e-324"},
    "max-cycles-1": {"max_cycles": 1},
    "max-cycles-10**400": {"max_cycles": 10**400},
    "fixed-hold-max": {"hold_time_mean": "1e308"},
    "fixed-hold-1": {"hold_time_mean": 1},
    "geometric-hold-max": {"hold_time_dist": "geometric", "hold_time_mean": "1e308"},
    "geometric-hold-1": {"hold_time_dist": "geometric", "hold_time_mean": 1},
    "rate-subnormal": {"traffic_rate": "5e-324"},
    "seed-2**64-1": {"seed": 2**64 - 1},
    "demand-max": {"bandwidth_values": "1e308"},
    "demand-subnormal": {"bandwidth_values": "5e-324"},
    "weight-subnormal": {"bandwidth_weights": "5e-324"},
    "hotspot-fraction-0": {"hotspot_fraction": 0},
    "hotspot-fraction-1": {"hotspot_fraction": 1},
    "hotspot-pattern-fraction-0": {"traffic_pattern": "hotspot", "hotspot_fraction": 0},
    "hotspot-pattern-fraction-1": {"traffic_pattern": "hotspot", "hotspot_fraction": 1},
}


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="ascii")
    return str(path)


class TestCli:
    def test_run_writes_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL + "traffic_rate = 0.002\ntraffic_duration = 300\n")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "flows.csv").exists() and (out / "summary.csv").exists()
        printed = capsys.readouterr().out
        assert "wire_count = 8  (default)" in printed  # defaults echoed in the header
        assert "run complete:" in printed

    def test_run_trace_flag(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "traffic_rate = 0.002\ntraffic_duration = 200\n")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--out", str(out), "--trace"]) == 0
        assert (out / "trace.tsv").exists()

    def test_run_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "traffic_rate = 0.004\ntraffic_duration = 400\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli_main(["run", "--config", cfg, "--seed", "1234", "--out", str(out_b)]) == 0
        assert (out_a / "flows.csv").read_bytes() != (out_b / "flows.csv").read_bytes()

    def test_run_workload_override(self, tmp_path):
        workload = tmp_path / "wl.txt"
        workload.write_text("# flows from the café\n0,0,3,3,2.0,0,30\n", encoding="utf-8")
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--workload", str(workload), "--out", str(out)]) == 0
        lines = (out / "flows.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_run_workload_override_conflicts_with_traffic_keys_exit_2(self, tmp_path, capsys):
        workload = tmp_path / "wl.txt"
        workload.write_text("0,0,3,3,2.0,0,30\n", encoding="ascii")
        cfg = write_config(tmp_path, MINIMAL + "traffic_rate = 0.05\n")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--workload", str(workload), "--out", str(out)]) == 2
        assert "key 'traffic_rate': conflicts with workload_file" in capsys.readouterr().err
        assert not out.exists()

    def test_run_workload_named_none_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--workload", "none", "--out", str(out)]) == 2
        assert "key 'workload_file': 'none' is not a path one config line holds (a file named none is ./none)" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_run_undecodable_workload_exit_2(self, tmp_path, capsys):
        workload = tmp_path / "wl.txt"
        workload.write_bytes(b"# caf\xe9\n0,0,3,3,2.0,0,30\n")  # Latin-1
        cfg = write_config(tmp_path, MINIMAL)
        assert cli_main(["run", "--config", cfg, "--workload", str(workload), "--out", str(tmp_path / "o")]) == 2
        assert f"file '{workload}' is not UTF-8 text" in capsys.readouterr().err

    def test_verify_undecodable_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(MINIMAL.encode() + b"# \xff\n")
        assert cli_main(["verify", "--config", str(path)]) == 2
        assert f"file '{path}' is not UTF-8 text (invalid start byte at offset 42)" in capsys.readouterr().err

    @pytest.mark.parametrize("marked", ["config", "workload"])
    def test_file_starting_with_a_byte_order_mark_exit_0(self, tmp_path, marked):
        # Some Windows tools write UTF-8 with the mark EF BB BF in front
        files = {"config": MINIMAL, "workload": "0,0,3,3,2.0,0,30\n"}
        for name, text in files.items():
            (tmp_path / name).write_bytes((b"\xef\xbb\xbf" if name == marked else b"") + text.encode())
        config, workload, out = str(tmp_path / "config"), str(tmp_path / "workload"), tmp_path / "out"
        assert cli_main(["verify", "--config", config]) == 0
        assert cli_main(["run", "--config", config, "--workload", workload, "--out", str(out)]) == 0
        assert (out / "flows.csv").read_text(encoding="utf-8").splitlines()[1] == "0,0,0,3,3,2.000000,TornDown,12,6,6"

    def test_run_non_finite_workload_bandwidth_exit_2(self, tmp_path, capsys):
        workload = tmp_path / "wl.txt"
        workload.write_text("0,0,3,3,nan,0,30\n", encoding="ascii")
        cfg = write_config(tmp_path, MINIMAL)
        assert cli_main(["run", "--config", cfg, "--workload", str(workload), "--out", str(tmp_path / "o")]) == 2
        assert "workload line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", ["wire_bandwidth = 5e-324\n", "wire_bandwidth = 0.5\nbandwidth_values = 1e308\n"],
        ids=["subnormal-wire", "huge-demand"],
    )
    def test_run_unholdable_demand_exit_0(self, tmp_path, extra):
        cfg = write_config(tmp_path, MINIMAL + "traffic_rate = 0.01\ntraffic_duration = 100\n" + extra)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert ",Failed," in (out / "flows.csv").read_text()

    def test_verify_good_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        assert cli_main(["verify", "--config", cfg]) == 0
        assert "configuration ok" in capsys.readouterr().out

    def test_verify_echo_of_a_workload_config_verifies_again(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL + "workload_file = flows.txt\n")
        assert cli_main(["verify", "--config", cfg]) == 0
        echoed = capsys.readouterr().out.splitlines()[1:]
        again = tmp_path / "echoed.cfg"
        again.write_text("\n".join(line.strip().removesuffix("  (default)") for line in echoed), encoding="ascii")
        assert cli_main(["verify", "--config", str(again)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == echoed

    def test_verify_bad_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL + "bogus = 3\n")
        assert cli_main(["verify", "--config", cfg]) == 2
        assert "error: config:" in capsys.readouterr().err

    def test_missing_config_file_exit_4(self, tmp_path):
        assert cli_main(["verify", "--config", str(tmp_path / "absent.cfg")]) == 4

    def test_unwritable_out_exit_4(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "traffic_rate = 0.002\ntraffic_duration = 100\n")
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert cli_main(["run", "--config", cfg, "--out", str(blocker / "sub")]) == 4

    def test_invariant_violation_exit_3(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise InvariantViolationError("event 12: wire over-subscription")

        monkeypatch.setattr("beenoc.cli.run_simulation", boom)
        cfg = write_config(tmp_path, MINIMAL)
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_oracle_check_small_mesh_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "mesh_width = 3\nmesh_height = 3\nseed = 5\nwire_count = 4\n")
        assert cli_main(["oracle-check", "--config", cfg]) == 0
        assert "oracle-check passed" in capsys.readouterr().out

    @pytest.mark.parametrize("extra,established", [("max_cycles = 3\n", 3), ("setup_timeout_factor = 0.2\n", 0)],
                             ids=["max-cycles-3", "timeout-factor-0.2"])
    def test_oracle_check_passes_when_a_setup_cannot_finish_in_time(self, tmp_path, capsys, extra, established):
        # an idle setup that the timeout or max_cycles ends before it can finish is no violation
        cfg = write_config(tmp_path, MINIMAL + extra)
        assert cli_main(["oracle-check", "--config", cfg]) == 0
        assert f"40 scenarios sound ({established} established)" in capsys.readouterr().out

    def test_oracle_check_passes_on_a_16x16_mesh(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "mesh_width = 16\nmesh_height = 16\nseed = 7\n")
        assert cli_main(["oracle-check", "--config", cfg]) == 0
        assert "40 scenarios sound (33 established)" in capsys.readouterr().out


    @pytest.mark.parametrize("values", EXTREMES.values(), ids=EXTREMES.keys())
    def test_run_and_oracle_check_finish_on_extreme_values(self, tmp_path, values):
        values = {"mesh_width": 4, "mesh_height": 4, "seed": 7, **values}
        cfg = write_config(tmp_path, "".join(f"{key} = {value}\n" for key, value in values.items()))
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert cli_main(["oracle-check", "--config", cfg]) == 0


def test_cli_module_runs_as_a_script(tmp_path):
    # python -m beenoc.cli runs the CLI, so an undecodable config exits 2
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(MINIMAL.encode() + b"# \xff\n")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-m", "beenoc.cli", "verify", "--config", str(bad)],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "is not UTF-8 text" in result.stderr
