import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beenoc import (
    ConfigError,
    FlowId,
    FlowSpec,
    NodeId,
    RunConfig,
    Simulator,
    echo_lines,
    parse_config,
    validate_config,
    write_report,
)
from beenoc.cli import cli_main
from beenoc.config import _format_value
from beenoc.errors import InvariantViolationError
from beenoc.metrics import (
    FLOWS_HEADER,
    SUMMARY_HEADER,
    FlowRow,
    RunStats,
    build_summary,
    flow_row_line,
    nearest_rank_percentile,
)

MINIMAL = "mesh_width = 4\nmesh_height = 4\nseed = 7\n"


class TestParseConfig:
    def test_minimal_applies_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mesh_width == 4 and cfg.seed == 7
        assert cfg.wire_count == 8
        assert cfg.backward_bee_count == 3
        assert "wire_count" in cfg.applied_defaults
        assert "seed" not in cfg.applied_defaults

    def test_defaults_are_echoed(self):
        cfg = parse_config(MINIMAL + "t_hop = 2\n")
        lines = echo_lines(cfg)
        joined = "\n".join(lines)
        assert "t_hop = 2" in joined and "t_hop = 2  (default)" not in joined
        assert "wire_count = 8  (default)" in joined
        # every defaulted parameter shows up marked
        for key in cfg.applied_defaults:
            assert any(line.startswith(f"{key} = ") and line.endswith("(default)") for line in lines)

    def test_echo_parses_back_to_the_same_config(self):
        cfg = parse_config(MINIMAL + "t_hop = 2\nbandwidth_values = 1.0,2.5\nbandwidth_weights = 0.5,0.5\n")
        assert cfg.workload_file is None
        echoed = "\n".join(line.removesuffix("  (default)") for line in echo_lines(cfg))
        assert "workload_file = none" in echoed.splitlines()
        assert parse_config(echoed) == dataclasses.replace(cfg, applied_defaults=())

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
        cfg = RunConfig(mesh_width=4, mesh_height=4, seed=1, **overrides)
        with pytest.raises(ConfigError, match=f"key '{key}': must be finite"):
            validate_config(cfg)

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
            if f.name != "applied_defaults"
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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(st.just(()), flow_rows, failed_rows))
def test_summary_matches_the_multi_pass_formulas(flows):
    stats = RunStats(7, 5, 3, 2, 1, 0, True, 100)
    peaks = {port: 0.25 * port for port in range(4)}
    summary = build_summary(flows, stats, peaks, peaks)
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
        workload.write_text("0,0,3,3,2.0,0,30\n", encoding="ascii")
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

    def test_run_non_finite_workload_bandwidth_exit_2(self, tmp_path, capsys):
        workload = tmp_path / "wl.txt"
        workload.write_text("0,0,3,3,nan,0,30\n", encoding="ascii")
        cfg = write_config(tmp_path, MINIMAL)
        assert cli_main(["run", "--config", cfg, "--workload", str(workload), "--out", str(tmp_path / "o")]) == 2
        assert "workload line 1" in capsys.readouterr().err

    def test_verify_good_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        assert cli_main(["verify", "--config", cfg]) == 0
        assert "configuration ok" in capsys.readouterr().out

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

    def test_oracle_check_refuses_large_mesh(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "mesh_width = 6\nmesh_height = 6\nseed = 5\n")
        assert cli_main(["oracle-check", "--config", cfg]) == 2
        assert "no larger than 5x5" in capsys.readouterr().err
