"""Per-run metrics assembly and machine-readable CSV output.

flows.csv gets one row per offered flow, summary.csv one row of aggregates;
both headers and the numeric formatting (fixed-point, 6 decimals for floats)
are frozen so identical runs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

from .config import RunConfig
from .topology import NON_LOCAL_PORTS, PortDir


class FlowRow(NamedTuple):
    """One flows.csv row. Latency and path length are None unless the flow's
    circuit was established, whether or not it has since been torn down."""

    flow_seq: int
    src_x: int
    src_y: int
    dst_x: int
    dst_y: int
    bandwidth: float
    phase: str
    setup_latency: int | None
    path_length: int | None
    manhattan: int

    @property
    def ever_established(self) -> bool:
        return self.setup_latency is not None  # only establishing a flow sets it


@dataclass(frozen=True, slots=True)
class RunStats:
    """Engine-internal counters exposed for tests and diagnostics."""

    events_processed: int
    forward_deliveries: int
    backward_deliveries: int
    control_deliveries: int
    max_forward_deliveries_per_flow: int
    final_wires_held: int
    drained: bool
    final_cycle: int


@dataclass(frozen=True, slots=True)
class Summary:
    offered: int
    established: int
    failed: int
    torn_down: int
    success_ratio: float | None
    mean_setup_latency: float | None
    p95_setup_latency: float | None
    mean_path_stretch: float | None
    control_packets_per_flow: float | None
    forward_deliveries: int
    backward_deliveries: int
    control_deliveries: int
    util_peak_south: float
    util_mean_south: float
    util_peak_west: float
    util_mean_west: float
    util_peak_east: float
    util_mean_east: float
    util_peak_north: float
    util_mean_north: float


# The headers are the field names, so each lines up with its values by construction.
FLOWS_HEADER = ",".join(FlowRow._fields)
SUMMARY_HEADER = ",".join(f.name for f in fields(Summary))


@dataclass(frozen=True)
class MetricsReport:
    """Everything a finished run reports: resolved config, per-flow rows,
    aggregates, and the event trace when tracing was on."""

    config: RunConfig
    flows: tuple[FlowRow, ...]
    summary: Summary
    stats: RunStats
    trace: tuple[str, ...] | None = None


def nearest_rank_percentile(values: list, fraction: float) -> float | None:
    """Nearest-rank percentile of a non-empty list (None when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def build_summary(
    flows: tuple[FlowRow, ...],
    stats: RunStats,
    util_peak: dict[PortDir, float],
    util_mean: dict[PortDir, float],
) -> Summary:
    offered = len(flows)
    failed = torn_down = 0
    latencies, stretches = [], []  # in row order: the float sums depend on it
    for _, _, _, _, _, _, phase, latency, length, manhattan in flows:
        if latency is not None:
            latencies.append(latency)
            stretches.append(length / manhattan)
        failed += phase == "Failed"
        torn_down += phase == "TornDown"
    established = len(latencies)
    total_deliveries = stats.forward_deliveries + stats.backward_deliveries + stats.control_deliveries
    return Summary(
        offered=offered,
        established=established,
        failed=failed,
        torn_down=torn_down,
        success_ratio=(established / offered) if offered else None,
        mean_setup_latency=(sum(latencies) / len(latencies)) if latencies else None,
        p95_setup_latency=nearest_rank_percentile(latencies, 0.95),
        mean_path_stretch=(sum(stretches) / len(stretches)) if stretches else None,
        control_packets_per_flow=(total_deliveries / offered) if offered else None,
        forward_deliveries=stats.forward_deliveries,
        backward_deliveries=stats.backward_deliveries,
        control_deliveries=stats.control_deliveries,
        **{f"util_peak_{port.name.lower()}": util_peak[port] for port in NON_LOCAL_PORTS},
        **{f"util_mean_{port.name.lower()}": util_mean[port] for port in NON_LOCAL_PORTS},
    )


def build_report(
    config: RunConfig,
    flows: tuple[FlowRow, ...],
    stats: RunStats,
    util_peak: dict[PortDir, float],
    util_mean: dict[PortDir, float],
    trace: tuple[str, ...] | None,
) -> MetricsReport:
    return MetricsReport(
        config=config,
        flows=flows,
        summary=build_summary(flows, stats, util_peak, util_mean),
        stats=stats,
        trace=trace,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("no boolean CSV columns")
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def flow_row_line(row: FlowRow) -> str:
    seq, src_x, src_y, dst_x, dst_y, bandwidth, phase, latency, length, manhattan = row
    latency = "" if latency is None else latency
    length = "" if length is None else length
    return f"{seq},{src_x},{src_y},{dst_x},{dst_y},{bandwidth:.6f},{phase},{latency},{length},{manhattan}"


def summary_line(summary: Summary) -> str:
    return ",".join(_fmt(getattr(summary, f.name)) for f in fields(Summary))


def write_report(report: MetricsReport, destination) -> None:
    """Write flows.csv and summary.csv (plus trace.tsv when tracing) under
    `destination`, creating the directory if needed."""
    out = Path(destination)
    out.mkdir(parents=True, exist_ok=True)
    flows_lines = [FLOWS_HEADER] + [flow_row_line(r) for r in report.flows]
    (out / "flows.csv").write_text("\n".join(flows_lines) + "\n", encoding="ascii", newline="\n")
    summary_lines = [SUMMARY_HEADER, summary_line(report.summary)]
    (out / "summary.csv").write_text("\n".join(summary_lines) + "\n", encoding="ascii", newline="\n")
    if report.trace is not None:
        body = "\n".join(report.trace) + ("\n" if report.trace else "")
        (out / "trace.tsv").write_text(body, encoding="ascii", newline="\n")


__all__ = [
    "FLOWS_HEADER",
    "SUMMARY_HEADER",
    "FlowRow",
    "RunStats",
    "Summary",
    "MetricsReport",
    "build_summary",
    "build_report",
    "flow_row_line",
    "summary_line",
    "write_report",
    "nearest_rank_percentile",
]
