#!/usr/bin/env python3
"""beenoc benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload flood16 --seed 0 --seconds 35 --trace 0

Run from the repository root; the package is imported from `src/`. One
process runs one workload, single-threaded. A pass drives the public library
path for every configuration of the workload:
`generate_traffic` -> `Simulator(cfg, flows)` -> `.run()` -> `write_report`.

With `--trace 0` the run repeats untraced passes until `--seconds` is used
and reports the end-to-end metrics (host-time ones as medians over passes,
scaled to a reference host speed with the kernel in reference.py).
With `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics of the traced pass with the median `engine.run_s`, plus
the tracing overhead. Either way the last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
before it are the same metrics for people. `attempted` and `failed` count
passes; a pass fails when it raises or its outputs fail a check.

Checks: every run first replays a minimum-length pass of the workload at the
benchmark seed with tracing on and compares the sha256 of flows.csv,
summary.csv and trace.tsv with `digests.json`. Every timed pass must
reproduce the first pass's CSVs and simulated metrics byte for byte, and the
stored digests when the seed has them. For the stored seeds an untimed
full-length pass with tracing on also checks trace.tsv. `--smoke` makes
every pass minimum-length.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import beenoc  # noqa: E402
from beenoc import Mesh, Simulator, validate_config, write_report  # noqa: E402
from beenoc.metrics import nearest_rank_percentile  # noqa: E402
from beenoc.traffic import generate_traffic, make_rng, traffic_params_from_config  # noqa: E402

import reference  # noqa: E402
from tracing import LayerTracer  # noqa: E402
from workloads import WORKLOADS, BENCH_SEED, Workload  # noqa: E402

OUTPUT_FILES = ("flows.csv", "summary.csv", "trace.tsv")
# Set-up-only repetitions per untraced run: at least SETUP_REPS, and more
# until SETUP_SHARE of the run's seconds are spent, because a set-up takes
# only tens of milliseconds. setup_s is the median of these and of
# every timed pass's set-up.
SETUP_REPS = 5
SETUP_SHARE = 0.05


class CheckFailed(Exception):
    """The program's outputs differ from what the benchmark expects."""


@dataclass
class PassResult:
    """One pass over every configuration of a workload."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    # wall_s and setup_s scaled to the reference host speed (reference.py)
    scaled_wall_s: float = 0.0
    scaled_setup_s: float = 0.0
    generate_s: float = 0.0
    admit_s: float = 0.0
    run_s: float = 0.0
    write_s: float = 0.0
    flows: int = 0
    established: int = 0
    deliveries: int = 0
    events: int = 0
    final_cycle: int = 0
    forward_deliveries: int = 0
    backward_deliveries: int = 0
    control_deliveries: int = 0
    max_forward_per_flow: int = 0
    state_entries_end: int = 0
    latencies: list = field(default_factory=list)
    # (name, start, end, parent) relative to the pass start
    spans: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    tracer: LayerTracer | None = None

    def simulated(self) -> dict:
        """The simulated (deterministic) end-to-end metrics of this pass."""
        return {
            "success_ratio": (self.established / self.flows, "ratio"),
            "setup_cycles_p50": (nearest_rank_percentile(self.latencies, 0.5), "cycles"),
            "setup_cycles_p95": (nearest_rank_percentile(self.latencies, 0.95), "cycles"),
            "setup_cycles_n": (len(self.latencies), "count"),
            "control_packets_per_flow": (self.deliveries / self.flows, "packets/flow"),
        }


def pass_configs(workload: Workload, seed: int, smoke: bool, trace_file: bool):
    configs = workload.configs(seed, smoke)
    for cfg in configs:
        validate_config(cfg)
    return [dataclasses.replace(cfg, trace=trace_file) for cfg in configs]


def generate(cfg):
    mesh = Mesh(cfg.mesh_width, cfg.mesh_height)
    return generate_traffic(mesh, traffic_params_from_config(cfg), make_rng(cfg.seed))


def setup_only(configs) -> float:
    """Traffic generation plus Simulator construction, in scaled seconds."""
    gc.collect()
    total = 0.0
    before = reference.slice_s()
    for cfg in configs:
        start = time.perf_counter()
        flows = generate(cfg)
        sim = Simulator(cfg, flows)
        elapsed = time.perf_counter() - start
        del sim, flows
        after = reference.slice_s()
        total += elapsed * reference.scale(before, after)
        before = after
    return total


def run_pass(configs, out_dir: Path, tracer: LayerTracer | None = None, scaled: bool = False) -> PassResult:
    """One pass; with `scaled`, a reference slice is timed before and after each run."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    res = PassResult(tracer=tracer)
    before = reference.slice_s() if scaled else reference.NOMINAL_S
    origin = time.perf_counter()
    for i, cfg in enumerate(configs):
        t0 = time.perf_counter()
        flows = generate(cfg)
        t1 = time.perf_counter()
        sim = Simulator(cfg, flows)
        t2 = time.perf_counter()
        report = sim.run() if tracer is None else tracer.run(sim, flows)
        t3 = time.perf_counter()
        write_report(report, out_dir / str(i))
        t4 = time.perf_counter()

        res.wall_s += t4 - t0
        res.setup_s += t2 - t0
        res.generate_s += t1 - t0
        res.admit_s += t2 - t1
        res.run_s += t3 - t2
        res.write_s += t4 - t3
        run_span = f"run{i}"
        res.spans += [
            (run_span, t0 - origin, t4 - origin, "pass"),
            ("traffic.generate", t0 - origin, t1 - origin, run_span),
            ("engine.admit", t1 - origin, t2 - origin, run_span),
            ("engine.run", t2 - origin, t3 - origin, run_span),
            ("metrics.write_report", t3 - origin, t4 - origin, run_span),
        ]
        stats = report.stats
        res.flows += len(flows)
        res.established += report.summary.established
        res.deliveries += stats.forward_deliveries + stats.backward_deliveries + stats.control_deliveries
        res.events += stats.events_processed
        res.final_cycle += stats.final_cycle
        res.forward_deliveries += stats.forward_deliveries
        res.backward_deliveries += stats.backward_deliveries
        res.control_deliveries += stats.control_deliveries
        res.max_forward_per_flow = max(res.max_forward_per_flow, stats.max_forward_deliveries_per_flow)
        res.latencies += [row.setup_latency for row in report.flows if row.ever_established]
        if tracer is not None:
            entries = sum(
                len(n.seen) + len(n.dest_arrivals) + len(n.source_accepted) + len(n.flow_table)
                for n in sim.nodes.values()
            )
            res.state_entries_end = max(res.state_entries_end, entries)
        del sim, report, flows
        after = reference.slice_s() if scaled else reference.NOMINAL_S
        scale = reference.scale(before, after)
        before = after
        res.scaled_wall_s += (t4 - t0) * scale
        res.scaled_setup_s += (t2 - t0) * scale
    res.spans.insert(0, ("pass", 0.0, time.perf_counter() - origin, None))
    for name in OUTPUT_FILES:
        paths = [out_dir / str(i) / name for i in range(len(configs))]
        if all(p.exists() for p in paths):
            digest = hashlib.sha256()
            for p in paths:
                digest.update(p.read_bytes())
            res.digests[name] = digest.hexdigest()
    return res


class Bench:
    """One benchmark process: the passes it attempts and the ones that failed."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.stored = json.loads((BENCH_DIR / "digests.json").read_text())[workload.name]
        self.reference = self.stored["smoke" if smoke else "full"].get(str(seed))
        self.first: PassResult | None = None

    def attempt(self, configs, tracer=None, scaled=False) -> PassResult | None:
        self.attempted += 1
        try:
            return run_pass(configs, self.out_dir, tracer, scaled)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None

    def fail(self, why: str) -> None:
        print(f"check failed: {why}", file=sys.stderr)
        self.failed += 1

    def check_digests(self, res: PassResult, expected: dict | None, what: str) -> bool:
        """Compare the files `res` wrote with `expected`, on the files both have."""
        if expected is None:
            return True
        for name, digest in res.digests.items():
            if name in expected and expected[name] != digest:
                self.fail(f"{what}: {name} sha256 {digest} != {expected[name]}")
                return False
        return True

    def golden_pass(self, smoke: bool, seed: int) -> None:
        """Untimed pass with tracing on, checked against the stored digests."""
        expected = self.stored["smoke" if smoke else "full"][str(seed)]
        res = self.attempt(pass_configs(self.workload, seed, smoke, trace_file=True))
        if res is not None and set(res.digests) != set(OUTPUT_FILES):
            self.fail(f"golden pass wrote {sorted(res.digests)}")
        elif res is not None:
            self.check_digests(res, expected, f"golden {'smoke' if smoke else 'full'} pass, seed {seed}")

    def timed_pass(self, tracer=None) -> PassResult | None:
        """Pass at the run's seed, checked against the first one and the stored digests."""
        res = self.attempt(pass_configs(self.workload, self.seed, self.smoke, trace_file=False), tracer, scaled=True)
        if res is None:
            return None
        if self.first is None:
            self.first = res
        ok = self.check_digests(res, self.reference, f"pass at seed {self.seed}")
        ok = ok and self.check_digests(res, self.first.digests, "pass differs from the first pass")
        if ok and res.simulated() != self.first.simulated():
            self.fail("simulated metrics differ from the first pass")
            ok = False
        return res if ok else None


def median_by(passes, key):
    ordered = sorted(passes, key=key)
    return ordered[(len(ordered) - 1) // 2]


def measure_untraced(bench: Bench, seconds: float) -> dict:
    configs = pass_configs(bench.workload, bench.seed, bench.smoke, trace_file=False)
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_REPS or time.perf_counter() - start < SETUP_SHARE * seconds:
        setups.append(setup_only(configs))
    passes = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        res = bench.timed_pass()
        if res is None:
            return {}
        passes.append(res)
        now = time.perf_counter()
        if now - start + (now - before) > seconds:
            break
    setups += [p.scaled_setup_s for p in passes]
    metrics = {
        "wall_s": (statistics.median(p.scaled_wall_s for p in passes), "s"),
        "events_per_s": (statistics.median(p.events / p.scaled_wall_s for p in passes), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    metrics.update(passes[0].simulated())
    print(f"{len(passes)} timed passes, {len(setups)} set-ups")
    print(f"unscaled host seconds: wall_s {statistics.median(p.wall_s for p in passes):.6g},"
          f" setup_s {statistics.median(p.setup_s for p in passes):.6g}")
    return metrics


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, list]:
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        for tracer in (None, LayerTracer()):
            res = bench.timed_pass(tracer)
            if res is None:
                return {}, traced
            (plain if tracer is None else traced).append(res)
        now = time.perf_counter()
        if now - start + (now - before) > seconds:
            break
    counts = {tuple(sorted((k, v[0]) for k, v in p.tracer.calls.items())) for p in traced}
    if len(counts) != 1:
        bench.fail("per-layer call counts differ between traced passes")
    pick = median_by(traced, lambda p: p.run_s)
    metrics = layer_metrics(pick)
    overhead = statistics.median(p.scaled_wall_s for p in traced) - statistics.median(p.scaled_wall_s for p in plain)
    metrics["trace_overhead_s"] = (overhead, "s")
    print(f"{len(plain)} untraced and {len(traced)} traced passes")
    return metrics, traced


def layer_metrics(res: PassResult) -> dict:
    tr = res.tracer
    calls = tr.calls
    m = {}

    def count_and_self(name: str) -> None:
        m[f"{name}.calls"] = (calls[name][0], "count")
        m[f"{name}.self_s"] = (calls[name][1], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    count_and_self("router.forward")
    m["router.forward.fanout"] = (ratio(tr.forward_emissions, calls["router.forward"][0]), "emissions/call")
    count_and_self("router.backward")
    m["router.backward.accept_ratio"] = (ratio(len(tr.reservation_cycles), tr.backward_emitted), "ratio")
    count_and_self("router.control")
    m["router.state_entries_end"] = (res.state_entries_end, "entries")
    for name, values in (("discovery", tr.discovery_cycles), ("reservation", tr.reservation_cycles)):
        m[f"router.{name}_cycles_p50"] = (nearest_rank_percentile(values, 0.5), "cycles")
        m[f"router.{name}_cycles_p95"] = (nearest_rank_percentile(values, 0.95), "cycles")
    count_and_self("topology.neighbor")
    count_and_self("topology.residual")
    count_and_self("topology.reserve")
    m["topology.reserve.success_ratio"] = (ratio(tr.reserve_ok, calls["topology.reserve"][0]), "ratio")
    count_and_self("topology.release")
    m["topology.release.empty"] = (tr.release_empty, "count")
    m["topology.drain_dirty.self_s"] = (calls["topology.drain_dirty"][1], "s")
    m["topology.live_reservations_peak"] = (tr.live_reservations_peak, "count")
    count_and_self("protocol.advanced")
    count_and_self("protocol.reverse_complement")

    engine_self = tr.run_self_s + calls["engine.transit"][1]
    layers_self = sum(tr.self_s(prefix) for prefix in ("router.", "topology.", "protocol.", "metrics."))
    if abs(engine_self + layers_self - tr.run_s) > 1e-6:
        raise CheckFailed(f"self times add up to {engine_self + layers_self}, engine.run is {tr.run_s}")
    m["engine.admit_s"] = (res.admit_s, "s")
    m["engine.run_s"] = (tr.run_s, "s")
    m["engine.self_s"] = (engine_self, "s")
    count_and_self("engine.transit")
    m["engine.events"] = (res.events, "count")
    m["engine.final_cycle"] = (res.final_cycle, "cycles")
    m["engine.events_per_cycle"] = (res.events / res.final_cycle, "events/cycle")
    m["engine.forward_deliveries"] = (res.forward_deliveries, "count")
    m["engine.backward_deliveries"] = (res.backward_deliveries, "count")
    m["engine.control_deliveries"] = (res.control_deliveries, "count")
    m["engine.max_forward_per_flow"] = (res.max_forward_per_flow, "count")
    m["traffic.generate_s"] = (res.generate_s, "s")
    m["traffic.flows"] = (res.flows, "count")
    m["metrics.build_report_s"] = (calls["metrics.build_report"][1], "s")
    m["metrics.write_report_s"] = (res.write_s, "s")
    return m


def write_spans(path: Path, traced: list) -> None:
    """Coarse spans and per-name call aggregates of every traced pass."""
    doc = [
        {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in res.spans],
            "engine.run": {
                "duration_s": res.tracer.run_s,
                "self_s": res.tracer.run_self_s,
                "descendants": {
                    name: {"calls": c, "self_s": s} for name, (c, s) in sorted(res.tracer.calls.items())
                },
            },
        }
        for res in traced
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimum-length passes")
    args = parser.parse_args(argv)
    if not Path(beenoc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"beenoc imported from {beenoc.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_root = BENCH_DIR / "out"
    bench = Bench(WORKLOADS[args.workload], args.seed, args.smoke, out_root / f"run-{os.getpid()}")
    try:
        bench.golden_pass(smoke=True, seed=BENCH_SEED)
        if args.trace:
            metrics, traced = measure_traced(bench, args.seconds)
            if traced:
                write_spans(out_root / f"spans-{args.workload}-seed{args.seed}.json", traced)
        else:
            metrics = measure_untraced(bench, args.seconds)
        if not args.smoke and str(args.seed) in bench.stored["full"]:
            bench.golden_pass(smoke=False, seed=args.seed)
    except CheckFailed as exc:
        bench.fail(str(exc))
        metrics = {}
    finally:
        shutil.rmtree(bench.out_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8} {name:34} {value:>16.6g} {unit}")
    print(f"{args.workload:8} {'run_failures':34} {bench.failed:>16} of {bench.attempted} passes")
    result = {
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
