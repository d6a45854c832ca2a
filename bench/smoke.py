#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs a minimum-length pass of every workload in BENCHMARK.json, untraced and
traced, and checks that each run passes its digest checks and emits exactly
the metrics BENCHMARK.json names, each with its declared unit. Exits 1 on the
first problem. Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH_DIR, ROOT
from workloads import BENCH_SEED


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                "--seed", str(BENCH_SEED), "--seconds", "1", "--trace", str(trace), "--smoke",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"correct={result['correct']} failed={result['failed']}\n{proc.stderr}")
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                wrong = sorted(n for n in units if n in expected[trace] and units[n] != expected[trace][n])
                problems.append(f"missing {missing}, unexpected {extra}, wrong unit {wrong}")
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems))
                return 1
            print(f"ok   {label}: {len(units)} metrics, {result['attempted']} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
