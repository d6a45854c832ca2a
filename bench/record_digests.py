#!/usr/bin/env python3
"""Rewrite bench/digests.json from the current program.

    python3 bench/record_digests.py

Records the sha256 of flows.csv, summary.csv and trace.tsv of one pass with
tracing on, per workload: minimum-length at BENCH_SEED, and full-length at
BENCH_SEED and HELD_OUT_SEED. Only a change that is meant to alter simulated
behaviour should need this; say so when committing new digests.
"""

from __future__ import annotations

import json
import os
import shutil

from run import BENCH_DIR, pass_configs, run_pass
from workloads import BENCH_SEED, HELD_OUT_SEED, WORKLOADS


def main() -> None:
    out_dir = BENCH_DIR / "out" / f"record-{os.getpid()}"
    digests = {}
    try:
        for name, workload in WORKLOADS.items():
            digests[name] = {"smoke": {}, "full": {}}
            for scale, seeds in (("smoke", (BENCH_SEED,)), ("full", (BENCH_SEED, HELD_OUT_SEED))):
                for seed in seeds:
                    configs = pass_configs(workload, seed, scale == "smoke", trace_file=True)
                    res = run_pass(configs, out_dir)
                    digests[name][scale][str(seed)] = res.digests
                    print(f"{name} {scale} seed {seed}: {res.flows} flows, {res.events} events")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    (BENCH_DIR / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
