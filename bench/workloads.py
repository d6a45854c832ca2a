"""The three benchmark workloads and the seeds they are checked on.

Each workload is a list of simulator configurations derived from the
benchmark seed. A pass generates the traffic of every configuration with
`generate_traffic`, builds a `Simulator`, runs it and writes its report, one
configuration after another. The reasons for each shape are in README.md.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from beenoc import RunConfig

# Digests are stored for these two seeds. BENCH_SEED is the one the benchmark
# was tuned on; a later gain claim must also hold on HELD_OUT_SEED.
BENCH_SEED = 0
HELD_OUT_SEED = 1109


@dataclass(frozen=True)
class Workload:
    name: str
    base: RunConfig
    # sweep6 runs these backward_bee_count values on the same traffic.
    bee_counts: tuple[int, ...]
    # Traffic seeds per pass: pass seeds are seed * n + 0 .. seed * n + n-1.
    seeds_per_pass: int
    # The minimum-length pass used by the smoke test and the start-of-run
    # digest check: a shorter traffic duration and one traffic seed.
    smoke_duration: int

    def configs(self, seed: int, smoke: bool = False) -> list[RunConfig]:
        """Simulator configurations of one pass, in run order."""
        if smoke:
            base = dataclasses.replace(self.base, traffic_duration=self.smoke_duration)
            seeds = [seed]
        else:
            base = self.base
            seeds = [seed * self.seeds_per_pass + i for i in range(self.seeds_per_pass)]
        return [
            dataclasses.replace(base, seed=s, backward_bee_count=k) for s in seeds for k in self.bee_counts
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="flood16",
            base=RunConfig(
                mesh_width=16,
                mesh_height=16,
                seed=0,
                wire_count=8,
                traffic_rate=0.002,
                traffic_duration=250,
                hold_time_dist="fixed",
                hold_time_mean=100.0,
            ),
            bee_counts=(3,),
            seeds_per_pass=8,
            smoke_duration=100,
        ),
        Workload(
            name="churn4",
            base=RunConfig(
                mesh_width=4,
                mesh_height=4,
                seed=0,
                wire_count=4,
                traffic_rate=0.05,
                traffic_duration=2_500,
                bandwidth_values=(1.0, 2.0, 3.0),
                bandwidth_weights=(0.5, 0.3, 0.2),
                hold_time_dist="geometric",
                hold_time_mean=40.0,
            ),
            bee_counts=(3,),
            seeds_per_pass=4,
            smoke_duration=1000,
        ),
        Workload(
            name="sweep6",
            base=RunConfig(
                mesh_width=6,
                mesh_height=6,
                seed=0,
                wire_count=8,
                traffic_rate=0.008,
                traffic_duration=1500,
                hold_time_dist="geometric",
                hold_time_mean=4000.0,
            ),
            bee_counts=(1, 3),
            seeds_per_pass=4,
            smoke_duration=300,
        ),
    )
}
