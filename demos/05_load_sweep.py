"""Success ratio versus offered load, one versus three backward bees.

Long-lived circuits gradually fill the mesh; as blocking grows, racing three
reservations per flow hedges against links that congest between discovery
and reservation. Takes about 16 s on a 2-vCPU VM.
"""

import dataclasses

from beenoc import Mesh, RunConfig, run_simulation
from beenoc.traffic import generate_traffic, make_rng

base = RunConfig(
    mesh_width=6,
    mesh_height=6,
    seed=0,
    wire_count=8,
    traffic_duration=1500,
    hold_time_dist="geometric",
    hold_time_mean=4000.0,
    traffic_rate=0.002,
)

seeds = range(8)
print(f"{'rate':>7} {'flows':>6} {'k=1':>8} {'k=3':>8} {'diff':>9}")
for rate in (0.002, 0.004, 0.006, 0.008, 0.010):
    ratios = {1: [], 3: []}
    flows_seen = 0
    for seed in seeds:
        for k in (1, 3):
            cfg = dataclasses.replace(base, traffic_rate=rate, seed=seed, backward_bee_count=k)
            workload = generate_traffic(Mesh(6, 6), cfg, make_rng(seed))
            report = run_simulation(cfg, workload)
            ratios[k].append(report.summary.success_ratio)
            flows_seen += len(workload)
    mean1 = sum(ratios[1]) / len(seeds)
    mean3 = sum(ratios[3]) / len(seeds)
    print(f"{rate:>7} {flows_seen // (2 * len(seeds)):>6} {mean1:>8.4f} {mean3:>8.4f} {mean3 - mean1:>+9.4f}")
