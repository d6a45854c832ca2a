"""Randomized soundness spot-check against the feasibility oracle.

Each scenario runs one flow on a 4x4 mesh (half of them with random
background saturation). A breadth-first search finds the shortest feasible
path within the hop budget on the pre-setup network; the flow must be
established exactly when that path sets up in time, on a circuit that fits
the pre-setup network and is no longer than that path.
"""

from beenoc import RunConfig, single_flow_scenario, soundness_violation
from beenoc.traffic import make_rng

cfg = RunConfig(mesh_width=4, mesh_height=4, seed=0, wire_count=4)
rng = make_rng(1234)

established = failed = 0
for index in range(60):
    saturate = index % 2 == 1
    outcome = single_flow_scenario(cfg, rng, saturate)
    problem = soundness_violation(outcome)
    status = "established" if outcome.established else "failed"
    if outcome.established:
        established += 1
        detail = f"{outcome.path_length} hops, shortest feasible {outcome.min_feasible_length}"
    else:
        failed += 1
        shortest = outcome.min_feasible_length
        detail = "no feasible path on snapshot" if shortest is None else f"shortest feasible {shortest} on snapshot"
    tag = "saturated" if saturate else "idle"
    print(f"  [{index:02d}] {outcome.source} -> {outcome.destination} "
          f"demand {outcome.required_bandwidth:.1f} ({tag}): {status} ({detail})"
          + (f"  <-- VIOLATION: {problem}" if problem else ""))
    assert problem is None

print(f"\nall 60 scenarios sound: {established} established, {failed} blocked")
