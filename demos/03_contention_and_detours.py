"""Contention: saturate the straight-line links and watch the setup detour.

Background reservations fill the eastbound links along the bottom row, so
the flooding discovery can only find longer ways around; the established
circuit is still feasible but stretched beyond the manhattan distance.
"""

from beenoc import FlowId, FlowSpec, NodeId, PortDir, RunConfig, Simulator, circuit_fits, shortest_feasible_length, walk

cfg = RunConfig(mesh_width=4, mesh_height=4, seed=3, wire_count=4)
src, dst = NodeId(0, 0), NodeId(3, 0)
flow = FlowSpec(FlowId(src, 0), dst, required_bandwidth=2.0, arrival_time=0, hold_time=10)

sim = Simulator(cfg, [flow])
# soak up the direct row: (1,0)->E and (2,0)->E keep less than 2 units free
for node in (NodeId(1, 0), NodeId(2, 0)):
    wires = sim.network.wires_for(3.0)
    if not sim.network.reserve(sim.mesh.handle(node), PortDir.EAST, wires):
        raise RuntimeError(f"background load does not fit on {node}->EAST")

# the oracle reads the pre-setup network, before the flow claims any wires
record = sim.records[flow.flow]
free = list(sim.network.free_by_slot)
shortest = shortest_feasible_length(sim.network, src, dst, 2.0, record.hop_limit)
sim.run()

print(f"{src} -> {dst} with the bottom row congested: {record.phase.value}")
forward_path = record.circuit
print(f"circuit: {' -> '.join(str(n) for n in walk(forward_path, src, sim.mesh))}")
print(f"path length {record.path_length} vs manhattan {sim.mesh.manhattan(src, dst)} (stretch "
      f"{record.path_length / sim.mesh.manhattan(src, dst):.2f})")

print(f"\noracle on the pre-setup network: shortest feasible path {shortest} hops "
      f"(hop budget {record.hop_limit})")
fits = circuit_fits(sim.network, free, src, dst, 2.0, record.hop_limit, forward_path)
print(f"established circuit fits the pre-setup network: {fits}")
