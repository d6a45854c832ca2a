"""One flow on an idle 4x4 mesh, event by event.

Forward bees flood from the source (pure discovery, no reservations), the
destination turns the three earliest into backward bees, the backward bees
reserve wires hop by hop, the first one home wins the circuit, and the two
losers give their wires back. After the hold time the source tears the
circuit down.
"""

from beenoc import FlowId, FlowSpec, NodeId, RunConfig, Simulator, write_report
from beenoc.metrics import trace_line

cfg = RunConfig(mesh_width=4, mesh_height=4, seed=1, wire_count=4, trace=True)
src, dst = NodeId(0, 0), NodeId(3, 2)
flow = FlowSpec(FlowId(src, 0), dst, required_bandwidth=2.0, arrival_time=0, hold_time=25)

sim = Simulator(cfg, [flow])
report = sim.run()

record = sim.records[flow.flow]
print(f"flow {flow.flow}: {src} -> {dst}, demand {flow.required_bandwidth}")
print(f"outcome: {record.phase.value}, setup latency {record.setup_latency} cycles, "
      f"path length {record.path_length} (manhattan {sim.mesh.manhattan(src, dst)})")
print(f"circuit (source's view): {record.circuit.bitstring()}\n")

print("trace (cycle, event, node, flow, packet, port, hop):")
for event in report.trace:
    print("  " + trace_line(event).replace("\t", "  "))

print(f"\n{report.stats.events_processed} events total; "
      f"{report.stats.forward_deliveries} forward, {report.stats.backward_deliveries} backward, "
      f"{report.stats.control_deliveries} control deliveries")
print(f"wires held after drain: {report.stats.final_wires_held}")

write_report(report, "demo_single_flow_out")
print("\nwrote flows.csv / summary.csv / trace.tsv under demo_single_flow_out/")
