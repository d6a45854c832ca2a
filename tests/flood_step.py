"""Drive the flood rule, one engine step (`Simulator._on_wave`), by hand.

`flood_sim` builds a simulator of a single flow, takes its arrival event
off the queue unrun and plants the flow's first-copy tree; `flood` then
delivers one forward copy, as a wave of one, and returns the copies the
step queued, flattened out of their waves.
"""

from beenoc import FlowId, FlowSpec, NodeId, RunConfig, Simulator


def flood_sim(src=(0, 0), dst=(2, 2), bandwidth=1.0, tree=None, **config):
    """A simulator of one flow src -> dst, on a 3x3 mesh and traced (so no
    copy is elided) unless `config` says otherwise, and the flow's record,
    whose tree is planted from `tree` ({NodeId: port})."""
    config = {"mesh_width": 3, "mesh_height": 3, "seed": 0, "trace": True, **config}
    spec = FlowSpec(FlowId(NodeId(*src), 0), NodeId(*dst), bandwidth, arrival_time=0, hold_time=10)
    sim = Simulator(RunConfig(**config), [spec])
    sim.queue.pop_cycle()
    rec = sim.records[spec.flow]
    rec.tree = [None] * sim.mesh.node_count
    for node, port in (tree or {}).items():
        rec.tree[sim.mesh.handle(node)] = port
    return sim, rec


def flood(sim, node, arrival, hops):
    """Run the flood step for a copy of the simulator's flow delivered at
    `node` on `arrival` after `hops` hops (LOCAL at the source: the flow
    starting). Returns (port, far end) of each copy queued for the next hop,
    in queue order."""
    (rec,) = sim.records.values()
    sim.clock = rec.spec.arrival_time + hops * sim.config.t_hop
    sim._on_wave(rec, [(sim.mesh.handle(node), arrival)], None)
    if not sim.queue:
        return []
    time, waves = sim.queue.pop_cycle()
    assert time == sim.clock + sim.config.t_hop and not sim.queue
    return [(port.opposite(), sim.mesh.node_at(far)) for _, _, copies, _ in waves for far, port in copies]


def tree_of(sim, rec):
    """The flow's first-copy tree as {NodeId: port}."""
    return {sim.mesh.node_at(node): port for node, port in enumerate(rec.tree) if port is not None}
