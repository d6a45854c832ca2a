"""Route recording with 2-bit port codes, and how reversal works.

A discovery packet records the output port it takes at every hop instead of
node addresses, so a route costs 2 bits per hop no matter how large the mesh
is. Reversing the entries and complementing both bits of each one yields the
route that retraces the path from the far end.
"""

from beenoc import Mesh, NodeId, PortDir, PortList, encode_port, walk

mesh = Mesh(8, 8)

print("port codes:")
for port in (PortDir.SOUTH, PortDir.WEST, PortDir.EAST, PortDir.NORTH):
    code = encode_port(port)
    print(f"  {port.name:<5} -> {code:02b}   (complement {code ^ 0b11:02b} = {port.opposite().name})")

# record a staircase-free path: seven hops east, then seven south
route = PortList()
for _ in range(7):
    route = route.push(PortDir.EAST)
for _ in range(7):
    route = route.push(PortDir.SOUTH)

print(f"\nrecorded route ({route.length} hops): {route.bitstring()}")
print(f"packed bytes: {route.packed_bytes().hex()}  ({len(route.packed_bytes())} bytes for {route.length} hops)")

start = NodeId(0, 7)
nodes = walk(route, start, mesh)
print(f"\nwalk from {start}: " + " -> ".join(str(n) for n in nodes[:4]) + f" ... -> {nodes[-1]}")

back = route.reverse_complement()
print(f"reversed+complemented: {back.bitstring()}")
retrace = walk(back, nodes[-1], mesh)
print(f"walk back from {nodes[-1]} ends at {retrace[-1]} (started at {start})")
