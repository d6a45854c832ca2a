"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on a shared host whose speed drifts by up to 2x within
minutes, for the benchmark and for any fixed code alike. So host seconds of
the program are scaled by the speed of this kernel, timed in one slice right
before and one right after each measured stretch:

    scaled_s = host_s * NOMINAL_S / mean(slice before, slice after)

i.e. the seconds the stretch would take on a host where one kernel slice
takes `NOMINAL_S`. The kernel does not touch the program, so a faster
program still shows in full; only the host's drift cancels.

The kernel is a small discrete-event flood in plain Python, the same kind of
work as the simulator: a heapq event queue of tuples, dict lookups on tuple
keys, small `__slots__` objects and int arithmetic.
"""

from __future__ import annotations

import gc
import heapq
import time

# Seconds one kernel slice is scaled to. Round number, near a slice's time on
# the 2-vCPU virtual machine the benchmark was defined on.
NOMINAL_S = 0.05
NODES = 256
EVENTS = 20_000
# What kernel() returns; anything else means the kernel was edited.
CHECKSUM = 582_464


class _Hop:
    __slots__ = ("node", "hops", "origin")

    def __init__(self, node: int, hops: int, origin: int) -> None:
        self.node = node
        self.hops = hops
        self.origin = origin


def kernel() -> int:
    """One slice of fixed work; returns a checksum of what it did."""
    heap = []
    seen = {}
    seq = 0
    for origin in range(0, NODES, 4):
        heapq.heappush(heap, (origin % 7, seq, _Hop(origin, 0, origin)))
        seq += 1
    done = 0
    total = 0
    while heap and done < EVENTS:
        cycle, _, hop = heapq.heappop(heap)
        done += 1
        key = (hop.origin, hop.node)
        if key in seen:
            seen[key] += 1
            continue
        seen[key] = 1
        total += cycle * 3 + hop.hops
        for step in (1, NODES - 1, 16, NODES - 16):
            nxt = (hop.node + step) % NODES
            if (hop.origin, nxt) not in seen:
                heapq.heappush(heap, (cycle + 1 + (nxt & 3), seq, _Hop(nxt, hop.hops + 1, hop.origin)))
                seq += 1
    return total + done + len(seen)


def slice_s() -> float:
    """Host seconds of one kernel slice, checked against CHECKSUM."""
    # The kernel makes no reference cycles. With the collector off its time
    # does not depend on how many objects the caller still holds.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = kernel()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != CHECKSUM:
        raise RuntimeError(f"reference kernel returned {result}, expected {CHECKSUM}")
    return elapsed


def scale(before: float, after: float) -> float:
    """Factor from host seconds to scaled seconds, given the slices around a stretch."""
    return 2 * NOMINAL_S / (before + after)
