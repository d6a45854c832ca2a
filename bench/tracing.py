"""Per-layer timing of a simulator run, measured from outside the program.

`LayerTracer.run(sim, flows)` replaces the public entry points of each
layer (router handlers, `Mesh`/`Network` methods, `ForwardBee.advanced`,
`PortList.reverse_complement`, `Simulator.transit`, `metrics.build_report`)
with timing wrappers for the duration of one `Simulator.run()` call, and
puts the originals back afterwards. Nothing in the package is edited.

Each wrapped call is a span whose parent is the innermost open span. A
flood16 pass makes millions of calls, so calls are not kept one by one:
each name keeps a call count and a self time (the call's duration minus
the time covered by its child spans), and the `engine.run` span around
`Simulator.run()` is their common root. Self times therefore add up to
`engine.run` exactly. The wrappers' own cost lands in the caller's self
time; the benchmark reports it as `trace_overhead_s`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from beenoc import BackwardBee, ForwardBee, Mesh, Network, PortList, Simulator
from beenoc import metrics as beenoc_metrics
from beenoc import router


class LayerTracer:
    """Accumulates per-layer counts and self times over the runs of one pass."""

    def __init__(self) -> None:
        self.calls: dict[str, list] = {}  # name -> [calls, self seconds]
        self.run_s = 0.0
        self.run_self_s = 0.0
        self.forward_emissions = 0
        self.backward_emitted = 0
        self.reserve_ok = 0
        self.release_empty = 0
        self.live_reservations_peak = 0
        self.discovery_cycles: list[int] = []
        self.reservation_cycles: list[int] = []
        self._stack: list[float] = []  # child time covered so far, per open span
        self._live = 0
        self._sim: Simulator | None = None
        self._arrival: dict = {}
        self._emitted_at: dict = {}

    def run(self, sim: Simulator, flows):
        """`sim.run()` with every layer wrapped; returns its report."""
        self._sim = sim
        self._arrival = {spec.flow: spec.arrival_time for spec in flows}
        self._emitted_at = {}
        self._live = 0
        split_start = len(self.discovery_cycles)
        with self._installed():
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                report = sim.run()
            finally:
                elapsed = time.perf_counter() - start
                child = self._stack.pop()
        self.run_s += elapsed
        self.run_self_s += elapsed - child
        self._sim = None
        self._check_split(flows, report, split_start)
        return report

    def self_s(self, prefix: str) -> float:
        """Summed self time of every wrapped name starting with `prefix`."""
        return sum(s for name, (_, s) in self.calls.items() if name.startswith(prefix))

    def _check_split(self, flows, report, split_start: int) -> None:
        # Discovery plus reservation must be the setup latency the engine
        # reports, for exactly the established flows.
        splits = [
            d + r
            for d, r in zip(self.discovery_cycles[split_start:], self.reservation_cycles[split_start:])
        ]
        latencies = [row.setup_latency for row in report.flows if row.ever_established]
        if sorted(splits) != sorted(latencies):
            raise RuntimeError("discovery + reservation cycles do not match the reported setup latencies")

    # -- wrappers ---------------------------------------------------------

    @contextmanager
    def _installed(self):
        targets = (
            ("router.forward", router, "handle_forward_bee", self._after_forward),
            ("router.backward", router, "handle_backward_bee", self._after_backward),
            ("router.control", router, "handle_control", None),
            ("topology.neighbor", Mesh, "neighbor", None),
            ("topology.residual", Network, "residual", None),
            ("topology.reserve", Network, "reserve", self._after_reserve),
            ("topology.release", Network, "release", self._after_release),
            ("topology.drain_dirty", Network, "drain_dirty", None),
            ("protocol.advanced", ForwardBee, "advanced", None),
            ("protocol.reverse_complement", PortList, "reverse_complement", None),
            ("engine.transit", Simulator, "transit", None),
            ("metrics.build_report", beenoc_metrics, "build_report", None),
        )
        saved = []
        try:
            for name, owner, attr, hook in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, name: str, fn, hook):
        stat = self.calls.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - child

        return wrapper

    def _after_forward(self, args, emissions) -> None:
        self.forward_emissions += len(emissions)
        if emissions and isinstance(emissions[0][1], BackwardBee):
            back = emissions[0][1]
            self.backward_emitted += 1
            self._emitted_at[(back.flow, back.bee_index)] = self._sim.clock

    def _after_backward(self, args, outcome) -> None:
        if outcome.kind == "accepted":
            bee = args[1]
            emitted = self._emitted_at[(bee.flow, bee.bee_index)]
            self.discovery_cycles.append(emitted - self._arrival[bee.flow])
            self.reservation_cycles.append(self._sim.clock - emitted)

    def _after_reserve(self, args, ok) -> None:
        if ok:
            self.reserve_ok += 1
            self._live += 1
            self.live_reservations_peak = max(self.live_reservations_peak, self._live)

    def _after_release(self, args, freed) -> None:
        if freed:
            self._live -= 1
        else:
            self.release_empty += 1
