"""Deterministic discrete-event simulator of bee-style QoS circuit setup on a
2D-mesh network-on-chip with spatial-division-multiplexed links.

Flooding forward bees discover paths recorded as 2-bit port codes, up to
three backward bees race to reserve wires along the discovered routes, the
earliest one back at the source wins the circuit, and everything else is
released. The package also ships a feasibility oracle for any mesh size, a
reproducible traffic generator, and a metrics pipeline.
"""

from .config import RunConfig, echo_lines, parse_config, validate_config
from .engine import FlowPhase, FlowRecord, Simulator, run_simulation
from .errors import (
    BeenocError,
    ConfigError,
    DegenerateFlowError,
    InvalidPathError,
    InvalidPortError,
    InvariantViolationError,
    ProtocolCorruptionError,
)
from .metrics import FLOWS_HEADER, SUMMARY_HEADER, FlowRow, MetricsReport, RunStats, Summary, write_report
from .oracle import ScenarioOutcome, circuit_fits, shortest_feasible_length, single_flow_scenario, soundness_violation
from .protocol import (
    BackwardBee,
    ControlKind,
    ControlPacket,
    FlowId,
    ForwardBee,
    PortList,
    decode_port,
    encode_port,
    serialize_forward_bee,
    walk,
)
from .router import (
    BackwardOutcome,
    handle_backward_bee,
    handle_control,
    handle_forward_bee,
    release_for_backward_bee,
)
from .topology import NON_LOCAL_PORTS, Mesh, Network, NodeId, PortDir
from .traffic import FlowSpec, generate_traffic, make_rng, parse_workload

__version__ = "0.1.0"
