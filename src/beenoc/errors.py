"""Exception hierarchy shared across the package."""

from __future__ import annotations


class BeenocError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BeenocError):
    """Invalid run configuration, workload file, or CLI usage."""


class InvariantViolationError(BeenocError):
    """A runtime invariant was broken (wire over-subscription, event-cap breach, ...)."""


class ProtocolCorruptionError(InvariantViolationError):
    """A packet violated a structural protocol invariant; the run must abort."""


class InvalidPortError(BeenocError):
    """The local port was used where a 2-bit wire code is required, or a bad code."""


class InvalidPathError(BeenocError):
    """A port-list walk stepped off the mesh."""


class DegenerateFlowError(BeenocError):
    """Source equals destination: local delivery needs no circuit."""
