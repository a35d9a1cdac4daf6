"""Exception types shared across the package.

The hierarchy mirrors the failure categories surfaced by the command-line
tools: configuration problems, numerical failures during estimation or
simulation, and invalid internal state.  I/O failures are reported through
the builtin ``OSError``.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """A configuration file or argument set is invalid or inconsistent."""


class NumericalError(RuntimeError):
    """Base class for runtime numerical failures."""


class NearSingularError(NumericalError):
    """A matrix to be inverted is ill-conditioned beyond the allowed limit;
    ``cond`` is its condition number, ``inf`` when it is exactly singular."""

    def __init__(self, message: str, cond: float):
        super().__init__(f"{message} (condition number {cond:.6g})")
        self.cond = cond


class SimulationDivergedError(NumericalError):
    """A simulated state left the admissible range (non-finite or huge)."""

    def __init__(self, epoch: int, node: int, value: float):
        super().__init__(
            f"state diverged at epoch {epoch}, node {node} (value {value!r})"
        )
        self.epoch = epoch
        self.node = node
        self.value = value


class FunctionDomainError(NumericalError):
    """An input fell outside the domain of a function inverse."""

    def __init__(self, message: str, value: float,
                 node: int | None = None, epoch: int | None = None):
        where = []
        if epoch is not None:
            where.append(f"epoch {epoch}")
        if node is not None:
            where.append(f"node {node}")
        suffix = f" at {', '.join(where)}" if where else ""
        super().__init__(f"{message}{suffix}: value {value!r}")
        self.value = value
        self.node = node
        self.epoch = epoch


class DegenerateClusterError(NumericalError):
    """Clustering input admits no two-group split (all values equal)."""


class InvalidStateError(RuntimeError):
    """An operation was applied to an object in an unusable state."""
