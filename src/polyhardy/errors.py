"""Exception types shared across the toolkit."""
from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit errors. ``exit_code`` is the command
    line's exit status for it: 1 for a refused input, 2 for a failed
    verdict."""

    exit_code = 1


class GradeError(ToolkitError):
    """Grade mismatch, cap violation, or invalid grade parameters."""


class PolynomialParseError(ToolkitError):
    """Malformed polynomial expression."""


class DegenerateInputError(ToolkitError):
    """Input that collapses to nothing (empty or zero generators)."""


class NotInvariantError(ToolkitError):
    """A subspace required to be shift-invariant is not."""

    exit_code = 2


class NotIsometricError(ToolkitError):
    """A multiplier required to be isometric is not."""

    exit_code = 2


class FlaggedWanderingError(ToolkitError):
    """Extraction refused: wandering basis contains truncation-suspect vectors."""

    exit_code = 2


class CapacityError(ToolkitError):
    """Requested grade exceeds the configured memory budget."""


class PipelineError(ToolkitError):
    """Scenario pipeline misconfiguration (unknown or out-of-order step)."""
