"""Typed error hierarchy for numerical failure modes.

Every error that can abort an analysis derives from :class:`ToolkitError`, so
callers (and the CLI) can report which stage failed without string matching.
"""

from __future__ import annotations

__all__ = [
    "ToolkitError",
    "NoConvergence",
    "DegenerateClustering",
    "BranchCountError",
    "FiberCollision",
    "StepFloorReached",
    "AmbiguousMatching",
    "LoopConstructionFailed",
    "PathBlocked",
    "GroupTooLarge",
    "NonCommutative",
    "DegenerateGenericElement",
]


class ToolkitError(RuntimeError):
    """Base class for all numerical/structural failures raised by this package."""


class NoConvergence(ToolkitError):
    """Root or Newton iteration exhausted its budget with residuals above the bound."""


class DegenerateClustering(ToolkitError):
    """Two candidate branch values fall inside the dedup ambiguity band."""


class BranchCountError(ToolkitError):
    """Critical-point multiplicities inside the disc do not sum to order - 1."""


class FiberCollision(ToolkitError):
    """Two fiber points approached within the collision threshold."""


class StepFloorReached(ToolkitError):
    """Adaptive continuation halved its step below the floor without acceptance."""


class AmbiguousMatching(ToolkitError):
    """End fiber could not be matched bijectively to the start fiber."""


class LoopConstructionFailed(ToolkitError):
    """Loop geometry could not be built (detour insertion cycled)."""


class PathBlocked(ToolkitError):
    """No cut-avoiding route exists between base point and target."""


class GroupTooLarge(ToolkitError):
    """Group closure exceeded the configured element cap."""


class NonCommutative(ToolkitError):
    """Commutant is not commutative; minimal projections are not defined here."""


class DegenerateGenericElement(ToolkitError):
    """Generic self-adjoint element kept producing degenerate spectra."""
