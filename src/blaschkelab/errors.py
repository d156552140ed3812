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
    "NonCommutative",
]


class ToolkitError(RuntimeError):
    """Base class for all numerical/structural failures raised by this package."""


class NoConvergence(ToolkitError):
    """Root or Newton iteration exhausted its budget with residuals above the bound."""


class DegenerateClustering(ToolkitError):
    """Two candidate branch values fall inside the dedup ambiguity band, too
    far apart for their rounding radii to merge them and too near to be
    told apart."""


class BranchCountError(ToolkitError):
    """Interior critical multiplicities do not sum to order - 1, or a generator's
    nontrivial cycle lengths differ from the local degrees over its branch value."""


class FiberCollision(ToolkitError):
    """Two fiber points approached within the collision threshold."""


class StepFloorReached(ToolkitError):
    """A tracking step was rejected until its halved spacing fell below the floor."""


class AmbiguousMatching(ToolkitError):
    """End fiber could not be matched bijectively to the start fiber."""


class LoopConstructionFailed(ToolkitError):
    """The cut disc's base point or a segment cut by `split_segment` hits a
    branch value."""


class PathBlocked(ToolkitError):
    """No cut-avoiding route exists between base point and target."""


class NonCommutative(ToolkitError):
    """Commutant is not commutative; minimal projections are not defined here."""
