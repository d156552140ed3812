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
    "AmbiguousMatching",
    "LoopConstructionFailed",
    "PathBlocked",
    "NonCommutative",
]


class ToolkitError(RuntimeError):
    """Base class for all numerical/structural failures raised by this package."""


class NoConvergence(ToolkitError):
    """An iteration missed its residual bound, or a point left its Koebe ball."""


class DegenerateClustering(ToolkitError):
    """Two candidate branch values fall inside the dedup ambiguity band, too
    far apart for their rounding radii to merge them and too near to be
    told apart."""


class BranchCountError(ToolkitError):
    """Interior critical multiplicities do not sum to order - 1, or a generator's
    nontrivial cycle lengths differ from the local degrees over its branch value."""


class FiberCollision(ToolkitError):
    """Two fiber points, or their Koebe balls, came too close to tell apart."""


class AmbiguousMatching(ToolkitError):
    """End fiber could not be matched bijectively to the start fiber."""


class LoopConstructionFailed(ToolkitError):
    """The cut disc's base point or a segment meets a branch value, or a lane
    step on a segment not cut by `split_segment` reaches a singular value."""


class PathBlocked(ToolkitError):
    """No cut-avoiding route exists between base point and target."""


class NonCommutative(ToolkitError):
    """Commutant is not commutative; minimal projections are not defined here."""
