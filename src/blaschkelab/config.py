"""Single record of every tolerance and budget used by the toolkit.

All functions take keyword overrides but default to the values below; the CLI
echoes the effective record into every JSON report so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["Settings", "DEFAULTS"]


@dataclass(frozen=True)
class Settings:
    """Default tolerances, thresholds, and budgets.

    Attributes
    ----------
    roots_tol : float
        Residual bound for polynomial root clusters: |p(center)| must not
        exceed roots_tol * (1 + l1-norm of the coefficients).
    cluster_cap : float
        Upper cap on the multiplicity-aware cluster merge radius.
    root_budget : int
        Maximum simultaneous-iteration count for the root finder.
    newton_tol : float
        Residual bound |B(z) - w| for corrected fiber points.
    dedup_tol : float
        Distance below which two branch-value candidates are identified.
    step_floor : float
        Smallest admissible continuation step (in segment parameter).
    max_newton_iters : int
        Corrector iterations allowed per tracking or quadrature continuation
        step.
    collision_factor : float
        Fiber points closer than collision_factor * newton_tol abort tracking
        (and send a quadrature continuation step to the eigenvalue solver).
    grid : int
        Base-point search resolution (grid x grid over the bounding square).
    group_cap : int
        Maximum group-closure size before GroupTooLarge (10!).
    nullspace_rtol : float
        Singular values below nullspace_rtol * sigma_max span the commutant.
    projection_gap : float
        Eigenvalue gap used to split the generic element's spectrum.
    projection_retries : int
        Fresh generic elements tried before DegenerateGenericElement.
    exclusion_radius : float
        Radius of the disc excluded around each branch value in quadrature.
    annulus_width : float
        Width of the boundary annulus excluded in quadrature.
    visibility_eps : float
        Offset used for visibility-graph nodes around cut tips.
    min_cut_clearance : float
        Sigma evaluation requires targets at least this far from every cut.
    isometry_bound : float
        CLI failure threshold on the isometry relative error.
    intertwining_bound : float
        CLI failure threshold on the intertwining residual.
    seed : int
        Default RNG seed for every stochastic component.
    """

    roots_tol: float = 1e-12
    cluster_cap: float = 1e-3
    root_budget: int = 500
    newton_tol: float = 1e-11
    dedup_tol: float = 1e-6
    step_floor: float = 1e-12
    max_newton_iters: int = 5
    collision_factor: float = 10.0
    grid: int = 64
    group_cap: int = 3_628_800
    nullspace_rtol: float = 1e-10
    projection_gap: float = 1e-6
    projection_retries: int = 5
    exclusion_radius: float = 0.05
    annulus_width: float = 0.02
    visibility_eps: float = 1e-3
    min_cut_clearance: float = 1e-4
    isometry_bound: float = 1e-2
    intertwining_bound: float = 1e-8
    seed: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULTS = Settings()
