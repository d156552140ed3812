"""Single record of the tolerances and budgets a caller can set.

`Settings` has eleven fields: roots_tol, newton_tol, dedup_tol, step_floor,
max_newton_iters, collision_factor, grid, nullspace_rtol, projection_gap,
projection_retries and seed.  Functions on the analysis path
(`analysis.analyze` and the monodromy, tracking, branch-data and commutant
steps it calls) take one `settings: Settings` argument, `DEFAULTS` unless
given; an override is a `dataclasses.replace(DEFAULTS, ...)` and reaches every
step that reads its field.  The command line sets `seed`, `newton_tol` and
`dedup_tol` this way.  Root solving takes no seed, so `seed` reaches only
the minimal projections and the bundle's labeled samples.
`bundle.build_cut_disc` takes `settings` too: the branch data, base point and
labeling fiber of the one cut disc follow it, and the `CutDisc` keeps it, so
every `bundle` function taking the cut disc draws its labeled samples from
its seed and certifies under its tolerances; the quadrature grid draws
nothing.  Thresholds nothing varies are constants beside their one
reader.  Reports do not echo the whole record:
`analyze` gives `seed` and, under "tolerances", newton_tol, dedup_tol,
nullspace_rtol and projection_gap; `verify-gamma` gives only `seed`; `zn`
gives none.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["Settings", "DEFAULTS"]


@dataclass(frozen=True)
class Settings:
    """Default tolerances, thresholds, and budgets: the eleven fields below.

    `bundle.build_cut_disc` takes a `Settings`, and the cut disc it builds
    carries it to the rest of `bundle`.

    Attributes
    ----------
    roots_tol : float
        Residual bound for polynomial root clusters: |p(center)| must not
        exceed roots_tol * (1 + l1-norm of the coefficients).
    newton_tol : float
        Residual bound |B(z) - w| for corrected fiber points.
    dedup_tol : float
        Distance below which two branch-value candidates are identified.
    step_floor : float
        Smallest spacing of a retried tracking step (in segment parameter).
    max_newton_iters : int
        Corrector iterations allowed per tracking or quadrature continuation
        step.
    collision_factor : float
        Fiber points closer than collision_factor * newton_tol abort tracking
        (and send a quadrature continuation step to the eigenvalue solver).
    grid : int
        Base-point search resolution (grid x grid over the bounding square).
    nullspace_rtol : float
        Singular values below nullspace_rtol * sigma_max span the commutant.
    projection_gap : float
        Eigenvalue gap used to split the generic element's spectrum.
    projection_retries : int
        Fresh generic elements tried before DegenerateGenericElement.
    seed : int
        Default RNG seed of the generic elements drawn for the minimal
        projections and of the bundle's labeled sample points.  Root solving
        and the bundle's quadrature grid are deterministic and take no seed.
    """

    roots_tol: float = 1e-12
    newton_tol: float = 1e-11
    dedup_tol: float = 1e-6
    step_floor: float = 1e-12
    max_newton_iters: int = 5
    collision_factor: float = 10.0
    grid: int = 64
    nullspace_rtol: float = 1e-10
    projection_gap: float = 1e-6
    projection_retries: int = 5
    seed: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULTS = Settings()
