"""Single record of the values a caller can set.

`Settings` has three fields, the ones the command line sets: seed,
newton_tol and dedup_tol.  Functions on the analysis path (`analysis.analyze`
and the monodromy, tracking, branch-data and projection steps it calls) take
one `settings: Settings` argument, `DEFAULTS` unless given; an override is a
`dataclasses.replace(DEFAULTS, ...)` and reaches every step that reads its
field.  `bundle.build_cut_disc` takes `settings` too, and the `CutDisc` keeps
it, so every `bundle` function taking the cut disc draws its labeled samples
from its seed and certifies under its newton_tol.  Thresholds nothing varies
are constants beside their one reader: the root residual bound in `cpoly`;
the step floor, corrector iterations, collision factor and base-point grid
in `tracking`; the nullspace cutoff of the dimension check, projection
gap and retries in `commutant`.  `analyze` echoes every field, with the commutant's
nullspace_rtol and projection_gap; `verify-gamma` gives only `seed`; `zn`
gives none.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Settings", "DEFAULTS"]


@dataclass(frozen=True)
class Settings:
    """The three values a caller sets.

    Attributes
    ----------
    newton_tol : float
        Residual bound |B(z) - w| for corrected fiber points.
    dedup_tol : float
        Distance below which two branch-value candidates are identified.
    seed : int
        Default RNG seed of the generic elements drawn for the minimal
        projections and of the bundle's labeled sample points.  Root solving
        and the bundle's quadrature grid are deterministic and take no seed.
    """

    newton_tol: float = 1e-11
    dedup_tol: float = 1e-6
    seed: int = 0


DEFAULTS = Settings()
