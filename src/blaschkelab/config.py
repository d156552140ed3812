"""Single record of the values a caller can set.

`Settings` has the two fields the command line sets: dedup_tol (`analyze`)
and seed (`verify-gamma`).  Functions on the analysis path
(`analysis.analyze` and the monodromy and branch-data steps it calls) take
one `settings: Settings` argument, `DEFAULTS` unless given, and read only
dedup_tol; an override is a `dataclasses.replace(DEFAULTS, ...)`.
`bundle.build_cut_disc` takes it too, and its `CutDisc` draws labeled
samples from the seed, the one reader of the seed.  Tracking takes none: its
tolerance comes from the product (`tracking.newton_tol`), and the minimal
projections draw nothing.  Thresholds nothing varies are constants beside
their one reader.  `analyze` echoes dedup_tol and the tracking tolerance in
effect; `verify-gamma` gives only `seed`; `zn` gives none.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Settings", "DEFAULTS"]


@dataclass(frozen=True)
class Settings:
    """The two values a caller sets.

    Attributes
    ----------
    dedup_tol : float
        Distance below which two branch-value candidates are identified.
    seed : int
        RNG seed of the bundle's labeled sample points.  Nothing else draws
        at random: root solving, the minimal projections and the bundle's
        quadrature grid are deterministic and take no seed.
    """

    dedup_tol: float = 1e-6
    seed: int = 0


DEFAULTS = Settings()
