"""Monodromy, commutants, and reducing-subspace structure of finite
Blaschke products acting by multiplication on the Bergman space.

The pipeline: products, stored as their phase and zeros, the two
eigenproblems built from the zeros alone, whose eigenvalues are the fibers
and the critical points (merged into root clusters), and branch data, whose
values are deduplicated by their own rounding radii (`blaschke`), certified
fiber continuation (`tracking`), monodromy permutations and their group
invariants (`monodromy`), the commutant algebra and its minimal projections
(`commutant`), the one analysis chaining them (`analysis.analyze`),
globally continued inverse branches and the bundle unitary on polynomials
(`bundle`), the exact power-map oracle (`znmodel`), and a JSON/CSV command
line (`cli`).
Nothing takes a settings record: tolerances are worked out from each
product or are constants beside their one reader, and the one seed draws
the bundle's labeled samples (`bundle.sigma_samples`).
"""

from .analysis import Analysis, analyze
from .blaschke import (
    BlaschkeProduct,
    BranchData,
    RootCluster,
    default_taylor_length,
    from_spec,
    random_product,
    taylor,
    to_spec,
    truncated_matrix,
)
from .bundle import (
    CutDisc,
    Poly,
    QuadratureGrid,
    build_cut_disc,
    build_quadrature_grid,
    bundle_report,
    exact_inner,
    gamma_apply,
    isometry_details,
    point_in_cut_disc,
    route_in_cut_disc,
    sigma_samples,
    sigma_values,
    verify_disjoint_images,
    verify_intertwining,
)
from .commutant import (
    CommutantBasis,
    commutant_basis,
    is_commutative,
    minimal_projections,
    permutation_matrix,
)
from .errors import (
    AmbiguousMatching,
    BranchCountError,
    DegenerateClustering,
    FiberCollision,
    LoopConstructionFailed,
    NoConvergence,
    NonCommutative,
    PathBlocked,
    ToolkitError,
)
from .monodromy import (
    MonodromyRep,
    Permutation,
    boundary_product,
    compute_representation,
    crossing_paths,
    group_order,
)
from .tracking import (
    Arc,
    Fiber,
    Line,
    PathSpec,
    approach,
    choose_base_point,
    initial_fiber,
    track,
    track_paths,
    track_with_trace,
)
from .znmodel import cycle_projections, u_i_norm_check, zn_end_to_end, zn_projection

__version__ = "0.1.0"

__all__ = [
    "AmbiguousMatching",
    "Analysis",
    "Arc",
    "BlaschkeProduct",
    "BranchCountError",
    "BranchData",
    "CommutantBasis",
    "CutDisc",
    "DegenerateClustering",
    "Fiber",
    "FiberCollision",
    "Line",
    "LoopConstructionFailed",
    "MonodromyRep",
    "NoConvergence",
    "NonCommutative",
    "PathBlocked",
    "PathSpec",
    "Permutation",
    "Poly",
    "QuadratureGrid",
    "RootCluster",
    "ToolkitError",
    "analyze",
    "approach",
    "boundary_product",
    "build_cut_disc",
    "build_quadrature_grid",
    "bundle_report",
    "choose_base_point",
    "commutant_basis",
    "compute_representation",
    "crossing_paths",
    "cycle_projections",
    "default_taylor_length",
    "exact_inner",
    "from_spec",
    "gamma_apply",
    "group_order",
    "initial_fiber",
    "is_commutative",
    "isometry_details",
    "minimal_projections",
    "permutation_matrix",
    "point_in_cut_disc",
    "random_product",
    "route_in_cut_disc",
    "sigma_samples",
    "sigma_values",
    "taylor",
    "to_spec",
    "track",
    "track_paths",
    "track_with_trace",
    "truncated_matrix",
    "u_i_norm_check",
    "verify_disjoint_images",
    "verify_intertwining",
    "zn_end_to_end",
    "zn_projection",
]
