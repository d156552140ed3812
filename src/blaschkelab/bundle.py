"""Globally continued inverse branches on the cut disc and the induced unitary.

Cutting the disc from each branch value out to the unit circle, along the ray
pointing away from a base point, leaves a domain that is star-shaped about
that base point, on which the n inverse branches sigma_i of a degree-n
Blaschke product extend globally.  This module constructs the cuts, continues
the labeled fiber from the base point along one straight segment to each
point (cut into short pieces by the splitting rule of `tracking`), evaluates
the unitary f -> (1/sqrt n) (f(sigma_i) sigma_i')_i pointwise, and verifies
its defining properties: isometry (against the exact coefficient-side inner
product), intertwining with multiplication by the coordinate, and
disjointness of the branch images.

Sampling, continuation and the report work on one `CutDisc`, which carries
its product and its branch data.  The labeled sample points are drawn from
the seed given to `sigma_samples`, the one function that draws.  The
isometry quadrature draws nothing: one chart per branch value, a
singularity-removing substitution about it, the trapezoid rule in angle.
`verify_disjoint_images` alone builds its own cut disc.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .blaschke import BranchData
from .errors import (
    AmbiguousMatching,
    LoopConstructionFailed,
    NoConvergence,
    PathBlocked,
)
from .tracking import (
    _POLISH_ITERS,
    Fiber,
    Line,
    PathSpec,
    _continue_nodes,
    _fiber_batch,
    _match_rows,
    _polish,
    _polish_tol,
    _raise_first,
    approach,
    certified_step,
    choose_base_point,
    fiber_separation,
    initial_fiber,
    newton_correct,
    point_segment_distance,
    track_paths,
)

__all__ = [
    "CutDisc",
    "Poly",
    "QuadratureGrid",
    "build_cut_disc",
    "point_in_cut_disc",
    "route_in_cut_disc",
    "sigma_values",
    "sigma_samples",
    "gamma_apply",
    "exact_inner",
    "build_quadrature_grid",
    "isometry_details",
    "verify_intertwining",
    "verify_disjoint_images",
    "bundle_report",
]

_TWO_PI = 2.0 * math.pi

# Least distance from a routed point to every cut and to the unit circle
# (`point_in_cut_disc`, `route_in_cut_disc`).
_MIN_CUT_CLEARANCE = 1e-4

# Quadrature (`build_quadrature_grid`): per chart, the angles of the
# trapezoid rule, the levels in t and their ratio in |w - beta|, and the most
# Gauss-Legendre nodes per level.
_ANGLES = 32
_LEVELS = 12
_LEVEL_RATIO = 0.25
_GAUSS_MAX = 8

# Quadrature: fiber rows per block of the isometry sums (`_isometry_estimates`),
# so the evaluation's temporaries stay far smaller than the grid's fibers.
_ROW_BLOCK = 8192

# Cut-disc sampling of `sigma_samples`: sample radius, and the least distance
# from a sample to every branch value and every cut.
_SAMPLE_RMAX = 0.9
_BRANCH_CLEARANCE = 0.05
_CUT_CLEARANCE = 1e-3


@dataclass(frozen=True)
class CutDisc:
    """The unit disc minus one straight cut per branch value.

    Each cut runs from its branch value to the unit circle along the ray
    pointing away from the labeling base point.  Every cut therefore lies on
    a ray from `base`, so the remaining domain is star-shaped about `base`:
    the segment from `base` to any of its points avoids every cut.  Being
    simply connected, it carries the inverse branches labeled at `base` as
    global single-valued functions; `fiber0` is that labeling, the fiber over
    `base` in the slot order of `initial_fiber`.  Across the cut from a
    branch value the labeled branches jump by that value's monodromy
    generator (`monodromy.compute_representation` reads it there).

    It keeps the product `b` and the `branch_data` it was cut from.
    """

    b: object
    branch_data: BranchData
    cuts: tuple
    base: complex
    fiber0: Fiber

    @property
    def branch_values(self) -> tuple:
        return self.branch_data.branch_values


@dataclass(frozen=True)
class Poly:
    """Polynomial with complex coefficients in ascending order
    (coeffs[k] multiplies z**k), the functions f the unitary acts on.

    Trailing zero coefficients are trimmed on construction; the zero
    polynomial is stored as the single coefficient 0.
    """

    coeffs: tuple

    def __init__(self, coeffs):
        arr = [complex(c) for c in coeffs]
        if not arr:
            arr = [0j]
        while len(arr) > 1 and arr[-1] == 0:
            arr.pop()
        object.__setattr__(self, "coeffs", tuple(arr))

    def __call__(self, z):
        """Horner evaluation (`np.polyval`) at a scalar or an ndarray."""
        return np.polyval(self.coeffs[::-1], z)


def _rim_distance(beta: complex, d):
    """Distance from beta to the unit circle along the unit direction(s) d."""
    p = (beta.conjugate() * d).real
    return -p + np.sqrt(np.maximum(p * p + 1.0 - abs(beta) ** 2, 0.0))


def _radial_cut(beta: complex, theta: float) -> Line:
    """Segment from beta along direction theta to the unit circle."""
    d = cmath.exp(1j * theta)
    return Line(beta, beta + float(_rim_distance(beta, d)) * d)


def build_cut_disc(b, base=None) -> CutDisc:
    """Cut system for `b`: each branch value cut away from the base point.

    The cut from beta follows the direction of beta - base out to the unit
    circle.  Raises LoopConstructionFailed if `base` is a branch value,
    which leaves no direction to cut along.  The branch data, the base point
    (`choose_base_point`, unless `base` is given) and the labeling fiber over
    it (`initial_fiber`) are solved once here.
    """
    data = b.branch_data()
    if base is None:
        base = choose_base_point(data.branch_values)
    if any(beta == base for beta in data.branch_values):
        raise LoopConstructionFailed(
            f"the base point {complex(base):.4f} is a branch value"
        )
    cuts = tuple(_radial_cut(beta, cmath.phase(beta - base)) for beta in data.branch_values)
    return CutDisc(b, data, cuts, base, initial_fiber(b, base))


def point_in_cut_disc(cd: CutDisc, z: complex, clearance=None) -> bool:
    """Whether z lies in the cut disc with the given margin from cuts and rim."""
    clearance = _MIN_CUT_CLEARANCE if clearance is None else clearance
    if abs(z) >= 1.0 - clearance:
        return False
    return all(
        point_segment_distance(z, c.start, c.end) >= clearance for c in cd.cuts
    )


def route_in_cut_disc(cd: CutDisc, z: complex) -> PathSpec:
    """The straight segment from the base point to z, cut by the splitting rule.

    The cut disc is star-shaped about its base, so the segment avoids every
    cut whenever z does.  Its pieces are the `approach` to z: each is short
    next to the branch values, one lane of `track_paths`.  Raises
    PathBlocked unless z is in the cut disc with the margin
    `_MIN_CUT_CLEARANCE` (`point_in_cut_disc`).
    """
    start, end = complex(cd.base), complex(z)
    if not point_in_cut_disc(cd, end):
        raise PathBlocked(f"no cut-avoiding route from {start:.4f} to {end:.4f}")
    return PathSpec(segments=approach(start, end, cd.branch_values))


def _labeled_fibers(cd: CutDisc, zs) -> list:
    """Outcome per point of `zs`, in order: its labeled fiber or the error.

    Routes every point from the base by `route_in_cut_disc`, continues
    `cd.fiber0` along all routes in one `track_paths` call and polishes
    every end fiber in one `newton_correct` call (residual `_polish_tol`,
    `_POLISH_ITERS` iterations).  A point's outcome is the fiber in the slot
    order of `cd.fiber0`, or the error its routing (PathBlocked), tracking
    or polish (NoConvergence) produced.  A point within 1e-13 of the base
    gets the base fiber itself.
    """
    zs = [complex(z) for z in zs]
    outcomes = [None] * len(zs)
    rows, paths = [], []
    for k, z in enumerate(zs):
        if abs(z - cd.base) < 1e-13:
            outcomes[k] = np.asarray(cd.fiber0.points, dtype=complex)
            continue
        try:
            paths.append(route_in_cut_disc(cd, z))
        except PathBlocked as exc:
            outcomes[k] = exc
            continue
        rows.append(k)
    tracked = []
    for k, end in zip(rows, track_paths(cd.b, cd.fiber0, paths)):
        if isinstance(end, Exception):
            outcomes[k] = end
        else:
            tracked.append((k, end.points))
    if tracked:
        pts, _, _, ok = newton_correct(
            cd.b,
            np.asarray([points for _, points in tracked], dtype=complex),
            np.array([zs[k] for k, _ in tracked]),
            _polish_tol(cd.b),
            _POLISH_ITERS,
        )
        for i, (k, _) in enumerate(tracked):
            outcomes[k] = pts[i] if ok[i] else NoConvergence(
                f"polishing the fiber at z={zs[k]:.4f} did not converge"
            )
    return outcomes


def _draw(cd: CutDisc, count, radius, seed):
    """Draw points uniformly in the disc of the given radius until `count`
    lie in the cut disc, `_CUT_CLEARANCE` from every cut and
    `_BRANCH_CLEARANCE` from every branch value.  The draws are seeded by
    `seed`.

    Returns (zs, complete), the kept points in draw order; `complete` is
    False when 10000 * count draws did not keep `count`.
    """
    rng = np.random.default_rng(seed)
    zs = []
    for _ in range(10000 * count):
        if len(zs) == count:
            break
        z = radius * math.sqrt(rng.random()) * cmath.exp(1j * _TWO_PI * rng.random())
        if not point_in_cut_disc(cd, z, clearance=_CUT_CLEARANCE):
            continue
        if any(abs(z - v) < _BRANCH_CLEARANCE for v in cd.branch_values):
            continue
        zs.append(z)
    return zs, len(zs) == count


def sigma_values(cd: CutDisc, z) -> np.ndarray:
    """All inverse branches at z, in the slot order fixed by the base labeling.

    Continues the base fiber along the segment from the base point to z and
    polishes the endpoints; component i is sigma_i(z) for the globally
    continued branch whose value at the base point is the cut disc's
    `fiber0.points[i]`.
    Raises NoConvergence if the polish does not reach the residual bound.
    """
    (sig,) = _raise_first(_labeled_fibers(cd, [z]))
    return sig


def sigma_samples(cd: CutDisc, count, seed=0):
    """Labeled inverse-branch fibers at `count` random cut-disc points.

    Points are drawn by `_draw` from `seed` in the disc of radius
    `_SAMPLE_RMAX`.
    Returns (points, fibers) with fibers[k] the slot-ordered branch values at
    points[k].  All points are continued together (`_labeled_fibers`); the
    first failing point in draw order raises its error.  Raises ValueError
    if `count` is below 1.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    zs, complete = _draw(cd, count, _SAMPLE_RMAX, seed)
    if not complete:
        raise PathBlocked("sampling the cut disc kept hitting exclusions")
    fibers = np.array(_raise_first(_labeled_fibers(cd, zs)), dtype=complex)
    return np.asarray(zs, dtype=complex), fibers.reshape(count, cd.b.order)


def gamma_apply(cd: CutDisc, f: Poly, z) -> np.ndarray:
    """Apply the bundle unitary to f at z: component i of the returned array
    is (1/sqrt n) f(sigma_i(z)) sigma_i'(z), in the slot order of `sigma_values`."""
    sig = sigma_values(cd, z)
    return f(sig) / cd.b.derivative_value(sig) / math.sqrt(cd.b.order)


def exact_inner(f: Poly, g: Poly) -> complex:
    """Coefficient-side inner product sum_k f_k conj(g_k) / (k + 1)."""
    total = 0.0 + 0.0j
    for k in range(min(len(f.coeffs), len(g.coeffs))):
        total += f.coeffs[k] * np.conj(g.coeffs[k]) / (k + 1)
    return complex(total)


# ---------------------------------------------------------------------------
# Chart quadrature for the isometry property
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes, fibers, and weights of the deterministic isometry quadrature.

    The summed integrand sum_i f(p_i) conj(g(p_i)) / |B'(p_i)|^2 over the
    unordered fiber {p_i} of each node is branch-label-free, so the grid
    stores raw fibers; evaluating a new (f, g) pair costs two vectorized
    polynomial evaluations, and each monomial of `bundle_report` one product
    with the running power.  Because the inverse-branch images partition the
    disc, this sum integrates to the coefficient-side inner product exactly
    (it is the vector inner product of the 1/sqrt(n)-normalized components
    under the n-weighted fiber metric, the convention that makes the bundle
    map unitary).  The nodes and weights are those of one chart per branch
    value (`build_quadrature_grid`); `correction` marks each chart's
    innermost level, whose summed contribution is reported as the
    excluded-mass bound.

    Fibers come from continuation, every step certified by disjoint error
    balls (`tracking.certified_step`).  `fallbacks` counts the nodes whose
    step failed and that were solved by eigenvalues instead: rejected nodes
    of the continuation loop and rejected steps into the innermost levels.
    Not counted are each ray's seed on the innermost level's outer ring,
    solved by eigenvalues by design, and the fibers whose polish failed.
    The grid depends only on the cut disc's product and branch data and on
    the budget.
    """

    points: np.ndarray
    fibers: np.ndarray
    inv_db2: np.ndarray
    weights: np.ndarray
    correction: np.ndarray
    budget: int
    fallbacks: int


def _continue_paths(cd: CutDisc, ws: np.ndarray, rows, lengths, spokes=None):
    """Unordered fibers of `cd.b` over `ws`, mostly by certified continuation.

    `rows` indexes `ws`: the concatenation of paths of the given
    non-increasing lengths, each an ordered run of nearby regular values.
    Each path's first node and every value on no path and no spoke are
    solved by eigenvalues (`_fiber_batch`); the later nodes are the paths'
    nodes in the continuation loop of `tracking` (`_continue_nodes`).  `spokes`, if
    given, is (targets, sources, dw): row targets[k], on no path, takes one
    `certified_step` from the fiber z at the eigenvalue row sources[k],
    predicted by the Euler step z + dw[k] / B'(z).  Every rejected node or
    spoke is solved by eigenvalues and counted.

    Every accepted fiber is then polished in one call (`tracking._polish`,
    as `initial_fiber` is): next to a critical point a fiber point at
    residual `newton_tol` can sit about newton_tol / |B'| from the root.  A
    fiber whose polish fails is solved by eigenvalues.  B' is evaluated at
    the final fibers.

    Returns (fibers aligned with ws, B' at those fibers, number of rejected
    nodes and spokes).
    """
    b = cd.b
    fibers = np.empty((len(ws), b.order), dtype=complex)
    derivs = np.empty_like(fibers)
    lengths = np.asarray(lengths, dtype=int)
    lengths = lengths[lengths > 0]
    seeds = rows[np.cumsum(lengths) - lengths]
    targets, sources, dw = spokes if spokes is not None else (np.empty(0, dtype=int),) * 3
    by_eigenvalues = np.ones(len(ws), dtype=bool)
    by_eigenvalues[rows] = False
    by_eigenvalues[targets] = False
    by_eigenvalues[seeds] = True
    solve = np.flatnonzero(by_eigenvalues)
    fibers[solve] = _fiber_batch(b, ws[solve])
    derivs[solve] = b.derivative_value(fibers[solve])
    restarted = _continue_nodes(b, ws, rows, lengths, fibers, derivs)
    with np.errstate(all="ignore"):
        pred = fibers[sources] + dw[:, None] / derivs[sources]
    z, db, _, accepted = certified_step(b, pred, ws[targets])
    fibers[targets], derivs[targets] = z, db
    rejected = targets[~accepted]
    fibers[rejected] = _fiber_batch(b, ws[rejected])
    derivs[rejected] = b.derivative_value(fibers[rejected])
    restarted = np.concatenate([restarted, rejected])
    by_eigenvalues[restarted] = True
    polished = np.flatnonzero(~by_eigenvalues)
    if len(polished):
        z, ok = _polish(b, fibers[polished], ws[polished])
        z[~ok] = _fiber_batch(b, ws[polished[~ok]])
        fibers[polished], derivs[polished] = z, b.derivative_value(z)
    return fibers, derivs, len(restarted)


def _gauss_legendre(count: int) -> tuple:
    """Ascending nodes in (0, 1) and weights of the `count`-point
    Gauss-Legendre rule on [0, 1], from the eigenvectors of its Jacobi
    matrix (Golub-Welsch)."""
    k = np.arange(1.0, count)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return (x + 1.0) / 2.0, v[0] ** 2


def build_quadrature_grid(cd: CutDisc, budget) -> QuadratureGrid:
    """Deterministic quadrature nodes: one chart per branch value.

    The chart about beta is w = beta + rho(theta) t^m e^{i theta} over
    t in [0, 1] and theta in [0, 2 pi), where m is the largest local degree
    over beta and rho(theta) the distance from beta to the unit circle along
    the ray (`_rim_distance`); it covers the disc, and the substitution
    r = rho t^m cancels the |w - beta|^(-2(m-1)/m) singularity of the
    integrand at beta (Duffy).  A product without branch values has one
    chart about 0 with m = 1.  In theta the rule is the trapezoid rule on
    `_ANGLES` equispaced angles; in t, `_LEVELS` levels [0, q^((L-1)/m)],
    ..., [q^(1/m), 1] with q = `_LEVEL_RATIO`, of G Gauss-Legendre nodes
    each.  The levels are geometric in |w - beta| = rho t^m, not in t: with
    ratio q in t, the levels of z^5 would reach |w| ~ 3e-17, where the
    absolute residuals of the continuation certify nothing.  The weight of a
    node is
    (2 / M) g m rho^2 t^(2m-1) psi_beta(w), the area element over pi, with
    the partition of unity psi_beta = |w - beta|^-4 / sum_gamma
    |w - gamma|^-4 (1 for a single chart).  `correction` marks each chart's
    innermost level.

    The budget caps the points: G = min(`_GAUSS_MAX`, budget // (charts M
    L)).  Raises ValueError if the budget is below 10^4 or G would be 0.

    Fibers (`_continue_paths`): at each angle of each chart, the innermost
    level's outermost node is solved by eigenvalues (`_fiber_batch`) and
    seeds the chart's ray there.  Every node outside the innermost level
    lies on one ray: a path from the seed out through the other levels in
    ascending t, its 1 + (L - 1) G nodes those of the continuation loop of
    `tracking`.  The paths visit the nodes through an index permutation, so
    the grid keeps its own order (chart, t, angle).  Every other innermost
    node takes one certified step inward from the seed at its angle,
    predicted by the Euler step in the chart variable, dz/dt = m (w - beta)
    / (t B'(z)): the chart is the Puiseux uniformizer at beta, so the fiber
    is nearly linear in t there.  Every step, on a ray or inward down to
    ring 0 (about 1e-10 rho from beta at m = 2), is judged by
    `certified_step`, whose only absolute term is the product's evaluation
    noise; on z^2 to z^5 every fiber lies within 1e-14 |w|^(1/m) of the
    exact roots.  The nodes and weights do not depend on how the
    fibers are solved, and nothing is drawn at random.
    """
    budget = int(budget)
    if budget < 10 ** 4:
        raise ValueError("budget must be at least 10^4")
    data = cd.branch_data
    if data.branch_values:
        centers = np.asarray(data.branch_values, dtype=complex)
        degrees = [max(d) for d in data.local_degrees]
    else:
        centers, degrees = np.zeros(1, dtype=complex), [1]
    # Points per Gauss node of a level.
    per_node = len(centers) * _ANGLES * _LEVELS
    gauss = min(_GAUSS_MAX, budget // per_node)
    if gauss == 0:
        raise ValueError(f"budget {budget} is below {per_node}, one node per level of every chart")
    x, g = _gauss_legendre(gauss)
    d = np.exp(1j * _TWO_PI * np.arange(_ANGLES) / _ANGLES)
    pts, wts, ts = [], [], []
    for beta, m in zip(centers, degrees):
        edges = np.append(0.0, _LEVEL_RATIO ** (np.arange(_LEVELS - 1, -1, -1) / m))
        t = (edges[:-1, None] + np.diff(edges)[:, None] * x).reshape(-1, 1)
        gw = (np.diff(edges)[:, None] * g).reshape(-1, 1)
        rho = _rim_distance(beta, d)
        pts.append((beta + rho * t ** m * d).ravel())
        wts.append((2.0 / _ANGLES * m * gw * rho ** 2 * t ** (2 * m - 1)).ravel())
        ts.append(np.repeat(t.ravel(), _ANGLES))
    points, ts = np.concatenate(pts), np.concatenate(ts)
    # Rows per chart are (level, node, angle); the innermost level comes first.
    per_chart = _LEVELS * gauss * _ANGLES
    dist = np.abs(points[:, None] - centers[None, :])
    own = dist[np.arange(len(points)), np.arange(len(points)) // per_chart]
    with np.errstate(divide="ignore"):
        weights = np.concatenate(wts) / ((own[:, None] / dist) ** 4).sum(axis=1)
    chart, offset = np.divmod(np.arange(len(points)), per_chart)
    correction = offset < gauss * _ANGLES
    # One ray per chart and angle, from the innermost level's outer ring out.
    rings = np.arange(gauss - 1, _LEVELS * gauss)
    rays = (rings[None, :] * _ANGLES + np.arange(_ANGLES)[:, None]).ravel()
    # One spoke from each ray's seed to every other innermost node at its
    # angle, an Euler step in t with dw/dt = m (w - beta) / t.
    targets = np.flatnonzero(offset < (gauss - 1) * _ANGLES)
    sources = per_chart * chart[targets] + (gauss - 1) * _ANGLES + targets % _ANGLES
    slope = np.asarray(degrees)[chart] * (points - centers[chart]) / ts
    dw = (ts[targets] - ts[sources]) * slope[sources]
    fibers, dvals, fallbacks = _continue_paths(
        cd,
        points,
        (per_chart * np.arange(len(centers))[:, None] + rays).ravel(),
        np.full(len(centers) * _ANGLES, len(rings)),
        (targets, sources, dw),
    )
    return QuadratureGrid(
        points=points,
        fibers=fibers,
        inv_db2=1.0 / np.abs(dvals) ** 2,
        weights=weights,
        correction=correction,
        budget=budget,
        fallbacks=fallbacks,
    )


def _isometry_estimates(grid: QuadratureGrid, evaluate, exacts) -> list:
    """(estimate, relative error, excluded mass) of quadrature inner products.

    `evaluate(fibers)` yields, for each inner product <f, g> in turn, f and
    conj(g) at a block of the grid's fiber rows; `exacts` holds their
    coefficient-side values.  Rows go `_ROW_BLOCK` at a time, so the
    evaluation's temporaries stay a block in size; each sample's fiber sum
    and every estimate are the same as over all rows at once.
    """
    sums = np.empty((len(exacts), len(grid.points)), dtype=complex)
    for lo in range(0, len(grid.points), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        for k, (fv, gv) in enumerate(evaluate(grid.fibers[rows])):
            sums[k, rows] = (fv * gv * grid.inv_db2[rows]).sum(axis=1)
    out = []
    for integrand, exact in zip(sums, exacts):
        terms = grid.weights * integrand
        estimate = complex(terms.sum())
        excluded = float(abs(terms[grid.correction].sum()))
        rel = abs(estimate - exact) / (1.0 + abs(exact))
        out.append((estimate, float(rel), excluded))
    return out


def isometry_details(grid: QuadratureGrid, f: Poly, g: Poly) -> dict:
    """Isometry check data on `grid`: estimate, exact value, relative error,
    corrections."""
    exact = exact_inner(f, g)
    ((estimate, rel, excluded),) = _isometry_estimates(
        grid, lambda z: [(f(z), np.conj(g(z)))], [exact]
    )
    return {
        "estimate": estimate,
        "exact": exact,
        "relative_error": rel,
        "excluded_mass_bound": excluded,
        "budget": grid.budget,
    }


def verify_intertwining(b, polys, fibers) -> float:
    """Max residual of the intertwining identity over polynomials and points.

    At each z the identity reads (B f)(sigma_i(z)) sigma_i' = z f(sigma_i(z))
    sigma_i' componentwise, exact up to the fiber tolerance since
    B(sigma_i(z)) = z.  `fibers` holds (points, fibers) from `sigma_samples`;
    B and B' are evaluated there once for all of `polys`.
    """
    zs, sig = fibers
    b_sig, db = b.eval_with_derivative(sig)
    scale = 1.0 / (db * math.sqrt(b.order))

    def residual(f):
        fv = f(sig)
        return float(np.abs(b_sig * fv * scale - zs[:, None] * (fv * scale)).max())

    return max(residual(f) for f in polys)


def _min_separation(b, zs, sig) -> float:
    """Min pairwise distance among the labeled fibers `sig` at the points `zs`.

    Also certifies that the labeling is consistent: at each point, the
    labeled fiber must match the independently solved unordered fiber one to
    one, by the nearest-neighbour rule of `monodromy.match_endpoints`
    (`tracking._match_rows`) within max(min_sep / 3, 1e-9); AmbiguousMatching
    names the first point in draw order that does not.
    """
    if b.order == 1:
        return math.inf
    min_sep = float(fiber_separation(sig).min())
    bound = np.full(len(zs), max(min_sep / 3.0, 1e-9))
    _, messages = _match_rows(sig, _fiber_batch(b, zs), bound)
    for z, message in zip(zs, messages):
        if message is not None:
            raise AmbiguousMatching(
                f"labeled fiber at z={z:.4f} does not biject onto the unordered fiber"
            )
    return min_sep


def verify_disjoint_images(b, samples, seed=0) -> float:
    """`_min_separation` at `samples` points of the cut disc of `b`, drawn
    from `seed`."""
    return _min_separation(b, *sigma_samples(build_cut_disc(b), samples, seed))


def bundle_report(cd: CutDisc, budget, samples, seed=0) -> dict:
    """Verification summary across the three bundle-unitary properties.

    Isometry error is the worst relative error over the monomial pairs
    (z^j, z^j), j <= 5, on one shared quadrature grid, evaluated in one
    power pass: per block of fiber rows, one running power z^j, multiplied
    up once per j, in the arithmetic of `isometry_details`; the excluded-mass
    bound is the largest mass of the charts' innermost levels.  The
    intertwining residual is the worst over the same monomials at `samples`
    tracked cut-disc points drawn from `seed`, whose fibers also
    give the minimal separation (`_min_separation`; infinite for order 1).
    The report echoes that seed; the grid takes none.  Raises ValueError if
    `samples` is below 1.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    grid = build_quadrature_grid(cd, budget)
    monomials = [Poly((0.0,) * j + (1.0,)) for j in range(6)]

    def powers(z):
        zj = np.ones_like(z)
        for j in range(len(monomials)):
            if j:
                zj = zj * z
            yield zj, np.conj(zj)

    iso = 0.0
    excluded = 0.0
    for _, rel, mass in _isometry_estimates(
        grid, powers, [exact_inner(f, f) for f in monomials]
    ):
        iso = max(iso, rel)
        excluded = max(excluded, mass)
    zs, sig = sigma_samples(cd, samples, seed)
    return {
        "isometry_error": iso,
        "intertwining_residual": verify_intertwining(cd.b, monomials, (zs, sig)),
        "min_separation": _min_separation(cd.b, zs, sig),
        "excluded_mass_bound": excluded,
        "budget": grid.budget,
        "seed": seed,
    }
