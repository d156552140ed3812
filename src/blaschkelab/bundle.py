"""Globally continued inverse branches on the cut disc and the induced unitary.

Cutting the disc from each branch value radially out to the unit circle
leaves a simply connected domain on which the n inverse branches sigma_i of a
degree-n Blaschke product extend globally.  This module constructs the cuts,
routes cut-avoiding polylines for labeled analytic continuation, evaluates
the unitary f -> (1/sqrt n) (f(sigma_i) sigma_i')_i pointwise, and verifies
its defining properties: isometry (against the exact coefficient-side inner
product), intertwining with multiplication by the coordinate, and
disjointness of the branch images.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULTS
from .cpoly import Poly, roots as poly_roots
from .errors import (
    AmbiguousMatching,
    LoopConstructionFailed,
    NoConvergence,
    PathBlocked,
)
from .tracking import (
    Line,
    PathSpec,
    choose_base_point,
    fiber_separation,
    initial_fiber,
    newton_correct,
    point_segment_distance,
    track_paths,
)

__all__ = [
    "CutDisc",
    "GammaSample",
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
    "partition_check",
    "bundle_report",
]

# Successive cut directions are rotated by the golden angle on collision:
# increments equidistribute mod 2pi, so a clear direction is always found.
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CutDisc:
    """The unit disc minus one straight cut per branch value.

    Each cut runs from its branch value to the unit circle (radially outward
    where possible, rotated by golden-angle increments when cuts would meet
    or pass too near the labeling base point).  The remaining domain is
    simply connected, so inverse branches labeled at `base` extend globally.
    """

    branch_values: tuple
    cuts: tuple
    base: complex


@dataclass(frozen=True)
class GammaSample:
    """Value of the bundle unitary at one point: component i is
    (1/sqrt n) f(sigma_i(z)) sigma_i'(z)."""

    z: complex
    values: tuple


def _cross(u, v):
    """Cross product of plane vectors given as complex scalars or arrays."""
    return u.real * v.imag - u.imag * v.real


def _segment_segment_distance(a0, a1, b0, b1) -> float:
    d1 = _cross(a1 - a0, b0 - a0)
    d2 = _cross(a1 - a0, b1 - a0)
    d3 = _cross(b1 - b0, a0 - b0)
    d4 = _cross(b1 - b0, a1 - b0)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return 0.0
    return min(
        point_segment_distance(b0, a0, a1),
        point_segment_distance(b1, a0, a1),
        point_segment_distance(a0, b0, b1),
        point_segment_distance(a1, b0, b1),
    )


def _radial_cut(beta: complex, theta: float) -> Line:
    """Segment from beta along direction theta to the unit circle."""
    d = cmath.exp(1j * theta)
    p = (beta.conjugate() * d).real
    t = -p + math.sqrt(max(p * p + 1.0 - abs(beta) ** 2, 0.0))
    return Line(beta, beta + t * d)


def _try_cuts(betas, base, base_margin):
    chosen = []
    for i, beta in enumerate(betas):
        if abs(beta) > 0:
            theta0 = cmath.phase(beta)
        elif abs(base) > 0:
            theta0 = cmath.phase(-base)
        else:
            theta0 = 0.0
        others = [v for j, v in enumerate(betas) if j != i]
        for m in range(64):
            cut = _radial_cut(beta, theta0 + m * _GOLDEN_ANGLE)
            if point_segment_distance(base, cut.start, cut.end) < base_margin:
                continue
            if any(abs(v - beta) > 0 and
                   point_segment_distance(v, cut.start, cut.end) < 1e-6
                   for v in others):
                continue
            if any(
                _segment_segment_distance(cut.start, cut.end, c.start, c.end)
                < 1e-6
                for c in chosen
            ):
                continue
            chosen.append(cut)
            break
        else:
            return None
    return chosen


def build_cut_disc(b, base=None, branch_values=None) -> CutDisc:
    """Cut system for `b`: disjoint cuts clear of the labeling base point.

    The base-point margin starts at the quadrature exclusion radius and is
    halved (down to the minimum cut clearance) if no direction schedule
    keeps every cut that far away.
    """
    if branch_values is None:
        branch_values = b.branch_data().branch_values
    if base is None:
        base = choose_base_point(b, branch_values)
    betas = tuple(branch_values)
    margin = DEFAULTS.exclusion_radius
    while margin >= DEFAULTS.min_cut_clearance:
        cuts = _try_cuts(betas, base, margin)
        if cuts is not None:
            return CutDisc(branch_values=betas, cuts=tuple(cuts), base=base)
        margin /= 2.0
    raise LoopConstructionFailed(
        "no cut system keeps the required clearance from the base point"
    )


def point_in_cut_disc(cd: CutDisc, z: complex, clearance=None) -> bool:
    """Whether z lies in the cut disc with the given margin from cuts and rim."""
    clearance = DEFAULTS.min_cut_clearance if clearance is None else clearance
    if abs(z) >= 1.0 - clearance:
        return False
    return all(
        point_segment_distance(z, c.start, c.end) >= clearance for c in cd.cuts
    )


def _fan_nodes(cd: CutDisc, eps: float):
    """Waypoints ringing each cut's inner tip for visibility routing.

    Seven nodes per ring cover all directions except a 45-degree wedge
    around the cut itself (nodes there would sit on the segment).  Ring
    radii adapt to the local geometry: besides the nominal eps ring, a tip
    whose neighboring cuts come closer than eps gets a proportionally
    smaller ring, so the corridors between clustered branch values keep
    usable waypoints.
    """
    nodes = []
    for i, cut in enumerate(cd.cuts):
        tip = cut.start
        theta = cmath.phase(cut.end - cut.start)
        clear = min(
            (
                point_segment_distance(tip, other.start, other.end)
                for j, other in enumerate(cd.cuts)
                if j != i
            ),
            default=math.inf,
        )
        radii = sorted({eps, max(min(eps, 0.35 * clear), 1e-8)}, reverse=True)
        for r in radii:
            for j in range(-3, 4):
                node = tip + r * cmath.exp(1j * (theta + math.pi + j * math.pi / 4.0))
                if abs(node) >= 1.0 - 1e-6:
                    continue
                nodes.append(node)
    return nodes


def _segment_distances(p, a, b):
    """`point_segment_distance` from points p to segments ab, elementwise over
    broadcast complex arrays.

    It takes the same floating-point steps: Python's complex `abs` is libm
    `hypot` (numpy's complex `abs` is not, and differs in the last bit), its
    `** 2` is libm `pow` (so `float_power`, not a product), and the real part
    of the complex product is written out.
    """
    d, q = b - a, p - a
    dx, dy = d.real, d.imag
    denom = np.float_power(np.hypot(dx, dy), 2.0)
    t = (q.real * dx + q.imag * dy) / np.where(denom == 0.0, 1.0, denom)
    t = np.minimum(1.0, np.maximum(0.0, t))
    return np.hypot(p.real - (a.real + t * dx), p.imag - (a.imag + t * dy))


# Segment-obstacle pairs per numpy pass of `_visible`: keeps its temporaries
# at tens of kB however many fan nodes, sample points and cuts there are.
_VISIBILITY_BLOCK = 2048


def _visible(cd: CutDisc, eps: float, u, v) -> np.ndarray:
    """Whether each segment u -> v keeps clear of every cut and branch value.

    u and v are complex arrays of endpoints that broadcast to a shape of at
    least one dimension, the shape of the result.  A segment is blocked by a cut it passes nearer than
    0.5 * min(eps, dist(u, cut), dist(v, cut)), or by a branch value beta it
    passes nearer than 0.5 * min(eps, |u - beta|, |v - beta|).  The distances
    take the floating-point steps of the scalar predicate
    (`_segment_segment_distance` and `point_segment_distance`), which the
    tests keep as the reference.  The leading axis is split into blocks of
    about `_VISIBILITY_BLOCK` segment-obstacle pairs (`_visible_block`).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    shape = np.broadcast_shapes(u.shape, v.shape)
    u = u.reshape((1,) * (len(shape) - u.ndim) + u.shape)
    v = v.reshape((1,) * (len(shape) - v.ndim) + v.shape)
    pairs = math.prod(shape[1:]) * (len(cd.cuts) + len(cd.branch_values))
    rows = max(1, _VISIBILITY_BLOCK // max(1, pairs))
    out = np.empty(shape, dtype=bool)
    for lo in range(0, shape[0], rows):
        out[lo:lo + rows] = _visible_block(
            cd,
            eps,
            u if len(u) == 1 else u[lo:lo + rows],
            v if len(v) == 1 else v[lo:lo + rows],
        )
    return out


def _visible_block(cd: CutDisc, eps: float, u, v) -> np.ndarray:
    """`_visible` in one numpy pass per kind of obstacle, over (segments,
    cuts) and (segments, branch values)."""
    u = u[..., None]
    v = v[..., None]
    blocked = np.zeros(np.broadcast_shapes(u.shape, v.shape)[:-1], dtype=bool)
    if cd.cuts:
        c0 = np.array([c.start for c in cd.cuts], dtype=complex)
        c1 = np.array([c.end for c in cd.cuts], dtype=complex)
        du = _segment_distances(u, c0, c1)
        dv = _segment_distances(v, c0, c1)
        # Segment-to-cut distance: 0 where the two properly cross, else the
        # least endpoint-to-segment distance.
        crossing = (
            ((_cross(v - u, c0 - u) > 0) != (_cross(v - u, c1 - u) > 0))
            & ((_cross(c1 - c0, u - c0) > 0) != (_cross(c1 - c0, v - c0) > 0))
        )
        apart = np.minimum(
            np.minimum(_segment_distances(c0, u, v), _segment_distances(c1, u, v)),
            np.minimum(du, dv),
        )
        margin = 0.5 * np.minimum(np.minimum(eps, du), dv)
        blocked |= (np.where(crossing, 0.0, apart) < margin).any(axis=-1)
    if cd.branch_values:
        beta = np.array(cd.branch_values, dtype=complex)
        from_u, from_v = u - beta, v - beta
        margin = 0.5 * np.minimum(
            np.minimum(eps, np.hypot(from_u.real, from_u.imag)),
            np.hypot(from_v.real, from_v.imag),
        )
        blocked |= (_segment_distances(beta, u, v) < margin).any(axis=-1)
    return ~blocked


def _fan_edges(p: complex, fan, clear) -> list:
    """Route edges (j + 2, length) from p to the fan nodes fan[j] it sees."""
    return [(j + 2, abs(p - fan[j])) for j in np.flatnonzero(clear).tolist()]


@lru_cache(maxsize=32)
def _static_graph(cd: CutDisc, eps: float):
    """Fan waypoints, their mutual visibility edges, and the edges from the
    labeling base point to the fan.

    Visibility is decided by one `_visible` call over all fan pairs and one
    over the base point's segments.  Edges are (node, length) pairs
    numbered as in a route, where fan node j is node j + 2 after the route's
    start (0) and end (1), so a route adds its own edges without renumbering.
    """
    nodes = tuple(_fan_nodes(cd, eps))
    fan = np.array(nodes, dtype=complex)
    adj = [[] for _ in nodes]
    pairs = np.nonzero(np.triu(_visible(cd, eps, fan[:, None], fan[None, :]), 1))
    for i, j in zip(*(idx.tolist() for idx in pairs)):
        w = abs(nodes[i] - nodes[j])
        adj[i].append((j + 2, w))
        adj[j].append((i + 2, w))
    base = complex(cd.base)
    base_edges = tuple(_fan_edges(base, nodes, _visible(cd, eps, base, fan)))
    return nodes, tuple(tuple(edges) for edges in adj), base_edges


def _route(start, end, fan, fan_adj, start_edges, end_edges, direct):
    """Dijkstra from start (node 0) to end (node 1) over the fan nodes (2, ...).

    `direct` says whether the segment start -> end is clear.  Returns the
    waypoints, or None when no route exists.
    """
    adj = [[], [], *fan_adj]
    # A fan node's edges back to the start and end, listed after its own.
    back = {}
    if direct:
        w = abs(start - end)
        adj[0].append((1, w))
        adj[1].append((0, w))
    for i, edges in ((0, start_edges), (1, end_edges)):
        for j, w in edges:
            adj[i].append((j, w))
            back.setdefault(j, []).append((i, w))
    n = len(adj)
    dist = [math.inf] * n
    prev = [-1] * n
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == 1:
            break
        for edges in (adj[u], back.get(u, ())):
            for v, w in edges:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
    if not math.isfinite(dist[1]):
        return None
    nodes = [start, end, *fan]
    order = []
    u = 1
    while u != -1:
        order.append(u)
        u = prev[u]
    order.reverse()
    return [nodes[i] for i in order]


def _routes(cd: CutDisc, start: complex, ends, eps: float) -> list:
    """Waypoints of the shortest route from start to each end, or its
    PathBlocked.

    The visibility of every end -> fan node and start -> end segment is
    decided by one `_visible` call each; the fan graph and, from the base
    point, the start's edges come from `_static_graph`.
    """
    fan, fan_adj, base_edges = _static_graph(cd, eps)
    fan_arr = np.array(fan, dtype=complex)
    ends_arr = np.array(ends, dtype=complex)
    if start == cd.base:
        start_edges = base_edges
    else:
        start_edges = _fan_edges(start, fan, _visible(cd, eps, start, fan_arr))
    seen = _visible(cd, eps, ends_arr[:, None], fan_arr[None, :])
    direct = _visible(cd, eps, start, ends_arr).tolist()
    out = []
    for k, end in enumerate(ends):
        pts = _route(start, end, fan, fan_adj, start_edges,
                     _fan_edges(end, fan, seen[k]), direct[k])
        out.append(pts if pts is not None else PathBlocked(
            f"no cut-avoiding route from {start:.4f} to {end:.4f}"
        ))
    return out


def _path_spec(cd: CutDisc, start: complex, end: complex, pts) -> PathSpec:
    """The polyline through `pts`, with its clearance from the branch values."""
    segments = [Line(a, bpt) for a, bpt in zip(pts, pts[1:]) if abs(bpt - a) > 0]
    clearance = (
        min(
            min(point_segment_distance(v, s.start, s.end) for s in segments)
            for v in cd.branch_values
        )
        if cd.branch_values and segments
        else 1.0
    )
    if not segments:
        segments = [Line(start, end)]
    return PathSpec(segments=tuple(segments), clearance=clearance)


def _routes_in_cut_disc(cd: CutDisc, start, ends, via=None) -> list:
    """`route_in_cut_disc` from one start to many ends: per end, in order,
    its PathSpec or the PathBlocked its routing raised."""
    eps = DEFAULTS.visibility_eps
    start = complex(start)
    ends = [complex(z) for z in ends]
    if via is None:
        routes = _routes(cd, start, ends, eps)
    else:
        via = complex(via)
        (head,) = _routes(cd, start, [via], eps)
        if isinstance(head, PathBlocked):
            routes = [head] * len(ends)
        else:
            routes = [
                tail if isinstance(tail, PathBlocked) else head + tail[1:]
                for tail in _routes(cd, via, ends, eps)
            ]
    return [
        pts if isinstance(pts, PathBlocked) else _path_spec(cd, start, end, pts)
        for end, pts in zip(ends, routes)
    ]


def route_in_cut_disc(cd: CutDisc, start: complex, end: complex, via=None) -> PathSpec:
    """Shortest cut-avoiding polyline from start to end inside the cut disc.

    Routes over a visibility graph whose waypoints fan around each cut's
    inner tip (the only side a cut can be passed on, since its outer end
    lies on the unit circle).  `via` forces the route through an extra
    waypoint, giving an independent second route for path-independence tests.
    This is the one-point case of the batched router `_routes_in_cut_disc`,
    which decides visibility for all its ends in numpy passes (`_visible`).
    """
    (path,) = _raise_first(_routes_in_cut_disc(cd, start, [end], via=via))
    return path


def _labeled_fibers(b, zs, cd: CutDisc, fiber0, via=None) -> list:
    """Outcome per point of `zs`, in order: its labeled fiber or the error.

    Routes every point from the base in one batched call
    (`_routes_in_cut_disc`), continues `fiber0` along all routes in one
    `track_paths` call and polishes every end fiber in one
    `newton_correct` call (residual 1e-14, 8 iterations).  A point's outcome
    is the fiber in the slot order of `fiber0`, or the error its routing
    (PathBlocked), tracking or polish (NoConvergence) produced.  A point within
    1e-13 of the base gets the base fiber itself.
    """
    zs = [complex(z) for z in zs]
    outcomes = [None] * len(zs)
    away = []
    for k, z in enumerate(zs):
        if abs(z - cd.base) < 1e-13:
            outcomes[k] = np.asarray(fiber0.points, dtype=complex)
        else:
            away.append(k)
    rows, paths = [], []
    routes = _routes_in_cut_disc(cd, cd.base, [zs[k] for k in away], via=via)
    for k, route in zip(away, routes):
        if isinstance(route, PathBlocked):
            outcomes[k] = route
        else:
            rows.append(k)
            paths.append(route)
    tracked = []
    for k, end in zip(rows, track_paths(b, fiber0, paths)):
        if isinstance(end, Exception):
            outcomes[k] = end
        else:
            tracked.append((k, end.points))
    if tracked:
        pts, _, ok = newton_correct(
            b,
            np.asarray([points for _, points in tracked], dtype=complex),
            np.array([zs[k] for k, _ in tracked]),
            1e-14,
            8,
        )
        for i, (k, _) in enumerate(tracked):
            outcomes[k] = pts[i] if ok[i] else NoConvergence(
                f"polishing the fiber at z={zs[k]:.4f} did not converge"
            )
    return outcomes


def _raise_first(outcomes):
    """The outcomes, raising the first one that is an error."""
    for out in outcomes:
        if isinstance(out, Exception):
            raise out
    return outcomes


def sigma_values(b, z, cut_disc=None, labeling=None, via=None) -> np.ndarray:
    """All inverse branches at z, in the slot order fixed by the base labeling.

    Continues the base fiber along a cut-avoiding route to z and polishes the
    endpoints; component i is sigma_i(z) for the globally continued branch
    whose value at the base point is labeling.points[i].  Raises
    NoConvergence if the polish does not reach the residual bound.
    """
    cd = build_cut_disc(b) if cut_disc is None else cut_disc
    fiber0 = initial_fiber(b, cd.base) if labeling is None else labeling
    (sig,) = _raise_first(_labeled_fibers(b, [z], cd, fiber0, via=via))
    return sig


def sigma_samples(b, count, seed=None, cut_disc=None, rmax=0.9,
                  branch_clearance=0.05, cut_clearance=1e-3):
    """Labeled inverse-branch fibers at `count` random cut-disc points.

    Returns (points, fibers) with fibers[k] the slot-ordered branch values at
    points[k].  All points are continued together (`_labeled_fibers`); the
    first failing point in draw order raises its error.  Downstream checks
    reuse the fibers across test functions.
    """
    cd = build_cut_disc(b) if cut_disc is None else cut_disc
    fiber0 = initial_fiber(b, cd.base)
    rng = np.random.default_rng(DEFAULTS.seed if seed is None else seed)
    zs = []
    attempts = 0
    while len(zs) < count:
        attempts += 1
        if attempts > 10000 * count:
            raise PathBlocked("sampling the cut disc kept hitting exclusions")
        z = rmax * math.sqrt(rng.random()) * cmath.exp(1j * _TWO_PI * rng.random())
        if not point_in_cut_disc(cd, z, clearance=cut_clearance):
            continue
        if any(abs(z - v) < branch_clearance for v in cd.branch_values):
            continue
        zs.append(z)
    fibers = np.empty((count, b.order), dtype=complex)
    for k, sig in enumerate(_raise_first(_labeled_fibers(b, zs, cd, fiber0))):
        fibers[k] = sig
    return np.asarray(zs, dtype=complex), fibers


def gamma_apply(b, f: Poly, z, cut_disc=None, labeling=None) -> GammaSample:
    """Apply the bundle unitary to f at z: (1/sqrt n) f(sigma_i(z)) sigma_i'(z)."""
    sig = sigma_values(b, z, cut_disc=cut_disc, labeling=labeling)
    dvals = b.derivative_value(sig)
    values = f(sig) / dvals / math.sqrt(b.order)
    return GammaSample(z=complex(z), values=tuple(values))


def exact_inner(f: Poly, g: Poly) -> complex:
    """Coefficient-side inner product sum_k f_k conj(g_k) / (k + 1)."""
    total = 0.0 + 0.0j
    for k in range(min(len(f.coeffs), len(g.coeffs))):
        total += f.coeffs[k] * np.conj(g.coeffs[k]) / (k + 1)
    return complex(total)


# ---------------------------------------------------------------------------
# Monte Carlo verification of the isometry property
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureGrid:
    """Precomputed samples, fibers, and weights for the isometry estimate.

    The summed integrand sum_i f(p_i) conj(g(p_i)) / |B'(p_i)|^2 over the
    unordered fiber {p_i} of each sample is branch-label-free, so the grid
    stores raw fibers; evaluating a new (f, g) pair costs two vectorized
    polynomial evaluations.  Because the inverse-branch images partition the
    disc, this sum integrates to the coefficient-side inner product exactly
    (it is the vector inner product of the 1/sqrt(n)-normalized components
    under the n-weighted fiber metric, the convention that makes the bundle
    map unitary).  `correction` marks the samples covering the excluded
    regions (branch-value discs, boundary annulus), whose summed contribution
    is reported as the excluded-mass bound.

    Fibers of the main-region rings and of the boundary annulus come from
    certified continuation along each ring (`_continue_paths`); fibers of the
    branch-value discs come from eigenvalue solves (`_fiber_batch`).
    `fallbacks` counts the continued samples whose step failed its
    certificate and were solved by eigenvalues instead (path seeds are not
    counted); it depends only on the product, budget, and seed.
    """

    points: np.ndarray
    fibers: np.ndarray
    inv_db2: np.ndarray
    weights: np.ndarray
    correction: np.ndarray
    budget: int
    seed: int
    exclusion_radius: float
    annulus_width: float
    fallbacks: int


def _fiber_batch(b, ws: np.ndarray) -> np.ndarray:
    """Unordered fibers of many regular values at once, each solved afresh.

    Solves P(z) - w Q(z) = 0 per sample via batched companion-matrix
    eigenvalues (chunked to bound memory); the leading coefficient never
    degenerates since |Q_n| < 1 = |P_n| inside the disc.  Residuals are
    validated against the scale-aware evaluation bound and rare failures are
    re-solved with the clustering root finder.

    Used where no neighbouring fiber is at hand: the first sample of every
    continuation path, samples whose continuation step fails its
    certificate, the branch-value correction discs of the quadrature grid,
    and the independent unordered fibers of `verify_disjoint_images`.
    """
    n = b.order
    p = np.asarray(b.P.coeffs, dtype=complex)
    q = np.asarray(b.Q.coeffs, dtype=complex)
    q = np.pad(q, (0, len(p) - len(q)))
    out = np.empty((len(ws), n), dtype=complex)
    chunk = 65536
    eye = np.eye(n - 1) if n > 1 else None
    for lo in range(0, len(ws), chunk):
        w = ws[lo:lo + chunk]
        c = p[None, :] - w[:, None] * q[None, :]
        if n == 1:
            out[lo:lo + chunk, 0] = -c[:, 0] / c[:, 1]
            continue
        monic = c / c[:, -1][:, None]
        comp = np.zeros((len(w), n, n), dtype=complex)
        comp[:, 1:, :-1] = eye
        comp[:, :, -1] = -monic[:, :-1]
        roots = np.linalg.eigvals(comp)
        # Horner residual check at the scale-aware bound.
        val = np.zeros_like(roots)
        for k in range(n, -1, -1):
            val = val * roots + c[:, k][:, None]
        scale = (1.0 + np.abs(c).sum(axis=1))[:, None] * np.maximum(
            1.0, np.abs(roots)
        ) ** n
        bad = np.nonzero(np.any(np.abs(val) > 1e-8 * scale, axis=1))[0]
        for idx in bad:
            clusters = poly_roots(Poly(tuple(c[idx])), tol=1e-10)
            redo = []
            for cl in clusters:
                redo.extend([cl.center] * cl.multiplicity)
            roots[idx] = np.asarray(redo, dtype=complex)
        out[lo:lo + chunk] = roots
    return out


def _certified_step(b, pred, w):
    """Newton-correct predicted fibers pred[k] onto B(z) = w[k] and certify.

    Returns (points, B' at the points, accepted): a row is accepted under
    `track`'s certificate, i.e. `newton_correct` converged within
    `max_newton_iters` to `newton_tol`, its fiber separation exceeds
    collision_factor * newton_tol, and that separation exceeds ten times its
    largest net correction.
    """
    newton_tol = DEFAULTS.newton_tol
    z, db, converged = newton_correct(
        b, pred, w, newton_tol, DEFAULTS.max_newton_iters
    )
    with np.errstate(all="ignore"):
        sep = fiber_separation(z)
        largest = np.abs(z - pred).max(axis=1)
        accepted = (
            converged
            & (sep > DEFAULTS.collision_factor * newton_tol)
            & (sep > 10.0 * largest)
        )
    return z, db, accepted


def _continue_paths(b, ws: np.ndarray, lengths):
    """Unordered fibers along sample paths by certified continuation.

    `ws` is the concatenation of paths of the given lengths, each an ordered
    run of nearby regular values.  Every path starts from an eigenvalue fiber
    of its first sample (`_fiber_batch`); each later sample is reached by an
    Euler predictor z + dw / B'(z) from the previous fiber and a Newton
    corrector with the certificate of `_certified_step`.  All paths advance
    together, one vectorized step at a time.  A sample whose step fails the
    certificate is solved by eigenvalues and its path continues from there.

    Returns (fibers aligned with ws, B' at those fibers, number of such
    eigenvalue fallbacks).
    """
    n = b.order
    fibers = np.empty((len(ws), n), dtype=complex)
    derivs = np.empty_like(fibers)
    lengths = np.asarray(lengths, dtype=int)
    lengths = lengths[lengths > 0]
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    # Longest paths first, so the paths still running at step k are a prefix.
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    w = ws[starts]
    z = _fiber_batch(b, w)
    db = b.derivative_value(z)
    fibers[starts] = z
    derivs[starts] = db
    fallbacks = 0
    for k in range(1, int(lengths[0])):
        live = int(np.count_nonzero(lengths > k))
        idx = starts[:live] + k
        w_next = ws[idx]
        with np.errstate(all="ignore"):
            pred = z[:live] + (w_next - w[:live])[:, None] / db[:live]
        z, db, accepted = _certified_step(b, pred, w_next)
        failed = np.nonzero(~accepted)[0]
        if len(failed):
            fallbacks += len(failed)
            z[failed] = _fiber_batch(b, w_next[failed])
            db[failed] = b.derivative_value(z[failed])
        fibers[idx] = z
        derivs[idx] = db
        w = w_next
    return fibers, derivs, fallbacks


def build_quadrature_grid(b, budget, seed=None) -> QuadratureGrid:
    """Stratified samples over the disc split into three regions.

    Main region: the disc trimmed by the boundary annulus, stratified into
    equal-area rings with jittered-angle grids, samples inside any
    branch-value exclusion disc dropped (their area is covered below).
    Correction regions: each exclusion disc is sampled in polar coordinates
    (uniform radius cancels the 1/r blowup of the integrand at the branch
    value, keeping weights bounded) and the annulus uniformly by area.
    Nearest-branch-value ownership resolves overlapping discs so the three
    regions partition the disc exactly.

    Fibers: each main-region ring, in angle order after the exclusion
    filter, is one continuation path, and so is each piece, about one ring
    long, of the angle-ordered annulus samples (`_continue_paths`).  The
    disc samples jump in radius, so they are solved by eigenvalues
    (`_fiber_batch`).  B' of a continued fiber is the one its corrector
    last evaluated; the disc fibers evaluate it afresh.  The samples and
    weights do not depend on how the fibers are solved.
    """
    seed = DEFAULTS.seed if seed is None else int(seed)
    excl = DEFAULTS.exclusion_radius
    aw = DEFAULTS.annulus_width
    budget = int(budget)
    if budget < 10 ** 4:
        raise ValueError("budget must be at least 10^4")
    betas = np.asarray(b.branch_data().branch_values, dtype=complex)
    k = len(betas)
    r_main = 1.0 - aw
    rng = np.random.default_rng(seed)

    n_main = int(0.85 * budget) if k else int(0.95 * budget)
    n_corr = int(0.10 * budget) if k else 0
    n_ann = budget - n_main - n_corr

    pts, wts, corr, on_path, path_lengths = [], [], [], [], []

    def _outside_exclusions(z):
        if k == 0:
            return np.ones(len(z), dtype=bool)
        d = np.abs(z[:, None] - betas[None, :])
        return d.min(axis=1) >= excl

    # Main region: equal-area rings, jittered angles.
    strata = max(16, min(512, int(math.sqrt(n_main))))
    per = [n_main // strata + (1 if j < n_main % strata else 0)
           for j in range(strata)]
    for j in range(strata):
        m = per[j]
        if m == 0:
            continue
        r_lo2 = r_main ** 2 * j / strata
        r_hi2 = r_main ** 2 * (j + 1) / strata
        r = np.sqrt(r_lo2 + rng.random(m) * (r_hi2 - r_lo2))
        th = _TWO_PI * (np.arange(m) + rng.random(m)) / m
        z = r * np.exp(1j * th)
        keep = _outside_exclusions(z)
        kept = int(keep.sum())
        pts.append(z[keep])
        wts.append(np.full(kept, (r_main ** 2 / strata) / m))
        corr.append(np.zeros(kept, dtype=bool))
        on_path.append(np.ones(kept, dtype=bool))
        path_lengths.append(kept)

    # Branch-value discs: polar sampling, nearest-owner indicator.
    if k:
        per_disc = [n_corr // k + (1 if j < n_corr % k else 0) for j in range(k)]
        for i, beta in enumerate(betas):
            m = per_disc[i]
            if m == 0:
                continue
            r = excl * rng.random(m)
            th = _TWO_PI * (np.arange(m) + rng.random(m)) / m
            z = beta + r * np.exp(1j * th)
            keep = np.abs(z) < r_main
            if k > 1:
                d = np.abs(z[:, None] - betas[None, :])
                keep &= d.argmin(axis=1) == i
            pts.append(z[keep])
            wts.append(2.0 * excl * r[keep] / m)
            corr.append(np.ones(int(keep.sum()), dtype=bool))
            on_path.append(np.zeros(int(keep.sum()), dtype=bool))

    # Boundary annulus: uniform by area.
    if n_ann > 0:
        r = np.sqrt(r_main ** 2 + rng.random(n_ann) * (1.0 - r_main ** 2))
        th = _TWO_PI * (np.arange(n_ann) + rng.random(n_ann)) / n_ann
        z = r * np.exp(1j * th)
        pts.append(z)
        wts.append(np.full(n_ann, (1.0 - r_main ** 2) / n_ann))
        corr.append(np.ones(n_ann, dtype=bool))
        on_path.append(np.ones(n_ann, dtype=bool))
        pieces = max(1, round(n_ann / per[0]))
        path_lengths.extend(
            n_ann // pieces + (1 if j < n_ann % pieces else 0)
            for j in range(pieces)
        )

    points = np.concatenate(pts)
    weights = np.concatenate(wts)
    correction = np.concatenate(corr)
    on_path = np.concatenate(on_path)

    fibers = np.empty((len(points), b.order), dtype=complex)
    dvals = np.empty_like(fibers)
    fibers[on_path], dvals[on_path], fallbacks = _continue_paths(
        b, points[on_path], path_lengths
    )
    fibers[~on_path] = _fiber_batch(b, points[~on_path])
    dvals[~on_path] = b.derivative_value(fibers[~on_path])
    inv_db2 = 1.0 / np.abs(dvals) ** 2
    return QuadratureGrid(
        points=points,
        fibers=fibers,
        inv_db2=inv_db2,
        weights=weights,
        correction=correction,
        budget=budget,
        seed=seed,
        exclusion_radius=excl,
        annulus_width=aw,
        fallbacks=fallbacks,
    )


def isometry_details(b, f: Poly, g: Poly, budget=None, seed=None, grid=None) -> dict:
    """Isometry check data: estimate, exact value, relative error, corrections."""
    if grid is None:
        grid = build_quadrature_grid(b, budget, seed=seed)
    fv = f(grid.fibers)
    gv = np.conj(g(grid.fibers))
    integrand = (fv * gv * grid.inv_db2).sum(axis=1)
    terms = grid.weights * integrand
    estimate = complex(terms.sum())
    excluded = float(abs(terms[grid.correction].sum()))
    exact = exact_inner(f, g)
    rel = abs(estimate - exact) / (1.0 + abs(exact))
    return {
        "estimate": estimate,
        "exact": exact,
        "relative_error": float(rel),
        "excluded_mass_bound": excluded,
        "budget": grid.budget,
        "seed": grid.seed,
    }


def verify_intertwining(b, f: Poly, samples, seed=None, cut_disc=None,
                        fibers=None) -> float:
    """Max residual of the intertwining identity over random cut-disc points.

    At each z the identity reads (B f)(sigma_i(z)) sigma_i' = z f(sigma_i(z))
    sigma_i' componentwise, exact up to the fiber tolerance since
    B(sigma_i(z)) = z.  `fibers` accepts precomputed (points, fibers) from
    `sigma_samples` so several test functions share one continuation pass.
    """
    if fibers is None:
        fibers = sigma_samples(b, samples, seed=seed, cut_disc=cut_disc)
    zs, sig = fibers
    dv = b.derivative_value(sig)
    scale = 1.0 / (dv * math.sqrt(b.order))
    gamma_f = f(sig) * scale
    gamma_bf = b(sig) * f(sig) * scale
    resid = np.abs(gamma_bf - zs[:, None] * gamma_f)
    return float(resid.max())


def verify_disjoint_images(b, samples, seed=None, cut_disc=None,
                           fibers=None) -> float:
    """Min pairwise distance among the labeled branch values over the samples.

    Also certifies that the labeling is consistent: at each sample, the
    labeled fiber must match the independently solved unordered fiber one to
    one (AmbiguousMatching for the first sample in draw order that does not).
    All samples are matched in one (samples, n, n) distance array.
    """
    if fibers is None:
        fibers = sigma_samples(b, samples, seed=seed, cut_disc=cut_disc)
    zs, sig = fibers
    n = b.order
    if n == 1:
        return math.inf
    min_sep = float(fiber_separation(sig).min())
    raw = _fiber_batch(b, zs)
    tol = max(min_sep / 3.0, 1e-9)
    dd = np.abs(sig[:, :, None] - raw[:, None, :])
    bijective = (np.sort(dd.argmin(axis=2), axis=1) == np.arange(n)).all(axis=1)
    bad = np.flatnonzero(~bijective | (dd.min(axis=2).max(axis=1) > tol))
    if len(bad):
        raise AmbiguousMatching(
            f"labeled fiber at z={zs[bad[0]]:.4f} does not biject onto the "
            "unordered fiber"
        )
    return min_sep


def partition_check(b, samples, seed=None, cut_disc=None) -> bool:
    """Each sampled disc point is hit by exactly one branch image.

    Draws p uniformly in the disc, keeps those whose image w = B(p) lies in
    the cut disc, and verifies that exactly one labeled branch value at w
    reproduces p.  All kept points are continued together
    (`_labeled_fibers`) and checked in draw order: the first miss returns
    False, the first failing point before it raises its error.
    """
    cd = build_cut_disc(b) if cut_disc is None else cut_disc
    fiber0 = initial_fiber(b, cd.base)
    rng = np.random.default_rng(DEFAULTS.seed if seed is None else seed)
    ps, ws = [], []
    attempts = 0
    blocked = False
    while len(ws) < samples:
        attempts += 1
        if attempts > 10000 * samples:
            blocked = True
            break
        p = 0.95 * math.sqrt(rng.random()) * cmath.exp(1j * _TWO_PI * rng.random())
        w = b(p)
        if not point_in_cut_disc(cd, w, clearance=1e-3):
            continue
        if any(abs(w - v) < 0.05 for v in cd.branch_values):
            continue
        ps.append(p)
        ws.append(w)
    for p, sig in zip(ps, _labeled_fibers(b, ws, cd, fiber0)):
        if isinstance(sig, Exception):
            raise sig
        if int(np.sum(np.abs(sig - p) < 1e-6)) != 1:
            return False
    if blocked:
        raise PathBlocked("sampling the disc kept leaving the cut disc")
    return True


def bundle_report(b, budget, samples, seed=None, max_degree=5) -> dict:
    """Verification summary across the three bundle-unitary properties.

    Isometry error is the worst relative error over monomial pairs up to
    `max_degree` on one shared quadrature grid; the intertwining residual is
    the worst over the same monomials at `samples` tracked cut-disc points.
    """
    seed = DEFAULTS.seed if seed is None else int(seed)
    cd = build_cut_disc(b)
    grid = build_quadrature_grid(b, budget, seed=seed)
    monomials = [Poly((0.0,) * j + (1.0,)) for j in range(max_degree + 1)]
    iso = 0.0
    excluded = 0.0
    for f in monomials:
        det = isometry_details(b, f, f, grid=grid)
        iso = max(iso, det["relative_error"])
        excluded = max(excluded, det["excluded_mass_bound"])
    fibers = sigma_samples(b, samples, seed=seed, cut_disc=cd)
    inter = max(
        verify_intertwining(b, f, samples, cut_disc=cd, fibers=fibers)
        for f in monomials
    )
    min_sep = verify_disjoint_images(b, samples, cut_disc=cd, fibers=fibers)
    return {
        "isometry_error": iso,
        "intertwining_residual": inter,
        "min_separation": min_sep,
        "excluded_mass_bound": excluded,
        "budget": int(budget),
        "seed": seed,
    }
