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
    _correct,
    choose_base_point,
    initial_fiber,
    track,
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
    "verify_isometry",
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


def _cross(u: complex, v: complex) -> float:
    return u.real * v.imag - u.imag * v.real


def _point_segment_distance(p: complex, a: complex, b: complex) -> float:
    d = b - a
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a).real * d.real + (p - a).imag * d.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def _segment_segment_distance(a0, a1, b0, b1) -> float:
    d1 = _cross(a1 - a0, b0 - a0)
    d2 = _cross(a1 - a0, b1 - a0)
    d3 = _cross(b1 - b0, a0 - b0)
    d4 = _cross(b1 - b0, a1 - b0)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return 0.0
    return min(
        _point_segment_distance(b0, a0, a1),
        _point_segment_distance(b1, a0, a1),
        _point_segment_distance(a0, b0, b1),
        _point_segment_distance(a1, b0, b1),
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
            if _point_segment_distance(base, cut.start, cut.end) < base_margin:
                continue
            if any(abs(v - beta) > 0 and
                   _point_segment_distance(v, cut.start, cut.end) < 1e-6
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
        _point_segment_distance(z, c.start, c.end) >= clearance for c in cd.cuts
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
                _point_segment_distance(tip, other.start, other.end)
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


@lru_cache(maxsize=32)
def _static_graph(cd: CutDisc, eps: float):
    """Fan waypoints plus their precomputed mutual visibility edges."""
    nodes = tuple(_fan_nodes(cd, eps))
    n = len(nodes)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if _edge_clear(nodes[i], nodes[j], cd, eps):
                w = abs(nodes[i] - nodes[j])
                adj[i].append((j, w))
                adj[j].append((i, w))
    return nodes, tuple(tuple(edges) for edges in adj)


def _edge_clear(u: complex, v: complex, cd: CutDisc, eps: float) -> bool:
    for cut in cd.cuts:
        margin = 0.5 * min(
            eps,
            _point_segment_distance(u, cut.start, cut.end),
            _point_segment_distance(v, cut.start, cut.end),
        )
        if _segment_segment_distance(u, v, cut.start, cut.end) < margin:
            return False
    for beta in cd.branch_values:
        margin = 0.5 * min(eps, abs(u - beta), abs(v - beta))
        if _point_segment_distance(beta, u, v) < margin:
            return False
    return True


def _route(cd: CutDisc, start: complex, end: complex, eps: float):
    fan, fan_adj = _static_graph(cd, eps)
    nodes = [start, end] + list(fan)
    n = len(nodes)
    adj = [[] for _ in range(n)]
    for i, edges in enumerate(fan_adj):
        adj[i + 2] = [(j + 2, w) for j, w in edges]
    for i in (0, 1):
        for j in range(i + 1, n):
            if _edge_clear(nodes[i], nodes[j], cd, eps):
                w = abs(nodes[i] - nodes[j])
                adj[i].append((j, w))
                adj[j].append((i, w))
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
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if not math.isfinite(dist[1]):
        raise PathBlocked(
            f"no cut-avoiding route from {start:.4f} to {end:.4f}"
        )
    order = []
    u = 1
    while u != -1:
        order.append(u)
        u = prev[u]
    order.reverse()
    return [nodes[i] for i in order]


def route_in_cut_disc(cd: CutDisc, start: complex, end: complex, via=None) -> PathSpec:
    """Shortest cut-avoiding polyline from start to end inside the cut disc.

    Routes over a visibility graph whose waypoints fan around each cut's
    inner tip (the only side a cut can be passed on, since its outer end
    lies on the unit circle).  `via` forces the route through an extra
    waypoint, giving an independent second route for path-independence tests.
    """
    eps = DEFAULTS.visibility_eps
    if via is None:
        pts = _route(cd, complex(start), complex(end), eps)
    else:
        head = _route(cd, complex(start), complex(via), eps)
        tail = _route(cd, complex(via), complex(end), eps)
        pts = head + tail[1:]
    segments = [Line(a, bpt) for a, bpt in zip(pts, pts[1:]) if abs(bpt - a) > 0]
    clearance = (
        min(
            min(_point_segment_distance(v, s.start, s.end) for s in segments)
            for v in cd.branch_values
        )
        if cd.branch_values and segments
        else 1.0
    )
    if not segments:
        segments = [Line(complex(start), complex(end))]
    return PathSpec(segments=tuple(segments), clearance=clearance)


def sigma_values(b, z, cut_disc=None, labeling=None, via=None) -> np.ndarray:
    """All inverse branches at z, in the slot order fixed by the base labeling.

    Continues the base fiber along a cut-avoiding route to z and polishes the
    endpoints; component i is sigma_i(z) for the globally continued branch
    whose value at the base point is labeling.points[i].  Raises
    NoConvergence if the polish does not reach the residual bound.
    """
    cd = build_cut_disc(b) if cut_disc is None else cut_disc
    fiber0 = initial_fiber(b, cd.base) if labeling is None else labeling
    z = complex(z)
    if abs(z - cd.base) < 1e-13:
        return np.asarray(fiber0.points, dtype=complex)
    path = route_in_cut_disc(cd, cd.base, z, via=via)
    end = track(b, fiber0, path)
    pts, ok, _ = _correct(b, np.asarray(end.points, dtype=complex), z, 1e-14, 8)
    if not ok:
        raise NoConvergence(f"polishing the fiber at z={z:.4f} did not converge")
    return pts


def sigma_samples(b, count, seed=None, cut_disc=None, rmax=0.9,
                  branch_clearance=0.05, cut_clearance=1e-3):
    """Labeled inverse-branch fibers at `count` random cut-disc points.

    Returns (points, fibers) with fibers[k] the slot-ordered branch values at
    points[k].  One tracked continuation per point; downstream checks reuse
    the fibers across test functions.
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
    for k, z in enumerate(zs):
        fibers[k] = sigma_values(b, z, cut_disc=cd, labeling=fiber0)
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


def _stacked_coeffs(b) -> np.ndarray:
    """P and Q coefficients, highest degree first, shaped (deg + 1, 2, 1, 1)
    to broadcast against (paths, n) arrays of fiber points."""
    p = np.asarray(b.P.coeffs, dtype=complex)
    q = np.asarray(b.Q.coeffs, dtype=complex)
    pq = np.zeros((max(len(p), len(q)), 2), dtype=complex)
    pq[:len(p), 0] = p
    pq[:len(q), 1] = q
    return pq[::-1, :, None, None]


def _value_and_derivative(pq, z):
    """B(z) and B'(z) from `_stacked_coeffs`, P and Q in one Horner pass."""
    v = np.empty((2,) + z.shape, dtype=complex)
    v[...] = pq[0]
    dv = np.zeros_like(v)
    for c in pq[1:]:
        dv *= z
        dv += v
        v *= z
        v += c
    (p, q), (dp, dq) = v, dv
    return p / q, (dp * q - p * dq) / (q * q)


def _certified_step(pq, pred, w):
    """Newton-correct predicted fibers pred[k] onto B(z) = w[k].

    Row k is corrected until its largest residual |B(z) - w[k]| is at most
    `newton_tol` or `max_newton_iters` corrections are spent; the loop ends
    once every row has converged.  Returns (points, B' at the points,
    accepted): a row is accepted under `track`'s certificate, i.e. it
    converged, its minimum point separation exceeds collision_factor *
    newton_tol, and that separation exceeds ten times its largest net
    correction.  A fiber of one point has no pairs; its separation is
    infinite.
    """
    newton_tol = DEFAULTS.newton_tol
    max_iters = DEFAULTS.max_newton_iters
    z = pred.copy()
    db = np.empty_like(z)
    converged = np.zeros(len(z), dtype=bool)
    live = np.arange(len(z))
    with np.errstate(all="ignore"):
        for it in range(max_iters + 1):
            val, dval = _value_and_derivative(pq, z[live])
            resid = val - w[live, None]
            done = np.all(np.abs(resid) <= newton_tol, axis=1)
            db[live] = dval
            converged[live[done]] = True
            live, resid, dval = live[~done], resid[~done], dval[~done]
            if len(live) == 0 or it == max_iters:
                break
            z[live] -= resid / dval
        n = z.shape[1]
        if n > 1:
            i, j = np.triu_indices(n, 1)
            sep = np.abs(z[:, i] - z[:, j]).min(axis=1)
        else:
            sep = np.full(len(z), np.inf)
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

    Returns (fibers aligned with ws, number of such eigenvalue fallbacks).
    """
    n = b.order
    fibers = np.empty((len(ws), n), dtype=complex)
    lengths = np.asarray(lengths, dtype=int)
    lengths = lengths[lengths > 0]
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    # Longest paths first, so the paths still running at step k are a prefix.
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    pq = _stacked_coeffs(b)
    w = ws[starts]
    z = _fiber_batch(b, w)
    db = _value_and_derivative(pq, z)[1]
    fibers[starts] = z
    fallbacks = 0
    for k in range(1, int(lengths[0])):
        live = int(np.count_nonzero(lengths > k))
        idx = starts[:live] + k
        w_next = ws[idx]
        with np.errstate(all="ignore"):
            pred = z[:live] + (w_next - w[:live])[:, None] / db[:live]
        z, db, accepted = _certified_step(pq, pred, w_next)
        failed = np.nonzero(~accepted)[0]
        if len(failed):
            fallbacks += len(failed)
            z[failed] = _fiber_batch(b, w_next[failed])
            db[failed] = _value_and_derivative(pq, z[failed])[1]
        fibers[idx] = z
        w = w_next
    return fibers, fallbacks


def build_quadrature_grid(b, budget, seed=None, exclusion_radius=None,
                          annulus_width=None) -> QuadratureGrid:
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
    (`_fiber_batch`).  The samples and weights do not depend on how the
    fibers are solved.
    """
    seed = DEFAULTS.seed if seed is None else int(seed)
    excl = DEFAULTS.exclusion_radius if exclusion_radius is None else exclusion_radius
    aw = DEFAULTS.annulus_width if annulus_width is None else annulus_width
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
    fibers[on_path], fallbacks = _continue_paths(b, points[on_path], path_lengths)
    fibers[~on_path] = _fiber_batch(b, points[~on_path])
    dvals = b.derivative_value(fibers)
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


def verify_isometry(b, f: Poly, g: Poly, budget, seed=None, grid=None) -> float:
    """Relative error between the sampled bundle-side inner product and the
    exact coefficient-side value |estimate - exact| / (1 + |exact|)."""
    return isometry_details(b, f, g, budget=budget, seed=seed, grid=grid)[
        "relative_error"
    ]


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
    one (AmbiguousMatching otherwise).
    """
    if fibers is None:
        fibers = sigma_samples(b, samples, seed=seed, cut_disc=cut_disc)
    zs, sig = fibers
    n = b.order
    if n == 1:
        return math.inf
    d = np.abs(sig[:, :, None] - sig[:, None, :])
    d[:, np.arange(n), np.arange(n)] = np.inf
    min_sep = float(d.min())
    raw = _fiber_batch(b, zs)
    tol = max(min_sep / 3.0, 1e-9)
    for kk in range(len(zs)):
        dd = np.abs(sig[kk][:, None] - raw[kk][None, :])
        match = dd.argmin(axis=1)
        if len(set(match.tolist())) != n or dd.min(axis=1).max() > tol:
            raise AmbiguousMatching(
                f"labeled fiber at z={zs[kk]:.4f} does not biject onto the "
                "unordered fiber"
            )
    return min_sep


def partition_check(b, samples, seed=None, cut_disc=None) -> bool:
    """Each sampled disc point is hit by exactly one branch image.

    Draws p uniformly in the disc, keeps those whose image w = B(p) lies in
    the cut disc, and verifies that exactly one labeled branch value at w
    reproduces p.
    """
    cd = build_cut_disc(b) if cut_disc is None else cut_disc
    fiber0 = initial_fiber(b, cd.base)
    rng = np.random.default_rng(DEFAULTS.seed if seed is None else seed)
    checked = 0
    attempts = 0
    while checked < samples:
        attempts += 1
        if attempts > 10000 * samples:
            raise PathBlocked("sampling the disc kept leaving the cut disc")
        p = 0.95 * math.sqrt(rng.random()) * cmath.exp(1j * _TWO_PI * rng.random())
        w = b(p)
        if not point_in_cut_disc(cd, w, clearance=1e-3):
            continue
        if any(abs(w - v) < 0.05 for v in cd.branch_values):
            continue
        sig = sigma_values(b, w, cut_disc=cd, labeling=fiber0)
        hits = int(np.sum(np.abs(sig - p) < 1e-6))
        if hits != 1:
            return False
        checked += 1
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
