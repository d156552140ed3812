"""Fiber computation and certified path continuation for Blaschke products.

B is an n-to-1 branched cover of the disc; away from the branch values each
w has a fiber of n distinct preimages.  This module computes initial fibers,
chooses the base point, and continues whole fibers along paths with an Euler predictor (dz = dw / B'(z)) plus a Newton
corrector, halving the step until every corrector run is certified: few
iterations, small residual, and corrections an order of magnitude smaller
than the fiber separation.

`track_paths` continues one start fiber along many paths in lockstep: each
path is a row with its own step control, and one `newton_correct` call
corrects every live row per iteration.  A failing row yields its typed
error as its outcome while the others go on.  `track` is its one-path case.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULTS, Settings
from .cpoly import roots
from .errors import (
    AmbiguousMatching,
    FiberCollision,
    StepFloorReached,
)

__all__ = [
    "Line",
    "Arc",
    "PathSpec",
    "Fiber",
    "initial_fiber",
    "choose_base_point",
    "track",
    "track_paths",
    "track_with_trace",
    "loop_permutation",
    "match_endpoints",
    "winding_number",
    "separation_slope",
    "newton_correct",
    "certified_step",
    "fiber_separation",
    "point_segment_distance",
]

_TWO_PI = 2.0 * math.pi
# A fiber may start a path only if its w lies this close to the path start.
_START_TOL = 1e-9


def point_segment_distance(p: complex, a: complex, b: complex) -> float:
    """Distance from `p` to the segment from `a` to `b` (a point if a == b)."""
    d = b - a
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a) * d.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


@dataclass(frozen=True)
class Line:
    """Straight segment from `start` to `end`, parametrized on [0, 1]."""

    start: complex
    end: complex

    def point(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)

    def reversed(self) -> "Line":
        return Line(self.end, self.start)


@dataclass(frozen=True)
class Arc:
    """Circular arc around `center`: angle sweeps from a0 to a1 (signed)."""

    center: complex
    radius: float
    a0: float
    a1: float

    def point(self, t: float) -> complex:
        ang = self.a0 + t * (self.a1 - self.a0)
        return self.center + self.radius * cmath.exp(1j * ang)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.a1, self.a0)


@dataclass(frozen=True)
class PathSpec:
    """Piecewise path of lines and arcs."""

    segments: tuple

    def __post_init__(self):
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.point(1.0) - b.point(0.0)) > 1e-9:
                raise ValueError("path segments are not contiguous")

    @property
    def start(self) -> complex:
        return self.segments[0].point(0.0)

    @property
    def end(self) -> complex:
        return self.segments[-1].point(1.0)

    @property
    def is_closed(self) -> bool:
        return abs(self.start - self.end) < 1e-12

    def reversed(self) -> "PathSpec":
        segs = tuple(s.reversed() for s in reversed(self.segments))
        return PathSpec(segments=segs)


@dataclass(frozen=True)
class Fiber:
    """The n preimages of a regular value w.

    `initial_fiber` orders points lexicographically by (re, im); fibers
    returned by `track` keep the slot order of the input fiber (slot i is the
    continuation of input point i).
    """

    w: complex
    points: tuple
    separation: float


@lru_cache(maxsize=None)
def _pairs(n):
    """Index arrays (i, j) of the point pairs i < j of an n-point fiber."""
    return np.triu_indices(n, 1)


def fiber_separation(points):
    """Smallest distance between two points of each fiber `points[..., :]`.

    A fiber of one point has no pairs; its separation is infinite.
    """
    n = points.shape[-1]
    if n < 2:
        return np.full(points.shape[:-1], np.inf)
    i, j = _pairs(n)
    return np.abs(points[..., i] - points[..., j]).min(axis=-1)


def newton_correct(b, pred, w, tol, iters):
    """Newton-correct predicted fibers pred[k] onto B(z) = w[k].

    Row k is corrected until its largest residual |B(z) - w[k]| is at most
    `tol` or `iters` corrections are spent; the loop ends once every row has
    converged.  Returns (points, B' at the points, converged rows).  A row
    whose iterate turns non-finite never converges.  Callers apply their own
    acceptance rule on top.  Until some row converges every row is live, and
    the rows are worked on in place rather than gathered by index.
    """
    z = pred.copy()
    db = np.empty_like(z)
    converged = np.zeros(len(z), dtype=bool)
    live = slice(None)
    with np.errstate(all="ignore"):
        for it in range(iters + 1):
            val, dval = b.eval_with_derivative(z[live])
            resid = val - w[live, None]
            done = np.all(np.abs(resid) <= tol, axis=1)
            db[live] = dval
            if done.all():
                converged[live] = True
                break
            if done.any():
                live = np.arange(len(z))[live]
                converged[live[done]] = True
                live, resid, dval = live[~done], resid[~done], dval[~done]
            if it == iters:
                break
            z[live] -= resid / dval
    converged &= np.all(np.isfinite(z), axis=1)
    return z, db, converged


def certified_step(b, pred, w, settings: Settings = DEFAULTS):
    """Newton-correct predicted fibers pred[k] onto B(z) = w[k] and certify.

    The step certificate of `track` and the quadrature continuation.  Returns
    (points, B' there, fiber separations, accepted, collided) per row.  A row
    has collided when it converged (`newton_correct`) with separation at most
    collision_factor * newton_tol; it is accepted when it converged, has not
    collided, and its separation exceeds ten times its largest correction.
    """
    z, db, converged = newton_correct(
        b, pred, w, settings.newton_tol, settings.max_newton_iters
    )
    with np.errstate(all="ignore"):
        sep = fiber_separation(z)
        largest = np.abs(z - pred).max(axis=1)
        collided = converged & (sep <= settings.collision_factor * settings.newton_tol)
        accepted = converged & ~collided & (sep > 10.0 * largest)
    return z, db, sep, accepted, collided


def initial_fiber(b, w, settings: Settings = DEFAULTS) -> Fiber:
    """Solve B(z) = w from scratch; points sorted lexicographically.

    Raises FiberCollision when w is (numerically) a branch value: repeated
    roots or separation below collision_factor * newton_tol.
    """
    w = complex(w)
    g = b.P - w * b.Q
    clusters = roots(g, tol=settings.roots_tol)
    if any(c.multiplicity > 1 for c in clusters):
        raise FiberCollision(f"fiber over {w} contains a multiple point")
    pts = np.array([c.center for c in clusters])
    # Newton polish on B(z) - w down to machine-level residuals.
    for _ in range(4):
        val, deriv = b.eval_with_derivative(pts)
        resid = val - w
        pts = pts - resid / deriv
        if np.max(np.abs(resid)) < 1e-15:
            break
    order = np.lexsort((pts.imag, pts.real))
    pts = pts[order]
    sep = float(fiber_separation(pts))
    if sep <= settings.collision_factor * settings.newton_tol:
        raise FiberCollision(f"fiber separation {sep:.3e} at w={w} is below threshold")
    return Fiber(w=w, points=tuple(pts.tolist()), separation=sep)


def choose_base_point(b, branch_values, settings: Settings = DEFAULTS) -> complex:
    """Grid-search base point maximizing clearance from branch values and the rim.

    Deterministic: scans a grid x grid lattice of cell centers over the
    bounding square (grid = `settings.grid`) and returns the first maximizer
    in scan order.
    """
    grid = settings.grid
    if len(branch_values) == 0:
        return 0j
    centers = -1.0 + (2.0 * np.arange(grid) + 1.0) / grid
    w = centers[:, None] + 1j * centers[None, :]  # w[i, j] = x_i + i y_j
    rim = 1.0 - np.abs(w)
    beta = np.asarray(branch_values, dtype=complex)
    score = np.minimum(rim, np.abs(w[:, :, None] - beta).min(axis=2))
    score[rim <= 0.0] = -np.inf
    i, j = np.unravel_index(np.argmax(score), score.shape)
    return complex(centers[i], centers[j])


def track_paths(b, fiber, paths, settings: Settings = DEFAULTS) -> list:
    """Continue `fiber` along every path in `paths` at once, in lockstep.

    Returns one outcome per path, in order: the end Fiber (slot i follows
    input point i), or the FiberCollision / StepFloorReached instance that
    `track` would raise on that path alone.  Each row keeps its own segment,
    step and acceptance streak; one `newton_correct` call corrects every live
    row per iteration, and rows finish or fail independently.  Every row is
    bit-identical to tracking its path alone.
    """
    return _track_rows(b, fiber, paths, settings)


def track(b, fiber, path, settings: Settings = DEFAULTS, record=None) -> Fiber:
    """Continue a whole fiber along `path`; slot i follows input point i.

    A step from w to w_next is accepted only if the corrector converges for
    every point within the iteration cap, the corrected fiber stays separated
    (FiberCollision otherwise), and the separation exceeds ten times the
    largest Newton correction; otherwise the step is halved down to the floor
    (StepFloorReached).  This is the one-path case of `track_paths`.

    `record`, if given, is called as record(t, w, points) at the start node
    and after every accepted step, with t the global path parameter in [0, 1].
    """
    (end,) = _track_rows(b, fiber, [path], settings, record)
    if isinstance(end, Exception):
        raise end
    return end


def _track_rows(b, fiber, paths, settings: Settings, record=None):
    """Lockstep predictor-corrector behind `track` and `track_paths`.

    Steps are judged by `certified_step`: a collided row ends in
    FiberCollision, any other rejection halves its step.  `record` traces a
    single path; it is refused with several.
    """
    if record is not None and len(paths) != 1:
        raise ValueError("record needs exactly one path")
    if any(abs(fiber.w - path.start) > _START_TOL for path in paths):
        raise ValueError("fiber base does not match path start")
    m = len(paths)
    start = np.array(fiber.points, dtype=complex)
    pts = np.tile(start, (m, 1))
    slope = np.tile(b.derivative_value(start), (m, 1))
    # Per-row state: current w, segment index, parameter s on the segment,
    # step h and the streak of accepted steps since the last rejection.
    w = [complex(path.start) for path in paths]
    iseg, s, h, streak = [0] * m, [0.0] * m, [0.25] * m, [0] * m
    outcomes = [None] * m
    if record is not None:
        record(0.0, w[0], pts[0].copy())
    live = list(range(m))
    while live:
        targets = [min(s[r] + h[r], 1.0) for r in live]
        w_next = [
            complex(paths[r].segments[iseg[r]].point(t)) for r, t in zip(live, targets)
        ]
        rows = np.array(live)
        # Position (in `live`) of each row that took a step, and the index of
        # its corrected fiber in the `certified_step` results.
        slot = [-1] * len(live)
        tried = np.nonzero(np.all(np.abs(slope[rows]) > 1e-30, axis=1))[0]
        if len(tried):
            dw = np.array([w_next[k] - w[live[k]] for k in tried])
            pred = pts[rows[tried]] + dw[:, None] / slope[rows[tried]]
            fit, fit_db, sep, accepted, collided = certified_step(
                b, pred, np.array([w_next[k] for k in tried]), settings
            )
            sep, accepted, collided = sep.tolist(), accepted.tolist(), collided.tolist()
            for j, k in enumerate(tried.tolist()):
                slot[k] = j
        still = []
        for k, r in enumerate(live):
            j = slot[k]
            if j >= 0:
                if collided[j]:
                    outcomes[r] = FiberCollision(
                        f"fiber separation {sep[j]:.3e} under threshold near w={w_next[k]}"
                    )
                    continue
                if accepted[j]:
                    pts[r], slope[r], w[r], s[r] = fit[j], fit_db[j], w_next[k], targets[k]
                    streak[r] += 1
                    if streak[r] >= 2:
                        h[r] = min(2.0 * h[r], 0.25)
                    nseg = len(paths[r].segments)
                    if record is not None:
                        record((iseg[r] + s[r]) / nseg, w[r], pts[r].copy())
                    if s[r] >= 1.0:
                        iseg[r] += 1
                        if iseg[r] == nseg:
                            outcomes[r] = Fiber(
                                w=w[r],
                                points=tuple(pts[r].tolist()),
                                separation=float(fiber_separation(pts[r])),
                            )
                            continue
                        s[r], h[r], streak[r] = 0.0, 0.25, 0
                    still.append(r)
                    continue
            h[r] *= 0.5
            streak[r] = 0
            if h[r] < settings.step_floor:
                outcomes[r] = StepFloorReached(
                    f"step floor reached on segment {iseg[r]} near w={w_next[k]}"
                )
                continue
            still.append(r)
        live = still
    return outcomes


def track_with_trace(b, fiber, path, settings: Settings = DEFAULTS):
    """Like `track` but also returns the list of (t, w, points) nodes."""
    rows = []

    def record(t, w, pts):
        rows.append((t, w, tuple(pts.tolist())))

    end = track(b, fiber, path, settings, record=record)
    return end, rows


def loop_permutation(b, fiber0, loop, settings: Settings = DEFAULTS):
    """Permutation induced by continuing `fiber0` around the closed `loop`.

    Returns the Permutation tau with end.points[i] = fiber0.points[tau(i)]
    (see `match_endpoints`).
    """
    if not loop.is_closed:
        raise ValueError("loop_permutation needs a closed path")
    return match_endpoints(fiber0, track(b, fiber0, loop, settings))


def match_endpoints(fiber0, end):
    """Permutation tau with end.points[i] = fiber0.points[tau(i)].

    Matches endpoints to start points by nearest neighbour within a third of
    the starting separation (AmbiguousMatching otherwise).
    """
    from .monodromy import Permutation

    start_pts = np.array(fiber0.points)
    end_pts = np.array(end.points)
    images = []
    bound = fiber0.separation / 3.0
    for e in end_pts:
        dists = np.abs(start_pts - e)
        j = int(np.argmin(dists))
        if dists[j] >= bound:
            raise AmbiguousMatching(
                f"endpoint {e} is {dists[j]:.3e} from its nearest start point "
                f"(bound {bound:.3e})"
            )
        images.append(j)
    if len(set(images)) != len(images):
        raise AmbiguousMatching("endpoint matching is not a bijection")
    return Permutation(tuple(images))


def winding_number(path, point, samples_per_segment=512) -> float:
    """Total argument increment of (path - point) in turns (independent check)."""
    total = 0.0
    for seg in path.segments:
        prev = cmath.phase(seg.point(0.0) - point)
        for k in range(1, samples_per_segment + 1):
            cur = cmath.phase(seg.point(k / samples_per_segment) - point)
            delta = cur - prev
            while delta > math.pi:
                delta -= _TWO_PI
            while delta < -math.pi:
                delta += _TWO_PI
            total += delta
            prev = cur
    return total / _TWO_PI


def separation_slope(b, beta, radii=(1e-2, 1e-3, 1e-4), samples_per_circle=8):
    """Log-log slope of the minimal fiber separation on circles around `beta`.

    Near a simple branch value the two colliding sheets separate like the
    square root of the distance, so the fitted slope is 0.5.
    """
    min_seps = []
    for r in radii:
        seps = []
        for k in range(samples_per_circle):
            w = beta + r * cmath.exp(2j * math.pi * (k + 0.37) / samples_per_circle)
            seps.append(initial_fiber(b, w).separation)
        min_seps.append(min(seps))
    coef = np.polyfit(np.log(np.asarray(radii)), np.log(np.asarray(min_seps)), 1)
    return float(coef[0])
