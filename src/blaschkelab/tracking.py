"""Fiber computation and certified path continuation for Blaschke products.

B is an n-to-1 branched cover of the disc; away from the branch values each
w has a fiber of n distinct preimages.  This module computes initial fibers,
chooses the base point, and continues whole fibers along paths with an Euler
predictor (dz = dw / B'(z)) plus a Newton corrector, halving the step until
every corrector run is certified: few iterations, small residual, and
corrections an order of magnitude smaller than the fiber separation.

`track_paths` continues one start fiber along many paths in one lockstep
loop whose rows are lanes: every segment of every path is one lane with its
own step control, and one `newton_correct` call corrects every live lane per
iteration.  A path's first lane starts from the given fiber; each later lane
starts from the eigenvalue fiber of its start (`_fiber_batch`, one call for
all of them), and the lanes of a path are chained by matching fibers at
their junctions.  Path builders cut their segments by one rule
(`split_segment`) into pieces short next to the branch values, so that a
lane typically finishes in the minimum four certified steps.  A failing lane
or junction yields its typed error as its path's outcome while the others go
on.  `track` is the one-path case.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULTS, Settings
from .cpoly import Poly, _companion_roots, roots
from .errors import (
    AmbiguousMatching,
    FiberCollision,
    LoopConstructionFailed,
    StepFloorReached,
)

__all__ = [
    "Line",
    "Arc",
    "PathSpec",
    "Fiber",
    "split_segment",
    "approach",
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
# `split_segment` cuts pieces no longer than this fraction of the distance
# from their start to the nearest branch value.  At 1 a piece may end on the
# circle through that value: on the seed-2026 suite of 30 products its
# longest lane took 28 tries.  At 0.7 every lane took the minimum 4; 0.5 did
# too, with 60% more start fibers solved by eigenvalues.
_REACH_FRACTION = 0.7


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
        # np.exp, as in the lanes' stacked evaluation (`_segment_points`).
        return complex(self.center + self.radius * np.exp(1j * ang))

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


def split_segment(seg, branch_values) -> tuple:
    """`seg` (a `Line` or an `Arc`) as contiguous pieces of its own kind.

    The one splitting rule of the package's paths: each piece is no longer
    (an arc's by arc length) than `_REACH_FRACTION` times the distance from
    its start to the nearest branch value, so it lies well inside a disc
    about its start that holds no branch value, and a lane on it (see
    `track_paths`) finishes in few certified steps.  Without branch values
    the segment is one piece; the last piece ends exactly where the segment
    does.  Raises LoopConstructionFailed if the segment runs into a branch
    value, toward which the pieces would otherwise shrink forever.
    """
    arc = isinstance(seg, Arc)
    # The position along the segment: an angle on an arc, a point on a line.
    cur, end = (seg.a0, seg.a1) if arc else (complex(seg.start), complex(seg.end))
    scale = seg.radius if arc else 1.0
    pieces = []
    while True:
        at = seg.center + seg.radius * cmath.exp(1j * cur) if arc else cur
        reach = _REACH_FRACTION * min((abs(at - v) for v in branch_values), default=math.inf)
        left = scale * abs(end - cur)
        if reach > 0.0 and left <= reach:
            nxt = end
        else:
            nxt = cur + (reach / left) * (end - cur) if reach > 0.0 else cur
            if nxt == cur:
                target = seg.point(1.0) if arc else end
                raise LoopConstructionFailed(f"the segment to {target:.4f} meets a branch value")
        pieces.append(Arc(seg.center, seg.radius, cur, nxt) if arc else Line(cur, nxt))
        if nxt == end:
            return tuple(pieces)
        cur = nxt


def approach(start: complex, z: complex, branch_values) -> tuple:
    """The segment from `start` to `z` as contiguous `Line`s (`split_segment`)."""
    return split_segment(Line(start, z), branch_values)


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


def _fiber_batch(b, ws: np.ndarray) -> np.ndarray:
    """Unordered fibers of many regular values at once, each solved afresh.

    Solves P(z) - w Q(z) = 0 per sample with the batched companion-eigenvalue
    kernel of `cpoly` (chunked to bound memory); the leading coefficient
    never degenerates since |Q_n| < 1 = |P_n| inside the disc.  Residuals
    are validated against the scale-aware evaluation bound and rare failures
    are re-solved by `cpoly.roots`, which merges clusters and polishes
    multiple roots.  Each row is bit-identical to solving its value alone.

    Used where no neighbouring fiber is at hand: the start of every lane
    after a path's first (`track_paths`), the first sample of every
    quadrature continuation path, quadrature samples whose continuation
    step fails its certificate or whose polish fails, the innermost band of
    each branch-value disc of the quadrature grid, and the independent
    unordered fibers of `bundle._min_separation`.
    """
    n = b.order
    p = np.asarray(b.P.coeffs, dtype=complex)
    q = np.asarray(b.Q.coeffs, dtype=complex)
    q = np.pad(q, (0, len(p) - len(q)))
    out = np.empty((len(ws), n), dtype=complex)
    chunk = 65536
    for lo in range(0, len(ws), chunk):
        w = ws[lo:lo + chunk]
        c = p[None, :] - w[:, None] * q[None, :]
        found = _companion_roots(c)
        # Horner residual check at the scale-aware bound.
        val = np.zeros_like(found)
        for k in range(n, -1, -1):
            val = val * found + c[:, k][:, None]
        scale = (1.0 + np.abs(c).sum(axis=1))[:, None] * np.maximum(
            1.0, np.abs(found)
        ) ** n
        bad = np.nonzero(np.any(np.abs(val) > 1e-8 * scale, axis=1))[0]
        for idx in bad:
            clusters = roots(Poly(c[idx]), tol=1e-10)
            found[idx] = [cl.center for cl in clusters for _ in range(cl.multiplicity)]
        out[lo:lo + chunk] = found
    return out


def track_paths(b, fiber, paths, settings: Settings = DEFAULTS) -> list:
    """Continue `fiber` along every path in `paths` at once, in lockstep.

    Returns one outcome per path, in order: the end Fiber (slot i follows
    input point i), or the first failure in path order.  Every segment of
    every path is one lane of one lockstep loop (`_track_lanes`); a path's
    first lane starts from `fiber`, every later lane from the eigenvalue
    fiber of its start, all solved in one `_fiber_batch` call under
    `initial_fiber`'s collision rule.  At each junction the end fiber of a
    lane is matched to the start fiber of the next by `match_endpoints`'
    rule, for all junctions at once, and the path's end fiber is its last
    lane's end in the slot order of `fiber`.  A failure is a lane's
    FiberCollision (at its start or on it) or StepFloorReached ("segment k"
    names the lane's index in its path), or AmbiguousMatching at a
    junction.  Lanes are bit-identical however many paths are tracked
    together, and equal segments at equal positions are tracked once.
    Build paths with `split_segment` so that every lane is short.
    """
    return _track_rows(b, fiber, paths, settings)


def track(b, fiber, path, settings: Settings = DEFAULTS, record=None) -> Fiber:
    """Continue a whole fiber along `path`; slot i follows input point i.

    A step from w to w_next is accepted only if the corrector converges for
    every point within the iteration cap, the corrected fiber stays separated
    (FiberCollision otherwise), and the separation exceeds ten times the
    largest Newton correction; otherwise the step is halved down to the floor
    (StepFloorReached).  Each segment of `path` is continued on its own from
    its start fiber and joined to the next at their common point, as in
    `track_paths`, of which this is the one-path case.

    `record`, if given, is called as record(t, w, points) at the start node
    and at every accepted node, in path order, once the path is tracked, with
    t the global path parameter in [0, 1] (segment k spans [k, k + 1] / the
    number of segments) and the points in the slot order of `fiber`.  Nodes
    up to the path's first failure are recorded.
    """
    (end,) = _track_rows(b, fiber, [path], settings, record)
    if isinstance(end, Exception):
        raise end
    return end


def _segment_points(segs):
    """Stacked `point` of the segments: at(rows, t)[k] is segs[rows[k]].point(t[k]).

    Lines and arcs are evaluated by the formulas of `Line.point` and
    `Arc.point`, in numpy, so each value is bit-identical to the method's.
    """
    arc = np.array([isinstance(seg, Arc) for seg in segs], dtype=bool)
    origin = np.array([seg.center if a else seg.start for seg, a in zip(segs, arc)], dtype=complex)
    delta = np.array([0j if a else seg.end - seg.start for seg, a in zip(segs, arc)], dtype=complex)
    radius = np.array([seg.radius if a else 0.0 for seg, a in zip(segs, arc)])
    a0 = np.array([seg.a0 if a else 0.0 for seg, a in zip(segs, arc)])
    sweep = np.array([seg.a1 - seg.a0 if a else 0.0 for seg, a in zip(segs, arc)])

    def at(rows, t):
        out = origin[rows] + t * delta[rows]
        on = arc[rows]
        if on.any():
            q = rows[on]
            out[on] = origin[q] + radius[q] * np.exp(1j * (a0[q] + t[on] * sweep[q]))
        return out

    return at


def _track_lanes(b, pts, segs, positions, errors, settings: Settings, keep_nodes=False):
    """Lockstep predictor-corrector: continue fiber pts[k] along segs[k].

    Each lane keeps its own state, in arrays over the lanes: w, points, B'
    there, the parameter s on its segment, the step h and the streak of
    accepted steps since its last rejection.  Steps are judged by
    `certified_step`: a collided lane ends in FiberCollision, any other
    rejection halves its step (StepFloorReached below the floor;
    `positions[k]` is the segment index its message names).  Lanes whose
    `errors` entry is set are not continued; failures are written there.

    Returns (points, w) at the lanes' ends and, with `keep_nodes`, the
    accepted nodes (s, w, points) of every lane.
    """
    pts = pts.copy()
    m = len(segs)
    at = _segment_points(segs)
    w = at(np.arange(m), np.zeros(m))
    slope = b.derivative_value(pts)
    s, h = np.zeros(m), np.full(m, 0.25)
    streak = np.zeros(m, dtype=int)
    nodes = [[] for _ in range(m)] if keep_nodes else None
    live = np.flatnonzero([e is None for e in errors])
    while len(live):
        t = np.minimum(s[live] + h[live], 1.0)
        w_next = at(live, t)
        accepted = np.zeros(len(live), dtype=bool)
        ended = np.zeros(len(live), dtype=bool)
        tried = np.flatnonzero(np.all(np.abs(slope[live]) > 1e-30, axis=1))
        if len(tried):
            rows = live[tried]
            pred = pts[rows] + (w_next[tried] - w[rows])[:, None] / slope[rows]
            fit, fit_db, sep, ok, collided = certified_step(b, pred, w_next[tried], settings)
            for j in np.flatnonzero(collided):
                errors[rows[j]] = FiberCollision(
                    f"fiber separation {sep[j]:.3e} under threshold "
                    f"near w={complex(w_next[tried[j]])}"
                )
            ended[tried[collided]] = True
            accepted[tried[ok]] = True
            rows = rows[ok]
            pts[rows], slope[rows] = fit[ok], fit_db[ok]
            w[rows], s[rows] = w_next[accepted], t[accepted]
            streak[rows] += 1
            h[rows] = np.where(streak[rows] >= 2, np.minimum(2.0 * h[rows], 0.25), h[rows])
            if keep_nodes:
                for r in rows.tolist():
                    nodes[r].append((float(s[r]), complex(w[r]), pts[r].copy()))
            ended |= accepted & (t >= 1.0)
        rejected = np.flatnonzero(~accepted & ~ended)
        rows = live[rejected]
        h[rows] *= 0.5
        streak[rows] = 0
        for k in rejected[h[rows] < settings.step_floor].tolist():
            errors[live[k]] = StepFloorReached(
                f"step floor reached on segment {positions[live[k]]} "
                f"near w={complex(w_next[k])}"
            )
            ended[k] = True
        live = live[~ended]
    return pts, w, nodes


def _track_rows(b, fiber, paths, settings: Settings, record=None):
    """Lanes, junctions and per-path outcomes behind `track` and `track_paths`.

    `record` traces a single path; it is refused with several.
    """
    if record is not None and len(paths) != 1:
        raise ValueError("record needs exactly one path")
    if any(abs(fiber.w - path.start) > _START_TOL for path in paths):
        raise ValueError("fiber base does not match path start")
    # One lane per distinct (segment, index in its path), numbered in order.
    index, path_lanes = {}, []
    for path in paths:
        path_lanes.append(
            [index.setdefault((seg, k), len(index)) for k, seg in enumerate(path.segments)]
        )
    if not index:
        return []
    segs = [seg for seg, _ in index]
    positions = [k for _, k in index]
    start = np.array(fiber.points, dtype=complex)
    starts = np.tile(start, (len(segs), 1))
    errors = [None] * len(segs)
    later = np.flatnonzero(positions)
    if len(later):
        ws = _segment_points(segs)(later, np.zeros(len(later)))
        starts[later] = _fiber_batch(b, ws)
        threshold = settings.collision_factor * settings.newton_tol
        for r, w0, sep in zip(later.tolist(), ws, fiber_separation(starts[later])):
            if sep <= threshold:
                errors[r] = FiberCollision(
                    f"fiber separation {sep:.3e} at w={complex(w0)} is below threshold"
                )
    started = [e is None for e in errors]
    ends, w, nodes = _track_lanes(
        b, starts, segs, positions, errors, settings, keep_nodes=record is not None
    )
    # Every junction whose two fibers exist, matched at once.
    junctions = sorted({
        (a, c) for lanes in path_lanes for a, c in zip(lanes, lanes[1:])
        if errors[a] is None and started[c]
    })
    matches = {}
    if junctions:
        a, c = np.array(junctions).T
        images, messages = _match_rows(
            ends[a], starts[c], fiber_separation(starts[c]) / 3.0
        )
        matches = {
            key: image if message is None else AmbiguousMatching(message)
            for key, image, message in zip(junctions, images, messages)
        }
    outcomes = []
    for path, lanes in zip(paths, path_lanes):
        # slots[i] is the slot of path slot i in the current lane.
        slots = np.arange(len(start))
        if record is not None:
            record(0.0, complex(path.start), start.copy())
        for k, lane in enumerate(lanes):
            if k:
                # The junction's slot map, or the start collision of the lane.
                joined = matches.get((lanes[k - 1], lane), errors[lane])
                if isinstance(joined, Exception):
                    outcome = joined
                    break
                slots = joined[slots]
            if record is not None:
                for s, w_node, pts in nodes[lane]:
                    record((k + s) / len(lanes), w_node, pts[slots])
            if errors[lane] is not None:
                outcome = errors[lane]
                break
        else:
            points = ends[lanes[-1]][slots]
            outcome = Fiber(
                w=complex(w[lanes[-1]]),
                points=tuple(points.tolist()),
                separation=float(fiber_separation(points)),
            )
        outcomes.append(outcome)
    return outcomes


def _match_rows(ends, starts, bounds):
    """Match fiber ends[k] to starts[k] for every row k at once.

    Each end point goes to its nearest start point, which must lie closer
    than bounds[k] and make a bijection.  Returns (images, messages): images[k]
    maps slot i of ends[k] to a slot of starts[k], and messages[k] is None or
    says why row k fails (its first end point too far, else not a bijection).
    """
    dists = np.abs(ends[:, :, None] - starts[:, None, :])
    images = dists.argmin(axis=2)
    nearest = np.take_along_axis(dists, images[:, :, None], axis=2)[:, :, 0]
    far = nearest >= bounds[:, None]
    bijective = (np.sort(images, axis=1) == np.arange(ends.shape[1])).all(axis=1)
    messages = [None] * len(ends)
    for k in np.flatnonzero(far.any(axis=1) | ~bijective).tolist():
        if far[k].any():
            i = int(np.argmax(far[k]))
            messages[k] = (
                f"endpoint {complex(ends[k, i])} is {nearest[k, i]:.3e} from its "
                f"nearest start point (bound {bounds[k]:.3e})"
            )
        else:
            messages[k] = "endpoint matching is not a bijection"
    return images, messages


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
    the starting separation (AmbiguousMatching otherwise), the rule that
    also joins the lanes of a path (`_match_rows`).
    """
    from .monodromy import Permutation

    (images,), (message,) = _match_rows(
        np.array([end.points], dtype=complex),
        np.array([fiber0.points], dtype=complex),
        np.array([fiber0.separation / 3.0]),
    )
    if message is not None:
        raise AmbiguousMatching(message)
    return Permutation(tuple(images.tolist()))


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
