"""Fiber computation and certified path continuation for Blaschke products.

B is an n-to-1 branched cover of the disc; away from the branch values each
w has a fiber of n distinct preimages.  This module computes initial fibers,
chooses the base point, and continues whole fibers in one lockstep loop,
`_continue_nodes`, which tracking and the quadrature of `bundle` share: it
advances many paths through prescribed nodes, predicts each step by Hermite
extrapolation or an Euler step, certifies it (`certified_step`: few Newton
iterations, small residual, corrections well below the fiber separation),
and solves a rejected node by eigenvalues and reports it.

`track_paths` runs every segment of every path as a lane of four steps
(`_continue_lanes`) and chains the lanes by matching fibers at their
junctions; `track` is the one-path case.  Path builders cut segments by one
rule (`split_segment`) into pieces short next to the branch values.  The
Newton residual bound of every step is worked out from the product's own
evaluation noise (`newton_tol`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AmbiguousMatching,
    FiberCollision,
    LoopConstructionFailed,
    NoConvergence,
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
    "newton_tol",
    "newton_correct",
    "certified_step",
    "fiber_separation",
    "point_segment_distance",
]

# A fiber may start a path only if its w lies this close to the path start.
_START_TOL = 1e-9
# `split_segment` cuts pieces no longer than this fraction of the distance
# from their start to the nearest branch value.  At 1 a piece may end on the
# circle through that value: on the seed-2026 suite of 30 products its
# longest lane took 28 tries.  At 0.7 every lane took the minimum 4; 0.5 did
# too, with 60% more start fibers solved by eigenvalues.
_REACH_FRACTION = 0.7
# `split_segment` refuses a piece that would start within this multiple of
# |start| of a branch value: that close, rounding alone separates the two, as
# on an arc whose end angle is pi in floating point.
_ROUNDING = 8.0 * np.finfo(float).eps
# `_continue_nodes` takes the Euler step where the last two nodes lie at most
# this many newton_tol apart in w.  Each node sits about newton_tol / |B'| off
# its root, so the Hermite predictor's divided difference (z1 - z0) / (w1 -
# w0) has a relative error of about newton_tol / |w1 - w0|: on lanes 1e-10
# long beside clustered branch values it failed down to the step floor.
_HERMITE_SPACING = 1e4
# Corrector iterations per continuation step (`certified_step`); fiber points
# within _COLLISION_FACTOR * newton_tol have collided (`certified_step`,
# `_start_collision`); the least spacing of a retried lane step, in segment
# parameter; the base-point search lattice's cells per side.
_MAX_NEWTON_ITERS = 5
_COLLISION_FACTOR = 10.0
_STEP_FLOOR = 1e-12
_BASE_GRID = 64
# An eigenvalue fiber (`_fiber_batch`) may leave residuals |B(z) - w| up to
# this, or a thousand times the product's evaluation noise where that is
# larger.  On the suite, sweep draws of orders 6-32, the compositions of
# orders 8-40 and the noisy order-16 product, over random values, branch
# values and values 1e-9 from them, the residuals reached 5.9e-10 and 56
# times the noise.
_EIGEN_RESIDUAL = 1e-8
# `initial_fiber` refuses a fiber with two eigenvalues closer than this as a
# multiple point: at an exact branch value its polish leaves the two points
# of a double root about 1e-8 apart, far above the collision threshold.
_MULTIPLE_POINT = 1e-4
# The polish of a fiber to near machine precision (`initial_fiber`, and the
# labeled and quadrature fibers of `bundle`): least residual (`_polish_tol`),
# iterations.
_POLISH_TOL = 1e-14
_POLISH_ITERS = 8


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
    value, toward which the pieces would otherwise shrink forever: once a
    piece would start within `_ROUNDING` times |start| of a branch value, or
    would not advance.
    """
    arc = isinstance(seg, Arc)
    # The position along the segment: an angle on an arc, a point on a line.
    cur, end = (seg.a0, seg.a1) if arc else (complex(seg.start), complex(seg.end))
    scale = seg.radius if arc else 1.0
    pieces = []
    while True:
        at = seg.center + seg.radius * cmath.exp(1j * cur) if arc else cur
        gap = min((abs(at - v) for v in branch_values), default=math.inf)
        # Within rounding of a branch value no reach is left.
        reach = _REACH_FRACTION * gap if gap > _ROUNDING * abs(at) else 0.0
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
    converged.  Returns (points, B' and the residual B - w of each row's
    last evaluation, converged rows): at a converged row the points are
    where B' and the residual were evaluated, so a further Newton step needs
    no evaluation.  A row whose iterate turns non-finite never converges.
    Callers apply their own acceptance rule on top.  Until some row
    converges every row is live, and the rows are worked on in place rather
    than gathered by index.
    """
    z = pred.copy()
    db, res = np.empty_like(z), np.empty_like(z)
    converged = np.zeros(len(z), dtype=bool)
    live = slice(None)
    with np.errstate(all="ignore"):
        for it in range(iters + 1):
            val, dval = b.eval_with_derivative(z[live])
            resid = val - w[live, None]
            done = np.all(np.abs(resid) <= tol, axis=1)
            db[live], res[live] = dval, resid
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
    return z, db, res, converged


def newton_tol(b) -> float:
    """The Newton residual bound |B(z) - w| of certified continuation on `b`:
    1e-11, or ten times `b.eval_noise` where that is larger, since a bound
    under the noise of evaluating B certifies nothing."""
    return max(1e-11, 10.0 * b.eval_noise)


def _polish_tol(b) -> float:
    """Residual bound of the polish on `b`: no less than its `eval_noise`."""
    return max(_POLISH_TOL, b.eval_noise)


def certified_step(b, pred, w):
    """Newton-correct predicted fibers pred[k] onto B(z) = w[k], down to
    residual `newton_tol(b)`, and certify them: the one step certificate, of
    `_continue_nodes`.  Returns (points, B' and the residual B - w there, as
    `newton_correct` last evaluated them, fiber separations, accepted,
    collided) per row.  A row has collided when it converged with separation
    at most _COLLISION_FACTOR * newton_tol; it is accepted when it
    converged, has not collided, and its separation exceeds ten times its
    largest correction.
    """
    tol = newton_tol(b)
    z, db, res, converged = newton_correct(b, pred, w, tol, _MAX_NEWTON_ITERS)
    with np.errstate(all="ignore"):
        sep = fiber_separation(z)
        largest = np.abs(z - pred).max(axis=1)
        collided = converged & (sep <= _COLLISION_FACTOR * tol)
        accepted = converged & ~collided & (sep > 10.0 * largest)
    return z, db, res, sep, accepted, collided


def _start_collision(b, w, sep):
    """FiberCollision if `b`'s fresh fiber over `w` of separation `sep` collided, else None."""
    if sep <= _COLLISION_FACTOR * newton_tol(b):
        return FiberCollision(f"fiber separation {sep:.3e} at w={w} is below threshold")


def initial_fiber(b, w) -> Fiber:
    """Solve B(z) = w from scratch; points sorted lexicographically.

    The one-row case of `_fiber_batch`, Newton-polished to residual
    `_polish_tol` within `_POLISH_ITERS` corrections, then one step from the
    last residual.  Raises FiberCollision when w is (numerically) a branch
    value: two eigenvalues within `_MULTIPLE_POINT`, or a separation
    `_start_collision` refuses; NoConvergence naming w when the polish does
    not reach its residual bound.
    """
    w = complex(w)
    pts = _fiber_batch(b, np.array([w]))
    if fiber_separation(pts[0]) < _MULTIPLE_POINT:
        raise FiberCollision(f"fiber over {w} contains a multiple point")
    z, db, res, ok = newton_correct(b, pts, np.array([w]), _polish_tol(b), _POLISH_ITERS)
    if not ok[0]:
        raise NoConvergence(f"polishing the fiber at w={w} did not converge")
    pts = z[0] - res[0] / db[0]
    order = np.lexsort((pts.imag, pts.real))
    pts = pts[order]
    sep = float(fiber_separation(pts))
    collision = _start_collision(b, w, sep)
    if collision is not None:
        raise collision
    return Fiber(w=w, points=tuple(pts.tolist()), separation=sep)


def choose_base_point(branch_values) -> complex:
    """Grid-search base point maximizing clearance from branch values and the rim.

    Deterministic: scans the `_BASE_GRID` x `_BASE_GRID` lattice of cell
    centers over the bounding square and returns the first maximizer in scan
    order.
    """
    if len(branch_values) == 0:
        return 0j
    centers = -1.0 + (2.0 * np.arange(_BASE_GRID) + 1.0) / _BASE_GRID
    w = centers[:, None] + 1j * centers[None, :]  # w[i, j] = x_i + i y_j
    rim = 1.0 - np.abs(w)
    beta = np.asarray(branch_values, dtype=complex)
    score = np.minimum(rim, np.abs(w[:, :, None] - beta).min(axis=2))
    score[rim <= 0.0] = -np.inf
    i, j = np.unravel_index(np.argmax(score), score.shape)
    return complex(centers[i], centers[j])


def _fiber_batch(b, ws: np.ndarray) -> np.ndarray:
    """Unordered fibers of many regular values at once, each solved afresh.

    Row k holds the eigenvalues of M + c_k x y^T, c_k = u_k / (1 + u_k c0)
    with u_k = e^{-i theta} ws[k], from the product's `compressed_shift`:
    exactly the fiber over ws[k], from the zeros alone (chunked to bound
    memory).  Each row is bit-identical to solving its value alone.  Raises
    NoConvergence naming the first w whose fiber leaves a residual
    |B(z) - w| above `_EIGEN_RESIDUAL`, or above 1e3 `b.eval_noise` where
    that is larger.  Used where no neighbouring fiber is at hand: lane
    starts, rejected continuation nodes, quadrature path seeds, quadrature
    nodes next to a branch value, failed polishes, and `initial_fiber`.
    """
    m, x, y, c0 = b.compressed_shift
    xy = np.outer(x, y)
    bound = max(_EIGEN_RESIDUAL, 1e3 * b.eval_noise)
    u = ws * complex(math.cos(b.theta), -math.sin(b.theta))
    out = np.empty((len(ws), b.order), dtype=complex)
    chunk = 65536
    for lo in range(0, len(ws), chunk):
        w, v = ws[lo:lo + chunk], u[lo:lo + chunk]
        found = np.linalg.eigvals(m + (v / (1.0 + v * c0))[:, None, None] * xy)
        resid = np.abs(b.eval_with_derivative(found)[0] - w[:, None]).max(axis=1)
        bad = np.flatnonzero(~(resid <= bound))
        if len(bad):
            k = bad[0]
            raise NoConvergence(
                f"eigenvalue fiber residual {resid[k]:.3e} above bound {bound:.3e} "
                f"at w={complex(w[k])}"
            )
        out[lo:lo + chunk] = found
    return out


def track_paths(b, fiber, paths, record=None) -> list:
    """Continue `fiber` along every path in `paths` at once, in lockstep.

    Returns one outcome per path, in order: the end Fiber (slot i follows
    input point i), or the first failure in path order.  Every segment of
    every path is one lane (`_continue_lanes`).  A path's first lane starts
    from `fiber`, every later lane from the eigenvalue fiber of its start
    (one `_fiber_batch` call, refused by `_start_collision` alone, not by
    the multiple-point test of `initial_fiber`), and all junctions are
    matched at once by `_match_rows`.  A failure is a lane's FiberCollision
    or StepFloorReached ("segment k" names the lane's index in its path), or
    AmbiguousMatching naming the w of its junction.  Lanes are bit-identical
    however many paths are tracked together; equal segments at equal
    positions are tracked once.  Build paths with `split_segment` so that
    every lane is short.

    `record` traces a single path, as in `track`; it is refused with several.
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
    segs, positions = zip(*index)
    at = _segment_points(segs)
    start = np.array(fiber.points, dtype=complex)
    starts = np.tile(start, (len(segs), 1))
    errors = [None] * len(segs)
    later = np.flatnonzero(positions)
    if len(later):
        ws = at(later, np.zeros(len(later)))
        starts[later] = _fiber_batch(b, ws)
        for r, w0, sep in zip(later.tolist(), ws, fiber_separation(starts[later])):
            errors[r] = _start_collision(b, complex(w0), sep)
    started = [e is None for e in errors]
    ends, w, nodes = _continue_lanes(
        b, starts, at, positions, errors, keep_nodes=record is not None
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
            key: image if message is None
            else AmbiguousMatching(f"{message} at w={complex(segs[key[1]].point(0.0))}")
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


def track(b, fiber, path, record=None) -> Fiber:
    """Continue a whole fiber along `path`; slot i follows input point i.

    The one-path case of `track_paths`; raises the path's failure
    (FiberCollision, StepFloorReached or AmbiguousMatching).

    `record`, if given, is called as record(t, w, points) at the start node
    and at every accepted node, in path order, once the path is tracked, with
    t the global path parameter in [0, 1] (segment k spans [k, k + 1] / the
    number of segments) and the points in the slot order of `fiber`.  Nodes
    up to the path's first failure are recorded.
    """
    (end,) = _raise_first(track_paths(b, fiber, [path], record))
    return end


def _raise_first(outcomes):
    """`outcomes`, one per path as `track_paths` returns them, raising the
    first one that is an error."""
    for out in outcomes:
        if isinstance(out, Exception):
            raise out
    return outcomes


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


def _predict(prev, last, w_next, euler):
    """Fibers at `w_next` by cubic Hermite extrapolation through (w, z, B'(z))
    at each path's node before last (`prev`) and last node (`last`), with
    slopes dz/dw = 1/B' (Allgower and Georg, Introduction to Numerical
    Continuation Methods); rows flagged `euler` take the Euler step instead."""
    (w0, z0, db0), (w1, z1, db1) = prev, last
    dw, h = (w_next - w1)[:, None], (w1 - w0)[:, None]
    with np.errstate(all="ignore"):
        s0, s1, u, d = 1.0 / db0, 1.0 / db1, dw / h, (z1 - z0) / h
        pred = z1 + dw * (s1 + u * (s1 - d) + u * (1.0 + u) * (s1 - 2.0 * d + s0))
        pred[euler] = z1[euler] + dw[euler] * s1[euler]
    return pred


def _continue_nodes(b, ws, rows, lengths, fibers, derivs, resids=None):
    """The one lockstep continuation loop: fibers of `b` from node to node.

    `rows` indexes `ws`: the concatenation of paths of the given (positive)
    lengths, each an ordered run of nearby regular values, its nodes.
    fibers[rows[s]] and derivs[rows[s]] hold the fiber and B' at each path's
    first node s; the loop fills in the later nodes', all paths one node
    per iteration, and, if `resids` is given, the residual B - w at every
    accepted node (both B' and the residual from the step's last
    evaluation).  Steps are predicted by `_predict` (Euler at a path's
    first step, after a restart, and between nodes at most
    `_HERMITE_SPACING` * `newton_tol(b)` apart) and judged by `certified_step`.
    A rejected node is solved by eigenvalues (`_fiber_batch`) and its path
    restarts there.  Returns the rejected nodes sparsely, in step order:
    their rows of `ws`, whether the step collided, and the separation.
    """
    lengths = np.asarray(lengths, dtype=int)
    starts = np.cumsum(lengths) - lengths
    # Longest paths first, so the paths still running at step k are a prefix.
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    seeds = rows[starts]
    # The node before last of every path (the seed itself at the first step).
    prev = w, z, db = ws[seeds], fibers[seeds], derivs[seeds]
    restarted = np.ones(len(starts), dtype=bool)
    rejected = [(np.empty(0, dtype=int), np.empty(0, dtype=bool), np.empty(0))]
    for k in range(1, int(lengths.max(initial=1))):
        live = int(np.count_nonzero(lengths > k))
        idx = rows[starts[:live] + k]
        w_next = ws[idx]
        last = (w[:live], z[:live], db[:live])
        prev = tuple(a[:live] for a in prev)
        near = np.abs(last[0] - prev[0]) <= _HERMITE_SPACING * newton_tol(b)
        pred = _predict(prev, last, w_next, restarted[:live] | near)
        prev = last
        z, db, res, sep, accepted, collided = certified_step(b, pred, w_next)
        if resids is not None:
            resids[idx] = res
        failed = np.flatnonzero(~accepted)
        if len(failed):
            z[failed] = _fiber_batch(b, w_next[failed])
            db[failed] = b.derivative_value(z[failed])
            rejected.append((idx[failed], collided[failed], sep[failed]))
        restarted = ~accepted
        fibers[idx], derivs[idx], w = z, db, w_next
    return tuple(np.concatenate(parts) for parts in zip(*rejected))


def _continue_lanes(b, pts, at, positions, errors, keep_nodes=False):
    """Continue fiber pts[k] along segment k through `_continue_nodes`.

    `at` evaluates the segments (`_segment_points`).  Lane k's nodes are
    t = 0, 1/4, 1/2, 3/4 and 1 of its segment; each round runs every
    unfinished lane as one path from its last accepted node through
    its remaining nodes.  At its first rejected node a lane ends in
    FiberCollision if the step collided; else a node is inserted halfway
    into the step, down to the step floor (StepFloorReached on segment
    positions[k]), and the lane takes one step a round until it is past the
    rejected node.  Lanes with an `errors` entry are skipped; failures are
    written there.  Returns (points, w) at the lane ends and, with
    `keep_nodes`, the accepted nodes (t, w, points) of every lane.
    """
    m = len(pts)
    pts, db, w = pts.copy(), b.derivative_value(pts), at(np.arange(m), np.zeros(m))
    # Per lane: its last accepted parameter, the nodes it has still to reach,
    # and its furthest rejected node, up to which it takes one step a round.
    t_last, todo, until = [0.0] * m, [[0.25, 0.5, 0.75, 1.0] for _ in range(m)], [0.0] * m
    nodes = [[] for _ in range(m)]
    live = [k for k in range(m) if errors[k] is None]
    while live:
        params = [[t_last[k]] + todo[k][:1 if todo[k][0] <= until[k] else None] for k in live]
        lengths = np.array([len(p) for p in params])
        starts = np.cumsum(lengths) - lengths
        t = np.concatenate(params)
        # Every node row starts as its lane's last accepted fiber.
        lanes = np.repeat(live, lengths)
        ws, fibers, derivs = at(lanes, t), pts[lanes], db[lanes]
        rejected, collided, sep = _continue_nodes(
            b, ws, np.arange(len(ws)), lengths, fibers, derivs
        )
        # Each path's first rejected node (the reports come in step order).
        paths = np.searchsorted(starts, rejected, side="right") - 1
        first = {j: i for i, j in reversed(list(enumerate(paths.tolist())))}
        unfinished = []
        for j, k in enumerate(live):
            i = first.get(j)
            done = range(starts[j] + 1, starts[j] + lengths[j] if i is None else rejected[i])
            if done:
                q = done[-1]
                pts[k], db[k], w[k], t_last[k] = fibers[q], derivs[q], ws[q], t[q]
                del todo[k][:len(done)]
                if keep_nodes:
                    nodes[k] += [(float(t[q]), complex(ws[q]), fibers[q]) for q in done]
            if i is None:
                if todo[k]:
                    unfinished.append(k)
                continue
            r = rejected[i]
            half = 0.5 * (t[r] - t_last[k])
            if collided[i]:
                errors[k] = FiberCollision(
                    f"fiber separation {sep[i]:.3e} under threshold near w={complex(ws[r])}"
                )
            elif half < _STEP_FLOOR:
                errors[k] = StepFloorReached(
                    f"step floor reached on segment {positions[k]} near w={complex(ws[r])}"
                )
            else:
                todo[k].insert(0, t_last[k] + half)
                until[k] = max(until[k], t[r])
                unfinished.append(k)
        live = unfinished
    return pts, w, nodes


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


def track_with_trace(b, fiber, path):
    """Like `track` but also returns the list of (t, w, points) nodes."""
    rows = []

    def record(t, w, pts):
        rows.append((t, w, tuple(pts.tolist())))

    end = track(b, fiber, path, record=record)
    return end, rows
