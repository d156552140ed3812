from __future__ import annotations

import cmath
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from blaschkelab import (
    AmbiguousMatching,
    Arc,
    BlaschkeProduct,
    FiberCollision,
    Line,
    LoopConstructionFailed,
    PathSpec,
    ToolkitError,
    approach,
    build_cut_disc,
    choose_base_point,
    crossing_paths,
    from_spec,
    initial_fiber,
    random_product,
    track,
    track_paths,
    track_with_trace,
)
from blaschkelab import NoConvergence, tracking
from blaschkelab.tracking import newton_correct, split_segment
from helpers import loop_permutation, separation_slope

_TWO_PI = 2.0 * math.pi


def _circle(b, center: complex, radius: float, start_angle: float = 0.0) -> PathSpec:
    """The circle as one path of `b`, cut by `split_segment` at its branch values."""
    arc = Arc(center, radius, start_angle, start_angle + _TWO_PI)
    return PathSpec(segments=split_segment(arc, b.branch_data().branch_values))


def test_initial_fiber_square(square):
    fib = initial_fiber(square, 0.25)
    assert len(fib.points) == 2
    assert fib.points[0] == pytest.approx(-0.5, abs=1e-12)
    assert fib.points[1] == pytest.approx(0.5, abs=1e-12)
    assert fib.separation == pytest.approx(1.0, abs=1e-12)


def test_initial_fiber_cube_radius(cube):
    fib = initial_fiber(cube, 0.125)
    assert len(fib.points) == 3
    for p in fib.points:
        assert abs(p) == pytest.approx(0.5, abs=1e-12)


def test_initial_fiber_power_geometry(cube):
    fib = initial_fiber(cube, 0.2)
    expected = 2.0 * 0.2 ** (1.0 / 3.0) * math.sin(math.pi / 3.0)
    assert fib.separation == pytest.approx(expected, abs=1e-12)


def test_initial_fiber_residuals_random(order3):
    rng = np.random.default_rng(13)
    for _ in range(10):
        w = 0.6 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        fib = initial_fiber(order3, w)
        assert max(abs(order3(p) - w) for p in fib.points) < 1e-12
        assert fib.separation > 0.0


def test_initial_fiber_collision_guard(square, order3):
    # Over w = 0 the eigenvalues repeat exactly (0, 0 for z^2; 0, 0, 0.5 for
    # order3), where a polish would divide by B' = 0; over order3's other
    # branch value the polish would leave the double point 7e-9 apart.
    c = max((p.center for p in order3.branch_data().critical_points), key=abs)
    for b, w in ((square, 1e-24), (square, 0.0), (order3, 0.0), (order3, order3(c))):
        with pytest.raises(FiberCollision, match="contains a multiple point"):
            initial_fiber(b, w)


def test_initial_fiber_refuses_a_polish_that_does_not_converge(order3, monkeypatch):
    # A polish that never reaches its residual bound raises NoConvergence
    # naming w, rather than returning the unpolished fiber.
    real = tracking.newton_correct

    def stalled(b, pred, w, tol, iters):
        z, db, res, _ = real(b, pred, w, tol, iters)
        return z, db, res, np.zeros(len(z), dtype=bool)

    monkeypatch.setattr(tracking, "newton_correct", stalled)
    with pytest.raises(NoConvergence, match=re.escape("at w=(0.1+0.2j) did not converge")):
        initial_fiber(order3, 0.1 + 0.2j)


def test_choose_base_point_square(square):
    w0 = choose_base_point(square.branch_data().branch_values)
    assert min(abs(w0), 1.0 - abs(w0)) >= 0.25


def test_choose_base_point_no_branch_values():
    assert choose_base_point(()) == 0


def test_choose_base_point_power():
    b = BlaschkeProduct(0.0, [0.0] * 5)
    w0 = choose_base_point(b.branch_data().branch_values)
    assert min(abs(w0), 1.0 - abs(w0)) >= 0.25


def test_track_square_monodromy(square):
    fib = initial_fiber(square, 0.25)
    end = track(square, fib, _circle(square, 0.0, 0.25))
    assert end.points[0] == pytest.approx(0.5, abs=1e-9)
    assert end.points[1] == pytest.approx(-0.5, abs=1e-9)


def test_track_zero_length_path(square):
    fib = initial_fiber(square, 0.25)
    end = track(square, fib, PathSpec(segments=(Line(0.25, 0.25),)))
    assert end.points == fib.points


def test_track_null_loop_returns_start(order3):
    data = order3.branch_data()
    w0 = choose_base_point(data.branch_values)
    radius = 0.25 * min(
        min(abs(w0 - v) for v in data.branch_values), 1.0 - abs(w0)
    )
    fib = initial_fiber(order3, w0 + radius)
    end = track(order3, fib, _circle(order3, w0, radius, start_angle=0.0))
    assert max(abs(a - b) for a, b in zip(end.points, fib.points)) < 1e-9


def test_track_reversal_roundtrip(order3):
    data = order3.branch_data()
    w0 = choose_base_point(data.branch_values)
    nearest = min(data.branch_values, key=lambda v: abs(w0 - v))
    step = 0.2 * abs(w0 - nearest) * cmath.exp(1j * cmath.phase(w0 - nearest))
    path = PathSpec(segments=(Line(w0, w0 + step),))
    fib = initial_fiber(order3, w0)
    out = track(order3, fib, path)
    back = track(order3, out, PathSpec(segments=(Line(w0 + step, w0),)))
    assert max(abs(a - b) for a, b in zip(back.points, fib.points)) < 1e-9


def test_track_keeps_residuals_and_separation(order3):
    cd = build_cut_disc(order3)
    w0, fib = cd.base, cd.fiber0
    _, pairs = crossing_paths(cd)
    there, back = pairs[0]
    loop = PathSpec(there.segments + approach(back.end, back.start, cd.branch_values))
    end, rows = track_with_trace(order3, fib, loop)
    assert len(rows) >= 2
    assert rows[0][0] == 0.0
    assert rows[-1][0] == 1.0
    ts = [row[0] for row in rows]
    assert ts == sorted(ts)
    for t, w, points in rows:
        assert max(abs(order3(p) - w) for p in points) <= 1e-11
        pts = np.asarray(points)
        gaps = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(len(pts), 1)]
        assert gaps.min() > 1e-10
    assert abs(end.w - w0) < 1e-12


def test_track_refuses_a_line_through_a_branch_value(square):
    # Unsplit, the line crosses the branch value 0 of z^2.  Its first quarter
    # step halves the distance to 0 (rho = 1/2), so the Koebe balls about
    # +-0.5 have radius 1/2 and touch: the lane's first step is refused.
    fib = initial_fiber(square, 0.25)
    with pytest.raises(FiberCollision, match=re.escape("on segment 0 near w=(0.125+0j)")):
        track(square, fib, PathSpec(segments=(Line(0.25, -0.25),)))


def test_track_refuses_a_fiber_at_a_branch_value(square):
    # Ending on the branch value 0, the lane is refused before it reaches it:
    # at its third quarter step, from w = 1/8 to 1/16, the Koebe balls about
    # +-0.354 already touch, and its last step has rho = 1.  The former
    # residual test certified a fiber at w = 0 with two points 5.6e-6 apart.
    fib = initial_fiber(square, 0.25)
    with pytest.raises(FiberCollision, match=re.escape("on segment 0 near w=(0.0625+0j)")):
        track(square, fib, PathSpec(segments=(Line(0.25, 0.0),)))


def test_a_step_reaching_a_singular_value_names_its_segment(square):
    # The second segment, not cut by `split_segment`, steps 0.2 from w = 0.1,
    # twice its distance to the branch value 0: rho >= 1 refuses the step.
    fib = initial_fiber(square, 0.25)
    path = PathSpec(segments=(Line(0.25, 0.1), Line(0.1, 0.1 + 0.8j)))
    with pytest.raises(
        LoopConstructionFailed, match=re.escape("(an unsplit segment) on segment 1 near w=(0.1+0.2j)")
    ):
        track(square, fib, path)


def test_loop_permutation_square(square):
    fib = initial_fiber(square, 0.25)
    perm = loop_permutation(square, fib, _circle(square, 0.0, 0.25))
    assert perm.images == (1, 0)


def test_loop_permutation_power_cycle():
    b = BlaschkeProduct(0.0, [0.0] * 5)
    w0 = choose_base_point(b.branch_data().branch_values)
    fib = initial_fiber(b, w0)
    loop = _circle(b, 0.0, abs(w0), start_angle=cmath.phase(w0))
    perm = loop_permutation(b, fib, loop)
    assert perm.cycle_type() == (5,)


def test_loop_permutation_null_loop(order3):
    data = order3.branch_data()
    w0 = choose_base_point(data.branch_values)
    radius = 0.25 * min(
        min(abs(w0 - v) for v in data.branch_values), 1.0 - abs(w0)
    )
    fib = initial_fiber(order3, w0 + radius)
    perm = loop_permutation(order3, fib, _circle(order3, w0, radius))
    assert perm.is_identity()


def test_path_requires_contiguous_segments():
    with pytest.raises(ValueError):
        PathSpec(segments=(Line(0.0, 0.1), Line(0.2, 0.3)))


def test_separation_slope_square(square):
    assert separation_slope(square, 0.0) == pytest.approx(0.5, abs=0.02)


def test_newton_correct_rows_converge_independently(order3):
    ws = np.array([0.2 + 0.1j, -0.3j, 0.1])
    exact = np.array([initial_fiber(order3, w).points for w in ws])
    pred = exact + 1e-4
    pred[1, 2] = complex(np.nan, 0.0)
    before = pred.tobytes()
    z, db, _, converged = newton_correct(order3, pred, ws, 1e-11, 5)
    assert converged.tolist() == [True, False, True]
    assert pred.tobytes() == before
    assert np.max(np.abs(z[[0, 2]] - exact[[0, 2]])) <= 1e-10
    assert np.max(np.abs(order3(z[[0, 2]]) - ws[[0, 2], None])) <= 1e-11
    with np.errstate(invalid="ignore"):
        assert db.tobytes() == order3.eval_with_derivative(z)[1].tobytes()


def test_newton_correct_batch_equals_row_by_row(square):
    # On z^2 over w = 1/4: rows that converge after 0, 1, 2 and `iters`
    # corrections, one that has not converged after `iters`, and one that
    # starts on the critical point 0 and turns non-finite.
    tol, iters = 1e-13, 4
    ws = np.full(6, 0.25 + 0j)
    pred = np.array([[0.5, -0.5]] * 6, dtype=complex)
    pred[1:5, 0] += [1e-7, 1e-4, 0.1, 0.3]
    pred[5, 0] = 0.0
    rows = [slice(k, k + 1) for k in range(len(ws))]

    def first_converged(row):
        return next(
            (i for i in range(iters + 1)
             if newton_correct(square, pred[row], ws[row], tol, i)[3][0]),
            None,
        )

    assert [first_converged(row) for row in rows] == [0, 1, 2, iters, None, None]
    z, db, res, converged = newton_correct(square, pred, ws, tol, iters)
    assert not np.isfinite(z[5]).all()
    for row in rows:
        want = newton_correct(square, pred[row], ws[row], tol, iters)
        for got, one in zip((z, db, res, converged), want):
            assert got[row].tobytes() == one.tobytes()


def test_newton_correct_zero_iterations_only_evaluates(order3):
    ws = np.array([0.2 + 0.1j, -0.3j])
    exact = np.array([initial_fiber(order3, w).points for w in ws])
    pred = exact.copy()
    pred[1] += 1e-3
    z, db, _, converged = newton_correct(order3, pred, ws, 1e-11, 0)
    assert z.tobytes() == pred.tobytes()
    assert db.tobytes() == order3.eval_with_derivative(pred)[1].tobytes()
    assert converged.tolist() == [True, False]


def test_newton_correct_residual_is_that_of_the_returned_points(order3):
    # A converged row's residual B(z) - w is that of the returned points, bit
    # for bit, so a further Newton step from them needs no evaluation.
    ws = np.array([0.2 + 0.1j, -0.3j, 0.1, 0.4 - 0.2j])
    exact = np.array([initial_fiber(order3, w).points for w in ws])
    pred = exact + np.array([0.0, 1e-8, 1e-4, 1e-2])[:, None]
    for iters in (0, 1, 2, 5):
        z, _, res, converged = newton_correct(order3, pred, ws, 1e-11, iters)
        assert converged.any()
        want = order3.eval_with_derivative(z[converged])[0] - ws[converged, None]
        assert res[converged].tobytes() == want.tobytes()


def test_track_predicts_with_b_prime_at_the_current_fiber(order3, monkeypatch):
    # A lane's first step is the Euler step with B' at its start; each later
    # step is the cubic Hermite extrapolation through the last two nodes, with
    # B' at both, unless they lie at most 1e-7 apart in w: on a lane 1e-9
    # long every step is the Euler step from the current node.
    steps = []
    correct = tracking.newton_correct

    def spy(b, pred, w, tol, iters):
        steps.append((pred[0].copy(), complex(w[0])))
        return correct(b, pred, w, tol, iters)

    monkeypatch.setattr(tracking, "newton_correct", spy)
    base = 0.3 + 0.2j
    fib = initial_fiber(order3, base)
    for length, hermite in ((0.01, True), (1e-9, False)):
        steps.clear()
        _, rows = track_with_trace(order3, fib, PathSpec((Line(base, base + length),)))
        nodes = [(w, np.array(pts), order3.derivative_value(np.array(pts))) for _, w, pts in rows]
        # Four steps, each accepted at the node it aimed for.
        assert [w for _, w in steps] == [w for w, _, _ in nodes[1:]]
        assert len(steps) == 4
        for k, (pred, w) in enumerate(steps):
            want = _hermite(nodes[k - 1], nodes[k], w) if k and hermite else _euler(nodes[k], w)
            assert pred.tobytes() == want.tobytes()


def test_lane_past_a_branch_value_is_refused_unless_split(square, lane_steps):
    # The line passes 5e-4 above the branch value 0 of z^2.  Whole, its first
    # quarter step has rho = 1/2 and the Koebe balls about +-0.5 touch: the
    # lane is refused at once, where the former rule retried 29 steps to
    # halfway nodes.  Cut by `split_segment`, every lane certifies its four
    # steps, and the sheet of +0.5 ends at the principal square root.
    fib = initial_fiber(square, 0.25)
    line = Line(0.25, -0.25 + 1e-3j)
    with pytest.raises(FiberCollision, match="on segment 0 ") as info:
        track(square, fib, PathSpec(segments=(line,)))
    assert (FiberCollision, str(info.value)) == _scalar_track(square, fib, PathSpec((line,)))
    assert [c.tolist() for c in lane_steps if len(c)] == [[3]]
    lane_steps.clear()
    path = PathSpec(split_segment(line, [0j]))
    end = track(square, fib, path)
    assert len(lane_steps) == 4
    assert not np.concatenate(lane_steps).any()
    assert end.points[1] == pytest.approx(cmath.sqrt(-0.25 + 1e-3j), abs=1e-12)
    assert (end.w, np.array(end.points).tobytes(), end.separation) == _scalar_track(
        square, fib, path
    )


def _same_fiber(a, b) -> bool:
    return (
        a.w == b.w
        and np.array(a.points).tobytes() == np.array(b.points).tobytes()
        and a.separation == b.separation
    )


@pytest.mark.parametrize(
    "middle, error",
    [
        (Line(0.25, -0.75), LoopConstructionFailed),
        (Line(0.25, 0j), FiberCollision),
    ],
)
def test_track_paths_failing_middle_row(square, middle, error):
    # The middle row steps onto the branch value 0 at its first step (rho = 1),
    # or toward it until its Koebe balls touch; the other rows are unaffected.
    fib = initial_fiber(square, 0.25)
    paths = [
        _circle(square, 0.0, 0.25),
        PathSpec(segments=(middle,)),
        _circle(square, 0.3, 0.05, start_angle=math.pi),
    ]
    outcomes = track_paths(square, fib, paths)
    assert len(outcomes) == 3
    assert type(outcomes[1]) is error
    with pytest.raises(error, match=f"^{re.escape(str(outcomes[1]))}$"):
        track(square, fib, paths[1])
    for k in (0, 2):
        assert _same_fiber(outcomes[k], track(square, fib, paths[k]))
    assert outcomes[0].points[0] == pytest.approx(0.5, abs=1e-9)


def test_track_paths_empty_and_mismatched_start(square):
    fib = initial_fiber(square, 0.25)
    assert track_paths(square, fib, []) == []
    with pytest.raises(ValueError):
        track_paths(square, fib, [_circle(square, 0.0, 0.25), _circle(square, 0.0, 0.3)])
    with pytest.raises(ValueError):
        track_paths(square, fib, [_circle(square, 0.0, 0.25)] * 2, record=lambda *args: None)


def _hermite(before, last, w_next):
    """Cubic Hermite extrapolation to `w_next` through the nodes `before` and
    `last`, each (w, points, B' there), with the slopes dz/dw = 1/B'."""
    (w0, z0, db0), (w1, z1, db1) = before, last
    dw, h = np.array([w_next - w1]), np.array([w1 - w0])
    s1, s0 = 1.0 / db1, 1.0 / db0
    u, d = dw / h, (z1 - z0) / h
    return z1 + dw * (s1 + u * (s1 - d) + u * (1.0 + u) * (s1 - 2.0 * d + s0))


def _euler(last, w_next):
    """The Euler step to `w_next` from the node `last` = (w, points, B')."""
    w1, z1, db1 = last
    return z1 + np.array([w_next - w1]) * (1.0 / db1)


def _singular_values(b):
    """B(c) at every interior critical point c, their reflections 1/conj(B(c)),
    and B(infinity) = e^{i theta} prod(-1 / conj(a)) when no zero is 0."""
    values = [complex(b(c.center)) for c in b.branch_data().critical_points]
    values += [1.0 / v.conjugate() for v in values if v != 0]
    if 0 not in b.zeros:
        values.append(cmath.exp(1j * b.theta) * math.prod(-1.0 / a.conjugate() for a in b.zeros))
    return values


def _scalar_ball(b, node, new, converged, singular):
    """The Koebe-ball test of one step from `node` to `new`, each (w, points,
    B', residual): None when certified, else (type, reason) of its first
    refusal.  With r the distance from the old w to the nearest singular
    value and rho = |dw| / r, the step is refused when rho >= 1
    (LoopConstructionFailed), when Newton did not converge (NoConvergence),
    when the balls of radius |dw| / ((1 - rho)^2 |B'|) + eps about the old
    points, eps the 2 (|B(z) - w| + eval_noise) / |B'(z)| of the old and the
    new point, overlap (FiberCollision), or when a new point lies outside
    its ball (NoConvergence)."""
    (w0, z0, d0, r0), (w1, z1, d1, r1) = node, new
    step = abs(w1 - w0)
    r = min((abs(w0 - v) for v in singular), default=math.inf)
    rho = step / r if r > 0.0 else math.inf
    if not rho < 1.0:
        return (LoopConstructionFailed, "a step reaches a singular value of B (an unsplit segment)")
    if not converged:
        return (NoConvergence, "Newton did not converge")
    radius = step / (1.0 - rho) ** 2 / np.abs(d0)
    radius += 2.0 * (np.abs(r0) + b.eval_noise) / np.abs(d0)
    radius += 2.0 * (np.abs(r1) + b.eval_noise) / np.abs(d1)
    n = len(z0)
    if any(abs(z0[i] - z0[j]) <= radius[i] + radius[j] for i in range(n) for j in range(i + 1, n)):
        return (FiberCollision, "the fiber's Koebe balls overlap")
    if not (np.abs(z1 - z0) <= radius).all():
        return (NoConvergence, "a point left its Koebe ball")
    return None


def _scalar_track(b, fiber, path):
    """One path, one lane at a time, one step at a time: the per-lane rule
    `track_paths` batches.

    A lane's nodes are t = 0, 1/4, 1/2, 3/4 and 1 of its segment.  A step is
    the cubic Hermite extrapolation through the last two nodes, except for
    the Euler step at the lane's first step and where the two nodes lie at
    most 1e-7 apart in w.  It is certified by Koebe balls (`_scalar_ball`).
    The lane ends at its first refused step.  Segment k > 0 starts from the
    eigenvalue fiber of its start; each end point of segment k - 1 goes to
    its nearest start point, and the ball test, from the end node to the
    permuted start node, certifies the map or fails naming the w of the
    junction.  Returns the end fiber as (w, points in the slots of `fiber`,
    separation) or the error as (type, message), with the default
    tolerances.
    """
    tol, iters, near = 1e-11, 5, 1e-7
    singular = _singular_values(b)
    pts = np.array(fiber.points, dtype=complex)
    slots = list(range(len(pts)))
    node = None
    for iseg, seg in enumerate(path.segments):
        w = complex(seg.point(0.0))
        if iseg:
            start = tracking._fiber_batch(b, np.array([w]))[0]
            images = [int(np.argmin(np.abs(start - e))) for e in pts]
            val, db = b.eval_with_derivative(start[images])
            refused = _scalar_ball(b, node, (w, start[images], db, val - w), True, singular)
            if refused is not None:
                return (AmbiguousMatching, f"{refused[1]} at the junction at w={w}")
            slots = [images[i] for i in slots]
            pts = start
        val, db = b.eval_with_derivative(pts)
        node, before = (w, pts, db, val - w), None
        for t in (0.25, 0.5, 0.75, 1.0):
            w_next = complex(seg.point(t))
            if before is None or abs(node[0] - before[0]) <= near:
                pred = _euler(node[:3], w_next)
            else:
                pred = _hermite(before[:3], node[:3], w_next)
            z, dz, rz, ok = newton_correct(b, pred[None], np.array([w_next]), tol, iters)
            new = (w_next, z[0], dz[0], rz[0])
            refused = _scalar_ball(b, node, new, ok[0], singular)
            if refused is not None:
                error, why = refused
                return (error, f"{why} on segment {iseg} near w={w_next}")
            before, node = node, new
        pts = node[1]
    pts = pts[slots]
    return (node[0], pts.tobytes(), float(tracking.fiber_separation(pts)))


def test_fiber_batch_refuses_a_row_over_the_residual_bound(order3, monkeypatch):
    # A row of eigenvalues whose residual |B(z) - w| exceeds the bound raises
    # NoConvergence naming its w; unspoiled, the same batch passes.
    ws = np.array([0.1 + 0.2j, 0.0, -0.3 + 0.1j, 0.05 - 0.4j])
    tracking._fiber_batch(order3, ws)
    real = np.linalg.eigvals

    def spoiled(mats):
        found = real(mats)
        found[1] += 1e-3
        return found

    monkeypatch.setattr(np.linalg, "eigvals", spoiled)
    with pytest.raises(NoConvergence, match=re.escape("at w=0j")):
        tracking._fiber_batch(order3, ws)


def test_fiber_batch_rows_equal_each_row_solved_alone():
    # Fibers of seeded products of orders 1-8 over six values each, solved in
    # one batch per order: each row is bit-identical to its value solved
    # alone, and lies on the fiber.  At order 1 the fiber is the inverse
    # Mobius map (a + u) / (1 + conj(a) u), u = e^{-i theta} w.
    rng = np.random.default_rng(9)
    for order in range(1, 9):
        b = random_product(order, rng)
        ws = 0.9 * np.sqrt(rng.random(6)) * np.exp(2j * np.pi * rng.random(6))
        batch = tracking._fiber_batch(b, ws)
        assert batch.shape == (6, order)
        for w, got in zip(ws, batch):
            assert tracking._fiber_batch(b, np.array([w]))[0].tobytes() == got.tobytes()
        assert np.abs(b(batch) - ws[:, None]).max() <= 1e-13
        if order == 1:
            a, u = b.zeros[0], ws * np.exp(-1j * b.theta)
            assert np.abs(batch[:, 0] - (a + u) / (1.0 + a.conjugate() * u)).max() <= 1e-15


def test_fiber_batch_matches_the_50_digit_oracle():
    # The fibers over w = 0.3 - 0.2i of the twelve pinned compositions of
    # orders 24-40 and the noisy order-16 product, refined at 50 digits by
    # `tools/fiber_oracle.py`: every eigenvalue lies within 1e-14 of its own
    # frozen point.
    frozen = json.loads((Path(__file__).parent / "fixtures" / "fiber_oracle.json").read_text())
    w = complex(*frozen["w"])
    assert len(frozen["products"]) == 13
    for case in frozen["products"]:
        b = from_spec(case)
        want = np.array([complex(*p) for p in case["fiber"]])
        got = tracking._fiber_batch(b, np.array([w]))[0]
        dist = np.abs(got[:, None] - want[None, :])
        nearest = dist.argmin(axis=1)
        assert sorted(nearest) == list(range(b.order)), case["name"]
        assert dist.min(axis=1).max() <= 1e-14, case["name"]


def test_junction_fiber_moved_by_half_its_separation_is_ambiguous(square, monkeypatch):
    # The second lane's start fiber, shifted by half its separation, leaves
    # the end points of the first lane outside the Koebe balls that join
    # them to their nearest start points: the junction refuses to match.  The
    # base fiber is solved before the patch, since `initial_fiber` solves by
    # `_fiber_batch`.
    fib = initial_fiber(square, 0.25)
    real = tracking._fiber_batch

    def moved(b, ws):
        fibers = real(b, ws)
        return fibers + 0.5 * tracking.fiber_separation(fibers)[:, None]

    monkeypatch.setattr(tracking, "_fiber_batch", moved)
    path = PathSpec(segments=(Line(0.25, 0.25 + 0.05j), Line(0.25 + 0.05j, 0.25 + 0.1j)))
    with pytest.raises(AmbiguousMatching, match="at the junction at w=") as info:
        track(square, fib, path)
    assert str(info.value).endswith(" at w=(0.25+0.05j)")
    assert (AmbiguousMatching, str(info.value)) == _scalar_track(square, fib, path)
    first, second = track_paths(square, fib, [PathSpec(path.segments[:1]), path])
    assert first.points[1] == pytest.approx(cmath.sqrt(0.25 + 0.05j), abs=1e-12)
    assert type(second) is AmbiguousMatching


def _seeded_products(count):
    """Products of random orders 2-8 and zero radii 0.3-0.9 (seed 77) whose
    branch data resolves."""
    rng = np.random.default_rng(77)
    products = []
    while len(products) < count:
        b = random_product(int(rng.integers(2, 9)), rng, radius=float(rng.uniform(0.3, 0.9)))
        try:
            b.branch_data()
        except ToolkitError:
            continue
        products.append(b)
    return products


@pytest.mark.parametrize("b", _seeded_products(5))
def test_track_paths_matches_scalar_reference(b):
    cd = build_cut_disc(b)
    base = cd.base
    _, pairs = crossing_paths(cd)
    paths = [path for pair in pairs for path in pair]
    # Straight runs through and past each branch value fail their rows.
    paths += [
        PathSpec(segments=(Line(base, base + t * (v - base)),))
        for v in cd.branch_values
        for t in (1.0, 1.5)
    ]
    outcomes = track_paths(b, initial_fiber(b, base), paths)
    failed = 0
    for path, got in zip(paths, outcomes):
        want = _scalar_track(b, initial_fiber(b, base), path)
        if isinstance(got, Exception):
            failed += 1
            assert (type(got), str(got)) == want
        else:
            assert (got.w, np.array(got.points).tobytes(), got.separation) == want
    assert failed > 0


def _scalar_base_point(branch_values, grid):
    """The cell-by-cell scan `choose_base_point` vectorises."""
    best, best_score = 0j, -1.0
    for i in range(grid):
        x = -1.0 + (2.0 * i + 1.0) / grid
        for j in range(grid):
            y = -1.0 + (2.0 * j + 1.0) / grid
            w = complex(x, y)
            rim = 1.0 - abs(w)
            if rim <= 0.0:
                continue
            score = min(rim, min(abs(w - beta) for beta in branch_values))
            if score > best_score:
                best, best_score = w, score
    return best


def test_choose_base_point_matches_scalar_scan(monkeypatch):
    # 50 seeded products, plus branch sets of z^n and a mirror-symmetric
    # pair, whose best scores tie between cells.
    rng = np.random.default_rng(50)
    cases = [(0j,), (0.0, 0.5j)]
    while len(cases) < 52:
        try:
            cases.append(random_product(2 + len(cases) % 7, rng).branch_data().branch_values)
        except ToolkitError:
            continue
    for betas in cases:
        for grid in (64, 17):
            monkeypatch.setattr(tracking, "_BASE_GRID", grid)
            got = choose_base_point(betas)
            want = _scalar_base_point(betas, grid)
            assert type(got) is complex
            assert (got.real, got.imag) == (want.real, want.imag)
