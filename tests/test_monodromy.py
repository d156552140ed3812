from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import pytest

from blaschkelab import (
    AmbiguousMatching,
    BlaschkeProduct,
    BranchCountError,
    LoopConstructionFailed,
    Permutation,
    approach,
    boundary_product,
    build_cut_disc,
    choose_base_point,
    compute_representation,
    crossing_paths,
    group_order,
    initial_fiber,
    point_in_cut_disc,
    random_product,
    sigma_values,
)
from blaschkelab import bundle, tracking
from blaschkelab.monodromy import match_endpoints, orbitals
from blaschkelab.tracking import (
    Arc,
    Fiber,
    Line,
    PathSpec,
    point_segment_distance,
    split_segment,
    track,
)
from helpers import (
    acceptance_products,
    loop_permutation,
    suite_products,
    sweep_draw,
    winding_number,
)

_TWO_PI = 2.0 * math.pi


class GroupTooLarge(Exception):
    """The reference closure exceeded its element cap."""


def group_closure(generators, cap=3_628_800, degree=None):
    """Every element of the generated group, BFS order from the identity.

    The small-group reference `group_order` is checked against.  An empty
    generator list yields the trivial group on `degree` points (required in
    that case).  Raises GroupTooLarge when the closure exceeds `cap`
    (default 10!) or the degree exceeds 10.
    """
    if not generators:
        if degree is None:
            raise ValueError("group_closure needs generators or an explicit degree")
        return [Permutation.identity(degree)]
    n = generators[0].n
    if n > 10:
        raise GroupTooLarge(f"degree {n} exceeds the supported cap (10)")
    identity = Permutation.identity(n)
    seen = {identity.images: identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for gen in generators:
                h = gen.compose(g)
                if h.images not in seen:
                    if len(seen) >= cap:
                        raise GroupTooLarge(f"group closure exceeded cap {cap}")
                    seen[h.images] = h
                    nxt.append(h)
        frontier = nxt
    return list(seen.values())


def _cycle(n: int) -> Permutation:
    return Permutation(tuple((i + 1) % n for i in range(n)))


def _transposition(n: int, i: int, j: int) -> Permutation:
    images = list(range(n))
    images[i], images[j] = j, i
    return Permutation(tuple(images))


def _wreath(size: int, blocks: int) -> list:
    """S_size wr Z_blocks on blocks of `size` consecutive points."""
    n = size * blocks
    inner = list(range(n))
    inner[:size] = [(i + 1) % size for i in range(size)]
    rotate = Permutation(tuple((i + size) % n for i in range(n)))
    return [_transposition(n, 0, 1), Permutation(tuple(inner)), rotate]


def test_permutation_validates_images():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_compose_inverse_cycles():
    a = Permutation((1, 2, 0))
    b = Permutation((1, 0, 2))
    assert a.compose(b).images == (2, 1, 0)
    assert a.compose(a.inverse()).is_identity()
    assert a.cycle_type() == (3,)
    assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)


def test_permutation_conjugation():
    a = Permutation((1, 0, 2))
    relabel = Permutation((2, 0, 1))
    conj = a.conjugate(relabel)
    assert conj.cycle_type() == a.cycle_type()
    for i in range(3):
        assert conj(relabel(i)) == relabel(a(i))


def test_representation_square(square, rep_of):
    rep = rep_of(square)
    assert len(rep.generators) == 1
    assert rep.generators[0].images == (1, 0)
    assert rep.boundary_perm.cycle_type() == (2,)


def test_representation_power_is_cycle(rep_of):
    b = BlaschkeProduct(0.0, [0.0] * 4)
    rep = rep_of(b)
    assert len(rep.generators) == 1
    assert rep.generators[0].cycle_type() == (4,)


def test_representation_order_one(mobius, rep_of):
    rep = rep_of(mobius)
    assert rep.generators == ()
    assert rep.boundary_perm.images == (0,)


def test_group_closure_examples():
    assert len(group_closure([Permutation((1, 0))])) == 2
    for n in (3, 5):
        assert len(group_closure([_cycle(n)])) == n
    s3 = group_closure([Permutation((1, 0, 2)), _cycle(3)])
    assert len(s3) == 6
    images = {g.images for g in s3}
    assert len(images) == 6


def test_group_closure_contains_identity_and_generators():
    gens = [Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))]
    closure = group_closure(gens)
    images = {g.images for g in closure}
    assert tuple(range(4)) in images
    for g in gens:
        assert g.images in images
    for g in closure:
        for h in gens:
            assert g.compose(h).images in images


def test_group_closure_empty_generators():
    only = group_closure([], degree=3)
    assert len(only) == 1
    assert only[0].is_identity()


def test_group_closure_cap():
    gens = [Permutation((1, 0, 2, 3, 4, 5, 6)), _cycle(7)]
    with pytest.raises(GroupTooLarge):
        group_closure(gens, cap=100)


def test_group_order_matches_closure():
    identity = Permutation.identity(4)
    families = [
        ([], 1),
        ([], 3),
        ([identity, identity], 4),
        ([Permutation((0,))], 1),
        ([Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))], 4),  # Z_2 x Z_2
        # S_2 wr S_3: a swap inside block {0, 1}, then S_3 on the blocks.
        (
            [
                _transposition(6, 0, 1),
                Permutation((2, 3, 0, 1, 4, 5)),
                Permutation((2, 3, 4, 5, 0, 1)),
            ],
            6,
        ),
        (_wreath(2, 3), 6),
        (_wreath(3, 2), 6),
    ]
    rng = np.random.default_rng(17)
    for _ in range(120):
        n = int(rng.integers(1, 8))
        gens = []
        for _ in range(int(rng.integers(0, 4))):
            if n > 1 and rng.random() < 0.5:
                i, j = (int(x) for x in rng.choice(n, 2, replace=False))
                gens.append(_transposition(n, i, j))
            else:
                gens.append(Permutation(tuple(int(x) for x in rng.permutation(n))))
        families.append((gens, n))
    for gens, n in families:
        assert group_order(gens, n) == len(group_closure(gens, degree=n))
    with pytest.raises(ValueError):
        group_order([_cycle(3)], 4)


def test_group_order_past_the_closure_cap():
    cases = [
        ([_transposition(12, 0, 1), _cycle(12)], 12, math.factorial(12)),
        (
            [Permutation((1, 2, 0) + tuple(range(3, 11)))]
            + [
                Permutation(tuple({0: 1, 1: k, k: 0}.get(i, i) for i in range(11)))
                for k in range(3, 11)
            ],
            11,
            math.factorial(11) // 2,
        ),
        (_wreath(4, 4), 16, math.factorial(4) ** 4 * 4),
        ([_cycle(18)], 18, 18),
    ]
    for gens, n, order in cases:
        with pytest.raises(GroupTooLarge):
            group_closure(gens)
        assert group_order(gens, n) == order


def _transitive(gens, n) -> bool:
    """Whether the diagonal pairs (i, i) form one orbit, as `analyze` reads it."""
    return len(set(orbitals(gens, n).diagonal().tolist())) == 1


def _orbit_count(gens, n) -> int:
    """The number of orbits on ordered pairs, from their labels."""
    return len(np.unique(orbitals(gens, n)))


def test_transitivity_examples():
    assert _transitive([_cycle(3)], 3)
    assert not _transitive([Permutation((0, 1))], 2)
    assert not _transitive([], 2)


def test_orbitals_number_the_orbits_in_row_major_order():
    assert orbitals([_cycle(3)], 3).tolist() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    assert orbitals([], 2).tolist() == [[0, 1], [2, 3]]
    assert orbitals([Permutation((1, 0))], 2).tolist() == [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        orbitals([_cycle(3)], 4)


def test_orbital_count_examples():
    assert _orbit_count([Permutation((1, 0))], 2) == 2
    for n in (3, 4, 5):
        assert _orbit_count([_cycle(n)], n) == n
    assert _orbit_count([Permutation((1, 0, 2)), _cycle(3)], 3) == 2


def test_conjugation_invariance(order4, rep_of):
    rep = rep_of(order4)
    gens = list(rep.generators)
    n = order4.order
    rng = np.random.default_rng(15)
    for _ in range(5):
        relabel = Permutation(tuple(int(i) for i in rng.permutation(n)))
        conj = [g.conjugate(relabel) for g in gens]
        assert _orbit_count(conj, n) == _orbit_count(gens, n)
        assert len(group_closure(conj)) == len(group_closure(gens))
        assert group_order(conj, n) == group_order(gens, n)
        assert _transitive(conj, n) == _transitive(gens, n)


def test_random_representations_properties():
    rng = np.random.default_rng(16)
    for order in (3, 4, 5):
        for _ in range(2):
            b = random_product(order, rng)
            rep = compute_representation(b)
            gens = list(rep.generators)
            assert _transitive(gens, order)
            assert rep.boundary_perm.cycle_type() == (order,)
            assert boundary_product(rep).images == rep.boundary_perm.images
            assert math.factorial(order) % len(group_closure(gens)) == 0
            reversal = Permutation(tuple(reversed(range(order))))
            conj = [g.conjugate(reversal) for g in gens]
            assert group_order(conj, order) == len(group_closure(gens))
            assert _orbit_count(gens, order) >= 2


# The lollipop loop system the generators were once tracked on, kept as the
# reference for the cut-crossing generators: one loop per branch value (stem
# from the base, a circle about the value, the stem back) plus the boundary
# loop.


@dataclass(frozen=True)
class LoopSystem:
    """One lollipop loop per branch value plus the outer boundary loop.

    `branch_values` and `loops` share their order: ascending argument of
    (branch value - base).
    """

    base: complex
    branch_values: tuple
    loops: tuple
    boundary_loop: PathSpec


def _chord_params(a, b, center, radius):
    """Parameters where segment a->b crosses the circle, or None."""
    d = b - a
    dd = abs(d) ** 2
    if dd == 0.0:
        return None
    f = a - center
    t_mid = -(f * d.conjugate()).real / dd
    disc = radius**2 - abs(f + t_mid * d) ** 2
    if disc <= 0.0:
        return None
    half = math.sqrt(disc / dd)
    t1, t2 = t_mid - half, t_mid + half
    if t2 <= 0.0 or t1 >= 1.0:
        return None
    if t1 < 0.0 or t2 > 1.0:
        # Endpoint inside the obstacle circle: caller geometry is broken.
        raise LoopConstructionFailed("path endpoint inside a detour circle")
    return t1, t2


def _detour_segments(a, b, obstacles):
    """Straight run from a to b with semicircular detours around every
    obstacle circle the chord crosses.

    Each obstacle is (center, radius, pass_left); `pass_left` selects the
    side of the obstacle the detour bulges to (relative to the direction of
    travel), which fixes the homotopy class of the resulting path in the
    punctured disc.
    """
    hits = []
    for center, radius, pass_left in obstacles:
        params = _chord_params(a, b, center, radius)
        if params is not None:
            hits.append((params[0], params[1], center, radius, pass_left))
    hits.sort(key=lambda h: h[0])
    for (s0, s1, *_), (t0, t1, *_) in zip(hits, hits[1:]):
        if t0 < s1:
            raise LoopConstructionFailed("overlapping detour circles on one stem")
    segs = []
    cur = a
    for t1, t2, center, radius, pass_left in hits:
        p1 = a + t1 * (b - a)
        p2 = a + t2 * (b - a)
        segs.append(Line(cur, p1))
        a1 = cmath.phase(p1 - center)
        a2 = cmath.phase(p2 - center)
        if pass_left:
            while a2 >= a1:
                a2 -= _TWO_PI
        else:
            while a2 <= a1:
                a2 += _TWO_PI
        segs.append(Arc(center, radius, a1, a2))
        cur = p2
    segs.append(Line(cur, b))
    return [s for s in segs if not (isinstance(s, Line) and abs(s.end - s.start) < 1e-15)]


def _loop_radii(branch_values, base):
    radii = []
    for i, beta in enumerate(branch_values):
        others = [abs(beta - other) for j, other in enumerate(branch_values) if j != i]
        nearest = min(others) if others else math.inf
        radii.append(min(nearest, 1.0 - abs(beta), abs(base - beta)) / 3.0)
    return radii


def _backwards(segments) -> list:
    """The way back along `segments`: each line and arc run from its end to
    its start, in reverse order."""
    return [
        Line(s.end, s.start) if isinstance(s, Line) else Arc(s.center, s.radius, s.a1, s.a0)
        for s in reversed(segments)
    ]


def build_loops(b, base, branch_values) -> LoopSystem:
    """Lollipop loop system: per-branch-value loops plus the boundary loop.

    Each loop runs from the base straight toward its branch value (detouring
    around any other branch value whose guard circle blocks the stem), once
    counterclockwise around the head circle, and back along the same stem.
    The boundary loop is a circle at radius (1 + max|branch value|)/2 reached
    by a radial stem, enclosing every branch value exactly once.

    Detour sides are chosen so that every stem stays homotopic (in the disc
    punctured at the branch values) to the straight ray toward its target: a
    detour around an obstructing value passes on the side of the obstruction
    that the ideal ray passes, i.e. on its left exactly when the obstruction
    sits clockwise of the stem direction.  This is what makes the boundary
    permutation equal the sweep-ordered product of the generators.
    """

    def _pass_left(obstacle_angle, stem_angle):
        return (obstacle_angle - stem_angle) % _TWO_PI > math.pi

    betas = sorted(branch_values, key=lambda v: cmath.phase(v - base))
    angles = [cmath.phase(v - base) for v in betas]
    radii = _loop_radii(betas, base)
    loops = []
    for i, beta in enumerate(betas):
        r = radii[i]
        entry = beta + r * (base - beta) / abs(base - beta)
        obstacles = [
            (betas[j], radii[j] / 2.0, _pass_left(angles[j], angles[i]))
            for j in range(len(betas))
            if j != i
        ]
        stem = _detour_segments(base, entry, obstacles)
        a0 = cmath.phase(entry - beta)
        head = Arc(beta, r, a0, a0 + _TWO_PI)
        segs = tuple(stem + [head] + _backwards(stem))
        loops.append(PathSpec(segments=segs))
    rc = (1.0 + max((abs(v) for v in betas), default=0.0)) / 2.0
    direction = base / abs(base) if abs(base) > 0 else 1.0 + 0j
    rim_point = rc * direction
    phi0 = cmath.phase(direction)
    obstacles = [
        (betas[j], radii[j] / 2.0, _pass_left(angles[j], phi0))
        for j in range(len(betas))
    ]
    stem = _detour_segments(base, rim_point, obstacles)
    a0 = cmath.phase(rim_point)
    head = Arc(0j, rc, a0, a0 + _TWO_PI)
    segs = tuple(stem + [head] + _backwards(stem))
    boundary = PathSpec(segments=segs)
    return LoopSystem(
        base=base, branch_values=tuple(betas), loops=tuple(loops), boundary_loop=boundary
    )


_CASES = {
    **{f"product{i:02d}": b for i, b in enumerate(acceptance_products())},
    **{f"z^{n}": BlaschkeProduct(0.0, [0.0] * n) for n in range(2, 7)},
    "C(z^2)": BlaschkeProduct(0.0, [0.0, 0.0, 0.5, -0.5]),
    "suite-product13": suite_products()[13],
    "suite-product27": suite_products()[27],
    "sweep-order6-draw14": sweep_draw(6, 14),
    "sweep-order10-draw14": sweep_draw(10, 14),
}


@lru_cache(maxsize=None)
def _lollipops(name):
    """(base fiber, loop system, generators and boundary permutation) of the
    lollipop loops of case `name`, each loop read at its head.

    The stem is tracked alone and together with the head circle, every
    segment cut by `split_segment`, and the two ends are matched.  That is
    the whole lollipop's permutation whenever its return stem tracks, since
    tracking keeps slot labels; on suite product 27 and the two sweep draws
    a return stem raised FiberCollision before lane steps were certified by
    Koebe balls.
    """
    b = _CASES[name]
    data = b.branch_data()
    fiber0 = initial_fiber(b, choose_base_point(data.branch_values))
    loops = build_loops(b, fiber0.w, data.branch_values)
    entries, heads = [], []
    for loop in loops.loops + (loops.boundary_loop,):
        k = len(loop.segments) // 2
        stem = loop.segments[:k]
        entries.append(track(b, fiber0, _cut(stem, data.branch_values)) if stem else fiber0)
        heads.append(track(b, fiber0, _cut(loop.segments[:k + 1], data.branch_values)))
    return fiber0, loops, match_endpoints(b, entries, heads)


def _cut(segments, branch_values) -> PathSpec:
    """The path of `segments`, each cut by `split_segment`, as lanes need."""
    return PathSpec(tuple(p for seg in segments for p in split_segment(seg, branch_values)))


def _closed(pair, branch_values) -> PathSpec:
    """The closed loop "there, then back reversed" of a crossing pair, the
    straight segment back cut again from its far end by `approach`."""
    there, back = pair
    return PathSpec(there.segments + approach(back.end, back.start, branch_values))


@pytest.mark.parametrize("name", sorted(_CASES))
def test_generators_read_at_the_loop_head_match_whole_lollipops(name):
    # The reference reads each lollipop at its head; the whole lollipop,
    # tracked out, around and back, gives the same permutation.
    b = _CASES[name]
    fiber0, loops, perms = _lollipops(name)
    whole = [
        loop_permutation(b, fiber0, _cut(loop.segments, loops.branch_values))
        for loop in loops.loops + (loops.boundary_loop,)
    ]
    assert perms == whole


@pytest.mark.parametrize("name", sorted(_CASES))
def test_cut_crossing_generators_match_the_lollipop_reference(name):
    b = _CASES[name]
    rep = compute_representation(b)
    fiber0, loops, perms = _lollipops(name)
    assert rep.base == fiber0.w
    assert rep.branch_values == loops.branch_values
    assert list(rep.generators) + [rep.boundary_perm] == perms


@pytest.mark.parametrize("name", sorted(_CASES))
def test_closed_crossing_loops_wind_once_and_give_the_generators(name):
    b = _CASES[name]
    rep = compute_representation(b)
    cd = build_cut_disc(b)
    betas, pairs = crossing_paths(cd)
    assert betas == rep.branch_values
    assert len(pairs) == len(betas) + 1
    for k, pair in enumerate(pairs):
        loop = _closed(pair, betas)
        assert loop.is_closed and loop.start == cd.base
        for j, beta in enumerate(betas):
            # The boundary loop, last, winds once about every branch value.
            expected = 1.0 if j == k or k == len(betas) else 0.0
            assert winding_number(loop, beta) == pytest.approx(expected, abs=1e-6)
    whole = [loop_permutation(b, cd.fiber0, _closed(pair, betas)) for pair in pairs]
    assert whole == list(rep.generators) + [rep.boundary_perm]


def test_match_endpoints_refuses_a_doubled_point_and_another_w(order3):
    # A fiber matches itself by the identity.  An end fiber with two points
    # on one root has overlapping Koebe balls; one over another w, across
    # a singular value of B, is no certified step from the start fiber.
    # Either refusal names the w of the first refused pair.
    fiber0 = initial_fiber(order3, 0.1 + 0.2j)
    p = fiber0.points
    assert match_endpoints(order3, [fiber0], [fiber0]) == [Permutation.identity(3)]
    for end, why in (
        (Fiber(fiber0.w, (p[0], p[0], p[2])), "the fiber's Koebe balls overlap"),
        (initial_fiber(order3, -0.1 - 0.2j), "a step reaches a singular value of B"),
    ):
        with pytest.raises(
            AmbiguousMatching, match=re.escape(why) + ".* at w=" + re.escape(str(fiber0.w))
        ):
            match_endpoints(order3, [fiber0, fiber0], [fiber0, end])


def test_labeled_fibers_across_each_cut_give_its_generator():
    # The bundle's labeled branches jump across cut k by generator k: the
    # labeled fiber beside the cut, continued across it, lands on the
    # labeled fiber on its other side permuted by that generator.  The two
    # points sit at the point of the cut with the most room from the other
    # cuts and the rim, half that room to each side; a cut is checked when
    # both points are ones the bundle's sampler could draw.
    checked = 0
    for name in [f"product{i:02d}" for i in range(20)] + ["C(z^2)"]:
        b = _CASES[name]
        rep = compute_representation(b)
        cd = build_cut_disc(b)
        for beta, g in zip(rep.branch_values, rep.generators):
            k = cd.branch_values.index(beta)
            cut = cd.cuts[k]

            def room(p):
                return min(
                    [point_segment_distance(p, c.start, c.end)
                     for j, c in enumerate(cd.cuts) if j != k]
                    + [1.0 - abs(p)]
                )

            mid = max((cut.point(t) for t in np.linspace(0.0, 1.0, 65)[1:-1]), key=room)
            offset = 0.5 * room(mid) * 1j * (cut.end - cut.start) / abs(cut.end - cut.start)
            minus, plus = mid - offset, mid + offset
            if not all(
                point_in_cut_disc(cd, z, clearance=bundle._CUT_CLEARANCE)
                and min(abs(z - v) for v in cd.branch_values) >= bundle._BRANCH_CLEARANCE
                for z in (minus, plus)
            ):
                continue
            sig_minus, sig_plus = (sigma_values(cd, z) for z in (minus, plus))
            crossed = track(b, Fiber(minus, tuple(sig_minus)), PathSpec((Line(minus, plus),)))
            labeled = Fiber(plus, tuple(sig_plus))
            assert match_endpoints(b, [labeled], [crossed]) == [g], (name, k)
            checked += 1
    # Clustered branch values near 0 leave the other 27 cuts too close
    # together for the sampler.
    assert checked == 45


def test_approach_pieces_stay_in_branch_free_discs():
    rng = np.random.default_rng(31)

    def point():
        return 0.95 * math.sqrt(rng.random()) * cmath.exp(_TWO_PI * 1j * rng.random())

    def reach(p, betas):
        return 0.7 * min(abs(p - v) for v in betas)

    for _ in range(200):
        betas = [point() for _ in range(int(rng.integers(1, 9)))]
        start, z = point(), point()
        pieces = approach(start, z, betas)
        assert pieces[0].start == start and pieces[-1].end == z
        for a, nxt in zip(pieces, pieces[1:]):
            assert a.end == nxt.start
        for piece in pieces:
            # Up to rounding: the points lie in the unit disc.
            assert abs(piece.end - piece.start) <= reach(piece.start, betas) + 1e-15
        # Arcs by arc length, in either sense of rotation.
        a0 = _TWO_PI * rng.random()
        sweep = _TWO_PI * (rng.random() - 0.5)
        arc = Arc(start, 0.5 * rng.random(), a0, a0 + sweep)
        try:
            arcs = split_segment(arc, betas)
        except LoopConstructionFailed:
            continue
        assert arcs[0].a0 == arc.a0 and arcs[-1].a1 == arc.a1
        for a, nxt in zip(arcs, arcs[1:]):
            assert a.a1 == nxt.a0
        for piece in arcs:
            assert (piece.center, piece.radius) == (arc.center, arc.radius)
            length = piece.radius * abs(piece.a1 - piece.a0)
            assert length <= reach(piece.point(0.0), betas) + 1e-15
    assert approach(0.1, 0.5j, ()) == (Line(0.1, 0.5j),)
    with pytest.raises(LoopConstructionFailed):
        approach(0.5, -0.5, [0j])
    with pytest.raises(LoopConstructionFailed):
        split_segment(Arc(0j, 0.5, -math.pi / 2.0, math.pi / 2.0), [0.5])
    # The end angle pi is not exact in floating point: the arc ends 6e-17
    # from its branch value, within rounding of it.
    with pytest.raises(LoopConstructionFailed):
        split_segment(Arc(0j, 0.5, 0.0, math.pi), [-0.5])


def test_acceptance_representations_take_few_lockstep_iterations(lane_steps):
    # Every lane is a short piece that certifies in its four steps, and all
    # lanes of a product take them in one lockstep pass: four lane steps per
    # product (742 certified steps over these 20 products when each path
    # went segment by segment).
    products = acceptance_products()
    for b in products:
        compute_representation(b)
    assert len(lane_steps) <= 200
    assert len(lane_steps) == 4 * len(products)


def test_failing_first_loop_raises_what_tracking_it_whole_raises(order3, monkeypatch):
    # With every row failing under a tolerance of 1e-30, the first "there"
    # row's error is raised.
    monkeypatch.setattr(tracking, "newton_tol", lambda b: 1e-30)
    cd = build_cut_disc(order3)
    _, pairs = crossing_paths(cd)
    with pytest.raises(Exception) as whole:
        track(order3, cd.fiber0, pairs[0][0])
    with pytest.raises(type(whole.value), match=f"^{re.escape(str(whole.value))}$"):
        compute_representation(order3)


def test_altered_local_degrees_fail_the_ramification_guard(monkeypatch):
    # Mutation check: the guard compares each generator's nontrivial cycle
    # lengths with the recorded local degrees, so one altered tuple raises.
    b = acceptance_products()[15]
    data = b.branch_data()
    rep = compute_representation(b)
    beta = rep.branch_values[0]
    k = data.branch_values.index(beta)
    assert data.local_degrees[k] == (2,)
    altered = data.local_degrees[:k] + ((3,),) + data.local_degrees[k + 1:]
    monkeypatch.setattr(
        BlaschkeProduct,
        "branch_data",
        lambda self: replace(data, local_degrees=altered),
    )
    message = (
        f"generator around branch value {beta} has cycle lengths (2,), "
        "but the critical points over it have local degrees (3,)"
    )
    with pytest.raises(BranchCountError, match=f"^{re.escape(message)}$"):
        compute_representation(b)
