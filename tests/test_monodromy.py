from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from blaschkelab import (
    DEFAULTS,
    BlaschkeProduct,
    BranchCountError,
    Permutation,
    boundary_product,
    compute_representation,
    group_order,
    is_transitive,
    orbital_count,
    random_product,
)
from blaschkelab.monodromy import _stem_and_head, loop_setup
from blaschkelab.tracking import (
    Arc,
    Line,
    PathSpec,
    loop_permutation,
    track,
    track_with_trace,
)


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


def test_transitivity_examples():
    assert is_transitive([_cycle(3)], 3)
    assert not is_transitive([Permutation((0, 1))], 2)
    assert not is_transitive([], 2)


def test_orbital_count_examples():
    assert orbital_count([Permutation((1, 0))], 2) == 2
    for n in (3, 4, 5):
        assert orbital_count([_cycle(n)], n) == n
    assert orbital_count([Permutation((1, 0, 2)), _cycle(3)], 3) == 2


def test_conjugation_invariance(order4, rep_of):
    rep = rep_of(order4)
    gens = list(rep.generators)
    n = order4.order
    rng = np.random.default_rng(15)
    for _ in range(5):
        relabel = Permutation(tuple(int(i) for i in rng.permutation(n)))
        conj = [g.conjugate(relabel) for g in gens]
        assert orbital_count(conj, n) == orbital_count(gens, n)
        assert len(group_closure(conj)) == len(group_closure(gens))
        assert group_order(conj, n) == group_order(gens, n)
        assert is_transitive(conj, n) == is_transitive(gens, n)


def test_random_representations_properties():
    rng = np.random.default_rng(16)
    for order in (3, 4, 5):
        for _ in range(2):
            b = random_product(order, rng)
            rep = compute_representation(b)
            gens = list(rep.generators)
            assert is_transitive(gens, order)
            assert rep.boundary_perm.cycle_type() == (order,)
            assert boundary_product(rep).images == rep.boundary_perm.images
            assert math.factorial(order) % len(group_closure(gens)) == 0
            reversal = Permutation(tuple(reversed(range(order))))
            conj = [g.conjugate(reversal) for g in gens]
            assert group_order(conj, order) == len(group_closure(gens))
            assert orbital_count(gens, order) >= 2


def _acceptance_products():
    """The twenty seed-2026 radius-0.6 products of orders 3-6."""
    rng = np.random.default_rng(2026)
    return [random_product(order, rng, radius=0.6) for order in (3, 4, 5, 6) for _ in range(5)]


_HEAD_READ_CASES = [
    pytest.param(b, id=f"product{i:02d}") for i, b in enumerate(_acceptance_products())
] + [pytest.param(BlaschkeProduct(0.0, [0.0] * n), id=f"z^{n}") for n in range(2, 7)]


@pytest.mark.parametrize("b", _HEAD_READ_CASES)
def test_generators_read_at_the_loop_head_match_whole_lollipops(b):
    # The reference tracks every lollipop out, around and back to the base.
    rep = compute_representation(b)
    _, fiber0, loops = loop_setup(b)
    whole = [loop_permutation(b, fiber0, loop) for loop in loops.loops + (loops.boundary_loop,)]
    assert list(rep.generators) + [rep.boundary_perm] == whole


@pytest.mark.parametrize("index", [0, 5, 10, 15, 19])
def test_stem_end_is_the_whole_loop_node_at_the_head_entry(index):
    b = _acceptance_products()[index]
    _, fiber0, loops = loop_setup(b)
    for loop in loops.loops + (loops.boundary_loop,):
        stem, _ = _stem_and_head(loop)
        assert stem
        entry = track(b, fiber0, PathSpec(stem))
        _, nodes = track_with_trace(b, fiber0, loop)
        at_entry = [(w, pts) for t, w, pts in nodes if t == len(stem) / len(loop.segments)]
        assert len(at_entry) == 1
        w, pts = at_entry[0]
        assert w == entry.w
        assert np.array(pts).tobytes() == np.array(entry.points).tobytes()


def test_failing_first_loop_raises_what_tracking_it_whole_raises(order3):
    settings = replace(DEFAULTS, newton_tol=1e-30)
    _, fiber0, loops = loop_setup(order3, settings)
    with pytest.raises(Exception) as whole:
        track(order3, fiber0, loops.loops[0], settings)
    with pytest.raises(type(whole.value), match=f"^{re.escape(str(whole.value))}$"):
        compute_representation(order3, settings)


def test_stem_and_head_split_only_lollipops():
    circle = Arc(0.5 + 0.5j, 0.1, 0.0, 2.0 * math.pi)
    assert _stem_and_head(PathSpec((circle,))) == ((), circle)
    stem = Line(0j, 0.6 + 0.5j)
    assert _stem_and_head(PathSpec((stem, circle, stem.reversed()))) == ((stem,), circle)
    with pytest.raises(ValueError):
        _stem_and_head(PathSpec((stem, Line(0.6 + 0.5j, 0j))))
    with pytest.raises(ValueError):
        _stem_and_head(PathSpec((stem, circle, Line(0.6 + 0.5j, 0.1j))))


def test_altered_local_degrees_fail_the_ramification_guard(monkeypatch):
    # Mutation check: the guard compares each generator's nontrivial cycle
    # lengths with the recorded local degrees, so one altered tuple raises.
    b = _acceptance_products()[15]
    data = b.branch_data()
    rep = compute_representation(b)
    beta = rep.branch_values[0]
    k = data.branch_values.index(beta)
    assert data.local_degrees[k] == (2,)
    altered = data.local_degrees[:k] + ((3,),) + data.local_degrees[k + 1:]
    monkeypatch.setattr(
        BlaschkeProduct,
        "branch_data",
        lambda self, settings=DEFAULTS: replace(data, local_degrees=altered),
    )
    message = (
        f"generator around branch value {beta} has cycle lengths (2,), "
        "but the critical points over it have local degrees (3,)"
    )
    with pytest.raises(BranchCountError, match=f"^{re.escape(message)}$"):
        compute_representation(b)
