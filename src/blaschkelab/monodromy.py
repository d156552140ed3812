"""Monodromy permutations of a Blaschke covering and their group structure.

The generators are read off the cut disc that `bundle` continues its labeled
inverse branches on: generator k is the jump of the labeled branches across
the cut from branch value k, found by tracking the base fiber to both sides
of the cut (`crossing_paths`).  These permutations generate the monodromy
action of the covering on sheet labels.

The orbits on ordered pairs of sheets (`orbitals`) give transitivity, the
orbit count and the commutant basis of `commutant`.  Transitivity, the orbit
count and the group order are conjugation invariant and therefore do not
depend on the arbitrary sheet labeling.  The group order comes from
Schreier–Sims (`group_order`), without listing the elements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bundle import CutDisc, build_cut_disc
from .errors import AmbiguousMatching, BranchCountError
from .tracking import (
    Arc,
    PathSpec,
    _match_rows,
    _raise_first,
    approach,
    point_segment_distance,
    split_segment,
    track_paths,
)

__all__ = [
    "Permutation",
    "match_endpoints",
    "MonodromyRep",
    "crossing_paths",
    "compute_representation",
    "boundary_product",
    "group_order",
    "orbitals",
]


def _mul(a: tuple, b: tuple) -> tuple:
    """Image tuple of a after b."""
    return tuple(map(a.__getitem__, b))


def _inv(a: tuple) -> tuple:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, ..., n-1} stored as its image tuple."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(_mul(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inv(self.images))

    def conjugate(self, relabel: "Permutation") -> "Permutation":
        """relabel o self o relabel^{-1}."""
        return relabel.compose(self).compose(relabel.inverse())

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_type(self) -> tuple:
        seen = [False] * self.n
        lengths = []
        for i in range(self.n):
            if seen[i]:
                continue
            length, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))


def match_endpoints(fiber0, end) -> Permutation:
    """Permutation tau with end.points[i] = fiber0.points[tau(i)].

    Matches endpoints to start points by nearest neighbour within a third of
    the starting separation (AmbiguousMatching otherwise; `tracking._match_rows`).
    """
    (images,), (message,) = _match_rows(
        np.array([end.points], dtype=complex),
        np.array([fiber0.points], dtype=complex),
        np.array([fiber0.separation / 3.0]),
    )
    if message is not None:
        raise AmbiguousMatching(message)
    return Permutation(tuple(images.tolist()))


@dataclass(frozen=True)
class MonodromyRep:
    """Base point, ordered branch values, loop generators, boundary permutation."""

    base: complex
    branch_values: tuple
    generators: tuple
    boundary_perm: Permutation


def crossing_paths(cd: CutDisc) -> tuple:
    """(branch values, path pairs) of the cut disc's standard generators.

    The branch values come in ascending arg(beta - base), the loop order.
    Each has a pair (there, back) of paths from the base; the loop "there,
    then back reversed" crosses its cut once and no other cut, so it winds
    once about its branch value and zero times about every other.  With
    phi = arg(beta - base) and r a third of the least distance from beta to
    the other cuts (each starts at its branch value), the base and the rim,
    put z+- = beta + r e^{i(phi +- pi/2)}: "there" is the `approach` to z-
    and the counterclockwise half circle about beta through the cut to z+,
    "back" the `approach` to z+.

    The last pair is the boundary loop's: "there" is the `approach` to the
    point of radius (1 + max|beta|)/2 on the ray from 0 through the base,
    then that circle once counterclockwise; "back" is the approach alone.

    Every segment, the half circles and the boundary circle included, is
    cut by `split_segment`, so each piece is one short lane of
    `track_paths`.
    """
    base = complex(cd.base)
    order = sorted(
        range(len(cd.branch_values)), key=lambda k: cmath.phase(cd.branch_values[k] - base)
    )
    betas = tuple(cd.branch_values[k] for k in order)
    pairs = []
    for k in order:
        beta = cd.branch_values[k]
        phi = cmath.phase(beta - base)
        r = min(
            [point_segment_distance(beta, c.start, c.end)
             for j, c in enumerate(cd.cuts) if j != k]
            + [abs(beta - base), 1.0 - abs(beta)]
        ) / 3.0
        half = Arc(beta, r, phi - math.pi / 2.0, phi + math.pi / 2.0)
        there = approach(base, half.point(0.0), betas) + split_segment(half, betas)
        pairs.append((PathSpec(there), PathSpec(approach(base, half.point(1.0), betas))))
    rc = (1.0 + max((abs(v) for v in betas), default=0.0)) / 2.0
    a0 = cmath.phase(base) if abs(base) > 0 else 0.0
    circle = Arc(0j, rc, a0, a0 + 2.0 * math.pi)
    stem = approach(base, circle.point(0.0), betas)
    pairs.append((PathSpec(stem + split_segment(circle, betas)), PathSpec(stem)))
    return betas, tuple(pairs)


def compute_representation(b) -> MonodromyRep:
    """Full monodromy computation: branch data, cut disc, tracked permutations.

    The generators are the transition maps of the cut disc that `bundle`
    labels its inverse branches on (`bundle.build_cut_disc`): generator k is
    the jump of the labeled branches across cut k.  One `track_paths` call
    carries every row of `crossing_paths` from the labeling fiber; a pair's
    permutation matches the end of "back" to the end of "there", which is
    the permutation of the closed loop "there, then back reversed", since
    tracking keeps slot labels.  Generators follow the loop order (ascending
    argument of branch value minus base); the boundary permutation is
    tracked independently around the enclosing circle rather than inferred
    from the generators.  The first failing row in path order raises its
    error.

    Each generator's nontrivial cycle lengths must equal the local degrees
    of the critical points over its branch value (`cd.branch_data`), the
    local structure of a branched cover; the first generator in loop order
    that disagrees raises `BranchCountError`.
    """
    cd = build_cut_disc(b)
    betas, pairs = crossing_paths(cd)
    ends = _raise_first(track_paths(b, cd.fiber0, [path for pair in pairs for path in pair]))
    perms = [match_endpoints(back, there) for there, back in zip(ends[::2], ends[1::2])]
    local_degrees = dict(zip(cd.branch_values, cd.branch_data.local_degrees))
    for beta, g in zip(betas, perms):
        cycles = tuple(k for k in g.cycle_type() if k > 1)
        if cycles != local_degrees[beta]:
            raise BranchCountError(
                f"generator around branch value {beta} has cycle lengths {cycles}, "
                f"but the critical points over it have local degrees {local_degrees[beta]}"
            )
    return MonodromyRep(
        base=cd.base,
        branch_values=betas,
        generators=tuple(perms[:-1]),
        boundary_perm=perms[-1],
    )


def boundary_product(rep: MonodromyRep) -> Permutation:
    """Product of the generators in the order a boundary sweep crosses them.

    The generator loops leave the base along straight segments, each toward
    its branch value; sweeping counterclockwise from the boundary loop's own
    approach direction (the ray from the origin through the base) crosses
    them in cyclic order of arg(branch value - base) relative to arg(base).
    Composing the generators in that traversal order gives the class of the
    boundary loop, which `compute_representation` verifies by independent
    tracking.
    """
    n = rep.boundary_perm.n
    if not rep.generators:
        return Permutation.identity(n)
    phi0 = cmath.phase(rep.base) if abs(rep.base) > 0 else 0.0
    order = sorted(
        range(len(rep.generators)),
        key=lambda i: (cmath.phase(rep.branch_values[i] - rep.base) - phi0) % (2.0 * math.pi),
    )
    acc = Permutation.identity(n)
    for i in order:
        acc = rep.generators[i].compose(acc)
    return acc


def _orbit(point: int, gens: list, identity: tuple) -> dict:
    """Schreier transversal {image: (u, u^{-1})} with u(point) = image."""
    table = {point: (identity, identity)}
    frontier = [point]
    while frontier:
        nxt = []
        for beta in frontier:
            u = table[beta][0]
            for s in gens:
                gamma = s[beta]
                if gamma not in table:
                    v = _mul(s, u)
                    table[gamma] = (v, _inv(v))
                    nxt.append(gamma)
        frontier = nxt
    return table


def group_order(generators, degree: int) -> int:
    """Order of the group generated on {0, ..., degree-1}, by Schreier–Sims.

    Deterministic Schreier–Sims (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003) on image tuples.  Level i has base point
    b_i, the strong generators fixing b_0, ..., b_{i-1}, and a Schreier
    transversal of the basic orbit of b_i.  Every Schreier generator of a
    level is sifted through the levels below it; a non-trivial residue is
    added to those levels (opening a new one at the smallest point it moves
    when it sifts through all of them) and checking resumes at the deepest
    level it joined.  The order is the exact product of the basic-orbit
    lengths.  No randomness and no size or degree cap; an empty or
    all-identity generator list gives 1.
    """
    identity = tuple(range(degree))
    gens = []
    for g in generators:
        if g.n != degree:
            raise ValueError(f"generator of degree {g.n} in a group of degree {degree}")
        if g.images != identity:
            gens.append(g.images)
    base, strong, orbits = [], [], []

    def moved(g):
        return next(i for i, j in enumerate(g) if i != j)

    def sift(h, level):
        """(residue, level where its base image left the orbit or len(base))."""
        for j in range(level, len(base)):
            entry = orbits[j].get(h[base[j]])
            if entry is None:
                return h, j
            h = _mul(entry[1], h)
        return h, len(base)

    def residue_at(i):
        """First Schreier generator of level i that sifts to a non-identity."""
        for beta, (u, _) in orbits[i].items():
            for s in strong[i]:
                h, j = sift(_mul(orbits[i][s[beta]][1], _mul(s, u)), i + 1)
                if h != identity:
                    return h, j
        return None

    for g in gens:
        if all(g[b] == b for b in base):
            base.append(moved(g))
    for i, b in enumerate(base):
        strong.append([g for g in gens if all(g[c] == c for c in base[:i])])
        orbits.append(_orbit(b, strong[i], identity))

    i = len(base) - 1
    while i >= 0:
        residue = residue_at(i)
        if residue is None:
            i -= 1
            continue
        h, j = residue
        if j == len(base):
            base.append(moved(h))
            strong.append([])
            orbits.append(None)
        for level in range(i + 1, j + 1):
            strong[level].append(h)
            orbits[level] = _orbit(base[level], strong[level], identity)
        i = j
    return math.prod(len(orbit) for orbit in orbits)


def orbitals(generators, n: int) -> np.ndarray:
    """Orbit labels of the ordered pairs (i, j) under the coordinate-wise action.

    Entry [i, j] numbers the orbit of (i, j), in the row-major order of each
    orbit's first pair (with no generators it is i*n + j).  For sheets these
    orbits are the components of the curve B(z) = B(w) over the base fiber:
    some loop carries sheets (i, j) to (k, l) exactly when they share one.
    """
    if any(g.n != n for g in generators):
        raise ValueError(f"a generator's degree is not {n}")
    maps = [(np.asarray(g.images)[:, None] * n + g.images).ravel().tolist() for g in generators]
    labels = [-1] * (n * n)
    count = 0
    for first in range(n * n):
        if labels[first] < 0:
            labels[first], frontier = count, [first]
            while frontier:
                pair = frontier.pop()
                for image in maps:
                    if labels[image[pair]] < 0:
                        labels[image[pair]] = count
                        frontier.append(image[pair])
            count += 1
    return np.array(labels, dtype=np.int64).reshape(n, n)
