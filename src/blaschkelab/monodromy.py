"""Monodromy permutations of a Blaschke covering and their group structure.

Tracking the base fiber around the loop system yields one permutation per
branch value; these generate the monodromy action of the covering on sheet
labels.  Each loop is a lollipop (stem, head circle, stem reversed), and its
permutation is read at the loop head: the fiber is tracked out along the stem
and once around the head, never back along the stem.  `trace-loop` and
`tracking.loop_permutation` still track the whole lollipop.

Group-level quantities derived here (transitivity, orbit counts on ordered
pairs, group order) are conjugation invariant and therefore do not depend on
the arbitrary sheet labeling.  The group order comes from
Schreier–Sims (`group_order`), without listing the elements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .config import DEFAULTS, Settings
from .errors import BranchCountError
from .tracking import (
    PathSpec,
    build_loops,
    choose_base_point,
    initial_fiber,
    match_endpoints,
    track_paths,
)

__all__ = [
    "Permutation",
    "MonodromyRep",
    "loop_setup",
    "compute_representation",
    "boundary_product",
    "group_order",
    "is_transitive",
    "orbital_count",
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


@dataclass(frozen=True)
class MonodromyRep:
    """Base point, ordered branch values, loop generators, boundary permutation."""

    base: complex
    branch_values: tuple
    generators: tuple
    boundary_perm: Permutation


def loop_setup(b, settings: Settings = DEFAULTS):
    """(branch data, base fiber, loop system) of `b`, around the chosen base."""
    data = b.branch_data(settings)
    base = choose_base_point(b, data.branch_values, settings)
    fiber0 = initial_fiber(b, base, settings)
    return data, fiber0, build_loops(b, base, data.branch_values)


def _stem_and_head(loop):
    """(stem segments, head segment) of a lollipop `stem + head + stem^-1`.

    Raises ValueError when the segments after the head are not the stem
    reversed; the stem may be empty.
    """
    segs = loop.segments
    k = len(segs) // 2
    stem = segs[:k]
    if len(segs) % 2 != 1 or segs[k + 1:] != tuple(s.reversed() for s in reversed(stem)):
        raise ValueError("loop is not a lollipop: its tail is not the reversed stem")
    return stem, segs[k]


def compute_representation(b, settings: Settings = DEFAULTS) -> MonodromyRep:
    """Full monodromy computation: branch data, loops, tracked permutations.

    Generators follow the loop order (ascending argument of branch value
    minus base); the boundary permutation is tracked independently around the
    enclosing circle rather than inferred from the generators.

    Each loop is a lollipop sigma * c * sigma^-1, and tracking keeps slot
    labels, so its permutation is that of the head circle c read in the fiber
    at the head's entry point.  The return stem is never tracked: one
    `track_paths` call carries two rows per loop, the stem alone (ending in
    the entry fiber; `fiber0` when the stem is empty) and the stem followed
    by the head.  Rows are bit-identical to tracking each path alone and the
    step resets at every segment, so the stem row's end is exactly the fiber
    the second row passes through at the head's start.  The first failing
    loop in loop order raises its error, its stem's error first.  `trace-loop`
    still traces the whole lollipop.

    Each generator's nontrivial cycle lengths must equal the local degrees
    of the critical points over its branch value (`BranchData.local_degrees`),
    the local structure of a branched cover; the first generator in loop
    order that disagrees raises `BranchCountError`.
    """
    data, fiber0, loops = loop_setup(b, settings)
    paths, rows = [], []
    for loop in loops.loops + (loops.boundary_loop,):
        stem, head = _stem_and_head(loop)
        stem_row = None
        if stem:
            stem_row = len(paths)
            paths.append(PathSpec(segments=stem, clearance=loop.clearance))
        paths.append(PathSpec(segments=stem + (head,), clearance=loop.clearance))
        rows.append((stem_row, len(paths) - 1))
    ends = track_paths(b, fiber0, paths, settings)
    perms = []
    for stem_row, head_row in rows:
        # The head row repeats the stem row step for step, so it fails with
        # the stem's own error there and reaches the head only if the stem
        # row ended in a fiber.
        end = ends[head_row]
        if isinstance(end, Exception):
            raise end
        entry = fiber0 if stem_row is None else ends[stem_row]
        perms.append(match_endpoints(entry, end))
    local_degrees = dict(zip(data.branch_values, data.local_degrees))
    for beta, g in zip(loops.branch_values, perms):
        cycles = tuple(k for k in g.cycle_type() if k > 1)
        if cycles != local_degrees[beta]:
            raise BranchCountError(
                f"generator around branch value {beta} has cycle lengths {cycles}, "
                f"but the critical points over it have local degrees {local_degrees[beta]}"
            )
    return MonodromyRep(
        base=loops.base,
        branch_values=loops.branch_values,
        generators=tuple(perms[:-1]),
        boundary_perm=perms[-1],
    )


def boundary_product(rep: MonodromyRep) -> Permutation:
    """Product of the generators in the order a boundary sweep crosses them.

    The lollipop stems leave the base along straight rays; sweeping
    counterclockwise from the boundary loop's own stem direction (the ray
    from the origin through the base) crosses them in cyclic order of
    arg(branch value - base) relative to arg(base).  Composing the generators
    in that traversal order gives the class of the boundary loop, which
    `compute_representation` verifies by independent tracking.
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


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def count(self):
        return len({self.find(x) for x in range(len(self.parent))})


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


def is_transitive(generators, n: int) -> bool:
    """Whether the generated group acts transitively on {0, ..., n-1}."""
    uf = _UnionFind(n)
    for g in generators:
        for i in range(n):
            uf.union(i, g(i))
    return uf.count() == 1


def orbital_count(generators, n: int) -> int:
    """Number of orbits on ordered pairs under the coordinate-wise action."""
    uf = _UnionFind(n * n)
    for g in generators:
        for i in range(n):
            for j in range(n):
                uf.union(i * n + j, g(i) * n + g(j))
    return uf.count()
