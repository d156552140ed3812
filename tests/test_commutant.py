from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from blaschkelab import (
    BlaschkeProduct,
    CommutantBasis,
    NonCommutative,
    Permutation,
    ToolkitError,
    analyze,
    commutant_basis,
    cycle_projections,
    is_commutative,
    minimal_projections,
    permutation_matrix,
)
from blaschkelab import analysis as analysis_module
from blaschkelab import commutant as commutant_module
from blaschkelab.cli import main
from blaschkelab.monodromy import orbitals
from helpers import composition_draw, suite_products


def _cycle(n: int) -> Permutation:
    return Permutation(tuple((i + 1) % n for i in range(n)))


def _steps(cycle: Permutation) -> list:
    """The orbit c^0(0), c^1(0), ... of 0 under the n-cycle c."""
    steps = [0]
    for _ in range(cycle.n - 1):
        steps.append(cycle(steps[-1]))
    return steps


def _dihedral(n: int) -> list:
    """Rotation and reflection generating the dihedral group of degree n."""
    return [_cycle(n), Permutation(tuple((-i) % n for i in range(n)))]


def _assert_matched(computed, expected, tol=1e-8):
    """Bijective matching between two families of matrices."""
    assert len(computed) == len(expected)
    used = set()
    for p in computed:
        dists = [np.linalg.norm(p - e) for e in expected]
        j = int(np.argmin(dists))
        assert dists[j] < tol
        assert j not in used
        used.add(j)


def test_permutation_matrix_swap():
    v = permutation_matrix(Permutation((1, 0)))
    assert np.array_equal(v, np.array([[0, 1], [1, 0]], dtype=complex))


def test_permutation_matrix_moves_basis_vectors():
    perm = _cycle(4)
    v = permutation_matrix(perm)
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1.0
        image = v @ e
        assert image[perm(j)] == 1.0
        assert image.sum() == 1.0


def test_swap_commutant_basis():
    gens = [Permutation((1, 0))]
    cb = commutant_basis(gens, 2)
    assert cb.dim == 2
    gram = np.array([[np.vdot(x, y) for y in cb.basis] for x in cb.basis])
    assert np.allclose(gram, np.eye(2), atol=1e-10)
    v = permutation_matrix(gens[0])
    for x in cb.basis:
        assert np.linalg.norm(x @ v - v @ x) <= 1e-10
    for target in (np.eye(2, dtype=complex), v):
        coeffs = [np.vdot(x, target) for x in cb.basis]
        recon = sum(c * x for c, x in zip(coeffs, cb.basis))
        assert np.allclose(recon, target, atol=1e-10)


def test_cycle_commutant_is_circulant_algebra():
    for n in (3, 4, 5):
        cb = commutant_basis([_cycle(n)], n)
        assert cb.dim == n
        v = permutation_matrix(_cycle(n))
        for x in cb.basis:
            assert np.linalg.norm(x @ v - v @ x) <= 1e-10


def test_trivial_group_gives_full_matrix_algebra():
    cb = commutant_basis([], 3)
    assert cb.dim == 9


def test_commutativity_of_circulants():
    flag, worst = is_commutative(commutant_basis([_cycle(4)], 4))
    assert flag
    assert worst < 1e-12


def test_noncommutativity_of_full_algebra():
    flag, worst = is_commutative(commutant_basis([], 2))
    assert not flag
    assert worst == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_minimal_projections_cycle_are_fourier():
    n = 3
    projs = minimal_projections(commutant_basis([_cycle(n)], n), _cycle(n))
    assert len(projs) == n
    omega = np.exp(2j * np.pi / n)
    expected = []
    for m in range(n):
        v = np.array([omega ** (m * t) for t in range(n)]) / math.sqrt(n)
        expected.append(np.outer(v, v.conj()))
    _assert_matched(projs, expected)


def test_minimal_projections_swap():
    swap = Permutation((1, 0))
    projs = minimal_projections(commutant_basis([swap], 2), swap)
    v = permutation_matrix(Permutation((1, 0)))
    expected = [(np.eye(2) + v) / 2.0, (np.eye(2) - v) / 2.0]
    _assert_matched(projs, expected)


def test_minimal_projections_single_point():
    projs = minimal_projections(commutant_basis([], 1), Permutation((0,)))
    assert len(projs) == 1
    assert np.allclose(projs[0], [[1.0]])


def test_the_64_cycle_splits_into_its_spectral_projections():
    # The circulant algebra's joint eigenspaces are the 64 Fourier lines;
    # the eigenvalues of the orbit matrices are powers of w = exp(2 pi i/64),
    # so the modes r and -r, which no real symmetric matrix could separate,
    # differ on the orbit of the pairs (j, j + 1).
    # The basis is built without `commutant_basis`'s singular-value count,
    # whose SVD of a 4096 x 4096 system takes tens of seconds; the
    # projections do not read `dim`.
    n = 64
    labels = orbitals([_cycle(n)], n)
    basis = tuple((labels == g) / math.sqrt(n) for g in range(n))
    cb = CommutantBasis(n=n, dim=n, basis=basis, orbitals=labels)
    projs = minimal_projections(cb, _cycle(n))
    _assert_matched(projs, cycle_projections(_cycle(n)), tol=1e-12)


@pytest.mark.parametrize("n", [8, 12])
def test_dihedral_groups_split_into_their_distance_classes(n):
    # The dihedral group of even degree n has n/2 + 1 orbits on ordered
    # pairs, one per distance.  Its minimal projections are the Fourier
    # lines of frequencies 0 and n/2, and the sums of the pairs +-k.
    projs = minimal_projections(commutant_basis(_dihedral(n), n), _cycle(n))
    fourier = cycle_projections(_cycle(n))
    ranks = sorted(int(round(np.trace(p).real)) for p in projs)
    assert ranks == [1, 1] + [2] * (n // 2 - 1)
    for p in projs:
        # Each projection is a sum of Fourier projections.
        assert np.linalg.norm(sum(p @ f for f in fourier) - p) < 1e-12
        weights = [np.trace(p @ f).real for f in fourier]
        assert all(abs(w) < 1e-12 or abs(w - 1.0) < 1e-12 for w in weights)


@pytest.mark.parametrize(
    "gens, cycle, n",
    [
        (_dihedral(8), _cycle(8), 8),
        ([_cycle(6)], _cycle(6), 6),
        # S_2 wr S_3 on the blocks {0, 1}, {2, 3}, {4, 5}: ranks 1, 2 and 3;
        # g1 o g2 = (0 2 4 1 3 5) is a 6-cycle of the group.
        ([Permutation((1, 0, 2, 3, 4, 5)), Permutation((2, 3, 4, 5, 0, 1)),
          Permutation((2, 3, 0, 1, 4, 5))], Permutation((2, 3, 4, 5, 1, 0)), 6),
    ],
    ids=["dihedral8", "cycle6", "wreath2x3"],
)
def test_relabeling_the_generators_moves_the_projections(gens, cycle, n):
    # Relabeled by R, the generators' commutant is R X R^T, and so are its
    # minimal projections, whatever order the orbit labels take.
    rng = np.random.default_rng(31)
    for _ in range(3):
        relabel = Permutation(tuple(int(i) for i in rng.permutation(n)))
        r = permutation_matrix(relabel)
        moved = minimal_projections(
            commutant_basis([g.conjugate(relabel) for g in gens], n), cycle.conjugate(relabel)
        )
        expected = minimal_projections(commutant_basis(gens, n), cycle)
        _assert_matched(moved, [r @ p @ r.T for p in expected], tol=1e-12)


def test_minimal_projections_reject_noncommutative():
    with pytest.raises(NonCommutative):
        minimal_projections(commutant_basis([], 2), _cycle(2))


def test_projection_partition_properties(order4, rep_of):
    rep = rep_of(order4)
    gens = list(rep.generators)
    n = order4.order
    cb = commutant_basis(gens, n)
    projs = minimal_projections(cb, rep.boundary_perm)
    assert len(projs) == cb.dim
    assert np.linalg.norm(sum(projs) - np.eye(n)) <= 1e-8
    ranks = 0
    for p in projs:
        assert np.linalg.norm(p @ p - p) <= 1e-8
        assert np.linalg.norm(p - p.conj().T) <= 1e-8
        ranks += int(round(np.trace(p).real))
    assert ranks == n
    for a in range(len(projs)):
        for b in range(a + 1, len(projs)):
            assert np.linalg.norm(projs[a] @ projs[b]) <= 1e-8
    for p in projs:
        for g in gens:
            v = permutation_matrix(g)
            assert np.linalg.norm(p @ v - v @ p) <= 1e-8


def test_dimension_is_conjugation_invariant(order3, rep_of):
    rep = rep_of(order3)
    gens = list(rep.generators)
    n = order3.order
    rng = np.random.default_rng(17)
    relabel = Permutation(tuple(int(i) for i in rng.permutation(n)))
    conj = [g.conjugate(relabel) for g in gens]
    assert commutant_basis(conj, n).dim == commutant_basis(gens, n).dim


def test_basis_commutes_bit_exactly_with_every_suite_generator(rep_of):
    accepted = 0
    for b in suite_products():
        try:
            rep = rep_of(b)
        except ToolkitError:
            continue
        accepted += 1
        cb = commutant_basis(rep.generators, b.order)
        assert len(cb.basis) == cb.dim
        for g in rep.generators:
            v = permutation_matrix(g)
            for x in cb.basis:
                assert np.array_equal(x @ v, v @ x)
    assert accepted == 30


def test_conjugating_the_generators_permutes_the_basis(order4, rep_of):
    gens = list(rep_of(order4).generators)
    n = order4.order
    rng = np.random.default_rng(23)
    for _ in range(3):
        relabel = Permutation(tuple(int(i) for i in rng.permutation(n)))
        p = permutation_matrix(relabel)
        moved = commutant_basis([g.conjugate(relabel) for g in gens], n)
        expected = commutant_basis(gens, n)
        assert moved.dim == expected.dim
        assert sorted(x.tobytes() for x in moved.basis) == sorted(
            (p @ x @ p.T).tobytes() for x in expected.basis
        )


def test_no_generators_give_the_matrix_units_in_row_major_order():
    n = 3
    cb = commutant_basis([], n)
    assert cb.dim == len(cb.basis) == n * n
    for k, x in enumerate(cb.basis):
        unit = np.zeros((n, n))
        unit[divmod(k, n)] = 1.0
        assert np.array_equal(x, unit)


def test_regular_action_of_s3_has_an_exactly_noncommutative_commutant():
    # S_3 acting on itself by left multiplication: the commutant is the
    # right regular representation, six orbit matrices A_x with
    # A_x A_y = A_xy, so a non-commuting pair has a commutator of twelve
    # +-1 entries and, scaled by the orbit sizes 6 and 6, norm sqrt(12/36).
    elements = [tuple(p) for p in itertools.permutations(range(3))]
    index = {e: k for k, e in enumerate(elements)}

    def left(s):
        return Permutation(tuple(index[tuple(s[i] for i in e)] for e in elements))

    gens = [left((1, 0, 2)), left((1, 2, 0))]
    cb = commutant_basis(gens, 6)
    assert cb.dim == len(cb.basis) == 6
    flag, worst = is_commutative(cb)
    assert not flag
    assert worst == pytest.approx(math.sqrt(12 / 36), rel=1e-15)
    with pytest.raises(NonCommutative):
        minimal_projections(cb, _cycle(6))


def test_merged_orbit_labels_fail_only_the_dimension_check(cube, monkeypatch):
    # z^3 has the three orbits of Z_3 on ordered pairs.  Merging the two
    # off-diagonal ones leaves {I, J - I}, a commutative algebra whose
    # projections still pass; the singular values still count three, so
    # only the comparison of the two counts fails.
    honest = analyze(cube).theorem_checks["q_orbitals_equals_commutant_dim"]
    assert honest == {"pass": True, "q_orbitals": 3, "commutant_dim": 3}

    def merged(generators, n):
        labels = orbitals(generators, n)
        return np.where(labels >= 2, labels - 1, labels)

    monkeypatch.setattr(commutant_module, "orbitals", merged)
    checks = analyze(cube).theorem_checks
    assert checks["q_orbitals_equals_commutant_dim"] == {
        "pass": False, "q_orbitals": 2, "commutant_dim": 3,
    }
    assert [name for name, c in checks.items() if not c["pass"]] == [
        "q_orbitals_equals_commutant_dim"
    ]


def test_each_projection_is_one_joint_eigenspace_of_the_orbit_matrices(rep_of):
    # On the range of each projection every orbit matrix acts as a scalar,
    # and the tuples of scalars differ between projections: with the
    # projections summing to I, each is a whole joint eigenspace, so none
    # splits further.  The check reads the orbit matrices only, not the
    # Fourier modes the projections were grouped from.
    products = suite_products() + [
        composition_draw(c, d, 0) for c in range(2, 5) for d in range(4, 7)
    ]
    for b in products:
        rep = rep_of(b)
        cb = commutant_basis(rep.generators, b.order)
        projs = minimal_projections(cb, rep.boundary_perm)
        assert len(projs) == len(cb.basis)
        assert np.linalg.norm(sum(projs) - np.eye(b.order)) < 1e-12
        scalars = []
        for p in projs:
            rank = np.trace(p).real
            mu = [np.trace(a @ p) / rank for a in cb._orbit_matrices]
            for a, m in zip(cb._orbit_matrices, mu):
                assert np.linalg.norm(a @ p - m * p) < 1e-11
            scalars.append(np.array(mu))
        for s, t in itertools.combinations(scalars, 2):
            assert np.abs(s - t).max() > 0.5


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_zn_projections_come_in_mode_order(n):
    # z^n has n rank-1 projections, the Fourier lines of its boundary cycle
    # c; the r-th is v_r v_r^H with v_r[c^j(0)] = w^(rj)/sqrt(n), so the
    # first is J/n.
    result = analyze(BlaschkeProduct(0.0, [0.0] * n))
    steps = _steps(result.rep.boundary_perm)
    assert len(result.projections) == n
    assert np.allclose(result.projections[0], np.full((n, n), 1.0 / n), atol=1e-15)
    for r, p in enumerate(result.projections):
        column = np.exp(2j * np.pi * r * np.arange(n) / n) / n
        assert np.allclose(p[steps, 0], column, atol=1e-14)
        assert np.linalg.norm(p @ p - p) < 1e-14


# Beside the group Z_4 of the cycle (0 1 2 3): its square is no 4-cycle, and
# (0 2 1 3) is a 4-cycle outside the group, which maps the pair (1, 2) of the
# orbit of the differences 1 to the pair (3, 1) of the differences 2.
_UNFIT_CYCLES = [_cycle(4).compose(_cycle(4)), Permutation((2, 3, 1, 0))]


@pytest.mark.parametrize("cycle", _UNFIT_CYCLES, ids=["square", "outside"])
def test_a_cycle_that_does_not_fit_gives_no_projections(cycle):
    assert minimal_projections(commutant_basis([_cycle(4)], 4), cycle) == []


@pytest.mark.parametrize("cycle", _UNFIT_CYCLES, ids=["square", "outside"])
def test_analyze_with_a_cycle_that_does_not_fit_fails_the_partition(
    cycle, tmp_path, capsys, monkeypatch
):
    # z^4's boundary permutation is a 4-cycle; relabeled so that it reads
    # (0 1 2 3), the unfit cycles above are passed in its place.
    def unfit(cb, boundary):
        relabel = Permutation(tuple(_steps(boundary)))
        return minimal_projections(cb, cycle.conjugate(relabel))

    monkeypatch.setattr(analysis_module, "minimal_projections", unfit)
    spec = tmp_path / "z4.json"
    spec.write_text(json.dumps({"theta": 0, "zeros": [[0, 0]] * 4}))
    assert main(["analyze", str(spec)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["num_minimal_projections"] == 0
    assert [name for name, c in report["theorem_checks"].items() if not c["pass"]] == [
        "projection_partition"
    ]
