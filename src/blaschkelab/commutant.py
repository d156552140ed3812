"""Commutant of a family of permutation unitaries and its minimal projections.

Each fiber permutation acts on C^n by the 0/1 unitary V e_j = e_{tau(j)}.
The commutant {X : X V_i = V_i X for all i} is spanned by the 0/1 matrices
of the orbits on ordered pairs (`monodromy.orbitals`), the label-side form
of Douglas-Sun-Zheng's E_G (Adv. Math. 226, 2011); the singular values of
the stacked pair permutations less the identity count its dimension
independently.  For a Blaschke product the boundary permutation is an
n-cycle of the group, so every orbit matrix is a sum of powers of the
cycle's matrix and the algebra is commutative (Douglas-Putinar-Wang, J.
Funct. Anal. 263, 2012).  Its minimal projections are unique, one per basis matrix:
`minimal_projections` groups the cycle's Fourier modes by their eigenvalues
on the orbit matrices, with no eigensolver and nothing drawn at random.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonCommutative
from .monodromy import orbitals

__all__ = [
    "CommutantBasis",
    "permutation_matrix",
    "commutant_basis",
    "is_commutative",
    "minimal_projections",
]

# Singular values below _NULLSPACE_RTOL times the largest count toward the
# commutant dimension (`commutant_basis`); `minimal_projections` puts two
# Fourier modes in one projection when their eigenvalues on every orbit
# matrix agree within _PROJECTION_GAP.
_NULLSPACE_RTOL = 1e-10
_PROJECTION_GAP = 1e-6


@dataclass(frozen=True)
class CommutantBasis:
    """Orthonormal basis of the commutant algebra of a permutation family.

    Attributes
    ----------
    n : int
        Size of the underlying permutation domain (matrices are n x n).
    dim : int
        Nullity of the stacked pair-permutation system, from singular values.
    basis : tuple of ndarray
        basis[g] is 1 where ``orbitals == g`` and 0 elsewhere, scaled to unit
        Frobenius norm; disjoint supports make the basis exactly orthonormal.
    orbitals : ndarray
        The n x n integer orbit labels of `monodromy.orbitals`.
    """

    n: int
    dim: int
    basis: tuple
    orbitals: np.ndarray

    @cached_property
    def _orbit_matrices(self) -> np.ndarray:
        """The 0/1 orbit matrices, stacked as a (len(basis), n, n) float64 array.

        Float64, not integer, so their products go to BLAS: on z^64 the
        commutativity test ran about ten times faster than in int64.  Every
        partial sum in an entry of a product or commutator of two of them is
        an integer of modulus at most n, and a sum of squares of those
        entries at most n^4, so below n = 2^13 float64 computes them exactly.
        """
        return np.stack([self.orbitals == g for g in range(len(self.basis))]).astype(float)

    @cached_property
    def _commutativity(self) -> tuple:
        """`is_commutative`, computed once per basis."""
        orbit = self._orbit_matrices
        sizes = orbit.sum(axis=(1, 2))
        worst = 0.0
        for g in range(len(orbit) - 1):
            comm = orbit[g] @ orbit[g + 1:] - orbit[g + 1:] @ orbit[g]
            squares = (comm * comm).sum(axis=(1, 2))
            worst = max(worst, float(np.sqrt(squares / (sizes[g] * sizes[g + 1:])).max()))
        return worst == 0.0, worst


def permutation_matrix(perm) -> np.ndarray:
    """The 0/1 unitary with V e_j = e_{perm(j)}.

    Matrix multiplication matches composition: the matrix of a.compose(b)
    (apply b, then a) equals permutation_matrix(a) @ permutation_matrix(b).
    """
    return np.eye(perm.n)[:, list(perm.images)]


def commutant_basis(generators, n: int) -> CommutantBasis:
    """Orbit-matrix basis of {X : X V_i = V_i X for every generator}.

    X commutes with every V_i exactly when X[i, j] is constant on each orbit
    of ordered pairs, so the normalized orbit matrices span the commutant.
    With no generators the orbits are single pairs and the basis is the
    matrix units in row-major order.  `dim` is counted independently: the
    number of singular values of the stacked pair permutations less the
    identity, X[j, k] -> X[g(j), g(k)] - X[j, k] = (V^T X V - X)[j, k], that
    fall below `_NULLSPACE_RTOL` times the largest.  As X V - V X =
    V (V^T X V - X), these are the singular values of X -> X V_i - V_i X.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    labels = orbitals(generators, n)
    orbits = [(labels == g).astype(float) for g in range(int(labels.max()) + 1)]
    eye = np.eye(n * n)
    system = np.array(
        [eye[(np.asarray(g.images)[:, None] * n + g.images).ravel()] - eye for g in generators]
    ).reshape(-1, n * n)
    s = np.linalg.svd(system, compute_uv=False)
    nullity = n * n - int(np.sum(s > _NULLSPACE_RTOL * s.max(initial=0.0)))
    return CommutantBasis(
        n=n, dim=nullity, basis=tuple(a / np.sqrt(a.sum()) for a in orbits), orbitals=labels
    )


def is_commutative(cb: CommutantBasis):
    """(whether the orbit matrices commute, the largest commutator norm).

    The test A_G A_H == A_H A_G runs on the 0/1 orbit matrices, whose
    products have integer entries that float64 holds exactly, so it is
    exact; the norm reported is the Frobenius norm of
    the commutator of the unit-norm basis matrices, 0.0 when they commute.
    It runs once per basis, however often it is asked.
    """
    return cb._commutativity


def minimal_projections(cb: CommutantBasis, cycle) -> list:
    """Minimal self-adjoint idempotents of a commutative commutant algebra.

    `cycle` is an n-cycle c of the group (for a Blaschke product, its
    boundary permutation).  Each orbit matrix A_g commutes with c's matrix,
    whose eigenvalues are distinct, so c's Fourier vectors
    v_r[c^j(0)] = w^(rj)/sqrt(n), w = exp(2 pi i/n), are eigenvectors of every
    A_g, with eigenvalue lambda_g(r) = sum of w^(rk) over the k with
    (0, c^k(0)) in orbit g.  Modes whose rows (lambda_g(r))_g agree within
    `_PROJECTION_GAP` span one joint eigenspace; the projections onto these
    are the minimal ones, unique, in ascending order of rank and equal ranks
    by least mode, so the constants (mode 0) come first.  If `cycle` is not
    an n-cycle or does not map every orbit to itself, there are none.

    Raises NonCommutative if the algebra is not commutative.
    """
    ok, worst = is_commutative(cb)
    if not ok:
        raise NonCommutative(
            f"commutant algebra is not commutative (max commutator {worst:.3e})"
        )
    n, images = cb.n, np.asarray(cycle.images)
    if cycle.cycle_type() != (n,) or not np.array_equal(
        cb.orbitals[images[:, None], images], cb.orbitals
    ):
        return []
    steps = [0]
    for _ in range(n - 1):
        steps.append(cycle(steps[-1]))
    # Powers of w by the exact residue r k mod n: rows are modes, columns steps.
    powers = np.exp(2j * np.pi * (np.outer(np.arange(n), np.arange(n)) % n) / n)
    vectors = np.empty((n, n), dtype=complex)
    vectors[steps] = powers / np.sqrt(n)
    lam = powers @ (cb.orbitals[0, steps][:, None] == np.arange(len(cb.basis)))
    # Each mode joins the least mode whose row agrees with its own.
    lead = (np.abs(lam[:, None] - lam[None]).max(axis=2) <= _PROJECTION_GAP).argmax(axis=1)
    groups = sorted((np.flatnonzero(lead == r) for r in np.unique(lead)), key=len)
    return [vectors[:, g] @ vectors[:, g].conj().T for g in groups]
