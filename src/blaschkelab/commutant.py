"""Commutant of a family of permutation unitaries and its minimal projections.

Each fiber permutation acts on C^n by the 0/1 unitary V e_j = e_{tau(j)}.
The commutant {X : X V_i = V_i X for all i} is spanned by the 0/1 matrices
of the orbits on ordered pairs (`monodromy.orbitals`), the label-side form
of Douglas-Sun-Zheng's E_G (Adv. Math. 226, 2011); the singular values of
the stacked system vec(X V_i - V_i X) = 0 count its dimension independently.
When the algebra is commutative (for a Blaschke product it always is:
Douglas-Putinar-Wang, J. Funct. Anal. 263, 2012) its minimal projections
are unique, one per basis matrix: the joint eigenspaces of the orbit
matrices, which `minimal_projections` splits out without drawing anything.
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
# commutant dimension (`commutant_basis`); `minimal_projections` splits a
# subspace where consecutive eigenvalues differ by more than _PROJECTION_GAP.
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
        Nullity of the stacked commutation system, from singular values only.
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
    number of singular values of the (k n^2) x n^2 matrix of the maps
    X -> X V_i - V_i X that fall below `_NULLSPACE_RTOL` times the largest.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    labels = orbitals(generators, n)
    orbits = [(labels == g).astype(float) for g in range(int(labels.max()) + 1)]
    eye = np.eye(n)
    # Row-major vec obeys vec(A X B) = kron(A, B.T) vec(X), so the
    # commutation constraint X V - V X = 0 reads (kron(I, V.T) - kron(V, I)).
    system = np.array(
        [np.kron(eye, v.T) - np.kron(v, eye) for v in map(permutation_matrix, generators)]
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


def _split(space: np.ndarray, h: np.ndarray) -> list:
    """The eigenspaces of the Hermitian `h` restricted to the orthonormal
    columns of `space`, eigenvalues grouped where consecutive ones differ by
    more than `_PROJECTION_GAP`; each is returned as orthonormal columns."""
    eigvals, eigvecs = np.linalg.eigh(space.conj().T @ h @ space)
    cuts = np.flatnonzero(np.diff(eigvals) > _PROJECTION_GAP) + 1
    return [space @ block for block in np.split(eigvecs, cuts, axis=1)]


def minimal_projections(cb: CommutantBasis) -> list:
    """Minimal self-adjoint idempotents of a commutative commutant algebra.

    The minimal projections of a commutative algebra are its joint
    eigenprojections, so they are unique, and there are len(cb.basis) of
    them.  Starting from the whole space C^n, every current subspace is split
    by the eigenspaces of (A + A^T)/2 and then of (A - A^T)/(2i), restricted
    to it, for each orbit matrix A in turn (a zero part is skipped), until
    there are len(cb.basis) subspaces.  Their orthogonal projections are
    returned in ascending order of rank, equal ranks in the order the splits
    leave them.  The antisymmetric part separates complex-conjugate
    eigenvector pairs (the Fourier pairs of a circulant algebra), which no
    real symmetric matrix can.  If the orbit matrices run out first, fewer
    projections are returned.

    Raises NonCommutative if the algebra is not commutative.
    """
    ok, worst = is_commutative(cb)
    if not ok:
        raise NonCommutative(
            f"commutant algebra is not commutative (max commutator {worst:.3e})"
        )
    parts = (
        h for a in cb._orbit_matrices for h in ((a + a.T) / 2.0, (a - a.T) / 2j) if h.any()
    )
    spaces = [np.eye(cb.n, dtype=complex)]
    for h in parts:
        if len(spaces) == len(cb.basis):
            break
        spaces = [part for space in spaces for part in _split(space, h)]
    spaces.sort(key=lambda space: space.shape[1])
    return [space @ space.conj().T for space in spaces]
