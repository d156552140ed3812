"""Commutant of a family of permutation unitaries and its minimal projections.

Each fiber permutation acts on C^n by the 0/1 unitary V e_j = e_{tau(j)}.
The commutant {X : X V_i = V_i X for all i} is spanned by the 0/1 matrices
of the orbits on ordered pairs (`monodromy.orbitals`), the label-side form
of Douglas-Sun-Zheng's E_G (Adv. Math. 226, 2011); the singular values of
the stacked system vec(X V_i - V_i X) = 0 count its dimension independently.
When the algebra is commutative its minimal projections are recovered by
spectrally splitting a generic self-adjoint element; the number of minimal
projections equals the algebra dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS, Settings
from .errors import DegenerateGenericElement, NonCommutative
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
# generic element's spectrum at gaps above _PROJECTION_GAP and draws at most
# _PROJECTION_RETRIES of them.
_NULLSPACE_RTOL = 1e-10
_PROJECTION_GAP = 1e-6
_PROJECTION_RETRIES = 5


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

    The test A_G A_H == A_H A_G runs on the 0/1 orbit matrices in integer
    arithmetic, so it is exact; the norm reported is the Frobenius norm of
    the commutator of the unit-norm basis matrices, 0.0 when they commute.
    """
    orbit = np.stack([cb.orbitals == g for g in range(len(cb.basis))]).astype(np.int64)
    sizes = orbit.sum(axis=(1, 2))
    worst = 0.0
    for g in range(len(orbit) - 1):
        comm = orbit[g] @ orbit[g + 1:] - orbit[g + 1:] @ orbit[g]
        squares = (comm * comm).sum(axis=(1, 2))
        worst = max(worst, float(np.sqrt(squares / (sizes[g] * sizes[g + 1:])).max()))
    return worst == 0.0, worst


def minimal_projections(
    cb: CommutantBasis, settings: Settings = DEFAULTS, return_attempts: bool = False
):
    """Minimal self-adjoint idempotents of a commutative commutant algebra.

    Draws a generic element Z = sum c_a X_a with deterministic complex
    Gaussian coefficients, takes the self-adjoint part H = (Z + Z*)/2, and
    groups the eigendecomposition of H at `_PROJECTION_GAP`.  In a
    commutative algebra with d basis matrices a generic H has exactly d eigenvalue
    groups and its spectral projections are the minimal ones; fewer groups
    means the draw was degenerate and the next seed is tried, up to
    `_PROJECTION_RETRIES` draws from `settings.seed` on; with
    `return_attempts` the result is (projections, draws used).

    Complex coefficients are essential: a real-coefficient self-adjoint
    combination of a real basis is a real symmetric matrix, which cannot
    separate complex-conjugate eigenvector pairs (e.g. the Fourier pairs of a
    circulant algebra), so the group count would stall below d forever.

    Raises NonCommutative if the algebra is not commutative and
    DegenerateGenericElement when every retry fails to split the spectrum.
    """
    ok, worst = is_commutative(cb)
    if not ok:
        raise NonCommutative(
            f"commutant algebra is not commutative (max commutator {worst:.3e})"
        )
    d = len(cb.basis)
    for attempt in range(_PROJECTION_RETRIES):
        rng = np.random.default_rng(settings.seed + attempt)
        coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        z = sum(c * x for c, x in zip(coeffs, cb.basis))
        h = (z + z.conj().T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(h)
        # Split the sorted spectrum wherever consecutive eigenvalues differ
        # by more than the gap; each block is one spectral projection.
        splits = [0]
        for j in range(1, len(eigvals)):
            if eigvals[j] - eigvals[j - 1] > _PROJECTION_GAP:
                splits.append(j)
        splits.append(len(eigvals))
        if len(splits) - 1 != d:
            continue
        projections = []
        for lo, hi in zip(splits[:-1], splits[1:]):
            block = eigvecs[:, lo:hi]
            projections.append(block @ block.conj().T)
        if return_attempts:
            return projections, attempt + 1
        return projections
    raise DegenerateGenericElement(
        f"no generic element split the spectrum into {d} groups "
        f"after {_PROJECTION_RETRIES} attempts"
    )

