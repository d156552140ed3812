"""Commutant of a family of permutation unitaries and its minimal projections.

Each fiber permutation acts on C^n by the 0/1 unitary V e_j = e_{tau(j)}.
The commutant {X : X V_i = V_i X for all i} is computed as the nullspace of
the stacked linear system vec(X V_i - V_i X) = 0 via singular-value
thresholding.  When the algebra is commutative its minimal projections are
recovered by spectrally splitting a generic self-adjoint element; the number
of minimal projections equals the algebra dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS, Settings
from .errors import DegenerateGenericElement, NonCommutative

__all__ = [
    "CommutantBasis",
    "permutation_matrix",
    "commutant_basis",
    "is_commutative",
    "minimal_projections",
]


@dataclass(frozen=True)
class CommutantBasis:
    """Orthonormal basis of the commutant algebra of a permutation family.

    Attributes
    ----------
    n : int
        Size of the underlying permutation domain (matrices are n x n).
    dim : int
        Nullity of the stacked commutation system = algebra dimension.
    basis : tuple of ndarray
        Frobenius-orthonormal n x n complex matrices spanning the algebra.
    """

    n: int
    dim: int
    basis: tuple


def permutation_matrix(perm) -> np.ndarray:
    """The 0/1 unitary with V e_j = e_{perm(j)}.

    Matrix multiplication matches composition: the matrix of a.compose(b)
    (apply b, then a) equals permutation_matrix(a) @ permutation_matrix(b).
    """
    n = perm.n
    v = np.zeros((n, n))
    for j in range(n):
        v[perm(j), j] = 1.0
    return v


def _matrix_units(n: int):
    """Row-major matrix-unit basis of the full n x n algebra."""
    out = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            out.append(e)
    return out


def commutant_basis(generators, n: int, settings: Settings = DEFAULTS) -> CommutantBasis:
    """Orthonormal basis of {X : X V_i = V_i X for every generator}.

    Stacks the k maps X -> X V_i - V_i X as a (k n^2) x n^2 matrix acting on
    the row-major vectorization of X and keeps the right singular vectors
    whose singular values fall below `settings.nullspace_rtol` times the
    largest one.  With no generators the commutant is the full matrix
    algebra, returned in the matrix-unit basis.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    mats = [permutation_matrix(g) for g in generators]
    for v in mats:
        if v.shape != (n, n):
            raise ValueError("generator degree does not match n")
    if not mats:
        return CommutantBasis(n=n, dim=n * n, basis=tuple(_matrix_units(n)))
    eye = np.eye(n)
    # Row-major vec obeys vec(A X B) = kron(A, B.T) vec(X), so the
    # commutation constraint X V - V X = 0 reads (kron(I, V.T) - kron(V, I)).
    system = np.vstack(
        [np.kron(eye, v.T) - np.kron(v, eye) for v in mats]
    )
    # At least n^2 rows, so the reduced vh is still the full n^2 x n^2 V^H.
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    cutoff = settings.nullspace_rtol * (s[0] if s.size else 0.0)
    nullity = n * n - int(np.sum(s > cutoff))
    basis = tuple(
        vh[n * n - nullity + j].reshape(n, n).astype(complex)
        for j in range(nullity)
    )
    return CommutantBasis(n=n, dim=nullity, basis=basis)


def is_commutative(cb: CommutantBasis):
    """(all pairwise commutators below 1e-8, their max Frobenius norm)."""
    worst = 0.0
    for a in range(cb.dim):
        x = cb.basis[a]
        for b in range(a + 1, cb.dim):
            y = cb.basis[b]
            worst = max(worst, float(np.linalg.norm(x @ y - y @ x)))
    return worst < 1e-8, worst


def minimal_projections(
    cb: CommutantBasis, settings: Settings = DEFAULTS, return_attempts: bool = False
):
    """Minimal self-adjoint idempotents of a commutative commutant algebra.

    Draws a generic element Z = sum c_a X_a with deterministic complex
    Gaussian coefficients, takes the self-adjoint part H = (Z + Z*)/2, and
    groups the eigendecomposition of H at `settings.projection_gap`.  In a
    commutative algebra of dimension d a generic H has exactly d eigenvalue
    groups and its spectral projections are the minimal ones; fewer groups
    means the draw was degenerate and the next seed is tried, up to
    `settings.projection_retries` draws from `settings.seed` on; with
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
    for attempt in range(settings.projection_retries):
        rng = np.random.default_rng(settings.seed + attempt)
        coeffs = rng.standard_normal(cb.dim) + 1j * rng.standard_normal(cb.dim)
        z = sum(c * x for c, x in zip(coeffs, cb.basis))
        h = (z + z.conj().T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(h)
        # Split the sorted spectrum wherever consecutive eigenvalues differ
        # by more than the gap; each block is one spectral projection.
        splits = [0]
        for j in range(1, len(eigvals)):
            if eigvals[j] - eigvals[j - 1] > settings.projection_gap:
                splits.append(j)
        splits.append(len(eigvals))
        if len(splits) - 1 != cb.dim:
            continue
        projections = []
        for lo, hi in zip(splits[:-1], splits[1:]):
            block = eigvecs[:, lo:hi]
            projections.append(block @ block.conj().T)
        if return_attempts:
            return projections, attempt + 1
        return projections
    raise DegenerateGenericElement(
        f"no generic element split the spectrum into {cb.dim} groups "
        f"after {settings.projection_retries} attempts"
    )

