"""Complex polynomials, and the clustering of nearby roots.

Coefficients are stored in ascending order (coeffs[k] multiplies z**k).
`Poly` holds the numerator and denominator of a Blaschke product and the
monomials of `bundle`.  No root is solved here: fibers and critical points
are eigenvalues built from a product's zeros (`blaschke`), and
`_merge_clusters` groups the eigenvalues of a multiple critical point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Poly", "RootCluster"]


@dataclass(frozen=True)
class Poly:
    """Polynomial with complex coefficients in ascending order.

    Trailing zero coefficients are trimmed on construction; the zero
    polynomial is stored as the single coefficient 0.
    """

    coeffs: tuple

    def __init__(self, coeffs):
        arr = [complex(c) for c in coeffs]
        if not arr:
            arr = [0j]
        while len(arr) > 1 and arr[-1] == 0:
            arr.pop()
        object.__setattr__(self, "coeffs", tuple(arr))

    @classmethod
    def from_roots(cls, zeros, lead=1.0):
        """Monic-times-`lead` polynomial with the given zeros."""
        c = np.array([complex(lead)])
        for r in zeros:
            c = np.convolve(c, np.array([-complex(r), 1.0]))
        return cls(c)

    def __call__(self, z):
        """Horner evaluation; `z` may be a scalar or an ndarray."""
        if np.isscalar(z) or isinstance(z, complex):
            p = 0j
            for c in reversed(self.coeffs):
                p = p * z + c
            return p
        z = np.asarray(z, dtype=complex)
        p = np.zeros_like(z)
        for c in reversed(self.coeffs):
            p = p * z + c
        return p

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(np.convolve(self.coeffs, other.coeffs))
        return Poly([other * c for c in self.coeffs])

    __rmul__ = __mul__


@dataclass(frozen=True)
class RootCluster:
    """A group of root approximants treated as one root with multiplicity."""

    center: complex
    multiplicity: int


def _merge_clusters(points, radius):
    """Single-linkage agglomeration of `points` at a fixed `radius`.

    Two clusters merge when their centers are closer than `radius`.  Each
    cluster's center is its members' mean, recomputed only when it absorbs
    another.  Returns the clusters as lists of their members.
    """
    clusters = [[p] for p in points]
    centers = list(points)
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if abs(centers[i] - centers[j]) < radius:
                    clusters[i] = clusters[i] + clusters[j]
                    centers[i] = np.mean(clusters[i])
                    del clusters[j], centers[j]
                    merged = True
                    break
            if merged:
                break
    return clusters
