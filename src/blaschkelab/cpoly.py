"""Complex polynomials and their roots as multiplicity-aware clusters.

Coefficients are stored in ascending order (coeffs[k] multiplies z**k).
Every root solve in the package goes through one kernel: eigenvalues of the
companion matrix, batched over polynomials of one degree.  The eigenvalue
solve is backward stable (Edelman and Murakami, "Polynomial roots from
companion matrix eigenvalues", Math. Comp. 64, 1995) and needs no starting
guess, so root solving is deterministic.  `roots` merges nearby
eigenvalues into clusters and re-polishes each cluster center on the
appropriate derivative so that multiple roots come back with full accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence

__all__ = ["Poly", "RootCluster", "roots"]

# Upper cap on the multiplicity-aware cluster merge radius.
_CLUSTER_CAP = 1e-3
# Default residual bound of `roots`, relative to 1 + the coefficients' l1-norm.
_ROOTS_TOL = 1e-12


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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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

    def eval_with_derivative(self, z):
        """Value and first derivative at a scalar `z` in one Horner pass."""
        p, dp = 0j, 0j
        for c in reversed(self.coeffs):
            dp = dp * z + p
            p = p * z + c
        return p, dp

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly([0.0])
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def trimmed(self, rel_tol: float) -> "Poly":
        """Drop leading coefficients below rel_tol * max|coeff|."""
        mags = [abs(c) for c in self.coeffs]
        bound = rel_tol * max(mags)
        k = len(mags)
        while k > 1 and mags[k - 1] <= bound:
            k -= 1
        return Poly(self.coeffs[:k])

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(np.convolve(self.coeffs, other.coeffs))
        return Poly([other * c for c in self.coeffs])

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def l1_norm(self) -> float:
        return float(sum(abs(c) for c in self.coeffs))


@dataclass(frozen=True)
class RootCluster:
    """A group of root approximants treated as one root with multiplicity."""

    center: complex
    multiplicity: int


def _companion_roots(rows) -> np.ndarray:
    """Roots of m polynomials of one degree d, by companion eigenvalues.

    `rows` is (m, d + 1), ascending coefficients with a nonzero last column;
    the result is (m, d), each row in LAPACK's eigenvalue order.  Each row's
    roots are bit-identical to solving that row alone.
    """
    rows = np.asarray(rows, dtype=complex)
    m, d = rows.shape[0], rows.shape[1] - 1
    comp = np.zeros((m, d, d), dtype=complex)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = -(rows[:, :-1] / rows[:, -1:])
    return np.linalg.eigvals(comp)


def _merge_clusters(points, tol, cap):
    """Single-linkage agglomeration with a multiplicity-aware radius.

    Two clusters of sizes s_a, s_b merge when their centers are closer than
    min(tol ** (1 / (s_a + s_b + 1)), cap): the exponent tracks the expected
    numerical spread of a root of the merged multiplicity, with one level of
    slack so genuine members do not straddle the threshold.  Each cluster's
    center is its members' mean, recomputed only when it absorbs another.
    """
    clusters = [[p] for p in points]
    centers = list(points)
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                m = len(clusters[i]) + len(clusters[j])
                thresh = min(tol ** (1.0 / (m + 1)), cap)
                if abs(centers[i] - centers[j]) < thresh:
                    clusters[i] = clusters[i] + clusters[j]
                    centers[i] = np.mean(clusters[i])
                    del clusters[j], centers[j]
                    merged = True
                    break
            if merged:
                break
    return clusters


def _refine_multiple(poly, center, multiplicity):
    """Newton-polish an m-fold root on the (m-1)-th derivative."""
    d = poly
    for _ in range(multiplicity - 1):
        d = d.derivative()
    z = center
    for _ in range(60):
        p, dp = d.eval_with_derivative(z)
        if dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    return z


def roots(poly, tol=_ROOTS_TOL):
    """All roots of `poly` as multiplicity-aware clusters.

    The companion eigenvalues of `poly` are merged into clusters, and the
    center of every multiple cluster is Newton-polished on the matching
    derivative.  No seed and no iteration budget: the solve is deterministic.

    Parameters
    ----------
    poly : Poly
        Polynomial of degree >= 1 with nonzero leading coefficient.
    tol : float, optional
        Residual bound: every returned center c satisfies
        |poly(c)| <= tol * (1 + sum|coeffs|) * max(1, |c|)**degree.
        The last factor is the Horner forward-error scale; it equals 1 for
        roots in the closed unit disc, where the bound reduces to the plain
        tol * (1 + sum|coeffs|).  Default `_ROOTS_TOL`.

    The merge radius is capped at `_CLUSTER_CAP`.

    Returns
    -------
    list of RootCluster
        Multiplicities sum to the degree.  Order follows ascending
        (real, imag) of the centers.

    Raises
    ------
    NoConvergence
        If a cluster center has a residual above the bound.
    """
    if poly.degree < 1:
        raise ValueError("roots() needs degree >= 1 and a nonzero leading coefficient")

    approx = _companion_roots([poly.coeffs])[0]
    clusters = _merge_clusters(list(approx), tol, _CLUSTER_CAP)

    base_bound = tol * (1.0 + poly.l1_norm())
    out = []
    for members in clusters:
        m = len(members)
        center = complex(np.mean(members))
        if m >= 2:
            refined = _refine_multiple(poly, center, m)
            if abs(poly(refined)) <= abs(poly(center)):
                center = refined
        bound = base_bound * max(1.0, abs(center)) ** poly.degree
        if abs(poly(center)) > bound:
            raise NoConvergence(
                f"root residual {abs(poly(center)):.3e} above bound {bound:.3e} "
                f"(multiplicity {m})"
            )
        out.append(RootCluster(center=center, multiplicity=m))
    out.sort(key=lambda c: (c.center.real, c.center.imag))
    return out
