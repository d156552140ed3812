"""Complex polynomials with simultaneous root finding and cluster detection.

Coefficients are stored in ascending order (coeffs[k] multiplies z**k).
Roots are returned as multiplicity-aware clusters: the Aberth-Ehrlich
iteration drives all approximants at once, nearby approximants are merged
into clusters, and each cluster center is re-polished on the appropriate
derivative so that multiple roots come back with full accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .errors import NoConvergence

__all__ = ["Poly", "RootCluster", "roots"]

# Upper cap on the multiplicity-aware cluster merge radius, and the default
# iteration budget of the simultaneous phase.
_CLUSTER_CAP = 1e-3
_ROOT_BUDGET = 500


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
        """Value and first derivative at `z` in one Horner pass."""
        scalar = np.isscalar(z) or isinstance(z, complex)
        if scalar:
            p, dp = 0j, 0j
            for c in reversed(self.coeffs):
                dp = dp * z + p
                p = p * z + c
            return p, dp
        z = np.asarray(z, dtype=complex)
        p = np.zeros_like(z)
        dp = np.zeros_like(z)
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
    radius: float


def _aberth(coeffs, budget, seed):
    """Aberth-Ehrlich simultaneous iteration on a monic coefficient array."""
    deg = len(coeffs) - 1
    rng = np.random.default_rng(seed)
    radius = 1.0 + float(np.max(np.abs(coeffs[:-1] / coeffs[-1])))
    # Perturbed circle: a fixed phase plus seeded jitter breaks the conjugate
    # symmetry of real-coefficient inputs (symmetric configurations can cycle).
    angles = 2.0 * np.pi * (np.arange(deg) + 0.25 + 0.5 * rng.random(deg)) / deg
    z = radius * np.exp(1j * angles)
    poly = Poly(coeffs)
    for _ in range(budget):
        p, dp = poly.eval_with_derivative(z)
        with np.errstate(all="ignore"):
            newton = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.1 + 0j)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            repulse = np.sum(1.0 / diff, axis=1) - 1.0
            denom = 1.0 - newton * repulse
            step = np.where(np.abs(denom) > 1e-30, newton / np.where(denom != 0, denom, 1.0), newton)
        z = z - step
        if np.max(np.abs(step) / (1.0 + np.abs(z))) < 1e-14:
            break
    return z


def _merge_clusters(points, tol, cap):
    """Single-linkage agglomeration with a multiplicity-aware radius.

    Two clusters of sizes s_a, s_b merge when their centers are closer than
    min(tol ** (1 / (s_a + s_b + 1)), cap): the exponent tracks the expected
    numerical spread of a root of the merged multiplicity, with one level of
    slack so genuine members do not straddle the threshold.
    """
    clusters = [[p] for p in points]
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                m = len(clusters[i]) + len(clusters[j])
                thresh = min(tol ** (1.0 / (m + 1)), cap)
                ci = np.mean(clusters[i])
                cj = np.mean(clusters[j])
                if abs(ci - cj) < thresh:
                    clusters[i] = clusters[i] + clusters[j]
                    del clusters[j]
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


def roots(poly, tol=None, budget=None, seed=None):
    """All roots of `poly` as multiplicity-aware clusters.

    Parameters
    ----------
    poly : Poly
        Polynomial of degree >= 1 with nonzero leading coefficient.
    tol : float, optional
        Residual bound: every returned center c satisfies
        |poly(c)| <= tol * (1 + sum|coeffs|) * max(1, |c|)**degree.
        The last factor is the Horner forward-error scale; it equals 1 for
        roots in the closed unit disc, where the bound reduces to the plain
        tol * (1 + sum|coeffs|).  Default from Settings.
    budget : int, optional
        Iteration cap for the simultaneous phase (default `_ROOT_BUDGET`).
    seed : int, optional
        Seed for the initial-guess jitter.

    The merge radius is capped at `_CLUSTER_CAP`.

    Returns
    -------
    list of RootCluster
        Multiplicities sum to the degree.  Order follows ascending
        (real, imag) of the centers.

    Raises
    ------
    NoConvergence
        If the iteration budget is exhausted with a residual above the bound.
    """
    tol = DEFAULTS.roots_tol if tol is None else tol
    budget = _ROOT_BUDGET if budget is None else budget
    seed = DEFAULTS.seed if seed is None else seed

    if poly.degree < 1 or poly.coeffs[-1] == 0:
        raise ValueError("roots() needs degree >= 1 and a nonzero leading coefficient")
    if poly.degree == 1:
        c0, c1 = poly.coeffs
        return [RootCluster(center=-c0 / c1, multiplicity=1, radius=0.0)]

    coeff_arr = np.array(poly.coeffs, dtype=complex)
    approx = _aberth(coeff_arr, budget, seed)
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
        radius = max((abs(p - center) for p in members), default=0.0)
        bound = base_bound * max(1.0, abs(center)) ** poly.degree
        if abs(poly(center)) > bound:
            raise NoConvergence(
                f"root residual {abs(poly(center)):.3e} above bound {bound:.3e} "
                f"after {budget} iterations (multiplicity {m})"
            )
        out.append(RootCluster(center=center, multiplicity=m, radius=float(radius)))
    out.sort(key=lambda c: (c.center.real, c.center.imag))
    return out
