"""Finite Blaschke products on the unit disc.

A product of order n is B(z) = e^{i theta} * prod (z - a_i) / (1 - conj(a_i) z)
with all |a_i| < 1, and is stored as its phase and zeros.  Everything else
is built from them: the one kernel that evaluates B and B' in a pass over
the zeros (`eval_with_derivative`), and two eigenproblems: the compressed
shift of the model space, whose rank-one perturbations have the fibers of B
as eigenvalues (`compressed_shift`), and the pole form of B'/B, whose
eigenvalues are the critical points (`branch_data`).  It also exposes the
Taylor/matrix views of the induced multiplication operator on the
Bergman space (orthonormal basis e_k = sqrt(k+1) z^k, so
<z^k, z^k> = 1/(k+1)); the Taylor series is the product of the factor series.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BranchCountError, DegenerateClustering

__all__ = [
    "BlaschkeProduct",
    "BranchData",
    "RootCluster",
    "from_spec",
    "to_spec",
    "taylor",
    "truncated_matrix",
    "random_product",
]

_MAX_MODULUS = 1.0 - 1e-9
# Eigenvalues of the pole form closer than this merge into one multiple
# critical point, since an m-fold one spreads them about 1e-16^(1/m) apart
# (1e-4 at m = 4); then the Newton steps that polish each point
# (`_critical_points`).
_CRITICAL_MERGE = 1e-3
_CRITICAL_NEWTON = 2
# Branch-value candidates closer than _MERGE_FACTOR times the sum of their
# rounding radii are one value; from there up to _BAND_FACTOR times farther
# they are ambiguous (`branch_data`).  Over the seed-2026 suite, the order
# sweep and the composition family, coincident values lie within 4.1 times
# their radii and distinct ones at least 4.4e7 times apart.
_MERGE_FACTOR = 100.0
_BAND_FACTOR = 1e3
_UNIT_ROUNDOFF = 2.0 ** -53
_TAYLOR_CAP = 4096
# `eval_with_derivative` runs longer inputs this many rows at a time, so its
# temporaries stay in cache: a 21,504 x 8 evaluation took 26.7 ms whole,
# 13.8 ms in blocks of 1,024 rows and 15.2 ms in blocks of 2,048.
_EVAL_ROWS = 1024


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product, fixed by its phase and zeros.

    Parameters
    ----------
    theta : float
        Unimodular phase, B = e^{i theta} * prod of disc automorphism factors.
    zeros : sequence of complex
        Zeros a_i with |a_i| < 1 - 1e-9; repeats allowed; order >= 1.
        Raises ValueError unless theta and the zeros are finite.
    """

    theta: float
    zeros: tuple

    def __init__(self, theta, zeros):
        zeros = tuple(complex(a) for a in zeros)
        if len(zeros) < 1:
            raise ValueError("a Blaschke product needs at least one zero")
        if not (math.isfinite(float(theta)) and all(map(cmath.isfinite, zeros))):
            raise ValueError("theta and every zero must be finite")
        for a in zeros:
            if abs(a) >= _MAX_MODULUS:
                raise ValueError(f"zero {a} has modulus >= {_MAX_MODULUS}")
        object.__setattr__(self, "theta", float(theta))
        object.__setattr__(self, "zeros", zeros)

    @property
    def order(self) -> int:
        return len(self.zeros)

    def evaluate(self, z):
        """B(z) for scalar or ndarray `z`, the first value of
        `eval_with_derivative`."""
        return self.eval_with_derivative(z)[0]

    __call__ = evaluate

    def eval_with_derivative(self, z):
        """B(z) and B'(z) for an array `z` of any shape, from the zeros.

        One pass over the zeros, with no division inside it, keeps
        nd = prod (z - a)(1 - conj(a) z), den = prod (1 - conj(a) z) and
        acc = sum_k (1 - |a_k|^2) prod_{j != k} (z - a_j)(1 - conj(a_j) z),
        so that B = e^{i theta} nd / den^2 and B' = e^{i theta} acc / den^2,
        finite at a zero of B too.  Runs `_EVAL_ROWS` rows of `z` at a
        time; each element's arithmetic does not depend on the blocking.
        """
        z = np.asarray(z, dtype=complex)
        if z.ndim == 0 or len(z) <= _EVAL_ROWS:
            return self._eval_block(z)
        val, der = np.empty_like(z), np.empty_like(z)
        for lo in range(0, len(z), _EVAL_ROWS):
            block = slice(lo, lo + _EVAL_ROWS)
            val[block], der[block] = self._eval_block(z[block])
        return val, der

    def _eval_block(self, z):
        """`eval_with_derivative` on one block of rows: the first zero a
        starts nd = (z - a)(1 - conj(a) z), den = 1 - conj(a) z and
        acc = 1 - |a|^2; each further zero, with fg = (z - a)(1 - conj(a) z),
        updates acc <- acc fg + (1 - |a|^2) nd, then nd <- nd fg and
        den <- den (1 - conj(a) z)."""
        a, *rest = self.zeros
        den = 1.0 - a.conjugate() * z
        nd = z - a
        nd *= den
        acc = np.full_like(z, 1.0 - abs(a) ** 2)
        for a in rest:
            g = 1.0 - a.conjugate() * z
            fg = z - a
            fg *= g
            acc *= fg
            acc += (1.0 - abs(a) ** 2) * nd
            nd *= fg
            den *= g
        den *= den
        phase = complex(math.cos(self.theta), math.sin(self.theta))
        return phase * nd / den, phase * acc / den

    def derivative_value(self, z):
        """B'(z), the second value of `eval_with_derivative`."""
        return self.eval_with_derivative(z)[1]

    @cached_property
    def eval_noise(self) -> float:
        """Rounding of `eval_with_derivative` on this product, measured once:
        max | |B(zeta)| - 1 | over 4n equispaced zeta on the unit circle,
        where |B| = 1 exactly."""
        zeta = np.exp(2j * np.pi * np.arange(4 * self.order) / (4 * self.order))
        return float(np.abs(np.abs(self.eval_with_derivative(zeta)[0]) - 1.0).max())

    @cached_property
    def compressed_shift(self) -> tuple:
        """(M, x, y, c0): the compressed shift of this product's model space.

        With s_j = sqrt(1 - |a_j|^2) and g_l = -conj(a_l), M is the upper
        triangular matrix of the Takenaka-Malmquist basis: M_jj = a_j and
        M_jk = s_j s_k prod_{j<l<k} g_l for j < k.  Further
        x_j = s_j prod_{l>j} g_l, y_k = s_k prod_{l<k} g_l and
        c0 = -prod_l g_l, so that y^T (zI - M)^{-1} x = 1/B~(z) + c0 with
        B~ = e^{-i theta} B.  By the matrix determinant lemma the eigenvalues
        of M + c x y^T, c = u / (1 + u c0), are then the fiber of B over
        w = e^{i theta} u (Sarason, Operators and Matrices 1, 2007; Garcia,
        Mashreghi and Ross, Finite Blaschke Products and Their Connections,
        2018).  Every entry has modulus at most 1; repeated zeros and zeros
        at 0 need no special case, and for z^n M + u x y^T is the companion
        matrix of z^n - u.
        """
        a = np.asarray(self.zeros, dtype=complex)
        n = len(a)
        s = np.sqrt(1.0 - np.abs(a) ** 2)
        g = -a.conj()
        m = np.diag(a)
        for j in range(n - 1):
            m[j, j + 1:] = s[j] * s[j + 1:] * np.cumprod(np.concatenate(([1.0], g[j + 1:-1])))
        x = s * np.cumprod(np.concatenate(([1.0], g[:0:-1])))[::-1]
        y = s * np.cumprod(np.concatenate(([1.0], g[:-1])))
        return m, x, y, -np.prod(g)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """The finite values off which every inverse branch of B, as a map of
        the sphere, is holomorphic: the raw B(c) of every interior critical
        point c, their reflections 1/conj(B(c)), and B(infinity) =
        1/conj(B(0)) when no zero is 0 (`tracking._ball_test`)."""
        centers = np.array([c.center for c in self._critical_points()], dtype=complex)
        values = self.evaluate(np.append(centers, 0.0))
        return np.concatenate([values[:-1], 1.0 / values[values != 0].conj()])

    def _critical_points(self) -> list:
        """The critical points of B in the disc as clusters with
        multiplicity, in ascending (real, imag) order of their centers.

        A zero of B of multiplicity m is a critical point of multiplicity
        m - 1.  The others are the zeros of
        f = B'/B = sum_j r_j / (z - p_j), whose poles p_j are the distinct
        zeros (residue r_j their multiplicity) and the reflections
        1/conj(a) of the nonzero ones (residue minus it).  No pole lies on
        the unit circle, and there z B'/B > 0, so f(1) != 0.  After the
        Mobius shift z = 1 + 1/s, with q_j = 1 - p_j, the zeros of f are
        the eigenvalues s of diag(-1/q) + v 1^T, v_j = r_j / (q_j^2 f(1));
        s = 0 is the zero of f at infinity.  The eigenvalues that land in
        the disc merge within `_CRITICAL_MERGE` (`_merge_clusters`).
        A cluster of m eigenvalues is a simple zero of f^(m-1), on which its
        mean takes `_CRITICAL_NEWTON` Newton steps in pole form.
        """
        mult = Counter(self.zeros)
        zeros = np.array(list(mult), dtype=complex)
        count = np.array(list(mult.values()), dtype=float)
        nonzero = zeros != 0
        poles = np.concatenate([zeros, 1.0 / zeros[nonzero].conj()])
        res = np.concatenate([count, -count[nonzero]])
        q = 1.0 - poles
        shifted = np.diag(-1.0 / q) + (res / (q * q * np.sum(res / q)))[:, None]
        with np.errstate(all="ignore"):
            z = 1.0 + 1.0 / np.linalg.eigvals(shifted)
        out = [RootCluster(a, m - 1) for a, m in mult.items() if m > 1]
        for members in _merge_clusters(list(z[np.abs(z) < 1.0]), _CRITICAL_MERGE):
            m = len(members)
            c = complex(np.mean(members))
            for _ in range(_CRITICAL_NEWTON):
                d = c - poles
                c += complex(np.sum(res / d**m) / (m * np.sum(res / d**(m + 1))))
            out.append(RootCluster(c, m))
        return sorted(out, key=lambda c: (c.center.real, c.center.imag))

    def branch_data(self) -> "BranchData":
        """Critical points inside the disc and deduplicated branch values.

        The critical points come from the zeros alone, by the pole form of
        B'/B (`_critical_points`); no polynomial is solved.

        Each candidate B(c) is evaluated by `evaluate` and gets the rounding
        radius of that evaluation (`_rounding_radii`).  Two candidates are
        one value when they lie less than `_MERGE_FACTOR` times the sum of
        their radii apart, or coincide.  Scanning in ascending (real, imag)
        order, a candidate joins the first kept branch value it is one value
        with, which records the local degree of c.

        Raises
        ------
        BranchCountError
            If interior critical multiplicities do not sum to order - 1.
        DegenerateClustering
            If two candidates lie in the ambiguity band, from `_MERGE_FACTOR`
            to `_MERGE_FACTOR * _BAND_FACTOR` times the sum of their radii.
        """
        interior = self._critical_points()
        total = sum(c.multiplicity for c in interior)
        if total != self.order - 1:
            raise BranchCountError(
                f"interior critical multiplicities sum to {total}, expected {self.order - 1}"
            )
        centers = np.array([c.center for c in interior], dtype=complex)
        values = self.evaluate(centers)
        radii = self._rounding_radii(centers, values)
        candidates = values.tolist()
        dist = np.abs(values[:, None] - values[None, :])
        reach = _MERGE_FACTOR * (radii[:, None] + radii[None, :])
        i, j = np.nonzero(np.triu((reach <= dist) & (dist < _BAND_FACTOR * reach), 1))
        if len(i):
            i, j = i[0], j[0]
            raise DegenerateClustering(
                f"branch values {candidates[i]} and {candidates[j]} are "
                f"{dist[i, j]:.3e} apart, {dist[i, j] / (radii[i] + radii[j]):.3e} "
                "times their rounding radii, inside the dedup ambiguity band"
            )
        same = (dist < reach) | (dist == 0.0)
        merged: dict[int, list] = {}
        for k in sorted(range(len(candidates)), key=lambda k: (values[k].real, values[k].imag)):
            first = next((v for v in merged if same[k, v]), k)
            merged.setdefault(first, []).append(interior[k].multiplicity + 1)
        return BranchData(
            critical_points=tuple(interior),
            branch_values=tuple(candidates[k] for k in merged),
            local_degrees=tuple(tuple(sorted(d, reverse=True)) for d in merged.values()),
        )

    def _rounding_radii(self, points, values) -> np.ndarray:
        """First-order running-error bound of each value B(c) of `branch_data`.

        For `eval_with_derivative`'s B = e^{i theta} nd / den^2 it is
        |B(c)| u (sum_j [5 + (1 + 2 |a_j| |c|) / |1 - conj(a_j) c|] + 3),
        u = 2^-53: per zero the subtraction c - a_j, the term
        1 - conj(a_j) c with its product, which nd and den share, its
        product with c - a_j, the product into nd, and the product into den,
        counted twice as den is squared; then the square, the quotient and
        the phase (Higham, Accuracy and Stability of Numerical Algorithms,
        SIAM 2002).  The error of a critical point c itself enters at second
        order only, since B'(c) = 0.
        """
        c = np.asarray(points, dtype=complex)[:, None]
        a = np.asarray(self.zeros)
        terms = 5.0 + (1.0 + 2.0 * np.abs(a) * np.abs(c)) / np.abs(1.0 - a.conj() * c)
        return np.abs(values) * _UNIT_ROUNDOFF * (terms.sum(axis=1) + 3.0)


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


@dataclass(frozen=True)
class BranchData:
    """Interior critical clusters and the deduplicated branch-value set.

    `local_degrees[k]` holds, descending, the local degree m + 1 of every
    critical point of multiplicity m whose value merged into `branch_values[k]`.
    """

    critical_points: tuple
    branch_values: tuple
    local_degrees: tuple


def _is_real(x) -> bool:
    """A JSON number a float holds: a float, or an int within the float range."""
    if isinstance(x, bool):
        return False
    return isinstance(x, float) or (isinstance(x, int) and abs(x) <= sys.float_info.max)


def from_spec(data) -> BlaschkeProduct:
    """Build a product from {"theta": real, "zeros": [[re, im], ...]}; raises
    ValueError unless theta is a real number and every zero a pair of them."""
    zeros = data.get("zeros") if isinstance(data, dict) else None
    if not isinstance(zeros, list) or not all(
        isinstance(a, list) and len(a) == 2 and all(map(_is_real, a)) for a in zeros
    ) or not _is_real(data.get("theta")):
        raise ValueError('spec must be {"theta": real, "zeros": [[re, im], ...]}')
    return BlaschkeProduct(theta=float(data["theta"]), zeros=[complex(*a) for a in zeros])


def to_spec(b: BlaschkeProduct) -> dict:
    return {"theta": b.theta, "zeros": [[a.real, a.imag] for a in b.zeros]}


def default_taylor_length(b: BlaschkeProduct) -> int:
    """Length at which the geometric Taylor tail drops below 1e-14."""
    base = max(abs(a) for a in b.zeros) + 1e-3
    n = math.ceil(math.log(1e-14) / math.log(base))
    return min(max(n, b.order + 1), _TAYLOR_CAP)


def taylor(b: BlaschkeProduct, length=None) -> np.ndarray:
    """First `length` Taylor coefficients of B at 0.

    The truncated product of e^{i theta} and the factor series
    (z - a)/(1 - conj(a) z) = -a + (1 - |a|^2) sum_{k>=1} conj(a)^(k-1) z^k,
    whose coefficients decay geometrically like |a|^k.  Length 0 gives an
    empty series; a negative length raises ValueError.
    """
    if length is None:
        length = default_taylor_length(b)
    out = np.zeros(length, dtype=complex)
    if length == 0:
        return out
    out[0] = complex(math.cos(b.theta), math.sin(b.theta))
    powers = np.arange(length - 1)
    for a in b.zeros:
        factor = np.empty(length, dtype=complex)
        factor[0] = -a
        factor[1:] = (1.0 - abs(a) ** 2) * a.conjugate() ** powers
        out = np.convolve(out, factor)[:length]
    return out


def truncated_matrix(b: BlaschkeProduct, size: int) -> np.ndarray:
    """Multiplication-by-B compressed to the first `size` Bergman basis vectors.

    With orthonormal basis e_k = sqrt(k+1) z^k and Taylor coefficients b_j,
    the matrix is lower triangular with M[m, k] = sqrt((k+1)/(m+1)) b_{m-k}.
    """
    coeffs = taylor(b, size)
    m = np.zeros((size, size), dtype=complex)
    for row in range(size):
        for col in range(row + 1):
            m[row, col] = math.sqrt((col + 1.0) / (row + 1.0)) * coeffs[row - col]
    return m


def random_product(order, rng, radius=0.6) -> BlaschkeProduct:
    """Random product with zeros uniform in a centered disc of given radius."""
    u = rng.random(order)
    v = rng.random(order)
    zeros = radius * np.sqrt(u) * np.exp(2j * np.pi * v)
    return BlaschkeProduct(theta=float(2.0 * np.pi * rng.random()), zeros=zeros)
