"""Finite Blaschke products on the unit disc.

A product of order n is B(z) = e^{i theta} * prod (z - a_i) / (1 - conj(a_i) z)
with all |a_i| < 1.  This module holds the rational form P/Q, locates the
critical points and branch values, and exposes the Taylor/matrix views of the
induced multiplication operator on the Bergman space (orthonormal basis
e_k = sqrt(k+1) z^k, so <z^k, z^k> = 1/(k+1)).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULTS, Settings
from .cpoly import Poly, RootCluster, roots
from .errors import BranchCountError, DegenerateClustering

__all__ = [
    "BlaschkeProduct",
    "BranchData",
    "from_spec",
    "to_spec",
    "taylor",
    "truncated_matrix",
    "random_product",
]

_MAX_MODULUS = 1.0 - 1e-9
# Residual tolerance for the roots of the critical numerator (see branch_data).
_CRITICAL_ROOTS_TOL = 1e-9
_TAYLOR_CAP = 4096
# `eval_with_derivative` runs longer inputs this many rows at a time, so its
# Horner temporaries stay in cache: a 14,080 x 6 evaluation took 11.9 ms
# whole and 5.4-5.7 ms in blocks of 2,048 rows.
_EVAL_ROWS = 2048


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product stored as a rational function P/Q.

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
    P: Poly = field(init=False, repr=False, compare=False)
    Q: Poly = field(init=False, repr=False, compare=False)
    _pq: np.ndarray = field(init=False, repr=False, compare=False)

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
        phase = complex(math.cos(self.theta), math.sin(self.theta))
        object.__setattr__(self, "P", phase * Poly.from_roots(zeros))
        q = Poly([1.0])
        for a in zeros:
            q = q * Poly([1.0, -a.conjugate()])
        object.__setattr__(self, "Q", q)
        # P and Q coefficients side by side, highest degree first, for the
        # one-pass Horner evaluation in `eval_with_derivative`.
        pq = np.zeros((len(self.P.coeffs), 2), dtype=complex)
        pq[:, 0] = self.P.coeffs
        pq[: len(q.coeffs), 1] = q.coeffs
        object.__setattr__(self, "_pq", pq[::-1])

    @property
    def order(self) -> int:
        return len(self.zeros)

    def evaluate(self, z):
        """B(z) for scalar or ndarray `z` (valid wherever Q(z) != 0)."""
        return self.P(z) / self.Q(z)

    __call__ = evaluate

    def eval_with_derivative(self, z):
        """B(z) and B'(z) = (P'Q - PQ') / Q**2 for an array `z` of any shape.

        P, Q and their derivatives come from one Horner pass over the
        stacked coefficients, `_EVAL_ROWS` rows of `z` at a time; each
        element's arithmetic does not depend on the blocking.
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
        """`eval_with_derivative` on one block of rows."""
        pq = self._pq.reshape(self._pq.shape + (1,) * z.ndim)
        v = np.empty((2,) + z.shape, dtype=complex)
        v[...] = pq[0]
        dv = np.zeros_like(v)
        for c in pq[1:]:
            dv *= z
            dv += v
            v *= z
            v += c
        (p, q), (dp, dq) = v, dv
        return p / q, (dp * q - p * dq) / (q * q)

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

    def critical_numerator(self) -> Poly:
        """P'Q - PQ', whose disc roots are the critical points of B.

        Leading coefficients that are pure convolution noise (below
        1e-13 * max|coeff|) are trimmed so the root finder sees the true
        degree.
        """
        n = self.P.derivative() * self.Q - self.P * self.Q.derivative()
        return n.trimmed(1e-13)

    def branch_data(self, settings: Settings = DEFAULTS) -> "BranchData":
        """Critical points inside the disc and deduplicated branch values.

        Reads `dedup_tol` from `settings`; the root solve takes no seed.  The
        residual tolerance for the numerator roots is the fixed 1e-9, not
        the 1e-12 default of `cpoly.roots`: reflected critical points outside
        the disc can sit at large modulus where Horner evaluation noise alone
        exceeds a 1e-12-level bound.  Interior critical points (the ones
        returned) are polished far beyond this and satisfy |B'(c)| < 1e-9.

        Scanning in ascending (real, imag) order, a candidate B(c) joins the
        first kept branch value within `dedup_tol`, which records the local
        degree of c.

        Raises
        ------
        BranchCountError
            If interior critical multiplicities do not sum to order - 1.
        DegenerateClustering
            If two branch-value candidates land in the ambiguity band
            [dedup_tol, 10 * dedup_tol).
        """
        numer = self.critical_numerator()
        if numer.degree < 1:
            interior: list[RootCluster] = []
        else:
            clusters = roots(numer, tol=_CRITICAL_ROOTS_TOL)
            interior = [c for c in clusters if abs(c.center) < 1.0]
        total = sum(c.multiplicity for c in interior)
        if total != self.order - 1:
            raise BranchCountError(
                f"interior critical multiplicities sum to {total}, expected {self.order - 1}"
            )
        candidates = [complex(self.evaluate(c.center)) for c in interior]
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                d = abs(candidates[i] - candidates[j])
                if settings.dedup_tol <= d < 10.0 * settings.dedup_tol:
                    raise DegenerateClustering(
                        f"branch values {candidates[i]} and {candidates[j]} are "
                        f"{d:.3e} apart, inside the dedup ambiguity band"
                    )
        merged: dict[complex, list] = {}
        for cand, c in sorted(zip(candidates, interior), key=lambda t: (t[0].real, t[0].imag)):
            value = next((v for v in merged if abs(cand - v) < settings.dedup_tol), cand)
            merged.setdefault(value, []).append(c.multiplicity + 1)
        return BranchData(
            critical_points=tuple(interior),
            branch_values=tuple(merged),
            local_degrees=tuple(tuple(sorted(d, reverse=True)) for d in merged.values()),
        )


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

    Uses the reciprocal-series recurrence for 1/Q followed by convolution
    with P; the coefficients decay geometrically like (max|a_i|)^k past the
    polynomial degree.
    """
    if length is None:
        length = default_taylor_length(b)
    q = list(b.Q.coeffs)
    recip = np.zeros(length, dtype=complex)
    recip[0] = 1.0 / q[0]
    for m in range(1, length):
        acc = 0j
        for j in range(1, min(m, len(q) - 1) + 1):
            acc += q[j] * recip[m - j]
        recip[m] = -acc / q[0]
    p = np.array(b.P.coeffs, dtype=complex)
    full = np.convolve(p, recip)[:length]
    out = np.zeros(length, dtype=complex)
    out[: len(full)] = full
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
