"""Closed-form oracle for the power map B = z^n.

For B = z^n everything is known exactly: the branch set is {0}, the
monodromy is a single n-cycle, the commutant is the circulant algebra of
dimension n, the minimal reducing subspaces are spanned by the monomial
classes z^l with l = i (mod n), and the weighted-space norms reduce to the
rational identity n/(nk+i+1).  This module computes those answers by exact
arithmetic and structure (never through the numerical pipeline) and checks
the full pipeline against them end to end.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .analysis import analyze
from .blaschke import BlaschkeProduct, truncated_matrix
from .commutant import permutation_matrix

__all__ = [
    "zn_projection",
    "u_i_norm_check",
    "cycle_projections",
    "zn_end_to_end",
]


def zn_projection(n: int, i: int, size: int) -> np.ndarray:
    """Diagonal 0/1 matrix selecting basis indices congruent to i mod n.

    This is the compression of the projection onto the span of
    {z^l : l = i (mod n)} to the first `size` basis vectors.
    """
    if not 0 <= i < n:
        raise ValueError("residue index must satisfy 0 <= i < n")
    if size < n:
        raise ValueError("size must be at least n")
    diag = [1.0 if l % n == i else 0.0 for l in range(size)]
    return np.diag(diag)


def u_i_norm_check(n: int, i: int, k: int):
    """Both sides of the norm identity for the map f -> sqrt(n) z^i f(z^n).

    Left side: the squared norm of sqrt(n) z^{nk+i}, i.e. n times the
    monomial norm 1/(m+1) at m = nk + i.  Right side: the squared norm of
    z^k against the radial weight |z|^(-2(n-i-1)/n), evaluated by the exact
    closed-form integral 2 / (2k + 2 - 2(n-i-1)/n).  Returned as exact
    rationals computed along those two independent routes; both reduce to
    n/(nk+i+1).
    """
    if not 0 <= i < n:
        raise ValueError("residue index must satisfy 0 <= i < n")
    if k < 0:
        raise ValueError("k must be nonnegative")
    lhs = Fraction(n) * Fraction(1, n * k + i + 1)
    exponent = Fraction(2 * k + 1) - Fraction(2 * (n - i - 1), n)
    rhs = Fraction(2) / (exponent + 1)
    return lhs, rhs


def cycle_projections(perm) -> list:
    """Spectral projections of a single n-cycle permutation unitary.

    Group-algebra idempotents P_m = (1/n) sum_t w^{-mt} V^t with
    w = exp(2 pi i / n): the n rank-one projections of the circulant
    commutant in the slot labeling of `perm`, built by structure alone.
    """
    n = perm.n
    if sorted(perm.cycle_type()) != [n]:
        raise ValueError("permutation is not a single n-cycle")
    v = permutation_matrix(perm).astype(complex)
    powers = [np.eye(n, dtype=complex)]
    for _ in range(n - 1):
        powers.append(v @ powers[-1])
    omega = np.exp(2j * np.pi / n)
    out = []
    for m in range(n):
        p = sum(omega ** (-m * t) * powers[t] for t in range(n)) / n
        out.append(p)
    return out


def _match_projection_sets(computed, expected, tol=1e-8) -> bool:
    """Whether two projection families coincide up to reordering."""
    if len(computed) != len(expected):
        return False
    unused = list(range(len(expected)))
    for p in computed:
        hit = None
        for j in unused:
            if np.linalg.norm(p - expected[j]) <= tol:
                hit = j
                break
        if hit is None:
            return False
        unused.remove(hit)
    return True


def zn_end_to_end(n: int) -> dict:
    """Run `analyze` on B = z^n and compare with the exact model.

    Checks: branch set {0} with a single n-cycle generator (for n = 1 no
    branch value and no generator); the tracked boundary permutation equals
    the generators' product; orbital count, commutant dimension, and
    projection count all equal n; every projection rank one and matching the
    spectral projections of the boundary n-cycle up to relabeling; the
    residue-class projections commute exactly (to the bit) with the
    truncated multiplication matrix; and the norm identity holds as exact
    rationals.  The report maps each named check to its outcome plus the
    integers involved, and `ok` to whether every check passed.
    """
    if not 1 <= n <= 8:
        raise ValueError("supported orders are 1..8")
    b = BlaschkeProduct(theta=0.0, zeros=(0j,) * n)
    result = analyze(b)
    rep = result.rep
    gens = rep.generators
    # z has no branch value; z^n for n >= 2 has the one branch value 0, and
    # its generator is an n-cycle.  Either way the boundary loop is one
    # n-cycle, whose spectral projections are the minimal ones.
    cuts = 1 if n > 1 else 0
    report = {"n": n}
    report["branch_set_ok"] = (
        len(rep.branch_values) == cuts and all(abs(v) < 1e-9 for v in rep.branch_values)
    )
    report["generator_cycle_ok"] = (
        len(gens) == cuts and all(sorted(g.cycle_type()) == [n] for g in gens)
    )
    report["boundary_ok"] = result.theorem_checks["boundary_product_identity"]["pass"]
    report["q_orbitals"] = result.q_orbitals
    report["q_ok"] = result.q_orbitals == n
    report["commutant_dim"] = result.commutant.dim
    report["dim_ok"] = result.commutant.dim == n
    report["commutative"] = result.commutative
    report["max_commutator"] = result.max_commutator
    projs = result.projections
    report["num_projections"] = len(projs)
    report["rank_one_ok"] = all(
        abs(np.trace(p).real - 1.0) < 1e-8 for p in projs
    )
    report["dft_match_ok"] = (
        report["generator_cycle_ok"]
        and report["boundary_ok"]
        and _match_projection_sets(projs, cycle_projections(rep.boundary_perm))
    )

    size = 3 * n + 2
    m = truncated_matrix(b, size)
    commutes = True
    sum_p = np.zeros((size, size))
    for i in range(n):
        p = zn_projection(n, i, size)
        sum_p = sum_p + p
        commutes &= bool(np.all(p @ m - m @ p == 0))
        commutes &= bool(np.all(p @ m.conj().T - m.conj().T @ p == 0))
    report["zn_projection_commutes_exactly"] = commutes
    report["zn_projection_resolution"] = bool(np.all(sum_p == np.eye(size)))

    norms_ok = True
    for i in range(n):
        for k in range(11):
            lhs, rhs = u_i_norm_check(n, i, k)
            norms_ok &= lhs == rhs == Fraction(n, n * k + i + 1)
    report["u_norm_identity_ok"] = norms_ok

    # Every bool field is a check, whatever its name.
    report["ok"] = all(v for v in report.values() if isinstance(v, bool))
    return report
