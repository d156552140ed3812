"""The analysis pipeline: monodromy, commutant, minimal projections, checks.

`analyze` is the one place that chains these steps.  It takes the product
alone: every tolerance on the way is worked out from the product or is a
constant beside its one reader.  Nothing on the way draws from a random
generator; a seed draws only the bundle's samples, which `analyze` does not
take.  The command line renders the result as JSON and the `z^n` oracle
compares it with the exact model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutant import (
    CommutantBasis,
    commutant_basis,
    is_commutative,
    minimal_projections,
    permutation_matrix,
)
from .monodromy import MonodromyRep, boundary_product, compute_representation, group_order

__all__ = ["Analysis", "analyze"]


@dataclass(frozen=True)
class Analysis:
    """Everything `analyze` computed for one product.

    `rep` holds the base point, branch values, loop generators and boundary
    permutation; `commutant` the basis of the generators' commutant.
    `projections`, grouped from the Fourier modes of the boundary cycle, are
    empty when the commutant is not commutative or that cycle does not fit
    it.  `theorem_checks` maps each named check to
    {"pass": bool, ...numeric evidence}; `ok` is their conjunction.
    """

    rep: MonodromyRep
    group_order: int
    transitive: bool
    q_orbitals: int
    commutant: CommutantBasis
    commutative: bool
    max_commutator: float
    projections: tuple
    theorem_checks: dict

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.theorem_checks.values())


def analyze(b) -> Analysis:
    """Monodromy, commutant and minimal projections of `b`, with the checks
    that tie them together.

    The checks: the orbit count q (one basis matrix per orbit on ordered
    pairs) equals the commutant dimension counted by singular values; the
    commutant is commutative; the group is transitive; the tracked boundary
    permutation equals the sweep-ordered product of the generators; and the
    projections are q in number, have ranks summing to the order, sum to the
    identity, and commute with every generator.  Typed errors of any step
    propagate.
    """
    n = b.order
    rep = compute_representation(b)
    gens = list(rep.generators)

    order = group_order(gens, n)
    # One basis matrix per orbit on ordered pairs; the group is transitive
    # when the diagonal pairs form one orbit.
    cb = commutant_basis(gens, n)
    q = len(cb.basis)
    transitive = len(set(cb.orbitals.diagonal().tolist())) == 1
    commutative, max_comm = is_commutative(cb)
    boundary = rep.boundary_perm
    projections = minimal_projections(cb, boundary) if commutative else []

    product = boundary_product(rep)
    rank_sum = sum(int(round(float(np.trace(p).real))) for p in projections)
    partition_err = (
        float(np.linalg.norm(sum(projections) - np.eye(n))) if projections else None
    )
    matrices = [permutation_matrix(g) for g in gens]
    proj_commute = max(
        (float(np.linalg.norm(p @ v - v @ p)) for p in projections for v in matrices), default=0.0
    )

    checks = {
        "q_orbitals_equals_commutant_dim": {
            "pass": q == cb.dim, "q_orbitals": q, "commutant_dim": cb.dim,
        },
        "commutant_commutative": {
            "pass": bool(commutative), "max_commutator": max_comm,
        },
        "monodromy_transitive": {"pass": bool(transitive)},
        "boundary_product_identity": {
            "pass": product.images == boundary.images,
            "tracked": list(boundary.images),
            "sweep_product": list(product.images),
        },
        "projection_partition": {
            "pass": len(projections) == q
            and rank_sum == n
            and partition_err < 1e-8
            and proj_commute < 1e-8,
            "rank_sum": rank_sum,
            "sum_minus_identity": partition_err,
            "max_generator_commutator": proj_commute,
        },
    }
    return Analysis(
        rep=rep,
        group_order=order,
        transitive=bool(transitive),
        q_orbitals=q,
        commutant=cb,
        commutative=bool(commutative),
        max_commutator=max_comm,
        projections=tuple(projections),
        theorem_checks=checks,
    )
