"""
Reducing subspaces from the commutant of the monodromy action
=============================================================

The commutant of the monodromy permutation matrices is a commutative
algebra whose minimal projections correspond to the minimal reducing
subspaces of the multiplication operator.  This script runs `analyze`, the
whole pipeline (monodromy, commutant, minimal projections, checks), on two
products and checks the dimension count against the orbit count q.
"""

import numpy as np

from blaschkelab import BlaschkeProduct, analyze, permutation_matrix


def summarize(name, b):
    # One call: tracked monodromy, the basis of all matrices commuting with
    # every generator, the commutativity certificate, the minimal
    # projections and the named theorem checks.
    result = analyze(b)
    gens = list(result.rep.generators)
    n = b.order
    print(f"--- {name} (order {n}) ---")
    print(f"q (orbit count on pairs)   = {result.q_orbitals}")
    print(f"commutant dimension        = {result.commutant.dim}")
    print(f"max pairwise commutator    = {result.max_commutator:.2e}")
    print(f"number of min projections  = {len(result.projections)}")

    # Each projection is a self-adjoint idempotent; their ranks partition n
    # and they commute with the whole monodromy action.
    total = np.zeros((n, n), dtype=complex)
    for k, p in enumerate(result.projections):
        rank = int(round(float(np.trace(p).real)))
        worst = max(
            float(np.linalg.norm(p @ permutation_matrix(g) - permutation_matrix(g) @ p))
            for g in gens
        )
        print(f"  P_{k}: rank {rank}, max commutator with generators {worst:.2e}")
        total += p
    print(f"sum of projections - identity: {np.linalg.norm(total - np.eye(n)):.2e}")
    print("all theorem checks pass?", result.ok)
    print()


# Degree 2: always exactly two reducing subspaces.
summarize("squared factor", BlaschkeProduct(0.0, [0.3 + 0.1j, -0.2j]))

# The composition C(z^2) from the monodromy walkthrough: q = 3 pieces.
summarize("composition C(z^2)", BlaschkeProduct(0.0, [0.0, 0.0, 0.5, -0.5]))
