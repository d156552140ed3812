"""
Monodromy of a degree-4 Blaschke product, step by step
======================================================

Builds one product, finds its branch values, cuts the disc from each of
them, reads one permutation per branch value as the jump of the labeled
fiber across its cut, and prints the permutations together with the group
facts the package certifies.
"""

import numpy as np

from blaschkelab import (
    BlaschkeProduct,
    boundary_product,
    compute_representation,
    group_order,
)
from blaschkelab.monodromy import orbitals

# A composition-shaped example: C(z^2) with C a degree-2 product, so the
# monodromy group is smaller than the full symmetric group.
b = BlaschkeProduct(theta=0.0, zeros=[0.0, 0.0, 0.5, -0.5])
print(f"order n = {b.order}")

# Branch data: critical points inside the disc and the distinct critical
# values.  Multiplicities always sum to n - 1.
data = b.branch_data()
for cluster in data.critical_points:
    print(
        f"critical point {cluster.center:.6f}  multiplicity {cluster.multiplicity}"
    )
print("branch values:", np.round(data.branch_values, 6))

# One tracked permutation per branch value, plus the boundary permutation
# tracked independently around a large circle.
rep = compute_representation(b)
print(f"base point w0 = {rep.base:.6f}")
for beta, g in zip(rep.branch_values, rep.generators):
    print(f"loop around {beta:.6f}: images {g.images}, cycles {g.cycle_type()}")
print("boundary permutation:", rep.boundary_perm.images)

# The sweep-ordered product of the generators must reproduce the tracked
# boundary permutation -- a consistency check between two independent
# computations.
product = boundary_product(rep)
print("generator product == boundary?", product.images == rep.boundary_perm.images)

# Group invariants: the group order (by Schreier-Sims), and from the orbit
# labels of the ordered pairs of sheets, transitivity (the diagonal pairs
# form one orbit) and the orbit count q.
gens = list(rep.generators)
labels = orbitals(gens, b.order)
print(f"monodromy group order = {group_order(gens, b.order)}")
print("transitive?", len(set(labels.diagonal().tolist())) == 1)
print("orbital count q =", len(np.unique(labels)))
