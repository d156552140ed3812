"""
The bundle map on a cut disc: inverse branches and isometry checks
==================================================================

Cuts the disc along one segment per branch value (`build_cut_disc`),
continues all inverse branches of B from a base fiber on that cut disc, and
evaluates the bundle map

    (Gamma f)_i = (1 / sqrt(n)) * (f o sigma_i) * sigma_i'

for B = z^2, where everything is known in closed form.  Then runs the
isometry check, a deterministic quadrature with one chart per branch value,
and the exact intertwining check on a random product.
"""

import math

import numpy as np

from blaschkelab import (
    BlaschkeProduct,
    Poly,
    build_cut_disc,
    bundle_report,
    exact_inner,
    gamma_apply,
    random_product,
    sigma_values,
)

# --- Closed-form sanity on B = z^2 -------------------------------------
# Branch value beta = 0, cut along the negative real axis (away from the
# base point 0.25), inverse branches sigma_(z) = -sqrt(z), sigma_+(z) = +sqrt(z).
b = BlaschkeProduct(0.0, [0.0, 0.0])
cd = build_cut_disc(b, base=0.25)
print("cut from", cd.cuts[0].start, "toward", np.round(cd.cuts[0].end, 6))
print("sigma values at 0.25:", np.round(sigma_values(cd, 0.25), 12))
print("sigma values at 0.09:", np.round(sigma_values(cd, 0.09), 12))

# Gamma applied to f = 1: components (1/sqrt(2)) * sigma_i'(z) = +-1/(2 sqrt(2 z)).
sample = gamma_apply(cd, Poly([1.0]), 0.25)
print("Gamma(1) at 0.25:", np.round(sample.values, 12))
print("expected:        ", np.round(np.array([-1.0, 1.0]) / math.sqrt(2.0), 12))

# --- Numerical certification on a random degree-3 product --------------
rng = np.random.default_rng(5)
b3 = random_product(3, rng)

# exact_inner is the coefficient-side Bergman inner product the quadrature
# estimate must reproduce: <z^k, z^k> = 1/(k+1).
f = Poly([0.0, 1.0])
print()
print("exact <z, z> =", exact_inner(f, f))

# One call on the product's cut disc runs all three checks: isometry of
# Gamma on low-degree monomials, the intertwining relation
# Gamma(B f) = z Gamma(f) on labeled fibers, and the minimal separation
# between the inverse-branch images.  The labeled samples are drawn from the
# report's seed (0 unless given); tracking is certified at a tolerance worked
# out from the product's own evaluation noise (`tracking.newton_tol`), and
# the quadrature grid is capped by the budget and takes no seed.
report = bundle_report(build_cut_disc(b3), budget=200000, samples=100)
print(f"isometry error        = {report['isometry_error']:.3e}")
print(f"intertwining residual = {report['intertwining_residual']:.3e}")
print(f"min image separation  = {report['min_separation']:.3f}")
print(f"excluded mass bound   = {report['excluded_mass_bound']:.3e}")
