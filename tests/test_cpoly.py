from __future__ import annotations

import numpy as np

from blaschkelab import Poly
from blaschkelab.cpoly import _merge_clusters


def test_product_expansion():
    p = Poly([1.0, 1.0]) * Poly([-1.0, 1.0])
    assert np.allclose(p.coeffs, [-1.0, 0.0, 1.0])


def _separated_roots(rng, count, min_distance=0.3):
    while True:
        pts = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
        gaps = [
            abs(pts[i] - pts[j])
            for i in range(count)
            for j in range(i + 1, count)
        ]
        if min(gaps) >= min_distance:
            return pts


def test_product_roots_are_union_of_factors():
    # The polynomial with the union of two root sets is the product of the
    # polynomials with each, and vanishes at every root.
    rng = np.random.default_rng(8)
    for _ in range(10):
        zeros = _separated_roots(rng, 6)
        p = Poly.from_roots(zeros[:3])
        q = Poly.from_roots(zeros[3:])
        combined = Poly.from_roots(zeros)
        assert len(combined.coeffs) == 7
        assert np.allclose((p * q).coeffs, combined.coeffs, atol=1e-12)
        assert np.abs(combined(zeros)).max() <= 1e-12


def test_merge_clusters_joins_chains_within_the_radius():
    # 0 and 0.6e-3 merge; their mean 0.3e-3 then lies within the radius of
    # 1.2e-3, which joins them; 0.5 stays alone.
    clusters = _merge_clusters([0j, 0.6e-3 + 0j, 0.5 + 0j, 1.2e-3 + 0j], 1e-3)
    assert sorted(len(c) for c in clusters) == [1, 3]
    assert [0.5 + 0j] in clusters
    assert _merge_clusters([0j, 2e-3 + 0j], 1e-3) == [[0j], [2e-3 + 0j]]
