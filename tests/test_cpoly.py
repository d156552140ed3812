from __future__ import annotations

import numpy as np
import pytest

from blaschkelab import Poly, random_product, roots
from blaschkelab.cpoly import _companion_roots


def _sorted_centers(clusters):
    return sorted((c.center for c in clusters), key=lambda z: (z.real, z.imag))


def test_eval_with_derivative_quadratic():
    value, deriv = Poly([-1.0, 0.0, 1.0]).eval_with_derivative(2.0)
    assert value == pytest.approx(3.0)
    assert deriv == pytest.approx(4.0)


def test_eval_with_derivative_constant():
    value, deriv = Poly([5.0]).eval_with_derivative(1j)
    assert value == 5.0
    assert deriv == 0.0


def test_eval_with_derivative_at_simple_root():
    p = Poly.from_roots([0.1, 0.2, 0.3])
    value, deriv = p.eval_with_derivative(0.1)
    assert abs(value) < 1e-15
    assert deriv == pytest.approx(0.02, rel=1e-10)


def test_roots_quadratic():
    clusters = roots(Poly([-1.0, 0.0, 1.0]))
    assert sorted(c.multiplicity for c in clusters) == [1, 1]
    centers = _sorted_centers(clusters)
    assert abs(centers[0] + 1.0) < 1e-12
    assert abs(centers[1] - 1.0) < 1e-12


def test_roots_triple_origin():
    clusters = roots(Poly([0.0, 0.0, 0.0, 1.0]))
    assert len(clusters) == 1
    assert clusters[0].multiplicity == 3
    assert abs(clusters[0].center) < 1e-6


def test_roots_three_simple_near_values():
    p = Poly.from_roots([0.1, 0.2, 0.3])
    clusters = roots(p)
    centers = _sorted_centers(clusters)
    for center, expected in zip(centers, (0.1, 0.2, 0.3)):
        assert abs(center - expected) < 1e-10
    bound = 1e-12 * (1.0 + p.l1_norm())
    for c in clusters:
        assert abs(p(c.center)) <= bound


def test_product_expansion():
    p = Poly([1.0, 1.0]) * Poly([-1.0, 1.0])
    assert np.allclose(p.coeffs, [-1.0, 0.0, 1.0])


def test_derivative_cubic():
    d = Poly([0.0, 0.0, 0.0, 1.0]).derivative()
    assert np.allclose(d.coeffs, [0.0, 0.0, 3.0])


def test_product_rule_matches_convolution():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = Poly(rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5))
        q = Poly(rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5))
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_multiplicity_sum_equals_degree():
    rng = np.random.default_rng(6)
    for _ in range(25):
        degree = int(rng.integers(1, 13))
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 1.0
        p = Poly(coeffs)
        clusters = roots(p)
        assert sum(c.multiplicity for c in clusters) == p.degree


def test_root_residuals_within_scaled_bound():
    """Residual bound with the |center|^degree factor for roots outside the
    unit circle; inside it the factor is 1 and the plain bound applies."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        degree = int(rng.integers(1, 13))
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 1.0
        p = Poly(coeffs)
        for c in roots(p):
            scale = max(1.0, abs(c.center)) ** p.degree
            assert abs(p(c.center)) <= 1e-12 * (1.0 + p.l1_norm()) * scale


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
    rng = np.random.default_rng(8)
    for _ in range(10):
        zeros = _separated_roots(rng, 6)
        p = Poly.from_roots(zeros[:3])
        q = Poly.from_roots(zeros[3:])
        combined = roots(p * q)
        assert sum(c.multiplicity for c in combined) == 6
        got = _sorted_centers(combined)
        expected = sorted(zeros, key=lambda z: (z.real, z.imag))
        for a, b in zip(got, expected):
            assert abs(a - b) < 1e-8


def test_companion_kernel_rows_equal_roots_row_by_row():
    # Fiber polynomials P - wQ of seeded products of orders 1-8, solved in one
    # batch per order: each row's roots are exactly the centers `roots` gives
    # for that row alone (simple roots are not merged or polished).
    rng = np.random.default_rng(9)
    for order in range(1, 9):
        b = random_product(order, rng)
        ws = 0.9 * np.sqrt(rng.random(6)) * np.exp(2j * np.pi * rng.random(6))
        p = np.array(b.P.coeffs)
        q = np.array(b.Q.coeffs)
        q = np.pad(q, (0, len(p) - len(q)))
        rows = p[None, :] - ws[:, None] * q[None, :]
        batch = _companion_roots(rows)
        assert batch.shape == (6, order)
        for row, got in zip(rows, batch):
            clusters = roots(Poly(row))
            assert [c.multiplicity for c in clusters] == [1] * order
            assert sorted(got, key=lambda z: (z.real, z.imag)) == [c.center for c in clusters]
        if order == 1:
            assert np.array_equal(batch[:, 0], -rows[:, 0] / rows[:, 1])
