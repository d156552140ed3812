from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from blaschkelab import (
    BlaschkeProduct,
    default_taylor_length,
    from_spec,
    random_product,
    taylor,
    to_spec,
    truncated_matrix,
)


def test_evaluate_square(square):
    assert square.evaluate(0.5) == pytest.approx(0.25, abs=1e-15)


def test_evaluate_accepts_arrays(square):
    zs = np.array([0.1 + 0.2j, -0.3j, 0.0])
    assert np.allclose(square(zs), zs**2)


def test_boundary_modulus_is_one():
    rng = np.random.default_rng(3)
    products = [
        BlaschkeProduct(0.7, [0.3, -0.2 + 0.4j, 0.1j]),
        random_product(4, rng),
    ]
    ts = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    for b in products:
        vals = b(np.exp(1j * ts))
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


def test_eval_noise_is_the_kernel_rounding_on_the_circle(monkeypatch):
    # max | |B| - 1 | over 4n equispaced points of the circle, measured by
    # `eval_with_derivative` on the first read only.
    b = BlaschkeProduct(0.7, [0.3, -0.2 + 0.4j, 0.1j])
    zeta = np.exp(2j * np.pi * np.arange(12) / 12)
    want = float(np.max(np.abs(np.abs(b.eval_with_derivative(zeta)[0]) - 1.0)))
    calls = []
    real = BlaschkeProduct.eval_with_derivative

    def counting(self, z):
        calls.append(np.shape(z))
        return real(self, z)

    monkeypatch.setattr(BlaschkeProduct, "eval_with_derivative", counting)
    assert b.eval_noise == want < 1e-15
    assert b.eval_noise == want
    assert calls == [(12,)]
    assert BlaschkeProduct(0.0, [0.0] * 4).eval_noise <= 4.0 * np.finfo(float).eps


def test_evaluate_vanishes_at_zero_of_factor():
    b = BlaschkeProduct(0.0, [0.5])
    assert b.evaluate(0.5) == 0.0


def test_derivative_square(square):
    assert square.derivative_value(0.3) == pytest.approx(0.6, abs=1e-14)


def test_derivative_vanishes_at_origin_for_powers():
    for n in (2, 3, 5):
        b = BlaschkeProduct(0.0, [0.0] * n)
        assert b.derivative_value(0.0) == 0.0


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(4)
    for _ in range(10):
        b = random_product(int(rng.integers(2, 6)), rng)
        z = 0.5 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        fd = (b(z + 1e-6) - b(z - 1e-6)) / 2e-6
        exact = b.derivative_value(z)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


@pytest.mark.parametrize("name", ["cube", "order3", "mobius", "random8"])
def test_eval_with_derivative_is_the_quotient_rule(name, request):
    rng = np.random.default_rng(8)
    if name == "random8":
        b = random_product(8, rng)
    else:
        b = request.getfixturevalue(name)
    for shape in [(b.order,), (5, b.order)]:
        z = 0.9 * np.sqrt(rng.random(shape)) * np.exp(2j * np.pi * rng.random(shape))
        value, deriv = b.eval_with_derivative(z)
        p, dp = b.P.eval_with_derivative(z)
        q, dq = b.Q.eval_with_derivative(z)
        assert value.shape == deriv.shape == shape
        assert value.tobytes() == (p / q).tobytes()
        assert deriv.tobytes() == ((dp * q - p * dq) / (q * q)).tobytes()
        assert b.derivative_value(z).tobytes() == deriv.tobytes()
        h = 1e-6
        central = (b(z + h) - b(z - h)) / (2.0 * h)
        assert np.max(np.abs(central - deriv) / np.maximum(1.0, np.abs(deriv))) <= 1e-6


def test_branch_data_square(square):
    data = square.branch_data()
    assert [c.multiplicity for c in data.critical_points] == [1]
    assert abs(data.critical_points[0].center) < 1e-9
    assert len(data.branch_values) == 1
    assert abs(data.branch_values[0]) < 1e-12


def test_branch_data_fifth_power():
    b = BlaschkeProduct(0.0, [0.0] * 5)
    data = b.branch_data()
    assert [c.multiplicity for c in data.critical_points] == [4]
    assert abs(data.critical_points[0].center) < 1e-3
    assert len(data.branch_values) == 1
    assert abs(data.branch_values[0]) < 1e-9


def test_branch_data_order3_critical_residuals(order3):
    data = order3.branch_data()
    assert sum(c.multiplicity for c in data.critical_points) == 2
    for c in data.critical_points:
        assert abs(order3.derivative_value(c.center)) < 1e-9
    assert all(abs(v) < 1.0 for v in data.branch_values)


def test_branch_counts_random():
    rng = np.random.default_rng(9)
    for _ in range(10):
        b = random_product(int(rng.integers(2, 7)), rng)
        data = b.branch_data()
        assert sum(c.multiplicity for c in data.critical_points) == b.order - 1
        assert 1 <= len(data.branch_values) <= b.order - 1
        assert all(abs(v) < 1.0 for v in data.branch_values)


def test_taylor_pure_power(cube):
    assert np.allclose(taylor(cube, 5), [0, 0, 0, 1, 0], atol=1e-15)


def test_taylor_single_factor_hand_values():
    coeffs = taylor(BlaschkeProduct(0.0, [0.5]), 3)
    assert coeffs[0] == pytest.approx(-0.5, abs=1e-14)
    assert coeffs[1] == pytest.approx(0.75, abs=1e-14)
    assert coeffs[2] == pytest.approx(0.375, abs=1e-14)


def test_taylor_matches_evaluate():
    rng = np.random.default_rng(10)
    z = 0.3 + 0.2j
    for _ in range(20):
        b = random_product(int(rng.integers(1, 7)), rng)
        coeffs = taylor(b)
        assert len(coeffs) == default_taylor_length(b)
        total = np.polyval(coeffs[::-1], z)
        assert abs(total - b(z)) < 1e-10


def test_truncated_matrix_shift_weights():
    m = truncated_matrix(BlaschkeProduct(0.0, [0.0]), 3)
    assert m[1, 0] == pytest.approx(math.sqrt(1.0 / 2.0))
    assert m[2, 1] == pytest.approx(math.sqrt(2.0 / 3.0))
    assert np.allclose(m, np.tril(m, -1))


def test_truncated_matrix_parity_blocks_commute_exactly(square):
    m = truncated_matrix(square, 4)
    even = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    odd = np.eye(4, dtype=complex) - even
    for p in (even, odd):
        assert np.all(p @ m == m @ p)


def test_truncated_matrix_norm_bounded():
    rng = np.random.default_rng(11)
    for _ in range(5):
        b = random_product(int(rng.integers(1, 5)), rng)
        m = truncated_matrix(b, 16)
        assert np.linalg.norm(m, 2) <= 1.0 + 1e-8


def test_truncated_matrix_lower_triangular_constant_diagonal():
    rng = np.random.default_rng(12)
    b = random_product(3, rng)
    m = truncated_matrix(b, 8)
    assert np.allclose(m, np.tril(m))
    assert np.allclose(np.diag(m), taylor(b, 1)[0])


def test_spec_roundtrip(order4):
    again = from_spec(to_spec(order4))
    assert again.theta == order4.theta
    assert np.allclose(again.zeros, order4.zeros)


def test_construction_rejects_boundary_zeros():
    with pytest.raises(ValueError):
        BlaschkeProduct(0.0, [1.0 - 1e-10])
    with pytest.raises(ValueError):
        BlaschkeProduct(0.0, [])
