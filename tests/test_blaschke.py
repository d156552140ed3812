from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from blaschkelab import (
    BlaschkeProduct,
    DegenerateClustering,
    default_taylor_length,
    from_spec,
    random_product,
    taylor,
    to_spec,
    truncated_matrix,
)
from blaschkelab.blaschke import _BAND_FACTOR, _MERGE_FACTOR, _merge_clusters
from helpers import composition_draw, nudged_composition, suite_products, sweep_draw


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


def _pq_coefficients(b):
    """Ascending coefficients of P = e^{i theta} prod (z - a) and
    Q = prod (1 - conj(a) z), convolved factor by factor."""
    p = q = np.array([1.0 + 0j])
    for a in b.zeros:
        p = np.convolve(p, [-a, 1.0])
        q = np.convolve(q, [1.0, -a.conjugate()])
    phase = complex(math.cos(b.theta), math.sin(b.theta))
    return [phase * c for c in p.tolist()], q.tolist()


def _horner_with_derivative(coeffs, z):
    """p(z) and p'(z) of the ascending `coeffs`, in one Horner pass."""
    p, dp = 0j, 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


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
        p_coeffs, q_coeffs = _pq_coefficients(b)
        p, dp = _horner_with_derivative(p_coeffs, z)
        q, dq = _horner_with_derivative(q_coeffs, z)
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


def test_merge_clusters_joins_chains_within_the_radius():
    # 0 and 0.6e-3 merge; their mean 0.3e-3 then lies within the radius of
    # 1.2e-3, which joins them; 0.5 stays alone.
    clusters = _merge_clusters([0j, 0.6e-3 + 0j, 0.5 + 0j, 1.2e-3 + 0j], 1e-3)
    assert sorted(len(c) for c in clusters) == [1, 3]
    assert [0.5 + 0j] in clusters
    assert _merge_clusters([0j, 2e-3 + 0j], 1e-3) == [[0j], [2e-3 + 0j]]


def test_branch_counts_random():
    rng = np.random.default_rng(9)
    for _ in range(10):
        b = random_product(int(rng.integers(2, 7)), rng)
        data = b.branch_data()
        assert sum(c.multiplicity for c in data.critical_points) == b.order - 1
        assert 1 <= len(data.branch_values) <= b.order - 1
        assert all(abs(v) < 1.0 for v in data.branch_values)
    # phi_c(z^4) = (z^4 - c) / (1 - conj(c) z^4), whose zeros are the fourth
    # roots of c: a critical point of multiplicity 3 at 0 that is no zero,
    # with branch value -c, from four merged eigenvalues of the pole form.
    c = 0.3 + 0.2j
    b = BlaschkeProduct(0.0, c**0.25 * np.exp(0.5j * np.pi * np.arange(4)))
    data = b.branch_data()
    assert [p.multiplicity for p in data.critical_points] == [3]
    assert abs(data.critical_points[0].center) <= 1e-14
    assert len(data.branch_values) == 1
    assert abs(data.branch_values[0] + c) <= 1e-14
    assert data.local_degrees == ((4,),)


def _candidate_gaps(b):
    """Distance over the sum of rounding radii of every pair of branch-value
    candidates of `b`, the quantity `branch_data` dedups by."""
    a = np.asarray(b.zeros)
    points = [c.center for c in b._critical_points()]
    phase = complex(math.cos(b.theta), math.sin(b.theta))
    values = np.array([phase * np.prod((c - a) / (1.0 - a.conj() * c)) for c in points])
    radii = b._rounding_radii(points, values)
    i, j = np.triu_indices(len(values), 1)
    return np.abs(values[i] - values[j]) / (radii[i] + radii[j])


def test_branch_data_merges_values_within_their_rounding_radii():
    # C2 o D4: the four critical points over C's critical point share one
    # branch value, which rounding spreads by at most 1.5 times the radii;
    # D's three critical points keep three values of their own.
    b = composition_draw(2, 4, 0)
    data = b.branch_data()
    assert sorted(data.local_degrees) == [(2,), (2,), (2,), (2, 2, 2, 2)]
    gaps = _candidate_gaps(b)
    assert np.count_nonzero(gaps < _MERGE_FACTOR) == 6
    assert gaps[gaps < _MERGE_FACTOR].max() < 1.5


def test_branch_data_refuses_values_in_the_ambiguity_band():
    # One zero moved by 2e-11 spreads the four shared values of C2 o D4
    # inside the band: neither one value nor clearly four.
    b = nudged_composition()
    gaps = _candidate_gaps(b)
    in_band = (_MERGE_FACTOR <= gaps) & (gaps < _MERGE_FACTOR * _BAND_FACTOR)
    assert np.count_nonzero(in_band) == 6
    with pytest.raises(DegenerateClustering, match="inside the dedup ambiguity band"):
        b.branch_data()


def test_branch_data_keeps_distinct_values_apart():
    # Suite product 25 (order 8): seven simple critical points, seven values.
    # The nearest two lie 1.2e-6 apart, inside the band [1e-6, 1e-5) of the
    # absolute tolerance that once refused them, and 3e13 times their radii.
    b = suite_products()[25]
    data = b.branch_data()
    assert data.local_degrees == ((2,),) * 7
    assert _candidate_gaps(b).min() > _MERGE_FACTOR * _BAND_FACTOR


def test_branch_data_merges_coincident_values_of_zero_radius():
    # Zeros {0, 0, a, a}: both double zeros are critical points with the
    # value 0 exactly and radius 0, so they merge at distance 0; the third
    # critical point, between them, has a value of its own.
    a = 0.3 + 0.4j
    data = BlaschkeProduct(0.0, [0.0, 0.0, a, a]).branch_data()
    assert 0j in data.branch_values
    k = data.branch_values.index(0j)
    assert data.local_degrees[k] == (2, 2)
    assert sorted(data.local_degrees) == [(2,), (2, 2)]


@pytest.mark.parametrize("name", ["cube", "order3", "mobius", "random8"])
def test_compressed_shift_resolvent_is_one_over_b(name, request):
    # y^T (zI - M)^{-1} x = e^{i theta} / B(z) + c0, every entry of M, x and
    # y has modulus at most 1, and for z^n M + u x y^T is the companion
    # matrix of z^n - u.
    rng = np.random.default_rng(14)
    b = random_product(8, rng) if name == "random8" else request.getfixturevalue(name)
    m, x, y, c0 = b.compressed_shift
    assert np.array_equal(m, np.triu(m))
    assert np.array_equal(np.diag(m), np.array(b.zeros))
    assert max(np.abs(m).max(), np.abs(x).max(), np.abs(y).max()) <= 1.0
    for z in 0.9 * np.sqrt(rng.random(4)) * np.exp(2j * np.pi * rng.random(4)):
        got = y @ np.linalg.solve(z * np.eye(b.order) - m, x)
        want = np.exp(1j * b.theta) / b(z) + c0
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    if name == "cube":
        u = 0.3 - 0.1j
        assert np.array_equal(m + u * np.outer(x, y), [[0, 1, 0], [0, 0, 1], [u, 0, 0]])


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


@pytest.mark.parametrize("name", ["sweep32-draw0", "C5oD8-draw0"])
def test_taylor_matches_the_fft_of_the_factored_form(name):
    # The discrete Fourier coefficients of B at 1024 points of the unit
    # circle, evaluated on the factored form, are its Taylor coefficients up
    # to the aliased tail, below 0.99^1024.  The product of the factor series
    # lies within 1e-14 of them; the reciprocal-series recurrence for 1/Q
    # that it replaced was off by 1.4e-13 and 8.4e-13.
    b = sweep_draw(32, 0) if name == "sweep32-draw0" else composition_draw(5, 8, 0)
    a = np.asarray(b.zeros)
    assert np.abs(a).max() < 0.99
    zeta = np.exp(2j * np.pi * np.arange(1024) / 1024)[:, None]
    values = np.exp(1j * b.theta) * np.prod((zeta - a) / (1.0 - a.conj() * zeta), axis=1)
    want = np.fft.fft(values) / 1024
    got = taylor(b)
    assert len(got) <= 1024
    assert np.abs(got - want[: len(got)]).max() <= 1e-14


def test_taylor_and_truncated_matrix_of_length_zero(order4):
    empty = taylor(order4, 0)
    assert empty.shape == (0,) and empty.dtype == complex
    m = truncated_matrix(order4, 0)
    assert m.shape == (0, 0) and m.dtype == complex
    with pytest.raises(ValueError):
        taylor(order4, -1)
    with pytest.raises(ValueError):
        truncated_matrix(order4, -1)


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
