from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from blaschkelab import (
    DEFAULTS,
    BlaschkeProduct,
    NoConvergence,
    Poly,
    build_cut_disc,
    build_quadrature_grid,
    bundle_report,
    exact_inner,
    gamma_apply,
    initial_fiber,
    partition_check,
    point_in_cut_disc,
    random_product,
    route_in_cut_disc,
    sigma_samples,
    sigma_values,
    verify_disjoint_images,
    verify_intertwining,
    verify_isometry,
)
from blaschkelab import bundle
from blaschkelab.bundle import (
    _certified_step,
    _continue_paths,
    _fiber_batch,
    _segment_segment_distance,
    _stacked_coeffs,
    _value_and_derivative,
)


def _monomial(k: int) -> Poly:
    return Poly((0.0,) * k + (1.0,))


def _acceptance_product(index: int) -> BlaschkeProduct:
    """Product `index` of the seed-2026 acceptance suite (orders 3-6, five each)."""
    rng = np.random.default_rng(2026)
    suite = [random_product(order, rng) for order in (3, 4, 5, 6) for _ in range(5)]
    return suite[index]


def _set_distance(a: np.ndarray, c: np.ndarray) -> float:
    """Largest distance from a point of one row set to the other, both ways."""
    d = np.abs(a[:, :, None] - c[:, None, :])
    return float(max(d.min(axis=2).max(), d.min(axis=1).max()))


@pytest.fixture(scope="module")
def square_setup(square):
    cd = build_cut_disc(square, base=0.25)
    labeling = initial_fiber(square, 0.25)
    return cd, labeling


def test_cut_disc_square(square_setup):
    cd, _ = square_setup
    assert len(cd.cuts) == 1
    cut = cd.cuts[0]
    assert abs(cut.start) < 1e-9
    assert abs(abs(cut.end) - 1.0) < 1e-9
    assert point_in_cut_disc(cd, 0.25)
    assert not point_in_cut_disc(cd, (cut.start + cut.end) / 2.0)
    assert not point_in_cut_disc(cd, 0.999999)


def test_cut_disc_random_cuts_disjoint():
    rng = np.random.default_rng(18)
    for order in (4, 5):
        b = random_product(order, rng)
        cd = build_cut_disc(b)
        assert len(cd.cuts) == len(cd.branch_values)
        for i in range(len(cd.cuts)):
            for j in range(i + 1, len(cd.cuts)):
                a, c = cd.cuts[i], cd.cuts[j]
                assert (
                    _segment_segment_distance(a.start, a.end, c.start, c.end) > 0.0
                )
        assert point_in_cut_disc(cd, cd.base, clearance=1e-4)


def test_route_avoids_cuts(order4):
    cd = build_cut_disc(order4)
    rng = np.random.default_rng(19)
    routed = 0
    while routed < 10:
        z = 0.85 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        if not point_in_cut_disc(cd, z, clearance=1e-3):
            continue
        path = route_in_cut_disc(cd, cd.base, z)
        assert abs(path.start - cd.base) < 1e-12
        assert abs(path.end - z) < 1e-12
        for seg in path.segments:
            for cut in cd.cuts:
                assert (
                    _segment_segment_distance(seg.start, seg.end, cut.start, cut.end)
                    > 0.0
                )
        routed += 1


def test_sigma_values_square(square, square_setup):
    cd, lab = square_setup
    vals = sigma_values(square, 0.25, cut_disc=cd, labeling=lab)
    assert np.allclose(vals, [-0.5, 0.5], atol=1e-12)
    vals = sigma_values(square, 0.09, cut_disc=cd, labeling=lab)
    assert np.allclose(vals, [-0.3, 0.3], atol=1e-12)


def test_sigma_path_independence(order3):
    cd = build_cut_disc(order3)
    lab = initial_fiber(order3, cd.base)
    rng = np.random.default_rng(19)

    def sample_point():
        while True:
            z = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            if not point_in_cut_disc(cd, z, clearance=1e-3):
                continue
            if any(abs(z - v) < 0.05 for v in cd.branch_values):
                continue
            return z

    for _ in range(5):
        z = sample_point()
        via = sample_point()
        direct = sigma_values(order3, z, cut_disc=cd, labeling=lab)
        detour = sigma_values(order3, z, cut_disc=cd, labeling=lab, via=via)
        assert np.max(np.abs(direct - detour)) < 1e-9


def test_sigma_samples_fiber_identity(order4):
    zs, sig = sigma_samples(order4, 50, seed=0)
    assert sig.shape == (50, order4.order)
    assert np.max(np.abs(order4(sig) - zs[:, None])) <= 1e-10


def test_gamma_square_constant(square, square_setup):
    cd, lab = square_setup
    sample = gamma_apply(square, _monomial(0), 0.25, cut_disc=cd, labeling=lab)
    assert np.allclose(
        sample.values, np.array([-1.0, 1.0]) / math.sqrt(2.0), atol=1e-12
    )


def test_gamma_square_linear(square, square_setup):
    cd, lab = square_setup
    sample = gamma_apply(square, _monomial(1), 0.25, cut_disc=cd, labeling=lab)
    assert np.allclose(
        sample.values,
        np.array([1.0, 1.0]) / (2.0 * math.sqrt(2.0)),
        atol=1e-12,
    )


def test_gamma_identity_map():
    b = BlaschkeProduct(0.0, [0.0])
    f = Poly([0.3, 0.7])
    sample = gamma_apply(b, f, 0.4)
    assert len(sample.values) == 1
    assert sample.values[0] == pytest.approx(f(0.4), abs=1e-12)


def test_exact_inner_monomials():
    assert exact_inner(_monomial(3), _monomial(3)) == pytest.approx(0.25)
    assert exact_inner(_monomial(2), _monomial(5)) == 0.0
    f = Poly([1.0, 2.0])
    assert exact_inner(f, f) == pytest.approx(3.0)


def test_isometry_identity_map():
    b = BlaschkeProduct(0.0, [0.0])
    err = verify_isometry(b, _monomial(0), _monomial(0), budget=20000, seed=0)
    assert err < 1e-3


def test_isometry_square_monomials(square):
    grid = build_quadrature_grid(square, 100000, seed=0)
    for k in range(4):
        f = _monomial(k)
        err = verify_isometry(square, f, f, budget=100000, grid=grid)
        assert err < 1e-2


def test_isometry_estimate_converges(square):
    f = _monomial(2)
    err_half = verify_isometry(square, f, f, budget=500000, seed=0)
    err_full = verify_isometry(square, f, f, budget=1000000, seed=0)
    assert err_full < err_half or err_full < 1e-2


def test_intertwining_residual_square(square):
    assert verify_intertwining(square, _monomial(0), 100, seed=0) < 1e-10
    assert verify_intertwining(square, _monomial(1), 100, seed=0) < 1e-10


def test_intertwining_residual_random_poly(order3):
    rng = np.random.default_rng(20)
    coeffs = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
    assert verify_intertwining(order3, Poly(coeffs), 100, seed=0) < 1e-9


def test_disjoint_images_square(square):
    assert verify_disjoint_images(square, 100, seed=0) > 0.1


def test_disjoint_images_threshold(order4):
    assert verify_disjoint_images(order4, 100, seed=0) > 1e-4


def test_partition_single_hit(square, order3):
    assert partition_check(square, 50, seed=0)
    assert partition_check(order3, 50, seed=0)


def test_quadrature_budget_floor(square):
    with pytest.raises(ValueError):
        build_quadrature_grid(square, 5000)


def test_bundle_report_structure(order3):
    report = bundle_report(order3, 10**4, 30, seed=0)
    assert set(report) == {
        "isometry_error",
        "intertwining_residual",
        "min_separation",
        "excluded_mass_bound",
        "budget",
        "seed",
    }
    assert report["intertwining_residual"] < 1e-9
    assert report["min_separation"] > 1e-4
    assert report["excluded_mass_bound"] >= 0.0
    assert report["budget"] == 10**4
    assert report["seed"] == 0


def test_sigma_values_raises_when_polish_fails(order3, monkeypatch):
    cd = build_cut_disc(order3)
    lab = initial_fiber(order3, cd.base)
    z = cd.base + 0.05
    monkeypatch.setattr(
        bundle, "_correct", lambda b, pts, w, tol, iters: (pts, False, math.inf)
    )
    with pytest.raises(NoConvergence):
        sigma_values(order3, z, cut_disc=cd, labeling=lab)


_CONTINUED_PRODUCTS = {
    "suite0-order3": _acceptance_product(0),
    "suite5-order4": _acceptance_product(5),
    "suite10-order5": _acceptance_product(10),
    "suite15-order6": _acceptance_product(15),
    "z^2": BlaschkeProduct(0.0, [0.0] * 2),
    "z^5": BlaschkeProduct(0.0, [0.0] * 5),
    "identity": BlaschkeProduct(0.0, [0.0]),
}


@pytest.mark.parametrize("budget", [10**4, 10**5])
@pytest.mark.parametrize("name", sorted(_CONTINUED_PRODUCTS))
def test_continued_fibers_match_eigenvalue_fibers(name, budget):
    b = _CONTINUED_PRODUCTS[name]
    grid = build_quadrature_grid(b, budget, seed=0)
    assert grid.fibers.shape == (len(grid.points), b.order)
    assert _set_distance(grid.fibers, _fiber_batch(b, grid.points)) <= 1e-10
    resid = np.abs(b(grid.fibers) - grid.points[:, None])
    assert resid.max() <= DEFAULTS.newton_tol
    assert 0 <= grid.fallbacks < 0.01 * budget


def test_continuation_leaves_samples_and_weights_unchanged(monkeypatch):
    b = _acceptance_product(15)
    continued = build_quadrature_grid(b, 10**4, seed=3)
    again = build_quadrature_grid(b, 10**4, seed=3)
    assert again.fallbacks == continued.fallbacks
    monkeypatch.setattr(
        bundle, "_continue_paths", lambda b, ws, lengths: (_fiber_batch(b, ws), 0)
    )
    eig_only = build_quadrature_grid(b, 10**4, seed=3)
    for field in ("points", "weights", "correction"):
        got, want = getattr(continued, field), getattr(eig_only, field)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert _set_distance(continued.fibers, eig_only.fibers) <= 1e-10


def test_continuation_falls_back_across_a_branch_value(square):
    # The step from 1/4 to -1/4 crosses the branch value 0: the Euler
    # predictor lands both points on the critical point, so the step fails
    # its certificate and the fiber at -1/4 comes from eigenvalues.
    ws = np.array([0.25, -0.25, -0.25 + 0.01j, 0.3, 0.3 + 0.01j])
    fibers, fallbacks = _continue_paths(square, ws, [3, 2])
    assert fallbacks == 1
    assert _set_distance(fibers, _fiber_batch(square, ws)) <= 1e-12
    assert np.max(np.abs(fibers**2 - ws[:, None])) <= DEFAULTS.newton_tol


def test_certificate_rejects_collided_and_overcorrected_steps(order3):
    pq = _stacked_coeffs(order3)
    w0, w1 = 0.135 - 0.45j, 0.318 + 0.108j
    exact = _fiber_batch(order3, np.array([w1]))
    _, _, ok = _certified_step(pq, exact, np.array([w1]))
    assert ok.tolist() == [True]
    # Two points 1e-12 apart on one root: converged at once, with no
    # correction at all, but collided.
    doubled = exact[:, [0, 0, 2]] + np.array([0.0, 1e-12, 0.0])
    z, _, ok = _certified_step(pq, doubled, np.array([w1]))
    assert np.max(np.abs(order3(z) - w1)) <= DEFAULTS.newton_tol
    assert ok.tolist() == [False]
    # One long Euler step: Newton converges to a fiber, but its corrections
    # are more than a tenth of the separation, so the step is not trusted.
    start = _fiber_batch(order3, np.array([w0]))
    pred = start + (w1 - w0) / _value_and_derivative(pq, start)[1]
    z, _, ok = _certified_step(pq, pred, np.array([w1]))
    assert np.max(np.abs(order3(z) - w1)) <= DEFAULTS.newton_tol
    assert ok.tolist() == [False]


def test_continuation_single_point_fiber(mobius):
    ws = 0.5 * np.exp(1j * np.linspace(0.0, 6.0, 200))
    fibers, fallbacks = _continue_paths(mobius, ws, [200])
    assert fallbacks == 0
    assert np.max(np.abs(mobius(fibers[:, 0]) - ws)) <= DEFAULTS.newton_tol
