from __future__ import annotations

import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from blaschkelab import (
    AmbiguousMatching,
    BlaschkeProduct,
    FiberCollision,
    Line,
    LoopConstructionFailed,
    NoConvergence,
    PathBlocked,
    PathSpec,
    Poly,
    approach,
    build_cut_disc,
    crossing_paths,
    build_quadrature_grid,
    bundle_report,
    compute_representation,
    exact_inner,
    gamma_apply,
    initial_fiber,
    isometry_details,
    point_in_cut_disc,
    random_product,
    route_in_cut_disc,
    sigma_samples,
    sigma_values,
    track,
    track_paths,
    verify_disjoint_images,
    verify_intertwining,
)
from blaschkelab import bundle, tracking
from blaschkelab.blaschke import BranchData
from blaschkelab.bundle import (
    _continue_paths,
    _fiber_batch,
)
from blaschkelab.tracking import certified_step, newton_tol, point_segment_distance
from helpers import acceptance_products, draw_images, noisy_witness, partition_check


def _monomial(k: int) -> Poly:
    return Poly((0.0,) * k + (1.0,))


def _cross(u, v):
    """Cross product of plane vectors given as complex scalars."""
    return u.real * v.imag - u.imag * v.real


def _segment_segment_distance(a0, a1, b0, b1) -> float:
    """Scalar reference distance between segments a0 a1 and b0 b1: 0 where
    they properly cross, else the least endpoint-to-segment distance."""
    d1 = _cross(a1 - a0, b0 - a0)
    d2 = _cross(a1 - a0, b1 - a0)
    d3 = _cross(b1 - b0, a0 - b0)
    d4 = _cross(b1 - b0, a1 - b0)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return 0.0
    return min(
        point_segment_distance(b0, a0, a1),
        point_segment_distance(b1, a0, a1),
        point_segment_distance(a0, b0, b1),
        point_segment_distance(a1, b0, b1),
    )


def _clear_of_cuts(cd, u: complex, v: complex) -> bool:
    """Whether the segment u -> v keeps a positive distance from every cut."""
    return all(
        _segment_segment_distance(u, v, cut.start, cut.end) > 0.0 for cut in cd.cuts
    )


def _chains_along(path, u: complex, v: complex) -> bool:
    """Whether the pieces of `path` run from u to v along the segment u -> v:
    contiguous lines, each starting farther from u than the last, whose
    ends lie on the segment up to rounding."""
    pieces = path.segments
    return (
        all(isinstance(piece, Line) for piece in pieces)
        and pieces[0].start == u
        and pieces[-1].end == v
        and all(a.end == c.start for a, c in zip(pieces, pieces[1:]))
        and all(abs(a.start - u) < abs(c.start - u) for a, c in zip(pieces, pieces[1:]))
        and all(point_segment_distance(piece.end, u, v) <= 1e-15 for piece in pieces)
    )


def _set_distance(a: np.ndarray, c: np.ndarray) -> float:
    """Largest distance from a point of one row set to the other, both ways."""
    d = np.abs(a[:, :, None] - c[:, None, :])
    return float(max(d.min(axis=2).max(), d.min(axis=1).max()))


@pytest.fixture(scope="module")
def square_setup(square):
    return build_cut_disc(square, base=0.25)


def test_cut_disc_square(square_setup):
    cd = square_setup
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
        path = route_in_cut_disc(cd, z)
        assert abs(path.start - cd.base) < 1e-12
        assert abs(path.end - z) < 1e-12
        for seg in path.segments:
            assert _clear_of_cuts(cd, seg.start, seg.end)
        routed += 1


def test_sigma_values_square(square_setup):
    cd = square_setup
    vals = sigma_values(cd, 0.25)
    assert np.allclose(vals, [-0.5, 0.5], atol=1e-12)
    vals = sigma_values(cd, 0.09)
    assert np.allclose(vals, [-0.3, 0.3], atol=1e-12)


def test_sigma_path_independence(order3):
    cd = build_cut_disc(order3)
    rng = np.random.default_rng(19)

    def sample_point():
        while True:
            z = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            if not point_in_cut_disc(cd, z, clearance=1e-3):
                continue
            if any(abs(z - v) < 0.05 for v in cd.branch_values):
                continue
            return z

    # Continuation along a two-leg detour base -> via -> z that stays in the
    # cut disc, each leg cut by `approach`, gives the same labeled fiber as
    # the straight route.
    base = complex(cd.base)
    checked = 0
    while checked < 5:
        z, via = sample_point(), sample_point()
        if not (_clear_of_cuts(cd, base, via) and _clear_of_cuts(cd, via, z)):
            continue
        detour = PathSpec(
            approach(base, via, cd.branch_values) + approach(via, z, cd.branch_values)
        )
        tracked = np.asarray(track(order3, cd.fiber0, detour).points)
        direct = sigma_values(cd, z)
        assert np.max(np.abs(direct - tracked)) < 1e-9
        checked += 1


@pytest.mark.parametrize("count", [0, -2])
def test_sigma_samples_refuse_a_count_below_one(order4, count):
    # A usage error, refused before any point is drawn: not an empty sample,
    # on which the disjointness check had no minimum, nor PathBlocked.
    with pytest.raises(ValueError, match="count must be at least 1"):
        sigma_samples(build_cut_disc(order4), count)
    with pytest.raises(ValueError, match="count must be at least 1"):
        verify_disjoint_images(order4, count)


def test_noisy_product_samples_polish_at_its_noise():
    # Evaluated from its zeros, the witness reads 1.8e-15 on the unit circle
    # (1.6e-10 under the former P/Q kernel), so its labeled samples
    # track and polish at the floors 1e-11 and 1e-14.
    b = noisy_witness()
    assert newton_tol(b) == 1e-11
    assert bundle._polish_tol(b) == 1e-14 > b.eval_noise
    fibers = sigma_samples(build_cut_disc(b), 5)
    assert verify_intertwining(b, [_monomial(j) for j in range(6)], fibers) <= 1e-8
    # A noise above the floors, set on an instance, still raises the polish
    # tolerance and the residual bound of the eigenvalue fibers: fibers
    # moved by 1e-6 are refused under the floor bound 1e-8, and kept under
    # 1e3 times a noise of 1e-7.
    b = BlaschkeProduct(0.0, [0.0, 0.0, 0.5])
    m, x, y, c0 = b.compressed_shift
    b.__dict__["compressed_shift"] = (m + 1e-6 * np.eye(3), x, y, c0)
    w = np.array([0.3 - 0.2j])
    with pytest.raises(NoConvergence, match="above bound 1.000e-08"):
        _fiber_batch(b, w)
    b.__dict__["eval_noise"] = 1e-7
    assert bundle._polish_tol(b) == 1e-7
    assert newton_tol(b) == 10.0 * 1e-7
    assert np.abs(b(_fiber_batch(b, w)) - w).max() > 1e-8


def test_sigma_samples_fiber_identity(order4):
    zs, sig = sigma_samples(build_cut_disc(order4), 50)
    assert sig.shape == (50, order4.order)
    assert np.max(np.abs(order4(sig) - zs[:, None])) <= 1e-10


def test_gamma_square_constant(square_setup):
    values = gamma_apply(square_setup, _monomial(0), 0.25)
    assert np.allclose(values, np.array([-1.0, 1.0]) / math.sqrt(2.0), atol=1e-12)


def test_gamma_square_linear(square_setup):
    values = gamma_apply(square_setup, _monomial(1), 0.25)
    assert np.allclose(
        values,
        np.array([1.0, 1.0]) / (2.0 * math.sqrt(2.0)),
        atol=1e-12,
    )


def test_gamma_identity_map():
    b = BlaschkeProduct(0.0, [0.0])
    f = Poly([0.3, 0.7])
    values = gamma_apply(build_cut_disc(b), f, 0.4)
    assert len(values) == 1
    assert values[0] == pytest.approx(f(0.4), abs=1e-12)


def test_gamma_apply_returns_one_component_per_branch(order4):
    cd = build_cut_disc(order4)
    values = gamma_apply(cd, _monomial(2), 0.3 - 0.2j)
    assert isinstance(values, np.ndarray)
    assert values.shape == (order4.order,) and values.dtype == complex
    sig = sigma_values(cd, 0.3 - 0.2j)
    want = sig ** 2 / order4.derivative_value(sig) / math.sqrt(order4.order)
    np.testing.assert_allclose(values, want, rtol=1e-13)


def test_poly_at_a_scalar_is_poly_at_a_one_point_array():
    # Horner's rule in CPython complex arithmetic and in numpy's round this
    # case differently: imaginary part -0.42799999999999994 against -0.428.
    f = Poly([0.5, 1 - 0.25j, -0.75j, 0.125])
    z = 0.3 - 0.4j
    assert np.asarray(f(z)).tobytes() == f(np.array([z]))[0].tobytes()
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((50, 6)) + 1j * rng.standard_normal((50, 6))
    zs = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    for c, z in zip(coeffs, zs):
        g = Poly(c)
        assert np.asarray(g(z)).tobytes() == g(np.array([z]))[0].tobytes()


def test_exact_inner_monomials():
    assert exact_inner(_monomial(3), _monomial(3)) == pytest.approx(0.25)
    assert exact_inner(_monomial(2), _monomial(5)) == 0.0
    f = Poly([1.0, 2.0])
    assert exact_inner(f, f) == pytest.approx(3.0)


def test_isometry_identity_map():
    b = BlaschkeProduct(0.0, [0.0])
    grid = build_quadrature_grid(build_cut_disc(b), 20000)
    err = isometry_details(grid, _monomial(0), _monomial(0))["relative_error"]
    assert err < 1e-3


def test_isometry_square_monomials(square):
    grid = build_quadrature_grid(build_cut_disc(square), 100000)
    for k in range(4):
        f = _monomial(k)
        err = isometry_details(grid, f, f)["relative_error"]
        assert err < 1e-2


def test_isometry_estimate_converges(square):
    f = _monomial(2)
    cd = build_cut_disc(square)
    err_half = isometry_details(build_quadrature_grid(cd, 500000), f, f)["relative_error"]
    err_full = isometry_details(build_quadrature_grid(cd, 1000000), f, f)["relative_error"]
    assert err_full < err_half or err_full < 1e-2


def test_intertwining_residual_square(square):
    fibers = sigma_samples(build_cut_disc(square), 100)
    assert verify_intertwining(square, [_monomial(0), _monomial(1)], fibers) < 1e-10


def test_intertwining_residual_random_poly(order3):
    rng = np.random.default_rng(20)
    coeffs = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
    fibers = sigma_samples(build_cut_disc(order3), 100)
    assert verify_intertwining(order3, [Poly(coeffs)], fibers) < 1e-9


def test_disjoint_images_square(square):
    assert verify_disjoint_images(square, 100, seed=0) > 0.1


def test_disjoint_images_threshold(order4):
    assert verify_disjoint_images(order4, 100, seed=0) > 1e-4


def test_partition_single_hit(square, order3):
    assert partition_check(build_cut_disc(square), 50)
    assert partition_check(build_cut_disc(order3), 50)


def test_quadrature_budget_floor(square_setup):
    with pytest.raises(ValueError):
        build_quadrature_grid(square_setup, 5000)


def test_bundle_report_structure(order3):
    report = bundle_report(build_cut_disc(order3), 10**4, 30)
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
    z = cd.base + 0.05
    monkeypatch.setattr(
        bundle,
        "newton_correct",
        lambda b, pred, w, tol, iters: (pred, pred, pred, np.zeros(len(pred), dtype=bool)),
    )
    with pytest.raises(NoConvergence):
        sigma_values(cd, z)


_CONTINUED_PRODUCTS = {
    "suite0-order3": acceptance_products()[0],
    "suite5-order4": acceptance_products()[5],
    "suite10-order5": acceptance_products()[10],
    "suite15-order6": acceptance_products()[15],
    "z^2": BlaschkeProduct(0.0, [0.0] * 2),
    "z^5": BlaschkeProduct(0.0, [0.0] * 5),
    "identity": BlaschkeProduct(0.0, [0.0]),
}


@pytest.mark.parametrize("budget", [10**4, 10**5])
@pytest.mark.parametrize("name", sorted(_CONTINUED_PRODUCTS))
def test_continued_fibers_match_eigenvalue_fibers(name, budget):
    b = _CONTINUED_PRODUCTS[name]
    grid = build_quadrature_grid(build_cut_disc(b), budget)
    assert grid.fibers.shape == (len(grid.points), b.order)
    assert _set_distance(grid.fibers, _fiber_batch(b, grid.points)) <= 1e-10
    resid = np.abs(b(grid.fibers) - grid.points[:, None])
    assert resid.max() <= newton_tol(b)
    assert 0 <= grid.fallbacks < 0.01 * budget
    want = 1.0 / np.abs(b.derivative_value(grid.fibers)) ** 2
    assert np.max(np.abs(grid.inv_db2 / want - 1.0)) <= 1e-12


def test_continuation_leaves_samples_and_weights_unchanged(monkeypatch):
    cd = build_cut_disc(acceptance_products()[15])
    continued = build_quadrature_grid(cd, 10**4)
    again = build_quadrature_grid(cd, 10**4)
    assert again.fallbacks == continued.fallbacks
    def eig_paths(cd, ws, rows, lengths, spokes):
        fibers = _fiber_batch(cd.b, ws)
        return fibers, cd.b.derivative_value(fibers), 0

    monkeypatch.setattr(bundle, "_continue_paths", eig_paths)
    eig_only = build_quadrature_grid(cd, 10**4)
    for field in ("points", "weights", "correction"):
        got, want = getattr(continued, field), getattr(eig_only, field)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert _set_distance(continued.fibers, eig_only.fibers) <= 1e-10


def test_continuation_falls_back_across_a_branch_value(square, square_setup):
    # The step from 1/4 to -1/4 crosses the branch value 0: the Euler
    # predictor lands both points on the critical point, so the step fails
    # its certificate and the fiber at -1/4 comes from eigenvalues.
    ws = np.array([0.25, -0.25, -0.25 + 0.01j, 0.3, 0.3 + 0.01j])
    fibers, derivs, fallbacks = _continue_paths(square_setup, ws, np.arange(len(ws)), [3, 2])
    assert fallbacks == 1
    assert np.max(np.abs(derivs - 2.0 * fibers)) <= 1e-12
    assert _set_distance(fibers, _fiber_batch(square, ws)) <= 1e-12
    assert np.max(np.abs(fibers**2 - ws[:, None])) <= newton_tol(square)


def test_certificate_rejects_collided_and_accepts_long_steps(order3):
    w0, w1 = 0.135 - 0.45j, 0.318 + 0.108j
    exact = _fiber_batch(order3, np.array([w1]))
    _, _, _, ok = certified_step(order3, exact, np.array([w1]))
    assert ok.tolist() == [True]
    # Two points 1e-12 apart on one root: converged at once, with no
    # correction at all, but their error balls overlap.
    doubled = exact[:, [0, 0, 2]] + np.array([0.0, 1e-12, 0.0])
    z, _, _, ok = certified_step(order3, doubled, np.array([w1]))
    assert np.max(np.abs(order3(z) - w1)) <= newton_tol(order3)
    assert ok.tolist() == [False]
    # One long Euler step: Newton converges to the whole fiber, with
    # corrections above a tenth of its separation, and the disjoint error
    # balls accept it.
    start = _fiber_batch(order3, np.array([w0]))
    pred = start + (w1 - w0) / order3.eval_with_derivative(start)[1]
    z, _, _, ok = certified_step(order3, pred, np.array([w1]))
    assert np.max(np.abs(order3(z) - w1)) <= newton_tol(order3)
    assert ok.tolist() == [True]
    assert _set_distance(z, exact) <= 1e-13


def test_continuation_single_point_fiber(mobius):
    ws = 0.5 * np.exp(1j * np.linspace(0.0, 6.0, 200))
    fibers, _, fallbacks = _continue_paths(build_cut_disc(mobius), ws, np.arange(len(ws)), [200])
    assert fallbacks == 0
    assert np.max(np.abs(mobius(fibers[:, 0]) - ws)) <= newton_tol(mobius)


@pytest.mark.parametrize("name", ["suite0-order3", "suite15-order6", "z^2"])
def test_power_pass_equals_isometry_details_per_monomial(name):
    cd = build_cut_disc(_CONTINUED_PRODUCTS[name])
    report = bundle_report(cd, 10**4, 5)
    grid = build_quadrature_grid(cd, 10**4)
    details = [isometry_details(grid, _monomial(j), _monomial(j)) for j in range(6)]
    want_iso = max(d["relative_error"] for d in details)
    want_mass = max(d["excluded_mass_bound"] for d in details)
    assert report["isometry_error"].hex() == want_iso.hex()
    assert report["excluded_mass_bound"].hex() == want_mass.hex()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_map_quadrature_is_exact(n):
    # z^n has one branch value, 0, of local degree n.  On its one chart,
    # w = t^n e^{i theta}, every monomial integrand is a polynomial in t of
    # degree at most 11, which each level's Gauss-Legendre rule integrates
    # exactly.
    cd = build_cut_disc(BlaschkeProduct(0.0, [0.0] * n))
    assert cd.branch_data.local_degrees == ((n,),)
    grid = build_quadrature_grid(cd, 10**4)
    assert len(grid.points) == bundle._ANGLES * bundle._LEVELS * bundle._GAUSS_MAX
    assert bundle_report(cd, 10**4, 5)["isometry_error"] <= 1e-12


def test_isometry_holds_after_a_disc_automorphism():
    # phi(B) for phi(w) = (w - a) / (1 - conj(a) w) is, up to a rotation, the
    # product whose zeros are the fiber of B over a.  Its branch values are
    # those of B moved by phi, from within 0.005 of 0 out to radius 1/2, but
    # its monomial Gram matrix is diag(1/(j+1)), as for every product.
    b = acceptance_products()[15]
    moved = BlaschkeProduct(0.0, list(_fiber_batch(b, np.array([0.5j]))[0]))
    cd = build_cut_disc(moved)
    assert max(abs(v) for v in b.branch_data().branch_values) < 0.01
    assert min(abs(v) for v in cd.branch_values) > 0.45
    assert bundle_report(cd, 10**5, 5)["isometry_error"] <= 1e-5


@pytest.mark.parametrize("budget", [10**4, 10**5])
def test_quadrature_grid_is_capped_and_draws_nothing(budget, monkeypatch):
    # Product 15 has five charts: at 10^4 the cap leaves 5 Gauss nodes per
    # level of the most, 8.  No random generator is drawn from, and a second
    # grid repeats every byte of the first.
    b = acceptance_products()[15]

    def refuse(*args, **kwargs):
        raise AssertionError("a random generator was drawn from")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    grids = [build_quadrature_grid(build_cut_disc(b), budget) for _ in range(2)]
    assert len(grids[0].points) <= budget
    for field in ("points", "fibers", "inv_db2", "weights", "correction"):
        assert getattr(grids[0], field).tobytes() == getattr(grids[1], field).tobytes()
    assert grids[0].fallbacks == grids[1].fallbacks


def test_quadrature_budget_below_one_node_per_level_is_refused(order3):
    # 27 charts of 32 angles and 12 levels need 10,368 points at one Gauss
    # node per level.
    cd = build_cut_disc(order3)
    betas = tuple(0.5 * cmath.exp(2j * math.pi * k / 27) for k in range(27))
    crowded = replace(cd, branch_data=BranchData((), betas, ((2,),) * 27))
    with pytest.raises(ValueError, match="one node per level"):
        build_quadrature_grid(crowded, 10**4)


@pytest.mark.parametrize("budget", [10**4, 10**5, 10**6])
def test_continuation_paths_are_at_most_path_length(budget, monkeypatch):
    # Each path is one ray of one chart: at one angle, the innermost level's
    # outer ring and then every ring outside it in ascending t.  Every row
    # outside the charts' innermost levels is on exactly one path.
    b = _CONTINUED_PRODUCTS["suite0-order3"]
    seen = []

    def recording(cd, ws, rows, lengths, spokes):
        seen.append((rows, list(lengths)))
        return _continue_paths(cd, ws, rows, lengths, spokes)

    monkeypatch.setattr(bundle, "_continue_paths", recording)
    cd = build_cut_disc(b)
    grid = build_quadrature_grid(cd, budget)
    ((rows, lengths),) = seen
    assert sum(lengths) == len(rows)
    per_chart = len(grid.points) // len(cd.branch_values)
    gauss = per_chart // (bundle._LEVELS * bundle._ANGLES)
    chart, ring = rows // per_chart, rows % per_chart // bundle._ANGLES
    angle = rows % bundle._ANGLES
    for path in np.split(np.arange(len(rows)), np.cumsum(lengths)[:-1]):
        assert len(set(chart[path])) == len(set(angle[path])) == 1
        assert ring[path].tolist() == list(range(gauss - 1, bundle._LEVELS * gauss))
    on_paths = np.bincount(rows, minlength=len(grid.points))
    assert np.all(on_paths[~grid.correction] == 1)


def test_quadrature_solves_few_rows_by_eigenvalues(monkeypatch):
    # Product 15 at 10^5: eigenvalues solve the rays' seeds, the failed steps
    # (in the continuation loop of `tracking` and into the innermost levels)
    # and the failed polishes (in `bundle`): at most 400 rows (1,321 when
    # every innermost row was solved by eigenvalues).  B and B' are evaluated
    # at few fibers: at most 2.3 per unit of budget.
    cd = build_cut_disc(acceptance_products()[15])
    eig_rows, polish_failures, evaluated = [0], [0], [0]
    real_batch = bundle._fiber_batch
    real_polish, real_eval = bundle._polish, BlaschkeProduct.eval_with_derivative

    def batch(b, ws):
        eig_rows[0] += len(ws)
        return real_batch(b, ws)

    def polishing(b, pts, ws):
        z, ok = real_polish(b, pts, ws)
        polish_failures[0] += int(np.count_nonzero(~ok))
        return z, ok

    def evaluate(self, z):
        evaluated[0] += len(z)
        return real_eval(self, z)

    monkeypatch.setattr(bundle, "_fiber_batch", batch)
    monkeypatch.setattr(tracking, "_fiber_batch", batch)
    monkeypatch.setattr(bundle, "_polish", polishing)
    monkeypatch.setattr(BlaschkeProduct, "eval_with_derivative", evaluate)
    grid = build_quadrature_grid(cd, 10**5)
    seeds = _seed_rows(cd, grid)
    assert eig_rows[0] == len(seeds) + grid.fallbacks + polish_failures[0]
    assert eig_rows[0] <= 400
    assert evaluated[0] <= 2.3 * 10**5


def _seed_rows(cd, grid):
    """Rows of the rays' seeds: each chart's innermost level's outer ring."""
    centers = np.asarray(cd.branch_values or (0j,))
    per_chart = len(grid.points) // len(centers)
    ring = np.arange(len(grid.points)) % per_chart // bundle._ANGLES
    return np.flatnonzero(grid.correction & (ring == ring[grid.correction].max()))


@pytest.mark.parametrize("n", [3, 5])
def test_innermost_rows_step_from_the_seed(n, monkeypatch):
    # On z^n at 10^4 every innermost row but the seeds takes one certified
    # step from the seed at its angle and is accepted, down to ring 0.
    b = BlaschkeProduct(0.0, [0.0] * n)
    cd = build_cut_disc(b)
    solved, stepped = [], []
    real_batch, real_step = bundle._fiber_batch, bundle.certified_step

    def batch(b, ws):
        solved.append(ws.copy())
        return real_batch(b, ws)

    def step(b, pred, w):
        stepped.append(w.copy())
        return real_step(b, pred, w)

    monkeypatch.setattr(bundle, "_fiber_batch", batch)
    monkeypatch.setattr(bundle, "certified_step", step)
    grid = build_quadrature_grid(cd, 10**4)
    seeds = _seed_rows(cd, grid)
    assert grid.fallbacks == 0
    assert np.concatenate(solved).tobytes() == grid.points[seeds].tobytes()
    inner = np.setdiff1d(np.flatnonzero(grid.correction), seeds)
    assert len(inner) > 0
    (w,) = stepped
    assert w.tobytes() == grid.points[inner].tobytes()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_quadrature_fibers_of_powers_are_the_exact_roots(m):
    # On z^m every quadrature fiber, the innermost rows included, lies within
    # 1e-14 |w|^(1/m) of the exact roots |w|^(1/m) e^{i (arg w + 2 pi k) / m}:
    # the polish ends in a Newton step, so a residual of 1e-14 at |w| ~ 1e-12
    # does not leave the ray rows off the roots.
    grid = build_quadrature_grid(build_cut_disc(BlaschkeProduct(0.0, [0.0] * m)), 10**4)
    assert np.all(grid.points != 0.0)
    scale = np.abs(grid.points)[:, None] ** (1.0 / m)
    angles = (np.angle(grid.points)[:, None] + 2.0 * math.pi * np.arange(m)) / m
    assert _set_distance(grid.fibers / scale, np.exp(1j * angles)) <= 1e-14


def test_bundle_report_solves_branch_data_once(order3, monkeypatch):
    # The cut disc solves the branch data; its grid and report reuse it.
    calls = []
    original = BlaschkeProduct.branch_data

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BlaschkeProduct, "branch_data", counting)
    cd = build_cut_disc(order3)
    assert calls == [order3]
    build_quadrature_grid(cd, 10**4)
    bundle_report(cd, 10**4, 5)
    assert calls == [order3]


def test_cut_disc_settings_reach_labeled_tracking(order3, monkeypatch):
    # Under a tracking tolerance of 1e-30 no step is certified: Newton does
    # not converge on the cut disc's labeled fibers, as on the monodromy's.
    monkeypatch.setattr(tracking, "newton_tol", lambda b: 1e-30)
    cd = build_cut_disc(order3)
    with pytest.raises(NoConvergence, match="Newton did not converge on segment 0 "):
        compute_representation(order3)
    with pytest.raises(NoConvergence, match="Newton did not converge on segment 0 "):
        sigma_samples(cd, 5)


def test_cut_disc_settings_reach_the_quadrature(order3, monkeypatch):
    # Under a tracking tolerance of 1e-30 (read by the steps in `tracking`)
    # almost no continuation step is certified (a residual can round to
    # exactly 0), so nearly every continued node but the seed of its path
    # falls back to eigenvalues; the nodes are the same either way.
    lengths = []

    def recording(cd, ws, rows, path_lengths, spokes):
        lengths.append(list(path_lengths))
        return _continue_paths(cd, ws, rows, path_lengths, spokes)

    monkeypatch.setattr(bundle, "_continue_paths", recording)
    cd = build_cut_disc(order3)
    want = build_quadrature_grid(cd, 10**4)
    assert want.fallbacks < 0.01 * 10**4
    monkeypatch.setattr(tracking, "newton_tol", lambda b: 1e-30)
    grid = build_quadrature_grid(cd, 10**4)
    assert grid.fallbacks >= 0.95 * (sum(lengths[1]) - len(lengths[1]))
    assert grid.points.tobytes() == want.points.tobytes()


def test_cut_disc_seed_draws_its_samples_and_grid(order3):
    # The seed of `sigma_samples` draws the labeled samples, 0 unless given;
    # the quadrature grid draws nothing.
    cd = build_cut_disc(order3)
    zs = sigma_samples(cd, 5, seed=3)[0]
    assert zs.tobytes() == sigma_samples(cd, 5, seed=3)[0].tobytes()
    assert zs.tobytes() != sigma_samples(cd, 5)[0].tobytes()
    assert sigma_samples(cd, 5)[0].tobytes() == sigma_samples(cd, 5, seed=0)[0].tobytes()
    report = bundle_report(cd, 10**4, 5, seed=3)
    assert report["seed"] == 3
    points = build_quadrature_grid(cd, 10**4).points
    assert points.tobytes() == build_quadrature_grid(build_cut_disc(order3), 10**4).points.tobytes()


def _cut_disc_points(cd, count, rng, rmax=0.9):
    """`count` random cut-disc points clear of the cuts and branch values."""
    zs = []
    while len(zs) < count:
        z = rmax * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        if not point_in_cut_disc(cd, z, clearance=1e-3):
            continue
        if any(abs(z - v) < 0.05 for v in cd.branch_values):
            continue
        zs.append(z)
    return zs


@pytest.mark.parametrize("index", [0, 5, 10, 15, 19])
def test_track_paths_equals_track_on_loops_and_routes(index):
    b = acceptance_products()[index]
    cd = build_cut_disc(b)
    _, pairs = crossing_paths(cd)
    rng = np.random.default_rng(index)
    routes = [route_in_cut_disc(cd, z) for z in _cut_disc_points(cd, 25, rng)]
    paths = [path for pair in pairs for path in pair] + routes
    outcomes = track_paths(b, cd.fiber0, paths)
    assert len(outcomes) == len(paths)
    for path, got in zip(paths, outcomes):
        want = track(b, cd.fiber0, path)
        assert got.w == want.w
        assert np.array(got.points).tobytes() == np.array(want.points).tobytes()
        assert got.separation == want.separation


def _inject(monkeypatch, track_errors=(), polish_fail=(), polish_shift=()):
    """Replace chosen track outcomes by errors and spoil chosen polish rows.

    Polish rows count only the samples whose tracking succeeded.
    """
    real_track, real_polish = bundle.track_paths, bundle.newton_correct

    def fake_track(b, fiber, paths, *args):
        outcomes = real_track(b, fiber, paths, *args)
        for row, error in track_errors:
            outcomes[row] = error
        return outcomes

    def fake_polish(b, pred, w, tol, iters):
        z, db, res, ok = real_polish(b, pred, w, tol, iters)
        ok[list(polish_fail)] = False
        z[list(polish_shift)] += 1e-3
        return z, db, res, ok

    monkeypatch.setattr(bundle, "track_paths", fake_track)
    monkeypatch.setattr(bundle, "newton_correct", fake_polish)


def test_sigma_samples_raises_the_earliest_failure(order3, monkeypatch):
    cd = build_cut_disc(order3)
    zs, _ = sigma_samples(cd, 8)
    with monkeypatch.context() as m:
        _inject(m, track_errors=[(4, FiberCollision("row 4"))], polish_fail=[2])
        with pytest.raises(NoConvergence, match=f"z={zs[2]:.4f}"):
            sigma_samples(cd, 8)
    with monkeypatch.context() as m:
        _inject(m, track_errors=[(1, FiberCollision("row 1"))], polish_fail=[2])
        with pytest.raises(FiberCollision, match="row 1"):
            sigma_samples(cd, 8)


def test_partition_check_stops_at_the_first_miss(order3, monkeypatch):
    cd = build_cut_disc(order3)
    with monkeypatch.context() as m:
        _inject(m, track_errors=[(5, FiberCollision("row 5"))], polish_shift=[2])
        assert partition_check(cd, 8) is False
    with monkeypatch.context() as m:
        _inject(m, track_errors=[(5, FiberCollision("row 5"))])
        with pytest.raises(FiberCollision, match="row 5"):
            partition_check(cd, 8)
    assert partition_check(cd, 8) is True


def _refuse_samples_after(monkeypatch, draws):
    """Let the sampler's cut-disc test judge only its first `draws` draws and
    refuse every later one; routing keeps the real test."""
    real = bundle.point_in_cut_disc
    judged = []

    def patched(cd, z, clearance=None):
        if clearance is None:
            return real(cd, z)
        judged.append(z)
        return len(judged) <= draws and real(cd, z, clearance=clearance)

    monkeypatch.setattr(bundle, "point_in_cut_disc", patched)


def test_sampling_that_keeps_missing_the_cut_disc_is_blocked(order3, monkeypatch):
    cd = build_cut_disc(order3)
    monkeypatch.setattr(bundle, "point_in_cut_disc", lambda *args, **kwargs: False)
    with pytest.raises(
        PathBlocked, match="^sampling the cut disc kept hitting exclusions$"
    ):
        sigma_samples(cd, 2)
    with pytest.raises(
        PathBlocked, match="^sampling the disc kept leaving the cut disc$"
    ):
        partition_check(cd, 2)


def test_partition_check_judges_its_kept_points_before_it_is_blocked(
    order3, monkeypatch
):
    # Each case installs a fresh patch: the refusal counts draws per call.
    cd = build_cut_disc(order3)
    with monkeypatch.context() as m:
        _refuse_samples_after(m, 6)
        ps, _, complete = draw_images(cd, 8, 0.95)
    assert 0 < len(ps) < 8 and not complete
    with monkeypatch.context() as m:
        _refuse_samples_after(m, 6)
        with pytest.raises(
            PathBlocked, match="^sampling the disc kept leaving the cut disc$"
        ):
            partition_check(cd, 8)
    with monkeypatch.context() as m:
        _refuse_samples_after(m, 6)
        _inject(m, polish_shift=[len(ps) - 1])
        assert partition_check(cd, 8) is False
    with monkeypatch.context() as m:
        _refuse_samples_after(m, 6)
        _inject(m, track_errors=[(0, FiberCollision("row 0"))])
        with pytest.raises(FiberCollision, match="row 0"):
            partition_check(cd, 8)


_ROUTED_PRODUCTS = {
    **{f"suite{i}": (acceptance_products()[i], None) for i in (0, 5, 10, 15, 19)},
    "z^2": (BlaschkeProduct(0.0, [0.0] * 2), 0.25),
}


@pytest.mark.parametrize("name", sorted(_ROUTED_PRODUCTS))
def test_cut_disc_is_star_shaped_about_its_base(name):
    b, base = _ROUTED_PRODUCTS[name]
    cd = build_cut_disc(b, base=base)
    base = complex(cd.base)
    for beta, cut in zip(cd.branch_values, cd.cuts):
        assert cut.start == beta
        assert abs(abs(cut.end) - 1.0) < 1e-12
        assert point_segment_distance(base, cut.start, cut.end) == abs(beta - base)
    for z in _cut_disc_points(cd, 100, np.random.default_rng(0)):
        assert _chains_along(route_in_cut_disc(cd, z), base, z)
        assert _clear_of_cuts(cd, base, z)


@pytest.mark.parametrize("name", sorted(_ROUTED_PRODUCTS))
def test_cut_disc_owns_its_labeling(name):
    b, base = _ROUTED_PRODUCTS[name]
    cd = build_cut_disc(b, base=base)
    want = initial_fiber(b, cd.base)
    assert cd.fiber0 == want
    assert np.array(cd.fiber0.points).tobytes() == np.array(want.points).tobytes()


@pytest.mark.parametrize("name", ["suite15", "z^2"])
def test_points_too_near_a_cut_or_off_the_disc_are_blocked(name):
    b, base = _ROUTED_PRODUCTS[name]
    cd = build_cut_disc(b, base=base)
    gap = bundle._MIN_CUT_CLEARANCE

    def midpoint(cut):
        return 0.5 * (cut.start + cut.end)

    # The cut whose midpoint lies farthest from the other cuts, so a point
    # beside it is near no other cut.
    cut = max(cd.cuts, key=lambda c: min(
        (point_segment_distance(midpoint(c), o.start, o.end)
         for o in cd.cuts if o is not c),
        default=math.inf,
    ))
    normal = 1j * (cut.end - cut.start) / abs(cut.end - cut.start)
    for side in (normal, -normal):
        near = midpoint(cut) + 0.5 * gap * side
        clear = midpoint(cut) + 2.0 * gap * side
        with pytest.raises(PathBlocked, match=re.escape(f"to {near:.4f}")):
            route_in_cut_disc(cd, near)
        assert point_in_cut_disc(cd, clear)
        assert _chains_along(route_in_cut_disc(cd, clear), complex(cd.base), clear)
        assert _clear_of_cuts(cd, cd.base, clear)
    for z in (1.0 + 0.0j, 0.6 - 0.8j, 1.2j):
        with pytest.raises(PathBlocked, match=re.escape(
            f"no cut-avoiding route from {complex(cd.base):.4f} to {z:.4f}"
        )):
            route_in_cut_disc(cd, z)


def test_route_past_a_close_branch_pair_keeps_its_sheets():
    # Acceptance product 7 has two branch values 3.1e-4 apart.  The segment
    # from the base to the point 8e-4 beside the midpoint of cut 0 passes
    # 4e-4 from one of them; continued along it whole, the fiber jumped
    # sheets there ("fiber separation 1.252e-12").  Cut by the splitting
    # rule, the route gives what 4,000 even pieces of the segment give.
    cd = build_cut_disc(acceptance_products()[7])
    cut = cd.cuts[0]
    normal = 1j * (cut.end - cut.start) / abs(cut.end - cut.start)
    z = 0.5 * (cut.start + cut.end) - 8e-4 * normal
    base = complex(cd.base)
    nodes = [base + (z - base) * k / 4000 for k in range(4000)] + [z]
    fine = PathSpec(tuple(Line(u, v) for u, v in zip(nodes, nodes[1:])))
    want = np.array(track(cd.b, cd.fiber0, fine).points)
    assert np.max(np.abs(sigma_values(cd, z) - want)) <= 1e-12


def test_base_at_a_branch_value_is_refused(square):
    with pytest.raises(LoopConstructionFailed):
        build_cut_disc(square, base=0.0)
    b = acceptance_products()[10]
    beta = b.branch_data().branch_values[0]
    with pytest.raises(LoopConstructionFailed):
        build_cut_disc(b, base=beta)


def test_route_without_cuts_is_the_straight_segment(mobius):
    cd = build_cut_disc(mobius)
    assert cd.cuts == () and cd.branch_values == ()
    for z in _cut_disc_points(cd, 5, np.random.default_rng(3)):
        path = route_in_cut_disc(cd, z)
        assert path.segments == (Line(complex(cd.base), z),)


def test_blocked_point_gets_its_own_error(square):
    cd = build_cut_disc(square, base=0.25)
    zs = [0.3j, -1.5, -0.2 - 0.3j]
    outcomes = bundle._labeled_fibers(cd, zs)
    assert isinstance(outcomes[1], PathBlocked)
    assert str(outcomes[1]) == (
        "no cut-avoiding route from 0.2500+0.0000j to -1.5000+0.0000j"
    )
    for z, sig in zip(zs[::2], outcomes[::2]):
        assert np.max(np.abs(sig**2 - z)) <= 1e-12
    with pytest.raises(PathBlocked, match=re.escape("to -1.5000+0.0000j")):
        route_in_cut_disc(cd, -1.5)


def test_disjointness_names_the_first_mismatched_sample(order4):
    zs, sig = sigma_samples(build_cut_disc(order4), 8)
    assert bundle._min_separation(order4, zs, sig) == verify_disjoint_images(order4, 8)
    assert bundle._min_separation(order4, zs, sig) > 1e-4
    # Samples 3 and 4 trade their labeled fibers: both stop matching their
    # unordered fibers, and the first in draw order is named.
    swapped = sig.copy()
    swapped[[3, 4]] = sig[[4, 3]]
    with pytest.raises(AmbiguousMatching, match=re.escape(f"z={zs[3]:.4f} ")):
        bundle._min_separation(order4, zs, swapped)
    # Two labels of sample 3 on one branch value: no longer one to one.
    doubled = sig.copy()
    doubled[3, 1] = sig[3, 0]
    with pytest.raises(AmbiguousMatching, match=re.escape(f"z={zs[3]:.4f} ")):
        bundle._min_separation(order4, zs, doubled)
