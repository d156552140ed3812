"""End-to-end acceptance checks, one test per release criterion.

Each test exercises a full pipeline (random product -> monodromy -> commutant
-> bundle verification) at the tolerances and time budgets the package
promises, so a verbose run reads as a pass/fail line per criterion.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from blaschkelab import (
    analyze,
    build_cut_disc,
    bundle_report,
    commutant_basis,
    compute_representation,
    from_spec,
    is_commutative,
    random_product,
    u_i_norm_check,
    verify_disjoint_images,
    zn_end_to_end,
)
from blaschkelab.cli import main
from blaschkelab.monodromy import orbitals
from helpers import acceptance_products, separation_slope

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def suite():
    """Twenty random products of orders 3-6 with monodromy and commutant."""
    start = time.perf_counter()
    members = []
    for b in acceptance_products():
        order = b.order
        rep = compute_representation(b)
        cb = commutant_basis(rep.generators, order)
        # The orbit count on ordered pairs, from the labels alone.
        q = len(np.unique(orbitals(rep.generators, order)))
        members.append({"b": b, "order": order, "rep": rep, "cb": cb, "q": q})
    elapsed = time.perf_counter() - start
    return members, elapsed


def test_criterion_1_order2_products_have_two_reducing_subspaces():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    for _ in range(10):
        b = random_product(2, rng)
        result = analyze(b)
        rep = result.rep
        assert len(rep.generators) == 1
        assert rep.generators[0].images == (1, 0)
        assert result.q_orbitals == 2
        assert result.commutant.dim == 2
        assert len(result.projections) == 2
    assert time.perf_counter() - start < 5.0


def test_criterion_2_power_family_end_to_end():
    start = time.perf_counter()
    for n in range(2, 9):
        report = zn_end_to_end(n)
        assert report["ok"], report
        assert report["q_orbitals"] == n
        assert report["commutant_dim"] == n
    assert time.perf_counter() - start < 30.0


def test_criterion_3_commutant_dimension_equals_orbital_count(suite):
    members, elapsed = suite
    assert len(members) == 20
    for m in members:
        assert m["cb"].dim == m["q"]
    assert elapsed < 60.0


def test_criterion_4_commutant_is_commutative(suite):
    members, _ = suite
    for m in members:
        ok, worst = is_commutative(m["cb"])
        assert ok
        assert worst < 1e-8


def test_criterion_5_bundle_unitary_verification(suite):
    members, _ = suite
    start = time.perf_counter()
    for idx in (0, 1, 5, 10, 15):
        b = members[idx]["b"]
        report = bundle_report(build_cut_disc(b), 10**6, 100)
        assert report["intertwining_residual"] < 1e-9
        assert report["isometry_error"] < 1e-2
        assert report["excluded_mass_bound"] >= 0.0
    assert time.perf_counter() - start < 120.0


def test_criterion_6_fiber_separation_and_square_root_scaling(suite):
    members, _ = suite
    for m in members:
        assert verify_disjoint_images(m["b"], 100, seed=0) > 1e-4
    for m in members:
        b = m["b"]
        data = b.branch_data()
        assert all(c.multiplicity == 1 for c in data.critical_points)
        betas = m["rep"].branch_values

        def isolation(j):
            gaps = [abs(betas[j] - betas[k]) for k in range(len(betas)) if k != j]
            return min(min(gaps), 1.0 - abs(betas[j]))

        best = max(range(len(betas)), key=isolation)
        rmax = min(1e-2, isolation(best) / 3.0)
        slope = separation_slope(
            b, betas[best], radii=(rmax, rmax / 10.0, rmax / 100.0)
        )
        assert abs(slope - 0.5) <= 0.1


def test_criterion_7_component_counts_match_frozen_factorizations():
    cases = json.loads((FIXTURES / "factor_counts.json").read_text())
    assert len(cases) == 3
    for case in cases:
        b = from_spec({"theta": case["theta"], "zeros": case["zeros"]})
        rep = compute_representation(b)
        q = len(np.unique(orbitals(rep.generators, b.order)))
        assert q == case["absolute_factor_count"], case["name"]


def test_criterion_8_exact_rational_norm_identity():
    for n in range(1, 7):
        for i in range(n):
            for k in range(11):
                lhs, rhs = u_i_norm_check(n, i, k)
                assert lhs == rhs == Fraction(n, n * k + i + 1)


def test_criterion_9_reports_are_byte_identical(tmp_path):
    spec = tmp_path / "order3.json"
    spec.write_text(
        json.dumps({"theta": 0.0, "zeros": [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]})
    )
    payloads = []
    for name in ("a.json", "b.json", "c.json"):
        out = tmp_path / name
        assert main(["analyze", str(spec), "--report", str(out)]) == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]
