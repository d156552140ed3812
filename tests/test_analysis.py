from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blaschkelab import (
    DEFAULTS,
    BlaschkeProduct,
    BranchCountError,
    FiberCollision,
    Permutation,
    analyze,
    build_cut_disc,
    choose_base_point,
    to_spec,
)
from blaschkelab import tracking
from blaschkelab.cli import main
from helpers import suite_products, sweep_draw

FIXTURES = Path(__file__).parent / "fixtures"
_ERROR_RE = re.compile(r"error \[(?:\w+\.)*(\w+)\]")


def _discrete(report) -> dict:
    """The labeling-free fields of an analyze report."""
    return {
        "ok": report["ok"],
        "q_orbitals": report["q_orbitals"],
        "commutant_dim": report["commutant_dim"],
        "group_order": report["group_order"],
        "cycle_types": sorted(
            list(Permutation(tuple(g)).cycle_type()) for g in report["generators"]
        ),
        "projection_ranks": sorted(
            int(round(sum(row[k][0] for k, row in enumerate(p))))
            for p in report["projections"]
        ),
    }


def test_analyze_suite_discrete_fields_match_frozen(tmp_path, capsys):
    # Frozen from `analyze --seed 0` before the analysis pipeline was unified;
    # entry 27 (a FiberCollision on a return stem until generators were read
    # at the loop head) is the one later edit.
    frozen = json.loads((FIXTURES / "analyze_suite_discrete.json").read_text())
    suite = {"seed": 2026, "orders": [3, 4, 5, 6, 7, 8], "per_order": 5, "radius": 0.6}
    assert frozen["suite"] == suite
    specs = [to_spec(b) for b in suite_products()]
    canonical = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == frozen["specs_sha256"]
    assert len(specs) == len(frozen["outcomes"]) == 30
    for i, (spec, want) in enumerate(zip(specs, frozen["outcomes"])):
        path, out = tmp_path / f"product{i}.json", tmp_path / f"report{i}.json"
        path.write_text(json.dumps(spec))
        code = main(["analyze", str(path), "--report", str(out), "--seed", "0"])
        err = capsys.readouterr().err
        if code == 3:
            got = {"error": _ERROR_RE.search(err).group(1)}
        else:
            report = json.loads(out.read_text())
            assert code == (0 if report["ok"] else 1)
            got = _discrete(report)
        assert got == want, i


def test_root_solving_is_seed_free():
    # The seed reaches only the projections and the bundle sampling: base
    # point, branch values, base fiber and generators are bit-identical.
    for b in (suite_products()[0], suite_products()[15]):
        runs = []
        for seed in (0, 5):
            settings = replace(DEFAULTS, seed=seed)
            rep = analyze(b, settings).rep
            fiber0 = build_cut_disc(b, settings=settings).fiber0
            runs.append((
                rep.base,
                np.array(rep.branch_values).tobytes(),
                np.array(fiber0.points).tobytes(),
                rep.generators,
            ))
        assert runs[0] == runs[1]


def test_analyze_uses_the_chosen_base_point(order3, monkeypatch):
    betas = order3.branch_data().branch_values
    base64 = choose_base_point(order3, betas)
    monkeypatch.setattr(tracking, "_BASE_GRID", 17)
    base17 = choose_base_point(order3, betas)
    assert base17 != base64
    assert analyze(order3).rep.base == base17
    monkeypatch.undo()
    assert analyze(order3).rep.base == base64


def test_collided_base_fiber_raises_from_initial_fiber(order3, monkeypatch):
    monkeypatch.setattr(tracking, "_COLLISION_FACTOR", 1e12)
    with pytest.raises(FiberCollision) as info:
        analyze(order3)
    assert info.traceback[-1].name == "initial_fiber"


def test_newton_tol_override_reaches_tracking(tmp_path, capsys):
    b = BlaschkeProduct(0.0, [0.0, 0.0, 0.5])
    spec = tmp_path / "order3.json"
    spec.write_text(json.dumps(to_spec(b)))
    assert main(["analyze", str(spec), "--newton-tol", "1e-30"]) == 3
    assert "blaschkelab.errors.StepFloorReached" in capsys.readouterr().err


@pytest.mark.parametrize(
    "b",
    [
        pytest.param(suite_products()[27], id="suite-product27"),
        pytest.param(sweep_draw(6, 14), id="sweep-order6-draw14"),
        pytest.param(sweep_draw(10, 14), id="sweep-order10-draw14"),
    ],
)
def test_former_return_stem_collisions_give_the_symmetric_group(b):
    # Simple critical points with distinct branch values: the monodromy group
    # is transitive and generated by transpositions, hence S_n with q = 2.
    n = b.order
    result = analyze(b)
    assert result.theorem_checks and all(c["pass"] for c in result.theorem_checks.values())
    assert result.group_order == math.factorial(n)
    assert result.q_orbitals == 2
    transposition = (2,) + (1,) * (n - 2)
    assert all(g.cycle_type() == transposition for g in result.rep.generators)


@pytest.mark.parametrize("order, draw", [(16, 5), (18, 0)])
def test_clustered_high_order_branch_values_give_the_symmetric_group(order, draw):
    # At dedup_tol 1e-12 these draws keep branch values about 1e-9 apart.
    # Continued along whole segments, a crossing path reached the step floor
    # near them; cut into pieces short beside each branch value, every lane
    # certifies and the group is S_n with q = 2.
    b = sweep_draw(order, draw)
    result = analyze(b, replace(DEFAULTS, dedup_tol=1e-12))
    assert result.ok
    assert result.group_order == math.factorial(order)
    assert result.q_orbitals == 2


@pytest.mark.parametrize("order", [24, 32])
def test_merged_high_order_branch_values_stop_at_the_ramification_guard(order):
    # Companion eigenvalues find all n - 1 simple critical points, but the
    # absolute dedup band merges their values into one.  The loop around it
    # is an n-cycle, which n - 1 simple critical points over one value
    # cannot give, so the guard raises instead of reporting Z_n.
    b = sweep_draw(order, 0)
    data = b.branch_data()
    assert sum(c.multiplicity for c in data.critical_points) == order - 1
    assert sum(d - 1 for degrees in data.local_degrees for d in degrees) == order - 1
    with pytest.raises(BranchCountError, match=r"has cycle lengths \(") as info:
        analyze(b)
    assert info.traceback[-1].name == "compute_representation"
