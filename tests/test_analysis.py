from __future__ import annotations

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blaschkelab import (
    DEFAULTS,
    BlaschkeProduct,
    FiberCollision,
    Permutation,
    analyze,
    choose_base_point,
    random_product,
    to_spec,
    zn_end_to_end,
)
from blaschkelab import blaschke, bundle, tracking
from blaschkelab.cli import main

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
    # Frozen from `analyze --seed 0` before the analysis pipeline was unified.
    frozen = json.loads((FIXTURES / "analyze_suite_discrete.json").read_text())
    suite = frozen["suite"]
    rng = np.random.default_rng(suite["seed"])
    specs = [
        to_spec(random_product(order, rng, radius=suite["radius"]))
        for order in suite["orders"]
        for _ in range(suite["per_order"])
    ]
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


def test_zn_seed_reaches_every_root_solve(monkeypatch):
    seeds = []

    def spying(real):
        def spy(*args, **kwargs):
            seeds.append(kwargs.get("seed"))
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(blaschke, "roots", spying(blaschke.roots))
    monkeypatch.setattr(tracking, "roots", spying(tracking.roots))
    monkeypatch.setattr(bundle, "poly_roots", spying(bundle.poly_roots))
    assert zn_end_to_end(3, seed=5)["ok"]
    assert len(seeds) >= 2
    assert seeds == [5] * len(seeds)


def test_grid_override_reaches_the_base_point(order3):
    betas = order3.branch_data().branch_values
    coarse = replace(DEFAULTS, grid=17)
    base17 = choose_base_point(order3, betas, settings=coarse)
    assert base17 != choose_base_point(order3, betas)
    assert analyze(order3, coarse).rep.base == base17
    assert analyze(order3).rep.base == choose_base_point(order3, betas)


def test_collision_override_reaches_the_initial_fiber(order3):
    with pytest.raises(FiberCollision) as info:
        analyze(order3, replace(DEFAULTS, collision_factor=1e12))
    assert info.traceback[-1].name == "initial_fiber"


def test_newton_tol_override_reaches_tracking(tmp_path, capsys):
    b = BlaschkeProduct(0.0, [0.0, 0.0, 0.5])
    spec = tmp_path / "order3.json"
    spec.write_text(json.dumps(to_spec(b)))
    assert main(["analyze", str(spec), "--newton-tol", "1e-30"]) == 3
    assert "blaschkelab.errors.StepFloorReached" in capsys.readouterr().err
