from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from blaschkelab import (
    BlaschkeProduct,
    FiberCollision,
    Permutation,
    analyze,
    build_cut_disc,
    choose_base_point,
    to_spec,
    zn_end_to_end,
)
from blaschkelab import cli, commutant, tracking
from blaschkelab.cli import main
from helpers import noisy_witness, suite_products, sweep_draw

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
    # Frozen from `analyze` before the analysis pipeline was unified.  Later
    # edits: entry 27 (a FiberCollision on a return stem until generators
    # were read at the loop head), and entries 23 and 25 (DegenerateClustering
    # under an absolute dedup tolerance of 1e-6, S_7 and S_8 with q = 2 since
    # branch values are deduplicated by their rounding radii).
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
        code = main(["analyze", str(path), "--report", str(out)])
        err = capsys.readouterr().err
        if code == 3:
            got = {"error": _ERROR_RE.search(err).group(1)}
        else:
            report = json.loads(out.read_text())
            assert code == (0 if report["ok"] else 1)
            got = _discrete(report)
        assert got == want, i


def test_root_solving_is_seed_free(tmp_path, capsys):
    # The seed reaches only the bundle sampling: `analyze --seed` is accepted
    # and read nowhere, so base point, branch values, generators and the
    # minimal projections (the joint eigenspaces of the orbit matrices, found
    # without a draw) give byte-identical reports, and the cut disc's base
    # fiber is the analysis's own.
    for b in (suite_products()[0], suite_products()[15], BlaschkeProduct(0.0, [0.0] * 4)):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(to_spec(b)))
        reports = []
        for seed in ("0", "5"):
            assert main(["analyze", str(spec), "--seed", seed]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        base = build_cut_disc(b).base
        assert json.loads(reports[0])["base_point"] == [base.real, base.imag]


def test_analyze_and_zn_draw_nothing_at_random(monkeypatch):
    b = suite_products()[15]

    def refuse(*args, **kwargs):
        raise AssertionError("a random generator was drawn from")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert analyze(b).ok
    assert zn_end_to_end(4)["ok"]


def test_a_split_short_of_q_projections_fails_the_partition(monkeypatch):
    # With a gap above every spread of the orbit matrices' eigenvalues, all
    # Fourier modes form one group: the one projection I still sums to the
    # identity and commutes with every generator, but it is one where q are
    # due.
    b = suite_products()[0]
    assert analyze(b).theorem_checks["projection_partition"]["pass"]
    monkeypatch.setattr(commutant, "_PROJECTION_GAP", 1e6)
    result = analyze(b)
    assert len(result.projections) == 1 < result.q_orbitals
    partition = result.theorem_checks["projection_partition"]
    assert partition["rank_sum"] == b.order and partition["sum_minus_identity"] < 1e-12
    assert not partition["pass"]
    assert [name for name, c in result.theorem_checks.items() if not c["pass"]] == [
        "projection_partition"
    ]


def test_analyze_uses_the_chosen_base_point(order3, monkeypatch):
    betas = order3.branch_data().branch_values
    base64 = choose_base_point(betas)
    monkeypatch.setattr(tracking, "_BASE_GRID", 17)
    base17 = choose_base_point(betas)
    assert base17 != base64
    assert analyze(order3).rep.base == base17
    monkeypatch.undo()
    assert analyze(order3).rep.base == base64


def test_collided_base_fiber_raises_from_initial_fiber(order3, monkeypatch):
    # Infinite error radii make every fiber's balls overlap.
    monkeypatch.setattr(tracking, "_error_radius", lambda b, db, res: np.full(db.shape, np.inf))
    with pytest.raises(FiberCollision) as info:
        analyze(order3)
    assert info.traceback[-1].name == "initial_fiber"


def test_sweep_order20_draw4_certifies_every_lane_step(lane_steps):
    # Beside its clustered branch values the former rule refused 42 lane
    # steps of this draw (separation only 6.8-9.9 times the correction) and
    # retried them to halfway nodes.  Every lane now certifies its four
    # quarter steps by Koebe balls, in one lockstep pass with no refused
    # step, and the analysis gives S_20 with q = 2.
    result = analyze(sweep_draw(20, 4))
    assert result.group_order == math.factorial(20)
    assert result.q_orbitals == 2
    assert len(lane_steps) == 4
    assert len({len(c) for c in lane_steps}) == 1
    assert not np.concatenate(lane_steps).any()


def test_sweep_order24_draw3_joins_its_lanes_by_koebe_balls():
    # A lane end of this draw lies 9.7e-3 from its 60-digit root, inside its
    # own error radius of 1.8e-2, and its nearest start point within 3e-8 of
    # that root: the Koebe balls join the lanes there, where a bound of a
    # third of the start fiber's separation (9.1e-3) refused the junction.
    # The analysis gives S_24 with q = 2.
    result = analyze(sweep_draw(24, 3))
    assert result.ok
    assert result.group_order == math.factorial(24)
    assert result.q_orbitals == 2


def test_newton_tol_override_reaches_tracking(tmp_path, capsys, monkeypatch):
    # Under a tolerance of 1e-30 Newton converges on no continuation step.
    b = BlaschkeProduct(0.0, [0.0, 0.0, 0.5])
    spec = tmp_path / "order3.json"
    spec.write_text(json.dumps(to_spec(b)))
    monkeypatch.setattr(tracking, "newton_tol", lambda b: 1e-30)
    assert main(["analyze", str(spec)]) == 3
    assert "blaschkelab.errors.NoConvergence" in capsys.readouterr().err


def test_noisy_product_is_analyzed_at_its_own_tolerance(tmp_path):
    # Evaluated from its zeros, the witness reads 1.8e-15 on the unit circle
    # (1.6e-10 under the former P/Q kernel), so it is analyzed at the
    # floor 1e-11: S_16 with q = 2.  Under that kernel a fixed 1e-11 reached
    # the step floor.
    b = noisy_witness()
    spec, out = tmp_path / "witness.json", tmp_path / "report.json"
    spec.write_text(json.dumps(to_spec(b)))
    assert main(["analyze", str(spec), "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["group_order"] == math.factorial(16)
    assert report["q_orbitals"] == 2
    assert report["tolerances"]["newton_tol"] == tracking.newton_tol(b) == 1e-11
    # A noise above the floor, set on an instance, still sets the tracking
    # tolerance that the report echoes.
    b = BlaschkeProduct(0.0, [0.0, 0.0, 0.5])
    b.__dict__["eval_noise"] = 1.6e-10
    report = cli._analysis_report(b, analyze(b))
    assert report["ok"]
    assert report["tolerances"]["newton_tol"] == tracking.newton_tol(b) == 10.0 * 1.6e-10


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
    # These draws have branch values about 1e-9 apart, over 1e13 times
    # their rounding radii, so they are kept apart.  Continued along whole
    # segments, a crossing path reached the step floor near them; cut into
    # pieces short beside each branch value, every lane certifies and the
    # group is S_n with q = 2.
    b = sweep_draw(order, draw)
    result = analyze(b)
    assert result.ok
    assert result.group_order == math.factorial(order)
    assert result.q_orbitals == 2


def test_order24_draw0_gives_the_symmetric_group():
    # The 23 branch values of this draw have moduli from 2e-13 to 2.4e-7.
    # An absolute dedup tolerance of 1e-6 merged them into one, and the
    # ramification guard refused the 24-cycle around it.  Deduplicated by
    # their rounding radii they stay 23 simple values, and the group is S_24.
    b = sweep_draw(24, 0)
    result = analyze(b)
    assert result.ok
    assert len(result.rep.branch_values) == 23
    assert result.group_order == math.factorial(24)
    assert result.q_orbitals == 2


def test_order32_draw0_keeps_31_simple_branch_values():
    # The branch data alone: 31 simple critical points, 31 distinct values,
    # of moduli from 7e-16 to 3.7e-9.
    data = sweep_draw(32, 0).branch_data()
    assert sum(c.multiplicity for c in data.critical_points) == 31
    assert data.local_degrees == ((2,),) * 31
