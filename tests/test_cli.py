from __future__ import annotations

import csv
import json

import pytest

from blaschkelab import cli, to_spec
from blaschkelab.cli import main
from helpers import suite_products


def _write_spec(tmp_path, name, theta, zeros):
    path = tmp_path / name
    path.write_text(json.dumps({"theta": theta, "zeros": zeros}))
    return path


def _refuse(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture()
def square_spec(tmp_path):
    return _write_spec(tmp_path, "square.json", 0.0, [[0.0, 0.0], [0.0, 0.0]])


@pytest.fixture()
def order3_spec(tmp_path):
    return _write_spec(
        tmp_path, "order3.json", 0.0, [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    )


def test_analyze_square(tmp_path, square_spec):
    out = tmp_path / "report.json"
    code = main(["analyze", str(square_spec), "--report", str(out), "--seed", "3"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "1"
    assert report["order"] == 2
    assert report["q_orbitals"] == 2
    assert report["commutant_dim"] == 2
    assert report["commutative"]
    assert report["num_minimal_projections"] == 2
    assert report["generators"] == [[1, 0]]
    assert report["ok"]
    assert all(report["theorem_checks"].values())


def test_analyze_single_zero(tmp_path):
    # Disc automorphisms: no critical points, no generators.
    for theta, zero in ((0.0, [0.3, 0.0]), (1.0, [0.2, -0.4])):
        spec = _write_spec(tmp_path, "mobius.json", theta, [zero])
        out = tmp_path / "report.json"
        assert main(["analyze", str(spec), "--report", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["order"] == 1
        assert report["q_orbitals"] == 1
        assert report["commutant_dim"] == 1
        assert report["generators"] == []
        assert report["theorem_checks"]["monodromy_transitive"]["pass"]
        assert report["ok"]


def test_analyze_stdout(square_spec, capsys):
    assert main(["analyze", str(square_spec)]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse)
    assert report["order"] == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"theta": 0, "zeros": [0.1, 0.2]}',
        '{"theta": 0, "zeros": [["a", 0]]}',
        '{"theta": 0, "zeros": null}',
        '{"theta": NaN, "zeros": [[0.1, 0.2]]}',
        '{"theta": 0, "zeros": [[NaN, 0.2]]}',
        pytest.param('{"theta": 1%s, "zeros": [[0.1, 0.2]]}' % ("0" * 400), id="huge-int-theta"),
        pytest.param('{"theta": 0, "zeros": [[1%s, 0.2]]}' % ("0" * 400), id="huge-int-zero"),
    ],
)
def test_malformed_spec_exits_2(tmp_path, capsys, text):
    spec = tmp_path / "bad.json"
    spec.write_text(text)
    assert main(["analyze", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--dedup-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_tolerance_flags_need_a_finite_positive_value(square_spec, capsys, flag, value):
    assert main(["analyze", str(square_spec), flag, value]) == 2
    assert "is not a finite positive number" in capsys.readouterr().err


def test_newton_tol_flag_is_gone(square_spec, capsys):
    # The tracking tolerance is worked out from each product
    # (`tracking.newton_tol`); no flag sets it.
    assert main(["analyze", str(square_spec), "--newton-tol", "1e-9"]) == 2
    assert "unrecognized arguments: --newton-tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify-gamma", "zn"])
def test_negative_seed_exits_2_before_any_work(square_spec, capsys, monkeypatch, command):
    # argparse refuses the seed, naming the flag; no spec is loaded and no
    # analysis, grid or model is built.
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(cli, "_load", unreachable)
    monkeypatch.setattr(cli, "zn_end_to_end", unreachable)
    argv = ["zn", "--n", "3"] if command == "zn" else [command, str(square_spec)]
    assert main(argv + ["--seed", "-1"]) == 2
    assert "argument --seed: '-1' is not a non-negative integer" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, square_spec, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    assert main(["analyze", str(square_spec), "--group-cap", "100"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_numerical_failure_exit_3(tmp_path, capsys):
    # Suite product 23 has two branch values inside the dedup ambiguity band.
    spec = tmp_path / "product23.json"
    spec.write_text(json.dumps(to_spec(suite_products()[23])))
    code = main(["analyze", str(spec)])
    captured = capsys.readouterr()
    assert code == 3
    assert "error [blaschkelab.errors.DegenerateClustering]" in captured.err


def test_verify_gamma(square_spec, capsys):
    code = main(
        ["verify-gamma", str(square_spec), "--budget", "20000", "--samples", "50"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["intertwining_residual"] < 1e-9
    assert report["isometry_error"] < 1e-2
    assert report["budget"] == 20000


def test_verify_gamma_order1_report_is_strict_json(tmp_path, capsys):
    # A disc automorphism has one-point fibers, so no separation: the report
    # says null, not the Infinity that RFC 8259 does not allow.
    spec = _write_spec(tmp_path, "mobius.json", 0, [[0.3, 0.1]])
    assert main(["verify-gamma", str(spec), "--budget", "10000", "--samples", "5"]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse)
    assert report["min_separation"] is None
    assert report["ok"]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_gamma_needs_a_sample(square_spec, capsys, samples):
    code = main(
        ["verify-gamma", str(square_spec), "--budget", "20000", "--samples", samples]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: samples must be at least 1\n"


def test_trace_loop_csv(tmp_path, square_spec):
    out = tmp_path / "trace.csv"
    code = main(
        ["trace-loop", str(square_spec), "--index", "0", "--out", str(out)]
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "re_w", "im_w", "re_z1", "im_z1", "re_z2", "im_z2"]
    data = [[float(x) for x in row] for row in rows[1:]]
    assert len(data) >= 3
    first, last = data[0], data[-1]
    assert first[0] == 0.0 and last[0] == 1.0
    assert first[1] == pytest.approx(last[1], abs=1e-12)
    assert first[2] == pytest.approx(last[2], abs=1e-12)
    assert last[3] == pytest.approx(first[5], abs=1e-8)
    assert last[4] == pytest.approx(first[6], abs=1e-8)
    assert last[5] == pytest.approx(first[3], abs=1e-8)
    assert last[6] == pytest.approx(first[4], abs=1e-8)


def test_trace_loop_bad_index(square_spec, capsys):
    assert main(["trace-loop", str(square_spec), "--index", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--report", "trace.json"]])
def test_trace_loop_takes_no_seed_or_report(square_spec, capsys, flag):
    # Nothing on the trace's path reads a seed, and the CSV goes to --out.
    assert main(["trace-loop", str(square_spec), "--index", "0", *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_trace_loop_closes_the_crossing_loop_of_suite_product27(tmp_path):
    # Product 27 has seven branch values within 3e-3 of 0; the closed
    # crossing loop of the first tracks whole and returns to the base.
    spec = tmp_path / "product27.json"
    spec.write_text(json.dumps(to_spec(suite_products()[27])))
    out = tmp_path / "trace.csv"
    assert main(["trace-loop", str(spec), "--index", "0", "--out", str(out)]) == 0
    with out.open() as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    assert rows[0][:3] == [0.0, *rows[-1][1:3]] and rows[-1][0] == 1.0


def test_zn_subcommand(capsys):
    assert main(["zn", "--n", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 2
    assert report["ok"]
    assert main(["zn", "--n", "1"]) == 0
    capsys.readouterr()


def test_reports_byte_identical(tmp_path, order3_spec):
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            ["analyze", str(order3_spec), "--report", str(out), "--seed", "7"]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
