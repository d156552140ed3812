"""`tools/report_digests.py --diff`: the fields that differ between two dumps."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

from blaschkelab import BlaschkeProduct, from_spec, random_product, tracking

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"
_FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _load_script():
    spec = importlib.util.spec_from_file_location("report_digests", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diff_lists_each_changed_field(tmp_path, capsys):
    digests = _load_script()
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    report = {"isometry_error": 0.002, "budget": 10, "ok": True,
              "input": {"zeros": [[0.1, 0.2]]}}
    moved = {**report, "isometry_error": 0.003, "input": {"zeros": [[0.1, 0.25]]}}
    for where, run in ((a, report), (b, moved)):
        (where / "same.txt").write_text(f"0\n{json.dumps(report)}\n\n--stderr--\n")
        (where / "moved.txt").write_text(f"0\n{json.dumps(run)}\n\n--stderr--\n")
    (a / "trace.txt").write_text("0\nt,x\n0.0,1\n\n--stderr--\n")
    (b / "trace.txt").write_text("1\nt,x\n0.0,2\n\n--stderr--\nboom")
    digests.main_diff(a, b)
    assert capsys.readouterr().out.splitlines() == [
        "moved",
        "  input.zeros[0][1]: 0.2 -> 0.25 (abs +5.000e-02, rel +2.500e-01)",
        "  isometry_error: 0.002 -> 0.003 (abs +1.000e-03, rel +5.000e-01)",
        "trace",
        "  exit code: 0 -> 1",
        "  line 2: '0.0,1' -> '0.0,2'",
        "  stderr: '' -> 'boom'",
        "2 of 3 runs differ",
        "1 of them differ in more than float values",
    ]


def _dump(where, runs):
    where.mkdir()
    for name, (rc, out, err) in runs.items():
        (where / f"{name}.txt").write_text(f"{rc}\n{out}\n--stderr--\n{err}")


def test_diff_counts_the_runs_that_differ_in_more_than_floats(tmp_path, capsys):
    # Only `floats` moves in float values alone; each other run differs in
    # one thing that is not a float.
    digests = _load_script()
    report = {"error": 0.002, "order": 6, "ok": True, "generator": [1, 0]}
    trace = "t,x\n0.0,1.5"
    a = {
        "floats": (0, json.dumps(report), ""),
        "trace-floats": (0, trace, ""),
        "exit-code": (0, json.dumps(report), ""),
        "stderr": (1, "", "NoConvergence"),
        "one-side-field": (0, json.dumps(report), ""),
        "int-field": (0, json.dumps(report), ""),
        "bool-field": (0, json.dumps(report), ""),
        "int-to-float": (0, json.dumps(report), ""),
        "trace-lines": (0, trace, ""),
        "one-side-run": (0, json.dumps(report), ""),
    }
    b = {
        **a,
        "floats": (0, json.dumps({**report, "error": 0.003}), ""),
        "trace-floats": (0, "t,x\n0.0,1.25", ""),
        "exit-code": (1, json.dumps(report), ""),
        "stderr": (1, "", "StepFloorReached"),
        "one-side-field": (0, json.dumps({**report, "extra": 0.5}), ""),
        "int-field": (0, json.dumps({**report, "order": 7}), ""),
        "bool-field": (0, json.dumps({**report, "ok": False}), ""),
        "int-to-float": (0, json.dumps({**report, "order": 6.5}), ""),
        "trace-lines": (0, trace + "\n0.1,1.5", ""),
    }
    del b["one-side-run"]
    _dump(tmp_path / "a", a)
    _dump(tmp_path / "b", b)
    digests.main_diff(tmp_path / "a", tmp_path / "b")
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "10 of 10 runs differ",
        "8 of them differ in more than float values",
    ]
    digests.main_diff(tmp_path / "a", tmp_path / "a")
    assert capsys.readouterr().out.splitlines() == [
        "0 of 10 runs differ",
        "0 of them differ in more than float values",
    ]


def test_digest_inputs_keep_the_floor_tolerances():
    # The tracking and polish tolerances rise above their floors only on
    # products evaluated less accurately than the floors assume.  Every
    # digest input, the noisy witness among them, every product of the
    # 50-digit fiber oracle (orders 16-40) and an order-64 draw evaluate
    # B from the zeros to within the floors, so they stay at them.
    digests = _load_script()
    products = {f"product{i:02d}": from_spec(s) for i, s in enumerate(digests.suite_specs())}
    for order, draw in digests.SWEEP_DRAWS:
        products[f"sweep{order}-{draw}"] = digests.sweep_products(order, draw + 1)[draw]
    products["composition"] = from_spec(digests.composition_spec(*digests.COMPOSITION_DRAW))
    products["noisy"] = from_spec(digests.noisy_spec())
    for n in range(1, 9):
        products[f"z^{n}"] = BlaschkeProduct(0.0, [0.0] * n)
    products["order1"] = from_spec(digests.ORDER1_SPEC)
    products["phi_c"] = from_spec(digests.phi_c_spec())
    products["c_of_z2"] = from_spec(digests.C_OF_Z2_SPEC)
    oracle = json.loads((_FIXTURES / "fiber_oracle.json").read_text())
    for case in oracle["products"]:
        products[f"oracle-{case['name']}"] = from_spec(case)
    products["random64"] = random_product(64, np.random.default_rng(64))
    for name, b in products.items():
        assert tracking.newton_tol(b) == 1e-11, name
        assert tracking._polish_tol(b) == 1e-14, name
