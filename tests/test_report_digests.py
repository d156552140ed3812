"""`tools/report_digests.py --diff`: the fields that differ between two dumps."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from blaschkelab import BlaschkeProduct, bundle, from_spec, tracking

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


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
    ]


def test_digest_inputs_keep_the_floor_tolerances():
    # The tracking and polish tolerances rise above their floors only on
    # products evaluated less accurately than the floors assume, so the
    # digests of these inputs do not move.  Two analyze-only inputs measure
    # an evaluation noise just above the polish floor, which analyze never
    # reads; the noisy witness is the one input above the tracking floor.
    digests = _load_script()
    products = {f"product{i:02d}": from_spec(s) for i, s in enumerate(digests.suite_specs())}
    for order, draw in digests.SWEEP_DRAWS + digests.FINE_DEDUP_DRAWS:
        products[f"sweep{order}-{draw}"] = digests.sweep_products(order, draw + 1)[draw]
    products["composition"] = from_spec(digests.composition_spec(*digests.COMPOSITION_DRAW))
    for n in range(1, 9):
        products[f"z^{n}"] = BlaschkeProduct(0.0, [0.0] * n)
    products["order1"] = from_spec(digests.ORDER1_SPEC)
    above_polish_floor = {"sweep24-0", "composition"}
    for name, b in products.items():
        assert tracking.newton_tol(b) == 1e-11, name
        if name in above_polish_floor:
            assert bundle._polish_tol(b) == b.eval_noise < 1.2e-14, name
        else:
            assert bundle._polish_tol(b) == 1e-14, name
    noisy = from_spec(digests.noisy_spec())
    assert tracking.newton_tol(noisy) == 10.0 * noisy.eval_noise > 1e-9
