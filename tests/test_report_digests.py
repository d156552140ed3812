"""`tools/report_digests.py --diff`: the fields that differ between two dumps."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

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
