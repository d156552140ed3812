"""`tools/order_sweep.py`: the frozen outcomes of orders 6-12, and its flags."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location("order_sweep", _ROOT / "tools" / "order_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_order_sweep_outcomes_match_the_fixture():
    # Outcome (ok or the error class), group order and q of every draw at
    # orders 6-12 under the default settings.  A change to an entry is a
    # change of behaviour: re-freeze the fixture and record it.
    frozen = json.loads((_ROOT / "tests" / "fixtures" / "order_sweep.json").read_text())
    sweep = _load_script().sweep((6, 8, 10, 12))
    fields = ("order", "draw", "outcome", "group_order", "q")
    assert [{k: r[k] for k in fields} for r in sweep] == frozen
    assert len(frozen) == 60


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_dedup_tol_needs_a_finite_positive_value(capsys, value):
    # Refused by argparse before any draw is analyzed.
    with pytest.raises(SystemExit) as exc:
        _load_script().main(["--orders", "6", "--draws", "1", "--dedup-tol", value])
    assert exc.value.code == 2
    assert "is not a finite positive number" in capsys.readouterr().err
