"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Named outside pytest's ``test_*.py`` pattern so the repository's test run
does not pick up the slow end-to-end check below.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from blaschkelab import cli, random_product, to_spec  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_inputs_are_deterministic_per_seed(tmp_path):
    for wl in workloads.WORKLOADS.values():
        first, second = tmp_path / f"{wl.name}-1", tmp_path / f"{wl.name}-2"
        first.mkdir()
        second.mkdir()
        data = [[inp["data"] for inp in wl.make_inputs(3, d)] for d in (first, second)]
        assert data[0] == data[1], wl.name


def test_first_twenty_products_are_the_acceptance_suite():
    rng = np.random.default_rng(2026)
    recipe = [to_spec(random_product(order, rng)) for order in (3, 4, 5, 6) for _ in range(5)]
    assert workloads.suite_specs()[:20] == recipe


def test_frozen_record_covers_the_suite():
    frozen = json.loads(workloads.FROZEN.read_text())
    assert frozen["specs_sha256"] == workloads.digest(workloads.suite_specs())
    errors = [o["error"] for o in frozen["outcomes"] if not o["ok"]]
    assert len(frozen["outcomes"]) == 30
    assert sorted(errors) == ["DegenerateClustering", "DegenerateClustering", "FiberCollision"]


def _ops(times, failed=()):
    return [{"s": t, "status": "expected" if i in failed else "ok"} for i, t in enumerate(times)]


def test_failures_rank_above_successes():
    times = [0.1 * (i + 1) for i in range(20)]
    phase = 100.0
    p50, _ = run.rank_stat(_ops(times), phase, 50)
    tail, beyond = run.rank_stat(_ops(times), phase, 85)
    assert (p50, tail, beyond) == (times[9], times[16], 3)
    # Fast operations failing push both percentiles up, never down.
    worse_p50, _ = run.rank_stat(_ops(times, failed={0, 1, 2}), phase, 50)
    worse_tail, _ = run.rank_stat(_ops(times, failed={0, 1, 2}), phase, 85)
    assert worse_p50 > p50 and worse_tail > tail
    assert run.rank_stat(_ops(times, failed={0, 1, 2, 3}), phase, 85)[0] == phase


def test_median_band_averages_the_middle_fifth_and_ranks_failures_last():
    times = [0.1 * (i + 1) for i in range(20)]
    phase = 100.0
    p50 = run.band_mean(_ops(times), phase, *run.P50_BAND)
    assert p50 == pytest.approx(sum(times[7:12]) / 5)
    assert run.band_mean(_ops(times, failed={0, 1, 2}), phase, *run.P50_BAND) > p50
    # With more than half failing, the median reads as the window length.
    assert run.band_mean(_ops(times, failed=set(range(13))), phase, 45, 60) == phase


def test_wrapped_attributes_are_the_originals_after_a_traced_run(tmp_path):
    before = {(owner, attr): vars(owner).get(attr) for owner, attr, _ in tracer.SITES}
    spec = tmp_path / "order3.json"
    spec.write_text(json.dumps({"theta": 0.0, "zeros": [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}))
    t = tracer.Tracer()
    t.install()
    try:
        with t.span("op"):
            assert cli.main(["analyze", str(spec), "--report", str(tmp_path / "r.json")]) == 0
    finally:
        assert t.restore()
    assert t.missing == []
    for (owner, attr), original in before.items():
        assert vars(owner).get(attr) is original, f"{owner.__name__}.{attr}"
    metrics = t.summary("op")["metrics"]
    assert metrics["tracking.track.calls"] > 0 and metrics["tracking.track.steps"] > 0
    assert metrics["monodromy.group_closure.elements"] == 6
    assert metrics["commutant.minimal_projections.attempts"] >= 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze_suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_one_command_prints_every_metric_for_every_workload():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    for name in run.NAMES:
        for metric, unit in run.END_TO_END.items():
            pattern = rf"^  {name}\.{metric} = \S+ {re.escape(unit)}$"
            assert re.search(pattern, proc.stdout, re.M), (name, metric)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["analyze_suite.ok_share"]["value"] == pytest.approx(27 / 30)
    for name in run.NAMES[1:]:
        assert result["metrics"][f"{name}.ok_share"]["value"] == 1.0
