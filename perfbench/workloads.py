"""The three benchmark workloads: input generators, one operation each, and
the correctness gate every operation passes through.

Each workload is a closed loop driven by one client: the next operation
starts only after the previous one returned.  An operation is timed around
the call into the program alone; the gate that judges its output runs
outside the timed region and returns one of

* ``"ok"``        completed and passed every check;
* ``"expected"``  raised the typed error frozen for that input at the seed
                  commit (counts against ``ok_share``, but is not wrong);
* ``"mismatch"``  any other outcome: a wrong result, an unexpected error, or
                  a result outside the program's own bounds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from blaschkelab import bundle, cli
from blaschkelab.blaschke import from_spec, random_product, to_spec
from blaschkelab.errors import ToolkitError

FROZEN = Path(__file__).resolve().parent / "frozen" / "analyze_suite_2026.json"

# The analyze suite: random radius-0.6 products, five per order, drawn in
# order from one generator.  At SUITE_SEED its first 20 products are the
# acceptance suite (orders 3-6).
SUITE_SEED = 2026
SUITE_ORDERS = (3, 4, 5, 6, 7, 8)
SUITE_PER_ORDER = 5
SUITE_RADIUS = 0.6

# verify-gamma at the CLI's default budget with 10 tracked samples: one
# tenth of the 10^6 / 100 acceptance setting on both axes, so quadrature and
# labeled continuation keep their relative weight, at a cost that leaves
# room for several operations per run.
GAMMA_PRODUCT = 15
GAMMA_BUDGET = 10 ** 5
GAMMA_SAMPLES = 10
ISOMETRY_BOUND = 1e-2
INTERTWINING_BOUND = 1e-8

# Labeled continuation on the acceptance suite, at a quarter of criterion 6's
# 100 samples per product; the first 25 sample points are the same ones.
LABELED_PRODUCTS = 20
LABELED_SAMPLES = 25
MIN_SEPARATION = 1e-4

_ERROR_RE = re.compile(r"error \[(?:\w+\.)*(\w+)\]")


@dataclass
class Workload:
    """One workload: its inputs for a seed and how to run and judge one.

    Every input dict carries ``label`` and ``data``, the product spec the
    program receives.
    """

    name: str
    make_inputs: Callable  # (seed, workdir) -> list of input dicts
    call: Callable  # (input) -> raw result; the timed part
    check: Callable  # (input, raw) -> (status, detail)
    tail_pct: float


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of an input list."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def suite_specs(seed: int = SUITE_SEED) -> list:
    """Product specs of the analyze suite, in draw order."""
    rng = np.random.default_rng(seed)
    return [
        to_spec(random_product(order, rng, radius=SUITE_RADIUS))
        for order in SUITE_ORDERS
        for _ in range(SUITE_PER_ORDER)
    ]


def cycle_type(images) -> list:
    lengths, seen = [], set()
    for start in range(len(images)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = images[j]
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths, reverse=True)


def analyze_record(rc: int, report: dict | None, stderr: str) -> dict:
    """Labeling-independent outcome of one `analyze` call."""
    if rc == 3:
        match = _ERROR_RE.search(stderr)
        return {"ok": False, "error": match.group(1) if match else stderr.strip()}
    if report is None:
        return {"ok": False, "error": f"exit code {rc} without a report"}
    return {
        "ok": bool(report["ok"]),
        "q_orbitals": report["q_orbitals"],
        "commutant_dim": report["commutant_dim"],
        "group_order": report["group_order"],
        "cycle_types": sorted(cycle_type(g) for g in report["generators"]),
    }


def write_specs(specs, workdir: Path, prefix: str) -> list:
    paths = []
    for i, spec in enumerate(specs):
        path = workdir / f"{prefix}{i:02d}.json"
        path.write_text(json.dumps(spec))
        paths.append(path)
    return paths


def run_cli(argv) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def take_report(path: Path):
    """The report an operation wrote, removed so the next one starts clean."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    finally:
        path.unlink(missing_ok=True)


# --- analyze_suite ---------------------------------------------------------


def _analyze_inputs(seed, workdir):
    specs = suite_specs()
    frozen = json.loads(FROZEN.read_text())
    if frozen["specs_sha256"] != digest(specs):
        raise RuntimeError("analyze suite inputs differ from the frozen record")
    paths = write_specs(specs, workdir, "analyze")
    return [
        {
            "label": f"order{len(spec['zeros'])}-{i}",
            "data": spec,
            "spec": str(path),
            "report": str(workdir / f"analyze{i:02d}.report.json"),
            "expect": frozen["outcomes"][i],
        }
        for i, (spec, path) in enumerate(zip(specs, paths))
    ]


def _analyze_call(inp):
    return run_cli(["analyze", inp["spec"], "--report", inp["report"], "--seed", "0"])


def _analyze_check(inp, raw):
    rc, stderr = raw
    got = analyze_record(rc, take_report(Path(inp["report"])), stderr)
    expect = inp["expect"]
    if got == expect:
        return ("ok" if got["ok"] else "expected"), got
    if "error" in expect:
        # A product frozen as failing may fail the same way or succeed;
        # a success must pass the program's own theorem checks.
        if got["ok"] and got["q_orbitals"] == got["commutant_dim"]:
            return "ok", got
    return "mismatch", {"got": got, "expected": expect}


# --- verify_gamma ----------------------------------------------------------


def _gamma_inputs(seed, workdir):
    spec = suite_specs()[GAMMA_PRODUCT]
    (path,) = write_specs([spec], workdir, "gamma")
    return [{
        "label": f"product{GAMMA_PRODUCT}",
        "data": spec,
        "spec": str(path),
        "report": str(workdir / "gamma.report.json"),
    }]


def _gamma_call(inp):
    return run_cli([
        "verify-gamma", inp["spec"],
        "--budget", str(GAMMA_BUDGET),
        "--samples", str(GAMMA_SAMPLES),
        "--seed", "0",
        "--report", inp["report"],
    ])


def _gamma_check(inp, raw):
    rc, stderr = raw
    report = take_report(Path(inp["report"]))
    if report is None:
        return "mismatch", {"rc": rc, "stderr": stderr.strip()}
    detail = {
        "rc": rc,
        "isometry_error": report["isometry_error"],
        "intertwining_residual": report["intertwining_residual"],
        "min_separation": report["min_separation"],
    }
    ok = (
        rc == 0
        and report["isometry_error"] <= ISOMETRY_BOUND
        and report["intertwining_residual"] <= INTERTWINING_BOUND
    )
    return ("ok" if ok else "mismatch"), detail


# --- labeled_fibers --------------------------------------------------------


def _labeled_inputs(seed, workdir):
    specs = suite_specs()[:LABELED_PRODUCTS]
    return [
        {"label": f"order{len(s['zeros'])}-{i}", "data": s, "b": from_spec(s)}
        for i, s in enumerate(specs)
    ]


def _labeled_call(inp):
    try:
        return bundle.verify_disjoint_images(inp["b"], LABELED_SAMPLES, seed=0)
    except ToolkitError as exc:
        return exc


def _labeled_check(inp, raw):
    if isinstance(raw, Exception):
        return "mismatch", {"error": type(raw).__name__}
    return ("ok" if raw > MIN_SEPARATION else "mismatch"), {"min_separation": raw}


# Each tail percentile sits mid-way inside one group of similar inputs, so a
# run with one pass more or less does not move it across a group boundary:
# the order-8 successes (analyze_suite), the order-6 products
# (labeled_fibers).  verify_gamma repeats one input, so its tail is the slowest repeat or so.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analyze_suite",
            make_inputs=_analyze_inputs,
            call=_analyze_call,
            check=_analyze_check,
            tail_pct=85.0,
        ),
        Workload(
            name="verify_gamma",
            make_inputs=_gamma_inputs,
            call=_gamma_call,
            check=_gamma_check,
            tail_pct=90.0,
        ),
        Workload(
            name="labeled_fibers",
            make_inputs=_labeled_inputs,
            call=_labeled_call,
            check=_labeled_check,
            tail_pct=85.0,
        ),
    )
}

