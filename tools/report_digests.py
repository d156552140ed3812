"""Print one sha256 per command-line output of a fixed set of runs.

Run it in two checkouts and diff the outputs; equal lines mean byte-identical
reports, CSV traces, exit codes and error messages:

    python3 tools/report_digests.py > digests.txt

The set covers the seed-2026 suite of 30 random radius-0.6 products (orders
3-8, five each; the first 20 are the acceptance suite):

* `analyze --seed 0` on all 30 products;
* `analyze --seed 0` on draw 14 of the order-6 and order-10 sweeps and on
  draw 0 of the order-24 sweep (radius-0.6 products from
  `default_rng(1000 + order)`); the order-24 run solves 23 critical points
  by companion eigenvalues and exits 3 with the `BranchCountError` of the
  ramification check in `compute_representation`;
* `analyze --newton-tol 1e-30` and `analyze --dedup-tol 1e-7` on product 0;
* `zn --n 1..8` at `--seed 0` and `--seed 3`;
* `verify-gamma --budget 100000 --samples 10` and
  `verify-gamma --budget 1000000 --samples 10` on product 15 (at 10^6 every
  quadrature ring is split into several continuation paths);
* `verify-gamma --seed 3 --budget 100000 --samples 10` on product 15, so a
  seed that did not reach the cut disc's settings would show (every other
  `verify-gamma` run is at seed 0, the default);
* `verify-gamma --budget 10000 --samples 25` on products 0, 5, 10 and 19
  (orders 3-6), so labeled routes are compared at every acceptance order;
* `trace-loop --index 0` on products 5 and 27 (on product 27 the loop once
  ended in a `FiberCollision`).

Each digest covers the exit code, stdout and stderr of one run; with
`--dump DIR` that text is also written to DIR/<label>.txt, so a differing
digest can be diffed.  The package is imported from the `src/` directory
next to this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from blaschkelab.blaschke import random_product, to_spec  # noqa: E402
from blaschkelab.cli import main  # noqa: E402

SUITE_SEED = 2026
SUITE_ORDERS = (3, 4, 5, 6, 7, 8)
SUITE_PER_ORDER = 5
# (order, draw) of the sweep products in the set.
SWEEP_DRAWS = ((6, 14), (10, 14), (24, 0))


def suite_specs() -> list:
    rng = np.random.default_rng(SUITE_SEED)
    return [
        to_spec(random_product(order, rng, radius=0.6))
        for order in SUITE_ORDERS
        for _ in range(SUITE_PER_ORDER)
    ]


def sweep_spec(order: int, draw: int) -> dict:
    """Draw `draw` (from 0) of the order sweep's radius-0.6 products."""
    rng = np.random.default_rng(1000 + order)
    for _ in range(draw + 1):
        b = random_product(order, rng, radius=0.6)
    return to_spec(b)


def run(argv) -> str:
    """Exit code, stdout and stderr of one command-line run, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return f"{rc}\n{out.getvalue()}\n--stderr--\n{err.getvalue()}"


def runs(spec_paths, sweep_paths) -> list:
    """(label, argv) of every run in the set."""
    out = [
        (f"analyze/product{i:02d}", ["analyze", p, "--seed", "0"])
        for i, p in enumerate(spec_paths)
    ]
    out += [
        (f"analyze/sweep-order{order:02d}-draw{draw:02d}", ["analyze", p, "--seed", "0"])
        for (order, draw), p in zip(SWEEP_DRAWS, sweep_paths)
    ]
    out.append(("analyze/product00/newton-tol-1e-30",
                ["analyze", spec_paths[0], "--newton-tol", "1e-30"]))
    out.append(("analyze/product00/dedup-tol-1e-7",
                ["analyze", spec_paths[0], "--dedup-tol", "1e-7"]))
    for seed in (0, 3):
        out += [
            (f"zn/n{n}/seed{seed}", ["zn", "--n", str(n), "--seed", str(seed)])
            for n in range(1, 9)
        ]
    out.append(("verify-gamma/product15",
                ["verify-gamma", spec_paths[15], "--budget", "100000",
                 "--samples", "10", "--seed", "0"]))
    out.append(("verify-gamma/product15/seed3",
                ["verify-gamma", spec_paths[15], "--budget", "100000",
                 "--samples", "10", "--seed", "3"]))
    out.append(("verify-gamma/product15/budget1000000",
                ["verify-gamma", spec_paths[15], "--budget", "1000000",
                 "--samples", "10", "--seed", "0"]))
    out += [
        (f"verify-gamma/product{i:02d}/budget10000-samples25",
         ["verify-gamma", spec_paths[i], "--budget", "10000",
          "--samples", "25", "--seed", "0"])
        for i in (0, 5, 10, 19)
    ]
    out += [
        (f"trace-loop/product{i:02d}/index0", ["trace-loop", spec_paths[i], "--index", "0"])
        for i in (5, 27)
    ]
    return out


def main_digests(dump=None) -> None:
    if dump is not None:
        dump = Path(dump)
        dump.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:

        def write(name, spec) -> str:
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(spec))
            return str(path)

        paths = [write(f"product{i:02d}", spec) for i, spec in enumerate(suite_specs())]
        sweep_paths = [
            write(f"sweep-order{order:02d}-draw{draw:02d}", sweep_spec(order, draw))
            for order, draw in SWEEP_DRAWS
        ]
        for label, argv in runs(paths, sweep_paths):
            text = run(argv)
            if dump is not None:
                (dump / (label.replace("/", "_") + ".txt")).write_text(text)
            print(label, hashlib.sha256(text.encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", default=None, help="also write each run's text here")
    main_digests(parser.parse_args().dump)
