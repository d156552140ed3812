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
* `analyze --dedup-tol 1e-7` on product 0;
* `analyze --seed 0 --dedup-tol 1e-12` on draw 5 of the order-16 sweep,
  whose branch values lie about 1e-9 apart; it exits 0 since crossing
  paths are cut into short pieces beside every branch value (it reached the
  step floor while each path segment was continued whole);
* `analyze --seed 0 --dedup-tol 1e-12` on draw 4 of the order-20 sweep,
  whose lanes beside clustered branch values reject many steps and retry
  them to inserted halfway nodes (about 1.5 s), so the retry path is
  covered;
* `analyze --seed 0` on draw 0 of the composition C3 o D4 of
  `tools/order_sweep.py --family composition` (order 12), whose group, the
  wreath product of S_4 and S_3, has three orbits on ordered pairs (equal
  sheets, one block of D, two blocks): a commutant that neither S_n (two
  orbits) nor the cyclic z^n covers;
* `analyze --seed 0` on draw 5 of the radius-0.98 order-16 products of
  `default_rng(1698)`, whose evaluation noise on the unit circle is 1.6e-10:
  it is ok (S_16, q = 2) under the tracking tolerance derived from that
  noise, about 1.6e-9, which its report echoes (under a fixed 1e-11 it
  reached the step floor);
* `zn --n 1..8` at `--seed 0` and `--seed 3`;
* `verify-gamma --budget 100000 --samples 10` and
  `verify-gamma --budget 1000000 --samples 10` on product 15 (the quadrature
  grid is capped well below 10^5 points, so the two runs give one report but
  for the budget);
* `verify-gamma --seed 3 --budget 100000 --samples 10` on product 15, so a
  seed that did not reach the labeled samples would show (every other
  `verify-gamma` run is at seed 0, the default; the quadrature grid takes no
  seed);
* `verify-gamma --budget 10000 --samples 25` on products 0, 5, 10 and 19
  (orders 3-6), so labeled routes are compared at every acceptance order;
* `verify-gamma --budget 10000 --samples 5` on the order-1 product
  {"theta": 0, "zeros": [[0.3, 0.1]]}: a single quadrature chart about 0,
  and a `min_separation` of null, since one-point fibers have none;
* `verify-gamma --budget 10000 --samples 5` on z^3: a single chart about the
  branch value 0 of local degree 3, whose innermost rows within the gate of
  0 are solved by eigenvalues and the others by one step from the ray seed;
* `trace-loop --index 0` on products 5 and 27 (on product 27 the loop once
  ended in a `FiberCollision`);
* two runs that exit 2 with a one-line message: `analyze` on the malformed
  spec {"theta": 0, "zeros": [0.1, 0.2]}, whose zeros are not [re, im]
  pairs, and `analyze --dedup-tol nan` on product 0;
* `analyze --seed -1` on product 0, which exits 2 naming `--seed` before
  any analysis runs.

Each digest covers the exit code, stdout and stderr of one run; with
`--dump DIR` that text is also written to DIR/<label>.txt, so a differing
digest can be diffed.  Given two such directories,

    python3 tools/report_digests.py --diff DIR_A DIR_B

prints, per run that differs, its exit codes and every JSON field of its
report that differs, with the absolute and relative change of a number
(output that is not JSON, such as a CSV trace, is compared line by line).
The package is imported from the `src/` directory next to this script.
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
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from blaschkelab.blaschke import random_product, to_spec  # noqa: E402
from blaschkelab.cli import main  # noqa: E402
from order_sweep import composition_products, sweep_products  # noqa: E402

SUITE_SEED = 2026
SUITE_ORDERS = (3, 4, 5, 6, 7, 8)
SUITE_PER_ORDER = 5
# (order, draw) of the sweep products in the set, run at the default
# settings and at --dedup-tol 1e-12 only.
SWEEP_DRAWS = ((6, 14), (10, 14), (24, 0))
FINE_DEDUP_DRAWS = ((16, 5), (20, 4))
# (order, rng seed, radius, draw) of a product evaluated less accurately than
# the floor of the tracking tolerance assumes.
NOISY_DRAW = (16, 1698, 0.98, 5)
# (c, d, draw) of the composition C o D in the set.
COMPOSITION_DRAW = (3, 4, 0)
# A disc automorphism: order 1, no branch value.
ORDER1_SPEC = {"theta": 0, "zeros": [[0.3, 0.1]]}
# z^3: one chart, of local degree 3.
CUBE_SPEC = {"theta": 0, "zeros": [[0, 0]] * 3}
# Zeros that are not [re, im] pairs: a usage error.
MALFORMED_SPEC = {"theta": 0, "zeros": [0.1, 0.2]}


def suite_specs() -> list:
    rng = np.random.default_rng(SUITE_SEED)
    return [
        to_spec(random_product(order, rng, radius=0.6))
        for order in SUITE_ORDERS
        for _ in range(SUITE_PER_ORDER)
    ]


def noisy_spec() -> dict:
    """The product of `NOISY_DRAW`."""
    order, seed, radius, draw = NOISY_DRAW
    rng = np.random.default_rng(seed)
    return to_spec([random_product(order, rng, radius=radius) for _ in range(draw + 1)][draw])


def run(argv) -> str:
    """Exit code, stdout and stderr of one command-line run, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return f"{rc}\n{out.getvalue()}\n--stderr--\n{err.getvalue()}"


def composition_spec(c: int, d: int, draw: int) -> dict:
    """Draw `draw` (from 0) of the composition family's pair (c, d)."""
    return to_spec(composition_products(c, d, draw + 1)[draw][0])


def runs(spec_paths, sweep_paths, composition_path, noisy_path, order1_path, cube_path,
         malformed_path) -> list:
    """(label, argv) of every run in the set."""
    out = [
        (f"analyze/product{i:02d}", ["analyze", p, "--seed", "0"])
        for i, p in enumerate(spec_paths)
    ]
    out += [
        (f"analyze/sweep-order{order:02d}-draw{draw:02d}", ["analyze", p, "--seed", "0"])
        for (order, draw), p in zip(SWEEP_DRAWS, sweep_paths)
    ]
    out += [
        (f"analyze/sweep-order{order:02d}-draw{draw:02d}/dedup-tol-1e-12",
         ["analyze", p, "--seed", "0", "--dedup-tol", "1e-12"])
        for (order, draw), p in zip(FINE_DEDUP_DRAWS, sweep_paths[len(SWEEP_DRAWS):])
    ]
    out.append(("analyze/composition-C{}oD{}-draw{:02d}".format(*COMPOSITION_DRAW),
                ["analyze", composition_path, "--seed", "0"]))
    out.append((f"analyze/noisy-order{NOISY_DRAW[0]:02d}-draw{NOISY_DRAW[3]:02d}",
                ["analyze", noisy_path, "--seed", "0"]))
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
    out.append(("verify-gamma/order1/budget10000-samples5",
                ["verify-gamma", order1_path, "--budget", "10000", "--samples", "5"]))
    out.append(("verify-gamma/cube/budget10000-samples5",
                ["verify-gamma", cube_path, "--budget", "10000", "--samples", "5"]))
    out += [
        (f"trace-loop/product{i:02d}/index0", ["trace-loop", spec_paths[i], "--index", "0"])
        for i in (5, 27)
    ]
    out.append(("analyze/malformed-zeros", ["analyze", malformed_path]))
    out.append(("analyze/product00/dedup-tol-nan",
                ["analyze", spec_paths[0], "--dedup-tol", "nan"]))
    out.append(("analyze/product00/seed-minus-1",
                ["analyze", spec_paths[0], "--seed", "-1"]))
    return out


def split_run(text: str) -> tuple:
    """(exit code, stdout, stderr) of one run's text as `run` writes it."""
    rc, _, rest = text.partition("\n")
    out, _, err = rest.rpartition("\n--stderr--\n")
    return rc, out, err


def flatten(value, prefix="") -> dict:
    """JSON value as {dotted path: leaf}; list items are indexed as [i]."""
    if isinstance(value, dict):
        items = [(f"{prefix}.{k}" if prefix else str(k), v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{prefix}[{i}]", v) for i, v in enumerate(value)]
    else:
        return {prefix: value}
    out = {}
    for path, v in items:
        out.update(flatten(v, path))
    return out


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def field_changes(a: str, b: str) -> list:
    """One line per field of the JSON texts `a` and `b` that differs; for
    text that is not JSON, one line per differing line."""
    try:
        fa, fb = flatten(json.loads(a)), flatten(json.loads(b))
    except json.JSONDecodeError:
        la, lb = a.splitlines(), b.splitlines()
        lines = [
            f"line {i + 1}: {x!r} -> {y!r}"
            for i, (x, y) in enumerate(zip(la, lb)) if x != y
        ]
        if len(la) != len(lb):
            lines.append(f"{len(la)} -> {len(lb)} lines")
        return lines
    lines = []
    for path in sorted(fa.keys() | fb.keys()):
        x, y = fa.get(path, "<absent>"), fb.get(path, "<absent>")
        if x == y and type(x) is type(y):
            continue
        if is_number(x) and is_number(y):
            change = y - x
            rel = f"{change / abs(x):+.3e}" if x else "inf"
            lines.append(f"{path}: {x!r} -> {y!r} (abs {change:+.3e}, rel {rel})")
        else:
            lines.append(f"{path}: {x!r} -> {y!r}")
    return lines


def main_diff(dir_a, dir_b) -> None:
    """Print the differing fields of every run dumped in both directories."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.name for p in dir_a.glob("*.txt")} | {p.name for p in dir_b.glob("*.txt")})
    differing = 0
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists()):
            differing += 1
            print(f"{name[:-4]}: only in {dir_a if pa.exists() else dir_b}")
            continue
        (rc_a, out_a, err_a), (rc_b, out_b, err_b) = (
            split_run(p.read_text()) for p in (pa, pb)
        )
        lines = [f"exit code: {rc_a} -> {rc_b}"] if rc_a != rc_b else []
        lines += field_changes(out_a, out_b) if out_a != out_b else []
        lines += [f"stderr: {err_a!r} -> {err_b!r}"] if err_a != err_b else []
        if lines:
            differing += 1
            print(name[:-4])
            for line in lines:
                print(f"  {line}")
    print(f"{differing} of {len(names)} runs differ")


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
            write(f"sweep-order{order:02d}-draw{draw:02d}",
                  to_spec(sweep_products(order, draw + 1)[draw]))
            for order, draw in SWEEP_DRAWS + FINE_DEDUP_DRAWS
        ]
        composition_path = write("composition", composition_spec(*COMPOSITION_DRAW))
        noisy_path = write("noisy", noisy_spec())
        order1_path = write("order1", ORDER1_SPEC)
        cube_path = write("cube", CUBE_SPEC)
        malformed_path = write("malformed", MALFORMED_SPEC)
        for label, argv in runs(paths, sweep_paths, composition_path, noisy_path,
                                order1_path, cube_path, malformed_path):
            text = run(argv)
            if dump is not None:
                (dump / (label.replace("/", "_") + ".txt")).write_text(text)
            print(label, hashlib.sha256(text.encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", default=None, help="also write each run's text here")
    parser.add_argument(
        "--diff", nargs=2, metavar=("DIR_A", "DIR_B"), default=None,
        help="compare two --dump directories instead of running",
    )
    args = parser.parse_args()
    if args.diff:
        main_diff(*args.diff)
    else:
        main_digests(args.dump)
