"""Print one sha256 per command-line output of a fixed set of runs.

Run it in two checkouts and diff the outputs; equal lines mean byte-identical
reports, CSV traces, exit codes and error messages:

    python3 tools/report_digests.py > digests.txt

The set covers the seed-2026 suite of 30 random radius-0.6 products (orders
3-8, five each; the first 20 are the acceptance suite):

* `analyze` on all 30 products;
* `analyze` on draw 14 of the order-6 and order-10 sweeps and on
  draw 0 of the order-24 sweep (radius-0.6 products from
  `default_rng(1000 + order)`); the order-24 run finds 23 critical points
  by the pole form of B'/B, keeps their 23 values apart by their rounding
  radii and exits 0 with S_24, q = 2;
* `analyze` on draw 5 of the order-16 sweep, whose branch values lie about
  1e-9 apart; it exits 0 since crossing paths are cut into short pieces
  beside every branch value (a path segment continued whole once failed
  there);
* `analyze` on draw 4 of the order-20 sweep, whose lanes beside clustered
  branch values certify every step by Koebe balls, 42 of them steps that
  the former rule (separation above ten times the correction) refused and
  retried to halfway nodes; it exits 0 with S_20, q = 2;
* `analyze` on draw 3 of the order-24 sweep, where a lane end lies 9.7e-3
  from its root, inside its own error radius of 1.8e-2: the Koebe balls
  join the lanes at that junction, which a bound of a third of the start
  fiber's separation refused with `AmbiguousMatching` (exit 3); it exits 0
  with S_24, q = 2;
* `analyze` on draw 0 of the composition C3 o D4 of
  `tools/order_sweep.py --family composition` (order 12), whose group, the
  wreath product of S_4 and S_3, has three orbits on ordered pairs (equal
  sheets, one block of D, two blocks): a commutant that neither S_n (two
  orbits) nor the cyclic z^n covers;
* `analyze` on draw 5 of the radius-0.98 order-16 products of
  `default_rng(1698)`, zeros up to 0.98 in modulus: the input on which a
  less accurate kernel shows first.  Its evaluation noise on the unit
  circle was 1.6e-10 under the P/Q Horner kernel that the factored kernel
  replaced, which raised its tracking tolerance to about 1.6e-9; it is
  1.8e-15 now, and the run is ok (S_16, q = 2) at the floor 1e-11, which
  its report echoes;
* `zn --n 1..8`;
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
  branch value 0 of local degree 3, whose innermost rows, down to ring 0,
  each take one step from the ray seed;
* `analyze` and `verify-gamma --budget 10000 --samples 5` on
  phi_c(z^4) = (z^4 - c) / (1 - conj(c) z^4), c = 0.3 + 0.2i, whose zeros
  are the fourth roots of c: its critical point 0 of multiplicity 3 is no
  zero, so it is merged from four eigenvalues of the pole form
  (`blaschke._merge_clusters`), the one multiple critical point of the set
  that is not a repeated zero; one chart about -c of local degree 4;
* `analyze` on C(z^2), zeros 0, 0, 1/2 and -1/2, the example of the README's
  quick start: q = 3 with projections of ranks 1, 1 and 2, whose two rank-1
  projections tie and come in the order of their least Fourier mode of the
  boundary cycle (the constants first);
* `trace-loop --index 0` on products 5 and 27 (on product 27 the loop once
  ended in a `FiberCollision`), whose way back is cut again from its far
  end, as Koebe balls refuse the reversed pieces of the path there;
* two runs that exit 2 with a one-line message: `analyze` on the malformed
  spec {"theta": 0, "zeros": [0.1, 0.2]}, whose zeros are not [re, im]
  pairs, and `analyze --dedup-tol 1e-12` on product 0, a flag that no
  longer exists;
* `analyze --seed -1` on product 0, which exits 2 naming `--seed` before
  any analysis runs (`analyze` accepts a seed and reads it nowhere: its
  reports draw nothing at random).

Each digest covers the exit code, stdout and stderr of one run; with
`--dump DIR` that text is also written to DIR/<label>.txt, so a differing
digest can be diffed.  Given two such directories,

    python3 tools/report_digests.py --diff DIR_A DIR_B

prints, per run that differs, its exit codes and every JSON field of its
report that differs, with the absolute and relative change of a number
(output that is not JSON, such as a CSV trace, is compared line by line),
then how many runs differ and how many of those differ in more than float
values: an exit code, stderr, a run or field on one side only, a field
whose two values are not both floats, or the line count of a trace.
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

from blaschkelab.blaschke import BlaschkeProduct, random_product, to_spec  # noqa: E402
from blaschkelab.cli import main  # noqa: E402
from order_sweep import composition_products, sweep_products  # noqa: E402

SUITE_SEED = 2026
SUITE_ORDERS = (3, 4, 5, 6, 7, 8)
SUITE_PER_ORDER = 5
# (order, draw) of the sweep products in the set.
SWEEP_DRAWS = ((6, 14), (10, 14), (16, 5), (20, 4), (24, 0), (24, 3))
# (order, rng seed, radius, draw) of a product with zeros up to 0.98 in
# modulus, which the P/Q kernel evaluated less accurately than the floor of
# the tracking tolerance assumes.
NOISY_DRAW = (16, 1698, 0.98, 5)
# (c, d, draw) of the composition C o D in the set.
COMPOSITION_DRAW = (3, 4, 0)
# A disc automorphism: order 1, no branch value.
ORDER1_SPEC = {"theta": 0, "zeros": [[0.3, 0.1]]}
# z^3: one chart, of local degree 3.
CUBE_SPEC = {"theta": 0, "zeros": [[0, 0]] * 3}
# The c of phi_c(z^4), whose critical point 0 is merged from the pole form.
PHI_C = 0.3 + 0.2j
# C(z^2), the README's quick-start example: q = 3, ranks 1, 1 and 2.
C_OF_Z2_SPEC = {"theta": 0, "zeros": [[0, 0], [0, 0], [0.5, 0], [-0.5, 0]]}
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


def phi_c_spec() -> dict:
    """phi_c(z^4) for c = `PHI_C`: its zeros are the fourth roots of c."""
    return to_spec(BlaschkeProduct(0.0, PHI_C**0.25 * np.exp(0.5j * np.pi * np.arange(4))))


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
         phi_c_path, c_of_z2_path, malformed_path) -> list:
    """(label, argv) of every run in the set."""
    out = [
        (f"analyze/product{i:02d}", ["analyze", p])
        for i, p in enumerate(spec_paths)
    ]
    out += [
        (f"analyze/sweep-order{order:02d}-draw{draw:02d}", ["analyze", p])
        for (order, draw), p in zip(SWEEP_DRAWS, sweep_paths)
    ]
    out.append(("analyze/composition-C{}oD{}-draw{:02d}".format(*COMPOSITION_DRAW),
                ["analyze", composition_path]))
    out.append((f"analyze/noisy-order{NOISY_DRAW[0]:02d}-draw{NOISY_DRAW[3]:02d}",
                ["analyze", noisy_path]))
    out += [(f"zn/n{n}", ["zn", "--n", str(n)]) for n in range(1, 9)]
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
    out.append(("analyze/phi-c-z4", ["analyze", phi_c_path]))
    out.append(("verify-gamma/phi-c-z4/budget10000-samples5",
                ["verify-gamma", phi_c_path, "--budget", "10000", "--samples", "5"]))
    out.append(("analyze/c-of-z2", ["analyze", c_of_z2_path]))
    out += [
        (f"trace-loop/product{i:02d}/index0", ["trace-loop", spec_paths[i], "--index", "0"])
        for i in (5, 27)
    ]
    out.append(("analyze/malformed-zeros", ["analyze", malformed_path]))
    out.append(("analyze/product00/dedup-tol-1e-12",
                ["analyze", spec_paths[0], "--dedup-tol", "1e-12"]))
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
    """(line, floats only) per field of the JSON texts `a` and `b` that
    differs, floats only when both values are floats; for text that is not
    JSON, one line per differing line, and one more, not floats only, when
    the line counts differ."""
    try:
        fa, fb = flatten(json.loads(a)), flatten(json.loads(b))
    except json.JSONDecodeError:
        la, lb = a.splitlines(), b.splitlines()
        lines = [
            (f"line {i + 1}: {x!r} -> {y!r}", True)
            for i, (x, y) in enumerate(zip(la, lb)) if x != y
        ]
        if len(la) != len(lb):
            lines.append((f"{len(la)} -> {len(lb)} lines", False))
        return lines
    lines = []
    for path in sorted(fa.keys() | fb.keys()):
        x, y = fa.get(path, "<absent>"), fb.get(path, "<absent>")
        if x == y and type(x) is type(y):
            continue
        if is_number(x) and is_number(y):
            change = y - x
            rel = f"{change / abs(x):+.3e}" if x else "inf"
            line = f"{path}: {x!r} -> {y!r} (abs {change:+.3e}, rel {rel})"
        else:
            line = f"{path}: {x!r} -> {y!r}"
        lines.append((line, isinstance(x, float) and isinstance(y, float)))
    return lines


def main_diff(dir_a, dir_b) -> None:
    """Print the differing fields of every run dumped in both directories,
    then how many runs differ, and how many of those differ in more than
    float values: an exit code, stderr, a run or field on one side only, a
    field whose two values are not both floats, or a line count."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.name for p in dir_a.glob("*.txt")} | {p.name for p in dir_b.glob("*.txt")})
    differing = beyond_floats = 0
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists()):
            differing += 1
            beyond_floats += 1
            print(f"{name[:-4]}: only in {dir_a if pa.exists() else dir_b}")
            continue
        (rc_a, out_a, err_a), (rc_b, out_b, err_b) = (
            split_run(p.read_text()) for p in (pa, pb)
        )
        lines = [(f"exit code: {rc_a} -> {rc_b}", False)] if rc_a != rc_b else []
        lines += field_changes(out_a, out_b) if out_a != out_b else []
        lines += [(f"stderr: {err_a!r} -> {err_b!r}", False)] if err_a != err_b else []
        if lines:
            differing += 1
            beyond_floats += not all(floats for _, floats in lines)
            print(name[:-4])
            for line, _ in lines:
                print(f"  {line}")
    print(f"{differing} of {len(names)} runs differ")
    print(f"{beyond_floats} of them differ in more than float values")


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
            for order, draw in SWEEP_DRAWS
        ]
        composition_path = write("composition", composition_spec(*COMPOSITION_DRAW))
        noisy_path = write("noisy", noisy_spec())
        order1_path = write("order1", ORDER1_SPEC)
        cube_path = write("cube", CUBE_SPEC)
        phi_c_path = write("phi-c", phi_c_spec())
        c_of_z2_path = write("c-of-z2", C_OF_Z2_SPEC)
        malformed_path = write("malformed", MALFORMED_SPEC)
        for label, argv in runs(paths, sweep_paths, composition_path, noisy_path,
                                order1_path, cube_path, phi_c_path, c_of_z2_path,
                                malformed_path):
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
