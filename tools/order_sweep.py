"""Run `analyze` on the pinned draws of the order sweep and count the outcomes.

The sweep draws radius-0.6 products from `default_rng(1000 + order)`: 15
per order at orders 6-16, 6 at orders 18, 20 and 24, and 2 at order 32.
Each draw is analyzed by `analyze`:

    python3 tools/order_sweep.py
    python3 tools/order_sweep.py --orders 16 18
    python3 tools/order_sweep.py --orders 20 --draws 5

It prints one line per draw (order, draw, outcome, group order |G|, orbital
count q, and the w named by the message of a failure), where the outcome is
`ok`, `not-ok` when a check of the analysis fails, or the class of the typed
error it raised; then the count table, one row per order.  The output is
deterministic.  `tests/fixtures/order_sweep.json` freezes orders 6-12.

`--family composition` runs compositions B = C o D instead, of a
radius-0.6 product C of order c after one D of order d, three draws per
pair (c, d) from `default_rng(3000 + 100 c + d)`, C drawn before D:

    python3 tools/order_sweep.py --family composition
    python3 tools/order_sweep.py --family composition --pairs 3x6

The monodromy group of a composition lies in the wreath product of S_d and
S_c, whose blocks are the fibers of D; a generic draw gives the whole wreath
product, of order (d!)^c c!, and q = 3 orbits on ordered pairs (equal,
in one block, in two blocks).  Each line also says whether |G| is that
order, and `crit_err`, the largest distance between the critical points
`branch_data` computes and the exact ones (D's critical points and the
fibers of D over C's, `critical_error`); the table has one row per pair.
`tests/fixtures/composition_sweep.json` freezes the pairs 2x4, 3x4 and 4x4.
The package is imported from the `src/` directory next to this script.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from blaschkelab.analysis import analyze  # noqa: E402
from blaschkelab.blaschke import BlaschkeProduct, random_product  # noqa: E402
from blaschkelab.errors import ToolkitError  # noqa: E402
from blaschkelab.tracking import _fiber_batch  # noqa: E402

# Draws per order.
DRAWS = {**{order: 15 for order in range(6, 17, 2)}, 18: 6, 20: 6, 24: 6, 32: 2}
# (c, d) pairs of the composition family, and its draws per pair.
PAIRS = ((2, 4), (3, 4), (4, 4), (3, 6), (4, 6), (4, 8), (6, 6), (5, 8))
COMPOSITION_DRAWS = 3

_W = re.compile(r"w=(\([^)]*\)|\S+)")


def sweep_products(order: int, draws: int) -> list:
    """The first `draws` radius-0.6 products of the sweep at `order`."""
    rng = np.random.default_rng(1000 + order)
    return [random_product(order, rng, radius=0.6) for _ in range(draws)]


def _quotient_product(theta, zeros, z) -> complex:
    """e^{i theta} prod (z - a) / (1 - conj(a) z) at a scalar z, one factor
    at a time in numpy, apart from the package's B/B' kernel."""
    a = np.asarray(zeros, dtype=complex)
    return complex(np.exp(1j * theta) * np.prod((z - a) / (1.0 - a.conj() * z)))


def compose(c_prod, d_prod) -> BlaschkeProduct:
    """The Blaschke product C o D.

    Its zeros are the fibers of D over the zeros of C.  Its phase is matched
    to C(D(z)) at z = 1 by `_quotient_product`, so that a change of the
    package's kernel does not move the composed inputs, and checked at
    z = 0.5i, where the two must agree to 1e-9.
    """
    zeros = _fiber_batch(d_prod, np.asarray(c_prod.zeros)).ravel()
    d_one = _quotient_product(d_prod.theta, d_prod.zeros, 1.0)
    c_of_d = _quotient_product(c_prod.theta, c_prod.zeros, d_one)
    b = BlaschkeProduct(cmath.phase(c_of_d / _quotient_product(0.0, zeros, 1.0)), zeros)
    if abs(b(0.5j) - c_prod(d_prod(0.5j))) > 1e-9:
        raise ValueError("the composed product does not match C(D(z)) at z = 0.5i")
    return b


def composition_factors(c: int, d: int, draws: int) -> list:
    """(C, D) of the first `draws` compositions of the pair (c, d)."""
    rng = np.random.default_rng(3000 + 100 * c + d)
    return [(random_product(c, rng, radius=0.6), random_product(d, rng, radius=0.6))
            for _ in range(draws)]


def composition_products(c: int, d: int, draws: int) -> list:
    """(C o D, D) of the first `draws` compositions of the pair (c, d)."""
    return [(compose(c_prod, d_prod), d_prod)
            for c_prod, d_prod in composition_factors(c, d, draws)]


def critical_error(b, c_prod, d_prod) -> float:
    """Largest distance of a critical point of b = C o D, as `branch_data`
    computes them, from the exact set, or of an exact one from the computed
    set.  By the chain rule the exact set is D's critical points together
    with D^{-1}(u) for each critical point u of C, each from a solve of
    order at most max(c, d)."""
    exact = np.concatenate([
        [p.center for p in d_prod._critical_points()],
        _fiber_batch(d_prod, np.array([p.center for p in c_prod._critical_points()])).ravel(),
    ])
    got = np.array([p.center for p in b._critical_points()])
    dist = np.abs(got[:, None] - exact[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def outcome(b) -> dict:
    """Outcome, |G|, q and the w of a failure of `analyze(b)`."""
    try:
        result = analyze(b)
    except ToolkitError as exc:
        found = _W.search(str(exc))
        return {"outcome": type(exc).__name__, "group_order": None, "q": None,
                "w": found.group(1) if found else None}
    return {"outcome": "ok" if result.ok else "not-ok",
            "group_order": result.group_order, "q": result.q_orbitals, "w": None}


def sweep(orders, draws=None) -> list:
    """One record per draw: order, draw and its `outcome`, in sweep order."""
    return [
        {"order": order, "draw": k, **outcome(b)}
        for order in orders
        for k, b in enumerate(sweep_products(order, DRAWS[order] if draws is None else draws))
    ]


def composition_sweep(pairs, draws=COMPOSITION_DRAWS) -> list:
    """One record per composition draw: its pair (c, d), draw, `outcome`,
    whether its group order is that of the wreath product, (d!)^c c!, and
    the `critical_error` of its critical points."""
    records = []
    for c, d in pairs:
        wreath = math.factorial(d) ** c * math.factorial(c)
        for k, (c_prod, d_prod) in enumerate(composition_factors(c, d, draws)):
            b = compose(c_prod, d_prod)
            found = outcome(b)
            records.append({"pair": (c, d), "draw": k, **found,
                            "wreath": found["group_order"] == wreath,
                            "critical_error": critical_error(b, c_prod, d_prod)})
    return records


def table(records, key="order", label="order {:2d}") -> list:
    """Lines of the count table: per value of `key` (labeled by formatting
    `label` with it), the draws and each outcome's count."""
    lines = []
    for value in sorted({r[key] for r in records}):
        counts = Counter(r["outcome"] for r in records if r[key] == value)
        parts = ", ".join(f"{counts[o]} {o}" for o in sorted(counts, key=lambda o: (o != "ok", o)))
        lines.append(f"{label.format(value)}: {sum(counts.values()):2d} draws: {parts}")
    return lines


def _pair(text: str) -> tuple:
    """The argparse type of --pairs: CxD, two positive orders."""
    c, _, d = text.partition("x")
    if not (c.isdigit() and d.isdigit() and int(c) > 0 and int(d) > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not CxD with positive orders C and D")
    return int(c), int(d)


def _count(text: str) -> int:
    """The argparse type of --draws: a positive integer."""
    if not (text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _line(head: str, r: dict) -> str:
    """The printed line of one draw's record, after `head`."""
    g = "-" if r["group_order"] is None else r["group_order"]
    q = "-" if r["q"] is None else r["q"]
    w = "" if r["w"] is None else f" w={r['w']}"
    return f"{head} {r['outcome']} |G|={g} q={q}{w}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--family", choices=("sweep", "composition"), default="sweep",
                        help="random products of one order, or compositions C o D")
    parser.add_argument("--orders", type=int, nargs="+", default=sorted(DRAWS),
                        choices=sorted(DRAWS), help="sweep orders to run (default: all)")
    parser.add_argument("--pairs", type=_pair, nargs="+", default=PAIRS,
                        help="composition pairs CxD to run (default: all)")
    parser.add_argument("--draws", type=_count, default=None,
                        help="only the first DRAWS draws of each order or pair")
    args = parser.parse_args(argv)
    records = []
    if args.family == "composition":
        draws = COMPOSITION_DRAWS if args.draws is None else args.draws
        for pair in args.pairs:
            for r in composition_sweep([pair], draws):
                records.append(r)
                head = f"C{pair[0]}oD{pair[1]} {r['draw']:2d}"
                wreath = "-" if r["group_order"] is None else "yes" if r["wreath"] else "no"
                print(f"{_line(head, r)} wreath={wreath} "
                      f"crit_err={r['critical_error']:.1e}", flush=True)
        lines = table(records, key="pair", label="C{0[0]}oD{0[1]}")
    else:
        for order in args.orders:
            for r in sweep([order], args.draws):
                records.append(r)
                print(_line(f"{r['order']:2d} {r['draw']:2d}", r), flush=True)
        lines = table(records)
    print()
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
