"""Run `analyze` on the pinned draws of the order sweep and count the outcomes.

The sweep draws radius-0.6 products from `default_rng(1000 + order)`: 15
per order at orders 6-16, 6 at orders 18, 20 and 24, and 2 at order 32.
Each draw is analyzed under the default settings, with `--dedup-tol`
replacing the branch-value dedup tolerance if given:

    python3 tools/order_sweep.py
    python3 tools/order_sweep.py --orders 16 18 --dedup-tol 1e-12
    python3 tools/order_sweep.py --orders 20 --draws 5

It prints one line per draw (order, draw, outcome, group order |G|, orbital
count q, and the w named by the message of a failure), where the outcome is
`ok`, `not-ok` when a check of the analysis fails, or the class of the typed
error it raised; then the count table, one row per order.  The output is
deterministic.  `tests/fixtures/order_sweep.json` freezes orders 6-12 at
the default settings.  The package is imported from the `src/` directory
next to this script.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from blaschkelab.analysis import analyze  # noqa: E402
from blaschkelab.blaschke import random_product  # noqa: E402
from blaschkelab.cli import _tolerance  # noqa: E402
from blaschkelab.config import DEFAULTS  # noqa: E402
from blaschkelab.errors import ToolkitError  # noqa: E402

# Draws per order.
DRAWS = {**{order: 15 for order in range(6, 17, 2)}, 18: 6, 20: 6, 24: 6, 32: 2}

_W = re.compile(r"w=(\([^)]*\)|\S+)")


def sweep_products(order: int, draws: int) -> list:
    """The first `draws` radius-0.6 products of the sweep at `order`."""
    rng = np.random.default_rng(1000 + order)
    return [random_product(order, rng, radius=0.6) for _ in range(draws)]


def outcome(b, settings) -> dict:
    """Outcome, |G|, q and the w of a failure of `analyze(b, settings)`."""
    try:
        result = analyze(b, settings)
    except ToolkitError as exc:
        found = _W.search(str(exc))
        return {"outcome": type(exc).__name__, "group_order": None, "q": None,
                "w": found.group(1) if found else None}
    return {"outcome": "ok" if result.ok else "not-ok",
            "group_order": result.group_order, "q": result.q_orbitals, "w": None}


def sweep(orders, draws=None, dedup_tol=None) -> list:
    """One record per draw: order, draw and its `outcome`, in sweep order."""
    settings = DEFAULTS if dedup_tol is None else replace(DEFAULTS, dedup_tol=dedup_tol)
    return [
        {"order": order, "draw": k, **outcome(b, settings)}
        for order in orders
        for k, b in enumerate(sweep_products(order, DRAWS[order] if draws is None else draws))
    ]


def table(records) -> list:
    """Lines of the count table: per order, the draws and each outcome's count."""
    lines = []
    for order in sorted({r["order"] for r in records}):
        counts = Counter(r["outcome"] for r in records if r["order"] == order)
        parts = ", ".join(f"{counts[o]} {o}" for o in sorted(counts, key=lambda o: (o != "ok", o)))
        lines.append(f"order {order:2d}: {sum(counts.values()):2d} draws: {parts}")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--orders", type=int, nargs="+", default=sorted(DRAWS),
                        choices=sorted(DRAWS), help="orders to run (default: all)")
    parser.add_argument("--draws", type=int, default=None,
                        help="only the first DRAWS draws of each order")
    parser.add_argument("--dedup-tol", type=_tolerance, default=None,
                        help="branch-value dedup tolerance (default: the settings' default)")
    args = parser.parse_args(argv)
    records = []
    for order in args.orders:
        for r in sweep([order], args.draws, args.dedup_tol):
            records.append(r)
            g = "-" if r["group_order"] is None else r["group_order"]
            q = "-" if r["q"] is None else r["q"]
            w = "" if r["w"] is None else f" w={r['w']}"
            print(f"{r['order']:2d} {r['draw']:2d} {r['outcome']} |G|={g} q={q}{w}", flush=True)
    print()
    for line in table(records):
        print(line)


if __name__ == "__main__":
    main()
