"""One-shot offline oracle: fibers of high-order products at 50 digits.

For each product below, the fiber over w = 0.3 - 0.2i is solved in double
precision (`tracking._fiber_batch`) and every point is then refined by
Newton's method at 50 significant digits (mpmath) on the factored form

    B(z) = e^{i theta} prod (z - a_k) / (1 - conj(a_k) z),
    B'(z) / B(z) = sum (1 - |a_k|^2) / ((z - a_k) (1 - conj(a_k) z)),

which evaluates B from the zeros alone.  The refined points, rounded to
doubles, are written with each product's spec to
tests/fixtures/fiber_oracle.json:

    python3 tools/fiber_oracle.py

The products are the twelve pinned compositions C o D of orders 24-40 of
`tools/order_sweep.py --family composition` (pairs 4x6, 4x8, 6x6 and 5x8,
draws 0-2) and draw 5 of the radius-0.98 order-16 products of
`default_rng(1698)`, whose evaluation noise on the unit circle was 1.6e-10
under the P/Q Horner kernel that the factored kernel replaced (1.8e-15 now).
The specs are frozen as drawn, so the fixture does not move when the
double-precision solve does.

It is run by hand and is NOT a test-time dependency: the tests compare
`_fiber_batch` against the frozen points only.  The package is imported from
the `src/` directory next to this script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

from blaschkelab.blaschke import random_product, to_spec  # noqa: E402
from blaschkelab.tracking import _fiber_batch  # noqa: E402
from order_sweep import composition_products  # noqa: E402

W = 0.3 - 0.2j
PAIRS = ((4, 6), (4, 8), (6, 6), (5, 8))
DIGITS = 50
# Newton stops once a step is below this; a point must move less than
# _SEED_MOVE from its double-precision seed, and the refined points must lie
# at least _DISTINCT apart, or the script stops.
_STEP = mp.mpf(10) ** -45
_SEED_MOVE = 1e-8
_DISTINCT = 1e-6


def products() -> list:
    """(name, product) of every product of the oracle, in fixture order."""
    out = []
    for c, d in PAIRS:
        for k, (b, _) in enumerate(composition_products(c, d, 3)):
            out.append((f"C{c}oD{d}-draw{k}", b))
    rng = np.random.default_rng(1698)
    out.append(("noisy-order16-draw05", [random_product(16, rng, radius=0.98) for _ in range(6)][5]))
    return out


def refine(b, z0: complex, w: complex) -> complex:
    """Newton on the factored form of B(z) - w at `DIGITS` digits from z0."""
    zeros = [mp.mpc(a.real, a.imag) for a in b.zeros]
    phase = mp.expj(mp.mpf(b.theta))
    target = mp.mpc(w.real, w.imag)
    z = mp.mpc(z0.real, z0.imag)
    for _ in range(100):
        value, log_der = phase, mp.mpc(0)
        for a in zeros:
            value *= (z - a) / (1 - mp.conj(a) * z)
            log_der += (1 - abs(a) ** 2) / ((z - a) * (1 - mp.conj(a) * z))
        step = (value - target) / (value * log_der)
        z -= step
        if abs(step) < _STEP:
            return complex(z)
    raise RuntimeError(f"Newton did not converge from {z0}")


def main() -> None:
    mp.mp.dps = DIGITS
    out = []
    for name, b in products():
        seeds = _fiber_batch(b, np.array([W]))[0]
        fiber = np.array([refine(b, complex(z0), W) for z0 in seeds])
        moved = float(np.abs(fiber - seeds).max())
        gaps = np.abs(fiber[:, None] - fiber[None, :]) + np.eye(len(fiber))
        if moved >= _SEED_MOVE or gaps.min() <= _DISTINCT:
            raise RuntimeError(f"{name}: refined points moved {moved:.1e} or merged")
        print(f"{name}: order {b.order}, double-precision error {moved:.2e}")
        out.append({"name": name, **to_spec(b),
                    "fiber": [[z.real, z.imag] for z in fiber.tolist()]})
    path = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "fiber_oracle.json"
    # One product per line.
    rows = ",\n".join(json.dumps(case) for case in out)
    path.write_text(f'{{"w": {json.dumps([W.real, W.imag])}, "products": [\n{rows}\n]}}\n')
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
