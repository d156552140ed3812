"""Pinned inputs and independent checks shared by the tests.

The inputs are the seed-2026 suite and the draws of the order sweep.  The
checks stand beside the package's own verification, which they test: the
winding number of a path by sampled argument increments, the square-root
growth of the fiber separation about a branch value, the permutation of a
whole closed loop tracked in one piece, and the partition of the disc by the
labeled branch images.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from blaschkelab import BlaschkeProduct, bundle, random_product
from blaschkelab.errors import PathBlocked
from blaschkelab.monodromy import match_endpoints
from blaschkelab.tracking import fiber_separation, initial_fiber, track

_TWO_PI = 2.0 * math.pi
# `draw_images` evaluates B on this many draws at once: one scalar call of
# the kernel costs about as much as a block.
_DRAW_BLOCK = 1024


def suite_products() -> list:
    """The thirty seed-2026 radius-0.6 products of orders 3-8, five each.

    The first twenty, of orders 3-6, are the acceptance suite.
    """
    rng = np.random.default_rng(2026)
    return [random_product(order, rng, radius=0.6) for order in range(3, 9) for _ in range(5)]


def acceptance_products() -> list:
    """The twenty seed-2026 radius-0.6 products of orders 3-6."""
    return suite_products()[:20]


def sweep_draw(order, draw):
    """Draw `draw` of the order sweep: radius-0.6 products from default_rng(1000 + order)."""
    rng = np.random.default_rng(1000 + order)
    for _ in range(draw + 1):
        b = random_product(order, rng, radius=0.6)
    return b


@lru_cache(maxsize=None)
def order_sweep_script():
    """`tools/order_sweep.py`, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "order_sweep.py"
    spec = importlib.util.spec_from_file_location("order_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def composition_draw(c, d, draw):
    """Draw `draw` of the composition family's pair (c, d): the product C o D."""
    return order_sweep_script().composition_products(c, d, draw + 1)[draw][0]


def nudged_composition():
    """Draw 0 of C2 o D4 with its first zero moved by 2e-11.

    The four critical points over the critical point of C share their branch
    value in C2 o D4, within 1.5 times their rounding radii.  The nudge
    spreads those four values 750 to 13,000 times their radii apart: inside
    the dedup ambiguity band of `branch_data`, 100 to 1e5 times.
    """
    b = composition_draw(2, 4, 0)
    return BlaschkeProduct(b.theta, (b.zeros[0] + 2e-11,) + b.zeros[1:])


def noisy_witness():
    """The sixth radius-0.98 order-16 product of default_rng(1698).  Its
    evaluation noise on the unit circle (`eval_noise`) was 1.6e-10 under
    the P/Q Horner kernel that the factored kernel replaced; it is 1.8e-15
    now."""
    rng = np.random.default_rng(1698)
    return [random_product(16, rng, radius=0.98) for _ in range(6)][5]


def winding_number(path, point, samples_per_segment=512) -> float:
    """Total argument increment of (path - point) in turns."""
    total = 0.0
    for seg in path.segments:
        prev = cmath.phase(seg.point(0.0) - point)
        for k in range(1, samples_per_segment + 1):
            cur = cmath.phase(seg.point(k / samples_per_segment) - point)
            delta = cur - prev
            while delta > math.pi:
                delta -= _TWO_PI
            while delta < -math.pi:
                delta += _TWO_PI
            total += delta
            prev = cur
    return total / _TWO_PI


def separation_slope(b, beta, radii=(1e-2, 1e-3, 1e-4), samples_per_circle=8):
    """Log-log slope of the minimal fiber separation on circles around `beta`.

    Near a simple branch value the two colliding sheets separate like the
    square root of the distance, so the fitted slope is 0.5.
    """
    min_seps = []
    for r in radii:
        seps = []
        for k in range(samples_per_circle):
            w = beta + r * cmath.exp(2j * math.pi * (k + 0.37) / samples_per_circle)
            seps.append(fiber_separation(np.array(initial_fiber(b, w).points)))
        min_seps.append(min(seps))
    coef = np.polyfit(np.log(np.asarray(radii)), np.log(np.asarray(min_seps)), 1)
    return float(coef[0])


def loop_permutation(b, fiber0, loop):
    """Permutation induced by continuing `fiber0` around the closed `loop`.

    Returns the Permutation tau with end.points[i] = fiber0.points[tau(i)]
    (see `match_endpoints`).
    """
    if not loop.is_closed:
        raise ValueError("loop_permutation needs a closed path")
    (perm,) = match_endpoints(b, [fiber0], [track(b, fiber0, loop)])
    return perm


def draw_images(cd, count, radius, seed=0):
    """Draw points p uniformly in the disc of the given radius until `count`
    have an image w = B(p) in the cut disc, as far from every cut and every
    branch value as the bundle's sampler keeps its points.  The draws are
    seeded by `seed`, and the cut-disc test is looked up in `bundle` at each
    draw.

    Returns (ps, ws, complete), the kept points and their images in draw
    order; `complete` is False when 10000 * count draws did not keep `count`.
    The images are evaluated `_DRAW_BLOCK` draws at a time.
    """
    rng = np.random.default_rng(seed)
    ps, ws = [], []
    left = 10000 * count
    while left and len(ws) < count:
        block = [
            radius * math.sqrt(rng.random()) * cmath.exp(1j * _TWO_PI * rng.random())
            for _ in range(min(left, _DRAW_BLOCK))
        ]
        left -= len(block)
        for p, w in zip(block, cd.b(np.array(block)).tolist()):
            if len(ws) == count:
                break
            if not bundle.point_in_cut_disc(cd, w, clearance=bundle._CUT_CLEARANCE):
                continue
            if any(abs(w - v) < bundle._BRANCH_CLEARANCE for v in cd.branch_values):
                continue
            ps.append(p)
            ws.append(w)
    return ps, ws, len(ws) == count


def partition_check(cd, samples) -> bool:
    """Each sampled disc point is hit by exactly one branch image.

    Draws p uniformly in the disc, keeps those whose image w = B(p) lies in
    the cut disc, and verifies that exactly one labeled branch value at w
    reproduces p.  Points come from `draw_images` in the disc of radius
    0.95.  All kept points are continued together (`bundle._labeled_fibers`)
    and checked in draw order: the first miss returns False, the first
    failing point before it raises its error.  Only then does a draw that
    fell short raise PathBlocked.
    """
    ps, ws, complete = draw_images(cd, samples, 0.95)
    for p, sig in zip(ps, bundle._labeled_fibers(cd, ws)):
        if isinstance(sig, Exception):
            raise sig
        if int(np.sum(np.abs(sig - p) < 1e-6)) != 1:
            return False
    if not complete:
        raise PathBlocked("sampling the disc kept leaving the cut disc")
    return True
