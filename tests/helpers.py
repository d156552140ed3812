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
import math

import numpy as np

from blaschkelab import bundle, random_product
from blaschkelab.errors import PathBlocked
from blaschkelab.monodromy import match_endpoints
from blaschkelab.tracking import initial_fiber, track

_TWO_PI = 2.0 * math.pi


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


def noisy_witness():
    """The sixth radius-0.98 order-16 product of default_rng(1698), whose
    evaluation noise on the unit circle is 1.6e-10 (`eval_noise`)."""
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
            seps.append(initial_fiber(b, w).separation)
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
    return match_endpoints(fiber0, track(b, fiber0, loop))


def draw_images(cd, count, radius):
    """Draw points p uniformly in the disc of the given radius until `count`
    have an image w = B(p) in the cut disc, as far from every cut and every
    branch value as the bundle's sampler keeps its points.  The draws are
    seeded by `cd.settings.seed`, and the cut-disc test is looked up in
    `bundle` at each draw.

    Returns (ps, ws, complete), the kept points and their images in draw
    order; `complete` is False when 10000 * count draws did not keep `count`.
    """
    rng = np.random.default_rng(cd.settings.seed)
    ps, ws = [], []
    for _ in range(10000 * count):
        if len(ws) == count:
            break
        p = radius * math.sqrt(rng.random()) * cmath.exp(1j * _TWO_PI * rng.random())
        w = cd.b(p)
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
