"""
Watching a fiber permute: certified tracking with a CSV trace
=============================================================

Tracks the full fiber of a degree-3 product around the loop that crosses
the cut of one branch value once, records every certified step, writes the
trace as CSV (the same format as the `blaschkelab trace-loop` subcommand),
and prints how the start and end fibers line up.
"""

import csv
import io

import numpy as np

from blaschkelab import (
    BlaschkeProduct,
    PathSpec,
    approach,
    build_cut_disc,
    crossing_paths,
    track_with_trace,
)

b = BlaschkeProduct(theta=0.0, zeros=[0.0, 0.0, 0.5])
# The cut disc: one cut per branch value, running away from the base point,
# and the labeled fiber over the base.
cd = build_cut_disc(b)
fiber0 = cd.fiber0
betas, pairs = crossing_paths(cd)

print(f"base point {cd.base:.6f}, fiber {np.round(fiber0.points, 6)}")
print(f"tracking the crossing loop of branch value {betas[0]:.6f}")

# The loop goes out to one side of the cut, half way round the branch value
# through the cut, and back to the base from the other side, on the straight
# segment cut again from its far end.
there, back = pairs[0]
loop = PathSpec(there.segments + approach(back.end, back.start, cd.branch_values))

# The trace is a list of (t, w(t), fiber points) rows: the start and one row
# per accepted predictor-corrector step.  Every piece of the loop is stepped
# through its quarter nodes, so the row count follows the number of pieces.
end_fiber, trace = track_with_trace(b, fiber0, loop)
print(f"{len(trace) - 1} accepted steps after the start row")

buffer = io.StringIO()
writer = csv.writer(buffer)
writer.writerow(
    ["t", "re_w", "im_w"]
    + [f"{part}_z{i + 1}" for i in range(b.order) for part in ("re", "im")]
)
for t, w, pts in trace:
    writer.writerow(
        [f"{t:.6f}", f"{w.real:.9f}", f"{w.imag:.9f}"]
        + [f"{v:.9f}" for p in pts for v in (p.real, p.imag)]
    )
print("first three CSV lines:")
for line in buffer.getvalue().splitlines()[:3]:
    print(" ", line)

# Around a simple branch value exactly two sheets swap; matching end
# points back to start points reads off the permutation.
perm = [int(np.argmin(np.abs(np.array(fiber0.points) - p))) for p in end_fiber.points]
print("end point i came from start point:", perm)
