"""Spans around the program's public functions, installed from outside.

A function is traced where its callers look it up: code that did
``from .tracking import track`` calls ``bundle.track``, so both
``tracking.track`` and ``bundle.track`` get a wrapper.  Each call records
one span (name, id, parent id, start, end) plus the work counts its layer
has; spans stay in memory until the run ends.  `Tracer.restore` puts every
original object back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from blaschkelab import blaschke, bundle, cli, commutant, monodromy, tracking

# (owner, attribute, layer): every lookup site the workloads go through.
SITES = (
    (cli, "compute_representation", "monodromy.compute_representation"),
    (cli, "group_closure", "monodromy.group_closure"),
    (cli, "orbital_count", "monodromy.orbital_count"),
    (cli, "commutant_basis", "commutant.commutant_basis"),
    (cli, "minimal_projections", "commutant.minimal_projections"),
    (cli, "bundle_report", "bundle.bundle_report"),
    (monodromy, "orbital_count", "monodromy.orbital_count"),
    (monodromy, "choose_base_point", "tracking.choose_base_point"),
    (monodromy, "initial_fiber", "tracking.initial_fiber"),
    (monodromy, "build_loops", "tracking.build_loops"),
    (monodromy, "loop_permutation", "tracking.loop_permutation"),
    (tracking, "track", "tracking.track"),
    (commutant, "commutant_basis", "commutant.commutant_basis"),
    (commutant, "minimal_projections", "commutant.minimal_projections"),
    (commutant, "analyze_commutant", "commutant.analyze_commutant"),
    (bundle, "track", "tracking.track"),
    (bundle, "choose_base_point", "tracking.choose_base_point"),
    (bundle, "initial_fiber", "tracking.initial_fiber"),
    (bundle, "build_cut_disc", "bundle.build_cut_disc"),
    (bundle, "route_in_cut_disc", "bundle.route_in_cut_disc"),
    (bundle, "sigma_samples", "bundle.sigma_samples"),
    (bundle, "build_quadrature_grid", "bundle.build_quadrature_grid"),
    (bundle, "isometry_details", "bundle.isometry_details"),
    (bundle, "verify_disjoint_images", "bundle.verify_disjoint_images"),
    (blaschke.BlaschkeProduct, "branch_data", "blaschke.branch_data"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SITES))

# Work counts per layer, with their units.
COUNTS = {
    "tracking.track.steps": "count",
    "monodromy.group_closure.elements": "count",
    "commutant.commutant_basis.system_rows": "count",
    "commutant.commutant_basis.svd_bytes_computed": "bytes",
    "commutant.minimal_projections.attempts": "count",
    "bundle.route_in_cut_disc.segments": "count",
    "bundle.build_quadrature_grid.points": "count",
}

ERROR_CLASSES = (
    "NoConvergence", "DegenerateClustering", "BranchCountError", "FiberCollision",
    "StepFloorReached", "AmbiguousMatching", "LoopConstructionFailed", "PathBlocked",
    "GroupTooLarge", "NonCommutative", "DegenerateGenericElement",
)


def units(root: str = "op") -> dict:
    """Name and unit of every metric `Tracer.summary` reports."""
    out = {}
    for layer in LAYERS + (root,):
        out.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.share": "ratio"})
    out.update(COUNTS)
    out["bundle.build_quadrature_grid.s_per_1e5_points"] = "s"
    out.update({f"errors.{cls}.count": "count" for cls in ERROR_CLASSES})
    return out


def _plain(call, args, kwargs):
    return call(*args, **kwargs), {}


def _track(call, args, kwargs):
    # Accepted steps, through track's public callback: it fires once at the
    # start node and once after every accepted step.
    calls = 0
    user = kwargs.get("record")

    def record(t, w, pts):
        nonlocal calls
        calls += 1
        if user is not None:
            user(t, w, pts)

    result = call(*args, **{**kwargs, "record": record})
    return result, {"steps": calls - 1}


def _minimal_projections(call, args, kwargs):
    wanted = kwargs.get("return_attempts", False)
    projections, attempts = call(*args, **{**kwargs, "return_attempts": True})
    return ((projections, attempts) if wanted else projections), {"attempts": attempts}


def _commutant_basis(call, args, kwargs):
    result = call(*args, **kwargs)
    gens = args[0] if args else kwargs["generators"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    rows, cols = len(gens) * n * n, n * n
    # Full SVD of the stacked float64 system: input, U, s and Vh.
    nbytes = 8 * (rows * cols + rows * rows + min(rows, cols) + cols * cols) if gens else 0
    return result, {"system_rows": rows, "svd_bytes_computed": nbytes}


def _counting(**measures):
    def adapt(call, args, kwargs):
        result = call(*args, **kwargs)
        return result, {key: fn(result) for key, fn in measures.items()}
    return adapt


ADAPTERS = {
    "tracking.track": _track,
    "commutant.minimal_projections": _minimal_projections,
    "commutant.commutant_basis": _commutant_basis,
    "monodromy.group_closure": _counting(elements=len),
    "bundle.route_in_cut_disc": _counting(segments=lambda p: len(p.segments)),
    "bundle.build_quadrature_grid": _counting(points=lambda g: len(g.points)),
}


class Tracer:
    """Span recorder with wrappers installed on `SITES` until `restore`."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []
        self._last_error = None

    @contextmanager
    def span(self, name):
        rec = {
            "name": name,
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
            "error": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec["counts"]
        except Exception as exc:
            rec["error"] = type(exc).__name__
            # The innermost span an error leaves is the layer that raised it.
            rec["raised"] = exc is not self._last_error
            self._last_error = exc
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original, layer):
        adapt = ADAPTERS.get(layer, _plain)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(layer) as counts:
                result, extra = adapt(original, args, kwargs)
                counts.update(extra)
                return result

        return traced

    def install(self):
        for owner, attr, layer in SITES:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    def restore(self) -> bool:
        """Put every original back; True when each site holds it again."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        return all(vars(owner).get(attr) is original for owner, attr, original in saved)

    def summary(self, root: str) -> dict:
        """Per-layer calls, self time, share of root-span wall time, counts."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        wall = sum(s["end"] - s["start"] for s in self.spans if s["name"] == root)
        metrics = dict.fromkeys(units(root), 0)
        errors = defaultdict(int)
        for s in self.spans:
            name = s["name"]
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += s["end"] - s["start"] - child[s["id"]]
            for key, value in s["counts"].items():
                metrics[f"{name}.{key}"] += value
            if s.get("raised"):
                errors[(s["error"], name.split(".")[0])] += 1
        for layer in LAYERS + (root,):
            metrics[f"{layer}.share"] = metrics[f"{layer}.self_s"] / wall if wall else 0.0
        for cls in ERROR_CLASSES:
            metrics[f"errors.{cls}.count"] = sum(
                v for (name, _), v in errors.items() if name == cls
            )
        points = metrics["bundle.build_quadrature_grid.points"]
        metrics["bundle.build_quadrature_grid.s_per_1e5_points"] = (
            metrics["bundle.build_quadrature_grid.self_s"] / points * 1e5 if points else 0.0
        )
        return {
            "metrics": metrics,
            "errors_by_module": {f"{m}.{c}": v for (c, m), v in sorted(errors.items())},
            "traced_wall_s": wall,
            "spans": len(self.spans),
        }

    def write(self, path) -> None:
        rows = [
            [s["name"], s["id"], s["parent"], s["start"], s["end"], s["error"]]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "id", "parent", "start", "end", "error"],
                       "spans": rows}, fh)
