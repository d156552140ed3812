"""Command-line entry point: analyze products, verify the bundle unitary,
dump loop traces, and run the power-map oracle.

All reports are versioned JSON ("schema": "1") with complex numbers encoded
as [re, im] pairs and matrices row-major; identical inputs, seed, and flags
produce byte-identical output.  Exit codes: 0 success, 1 theorem-check
failure, 2 usage error, 3 numerical failure (diagnostic names the module
that raised).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from functools import lru_cache

import numpy as np

from .analysis import analyze
from .blaschke import from_spec
from .bundle import build_cut_disc, bundle_report
from .commutant import _NULLSPACE_RTOL, _PROJECTION_GAP
from .config import DEFAULTS
from .errors import ToolkitError
from .monodromy import crossing_paths
from .tracking import PathSpec, newton_tol, track_with_trace
from .znmodel import zn_end_to_end

__all__ = ["main"]

# `verify-gamma` passes when both residuals are at most these bounds.
_ISOMETRY_BOUND = 1e-2
_INTERTWINING_BOUND = 1e-8


def _pair(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_pairs(m) -> list:
    """Row-major [re, im] encoding of a complex matrix."""
    return [[_pair(v) for v in row] for row in np.asarray(m)]


def _analysis_report(b, settings, result) -> dict:
    """The `analyze` JSON report of the `Analysis` of `b` under `settings`."""
    rep = result.rep
    return {
        "schema": "1",
        "input": {"theta": b.theta, "zeros": [_pair(a) for a in b.zeros]},
        "order": b.order,
        "seed": settings.seed,
        "tolerances": {
            "newton_tol": newton_tol(b),
            "dedup_tol": settings.dedup_tol,
            "nullspace_rtol": _NULLSPACE_RTOL,
            "projection_gap": _PROJECTION_GAP,
        },
        "base_point": _pair(rep.base),
        "branch_values": [_pair(v) for v in rep.branch_values],
        "generators": [list(g.images) for g in rep.generators],
        "boundary_permutation": list(rep.boundary_perm.images),
        "group_order": result.group_order,
        "transitive": result.transitive,
        "q_orbitals": result.q_orbitals,
        "commutant_dim": result.commutant.dim,
        "commutative": result.commutative,
        "max_commutator": result.max_commutator,
        "num_minimal_projections": len(result.projections),
        "projection_attempts": result.projection_attempts,
        "projections": [_matrix_pairs(p) for p in result.projections],
        "theorem_checks": result.theorem_checks,
        "ok": result.ok,
    }


def _emit(report: dict, path) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tolerance(text: str) -> float:
    """The argparse type of --dedup-tol: a finite positive float."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return value


def _seed(text: str) -> int:
    """The argparse type of --seed: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _load(spec_path):
    with open(spec_path) as fh:
        return from_spec(json.load(fh))


def cmd_analyze(args) -> int:
    b = _load(args.spec)
    settings = dataclasses.replace(DEFAULTS, seed=args.seed, dedup_tol=args.dedup_tol)
    report = _analysis_report(b, settings, analyze(b, settings))
    _emit(report, args.report)
    return 0 if report["ok"] else 1


def cmd_verify_gamma(args) -> int:
    b = _load(args.spec)
    cd = build_cut_disc(b, settings=dataclasses.replace(DEFAULTS, seed=args.seed))
    report = bundle_report(cd, args.budget, args.samples)
    if math.isinf(report["min_separation"]):
        # One-point fibers have no separation; JSON has no Infinity.
        report["min_separation"] = None
    report["schema"] = "1"
    report["input"] = {"theta": b.theta, "zeros": [_pair(a) for a in b.zeros]}
    ok = (
        report["intertwining_residual"] <= _INTERTWINING_BOUND
        and report["isometry_error"] <= _ISOMETRY_BOUND
    )
    report["ok"] = bool(ok)
    _emit(report, args.report)
    return 0 if ok else 1


def cmd_trace_loop(args) -> int:
    b = _load(args.spec)
    cd = build_cut_disc(b)
    betas, pairs = crossing_paths(cd)
    if not 0 <= args.index < len(betas):
        print(
            f"error: loop index {args.index} out of range "
            f"(have {len(betas)} branch values)",
            file=sys.stderr,
        )
        return 2
    there, back = pairs[args.index]
    loop = PathSpec(there.segments + back.reversed().segments)
    _, trace = track_with_trace(b, cd.fiber0, loop)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        header = ["t", "re_w", "im_w"]
        for i in range(b.order):
            header += [f"re_z{i + 1}", f"im_z{i + 1}"]
        writer.writerow(header)
        for t, w, pts in trace:
            row = [repr(float(t)), repr(w.real), repr(w.imag)]
            for p in pts:
                row += [repr(float(np.real(p))), repr(float(np.imag(p)))]
            writer.writerow(row)
    finally:
        if args.out:
            out.close()
    return 0


def cmd_zn(args) -> int:
    report = zn_end_to_end(args.n, seed=args.seed)
    report["schema"] = "1"
    _emit(report, args.report)
    return 0 if report["ok"] else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="blaschkelab",
        description="Monodromy, commutant, and bundle-unitary toolkit for "
        "finite Blaschke products on the Bergman space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def spec(p):
        p.add_argument("spec", help="JSON file {\"theta\": t, \"zeros\": [[re, im], ...]}")

    def common(p):
        p.add_argument("--seed", type=_seed, default=DEFAULTS.seed)
        p.add_argument("--report", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("analyze", help="monodromy + commutant + theorem checks")
    spec(p)
    common(p)
    p.add_argument("--dedup-tol", type=_tolerance, default=DEFAULTS.dedup_tol)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-gamma", help="isometry/intertwining/disjointness checks")
    spec(p)
    common(p)
    p.add_argument("--budget", type=int, default=10 ** 5)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_verify_gamma)

    p = sub.add_parser("trace-loop", help="CSV fiber trace around one cut-crossing loop")
    spec(p)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_trace_loop)

    p = sub.add_parser("zn", help="power-map oracle end-to-end report")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_zn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(
            f"error [{exc.__class__.__module__}.{exc.__class__.__name__}]: {exc}",
            file=sys.stderr,
        )
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
