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
import json
import sys

import numpy as np

from .blaschke import from_spec
from .bundle import bundle_report
from .commutant import commutant_basis, is_commutative, minimal_projections, permutation_matrix
from .config import DEFAULTS
from .errors import ToolkitError
from .monodromy import (
    boundary_product,
    compute_representation,
    group_order,
    is_transitive,
    orbital_count,
)
from .tracking import build_loops, choose_base_point, initial_fiber, track_with_trace
from .znmodel import zn_end_to_end

__all__ = ["run_analysis", "main"]


def _pair(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_pairs(m) -> list:
    """Row-major [re, im] encoding of a complex matrix."""
    return [[_pair(v) for v in row] for row in np.asarray(m)]


def run_analysis(b, seed=None, newton_tol=None, dedup_tol=None) -> dict:
    """Full pipeline on one product: monodromy, commutant, theorem checks.

    The returned report carries every named check with its numeric evidence;
    `report["ok"]` is their conjunction.
    """
    seed = DEFAULTS.seed if seed is None else int(seed)
    n = b.order
    rep = compute_representation(b, newton_tol=newton_tol, dedup_tol=dedup_tol, seed=seed)
    gens = list(rep.generators)

    order = group_order(gens, n)
    transitive = is_transitive(gens, n) if gens else n == 1
    q = orbital_count(gens, n) if gens else n * n

    cb = commutant_basis(gens, n)
    commutative, max_comm = is_commutative(cb)
    projections, attempts = ([], 0)
    if commutative:
        projections, attempts = minimal_projections(
            cb, seed=seed, return_attempts=True
        )

    boundary = rep.boundary_perm
    product = boundary_product(rep)
    rank_sum = sum(int(round(float(np.trace(p).real))) for p in projections)
    partition_err = (
        float(np.linalg.norm(sum(projections) - np.eye(n))) if projections else None
    )
    proj_commute = 0.0
    for p in projections:
        for g in gens:
            v = permutation_matrix(g)
            proj_commute = max(proj_commute, float(np.linalg.norm(p @ v - v @ p)))

    checks = {
        "q_orbitals_equals_commutant_dim": {
            "pass": q == cb.dim, "q_orbitals": q, "commutant_dim": cb.dim,
        },
        "commutant_commutative": {
            "pass": bool(commutative), "max_commutator": max_comm,
        },
        "monodromy_transitive": {"pass": bool(transitive)},
        "boundary_product_identity": {
            "pass": product.images == boundary.images,
            "tracked": list(boundary.images),
            "sweep_product": list(product.images),
        },
        "projection_partition": {
            "pass": bool(projections)
            and rank_sum == n
            and partition_err < 1e-8
            and proj_commute < 1e-8,
            "rank_sum": rank_sum,
            "sum_minus_identity": partition_err,
            "max_generator_commutator": proj_commute,
        },
    }
    report = {
        "schema": "1",
        "input": {"theta": b.theta, "zeros": [_pair(a) for a in b.zeros]},
        "order": n,
        "seed": seed,
        "tolerances": {
            "newton_tol": DEFAULTS.newton_tol if newton_tol is None else newton_tol,
            "dedup_tol": DEFAULTS.dedup_tol if dedup_tol is None else dedup_tol,
            "nullspace_rtol": DEFAULTS.nullspace_rtol,
            "projection_gap": DEFAULTS.projection_gap,
        },
        "base_point": _pair(rep.base),
        "branch_values": [_pair(v) for v in rep.branch_values],
        "generators": [list(g.images) for g in gens],
        "boundary_permutation": list(boundary.images),
        "group_order": order,
        "transitive": bool(transitive),
        "q_orbitals": q,
        "commutant_dim": cb.dim,
        "commutative": bool(commutative),
        "max_commutator": max_comm,
        "num_minimal_projections": len(projections),
        "projection_attempts": attempts,
        "projections": [_matrix_pairs(p) for p in projections],
        "theorem_checks": checks,
    }
    report["ok"] = all(c["pass"] for c in checks.values())
    return report


def _emit(report: dict, path) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(spec_path):
    with open(spec_path) as fh:
        return from_spec(json.load(fh))


def cmd_analyze(args) -> int:
    b = _load(args.spec)
    report = run_analysis(
        b,
        seed=args.seed,
        newton_tol=args.newton_tol,
        dedup_tol=args.dedup_tol,
    )
    _emit(report, args.report)
    return 0 if report["ok"] else 1


def cmd_verify_gamma(args) -> int:
    b = _load(args.spec)
    report = bundle_report(b, args.budget, args.samples, seed=args.seed)
    report["schema"] = "1"
    report["input"] = {"theta": b.theta, "zeros": [_pair(a) for a in b.zeros]}
    ok = (
        report["intertwining_residual"] <= DEFAULTS.intertwining_bound
        and report["isometry_error"] <= DEFAULTS.isometry_bound
    )
    report["ok"] = bool(ok)
    _emit(report, args.report)
    return 0 if ok else 1


def cmd_trace_loop(args) -> int:
    b = _load(args.spec)
    data = b.branch_data(seed=args.seed)
    if not 0 <= args.index < len(data.branch_values):
        print(
            f"error: loop index {args.index} out of range "
            f"(have {len(data.branch_values)} branch values)",
            file=sys.stderr,
        )
        return 2
    base = choose_base_point(b, data.branch_values)
    fiber0 = initial_fiber(b, base, seed=args.seed)
    loops = build_loops(b, base, data.branch_values)
    _, trace = track_with_trace(b, fiber0, loops.loops[args.index])
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blaschkelab",
        description="Monodromy, commutant, and bundle-unitary toolkit for "
        "finite Blaschke products on the Bergman space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("spec", help="JSON file {\"theta\": t, \"zeros\": [[re, im], ...]}")
        p.add_argument("--seed", type=int, default=DEFAULTS.seed)
        p.add_argument("--report", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("analyze", help="monodromy + commutant + theorem checks")
    common(p)
    p.add_argument("--newton-tol", type=float, default=None)
    p.add_argument("--dedup-tol", type=float, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-gamma", help="isometry/intertwining/disjointness checks")
    common(p)
    p.add_argument("--budget", type=int, default=10 ** 5)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_verify_gamma)

    p = sub.add_parser("trace-loop", help="CSV fiber trace around one loop")
    common(p)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_trace_loop)

    p = sub.add_parser("zn", help="power-map oracle end-to-end report")
    common(p, spec=False)
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
