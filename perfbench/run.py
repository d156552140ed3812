"""blaschkelab benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Each workload runs in processes of its own (`worker.py`), importing the
program from ``src/`` of this checkout.  Set-up is measured three times,
in three processes, from process start to the end of one untimed warm-up
operation; the third process then times whole passes over the workload's
inputs for ``--seconds`` seconds.  The seed orders each pass.  Workers
run with a single BLAS thread, and each operation starts after a full
garbage collection.

End-to-end metrics (``--trace 0``), per workload:

* ``setup_s``      median of the three set-up times;
* ``op_p50_s``     median wall time of one operation, as the mean of the
                   times ranked between the 40th and 60th percentile;
* ``op_tail_s``    wall time at the workload's tail percentile;
* ``ok_share``     operations that completed and passed every check, over
                   operations attempted;
* ``peak_rss_mb``  peak resident set size of the timing process, in MiB.

In both an operation that did not pass ranks above every success: it
counts as taking the whole measured window, which no single operation can
exceed.  The percentile and the samples beyond it are in the
record, with every operation's time and status.  With ``--trace 1`` the
metrics are per layer (see `tracer.py`).  Each run writes its full record,
with machine and input digests, to ``perfbench/out/``.  The last line of
standard output is the JSON result; ``correct`` is false when any
operation's outcome contradicts its gate (see `workloads.py`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
NAMES = ("analyze_suite", "verify_gamma", "labeled_fibers")
SETUPS = 3
CHILD_TIMEOUT_S = 170.0
# One client in one thread: a BLAS pool of its own on a small shared machine
# measures the scheduler more than the program.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The median is read as the mean of the middle fifth of the ranked times:
# on inputs of uneven cost, one nearest rank jumps between neighbouring
# inputs from run to run, and the band averages that out.
P50_BAND = (40.0, 60.0)

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MiB",
}


class ChildFailed(RuntimeError):
    pass


def spawn(workload, seed, seconds, trace, setup_only):
    """Start one worker; return (seconds to READY, parsed result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **BLAS_ENV})
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise ChildFailed(f"{workload} worker stopped during set-up")
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise ChildFailed(f"{workload} worker exited with {proc.returncode}")
        return setup_s, (None if setup_only else json.loads(out.strip().splitlines()[-1]))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def ranked_times(ops, phase_s):
    return sorted(op["s"] if op["status"] == "ok" else phase_s for op in ops)


def nearest_rank(n, pct):
    return max(1, math.ceil(pct / 100.0 * n))


def rank_stat(ops, phase_s, pct):
    """Nearest-rank percentile of operation times, failures ranked at the
    window length; returns (value, samples beyond it)."""
    ranked = ranked_times(ops, phase_s)
    rank = nearest_rank(len(ranked), pct)
    return ranked[rank - 1], len(ranked) - rank


def band_mean(ops, phase_s, lo_pct, hi_pct):
    """Mean of the operation times ranked from percentile `lo_pct` to
    `hi_pct`, failures ranked at the window length as in `rank_stat`."""
    ranked = ranked_times(ops, phase_s)
    lo, hi = nearest_rank(len(ranked), lo_pct), nearest_rank(len(ranked), hi_pct)
    return statistics.fmean(ranked[lo - 1:hi])


def phase_stats(phase, tail_pct):
    ops, phase_s = phase["ops"], phase["phase_s"]
    p50 = band_mean(ops, phase_s, *P50_BAND)
    tail, beyond = rank_stat(ops, phase_s, tail_pct)
    return {
        "op_p50_s": p50,
        "op_tail_s": tail,
        "ok_share": sum(op["status"] == "ok" for op in ops) / len(ops),
        "tail_percentile": tail_pct,
        "samples": len(ops),
        "samples_beyond_tail": beyond,
        "window_s": phase_s,
    }


def run_workload(name, seed, seconds, trace):
    """Run one workload; return (result line dict, full record)."""
    # Set-up is only reported untraced; a traced run sets up once.
    extra = 0 if trace else SETUPS - 1
    setups = [spawn(name, seed, seconds, trace, True)[0] for _ in range(extra)]
    setup_s, child = spawn(name, seed, seconds, trace, False)
    setups.append(setup_s)
    tail_pct = child["tail_pct"]

    phases = [child[k] for k in ("timed", "untraced", "traced") if k in child]
    ops = [op for phase in phases for op in phase["ops"]]
    mismatches = [op for op in ops if op["status"] == "mismatch"]
    correct = not mismatches and child["warmup"]["status"] != "mismatch"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_samples_s": setups, **child,
    }
    if trace:
        untraced = phase_stats(child["untraced"], tail_pct)
        traced = phase_stats(child["traced"], tail_pct)
        metrics = dict(child["trace"]["metrics"])
        metrics["trace.untraced_op_p50_s"] = untraced["op_p50_s"]
        metrics["trace.traced_op_p50_s"] = traced["op_p50_s"]
        metrics["trace.overhead_s"] = traced["op_p50_s"] - untraced["op_p50_s"]
        correct = correct and child["restored"]
        record["stats"] = {"untraced": untraced, "traced": traced}
    else:
        stats = phase_stats(child["timed"], tail_pct)
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": stats["op_p50_s"],
            "op_tail_s": stats["op_tail_s"],
            "ok_share": stats["ok_share"],
            "peak_rss_mb": child["peak_rss_mb"],
        }
        record["stats"] = stats
    cache = child.get("static_graph_cache") or {}
    metrics["bundle.static_graph_cache.hits"] = cache.get("hits", 0)
    metrics["bundle.static_graph_cache.misses"] = cache.get("misses", 0)
    record["metrics"] = metrics
    result = {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": len(mismatches),
        "metrics": metrics,
    }
    return result, record


def units(trace) -> dict:
    if not trace:
        return END_TO_END
    import tracer

    return {**tracer.units(), "trace.untraced_op_p50_s": "s", "trace.traced_op_p50_s": "s",
            "trace.overhead_s": "s", "bundle.static_graph_cache.hits": "count",
            "bundle.static_graph_cache.misses": "count"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "blaschkelab" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = NAMES if args.workload == "all" else (args.workload,)
    unit_of = units(args.trace)
    OUT.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, args.trace)
            path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            stats = record["stats"] if not args.trace else record["stats"]["traced"]
            print(f"{name}: {result['attempted']} operations, {result['failed']} "
                  f"failed their gate, tail at p{stats['tail_percentile']:g} with "
                  f"{stats['samples_beyond_tail']} beyond; record in "
                  f"{path.relative_to(ROOT)}")
            for metric, unit in unit_of.items():
                print(f"  {name}.{metric} = {result['metrics'][metric]:.6g} {unit}")
            results[name] = result
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def pick(metrics):
        return {m: {"value": metrics[m], "unit": u} for m, u in unit_of.items()}

    if len(names) == 1:
        metrics = pick(results[names[0]]["metrics"])
    else:
        metrics = {f"{n}.{m}": v for n in names
                   for m, v in pick(results[n]["metrics"]).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
