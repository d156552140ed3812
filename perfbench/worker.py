"""One workload in a process of its own: set up, warm up, then time.

Prints ``READY`` once set-up is done (imports, inputs, one untimed warm-up
operation) and, unless ``--setup-only``, one JSON line with every timed
operation after that.  With ``--trace 1`` the window is split: the first
half runs untraced, the second with spans on every layer, so the tracing
overhead is measured under the same conditions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import blaschkelab  # noqa: E402
from blaschkelab import bundle  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import SUITE_SEED, WORKLOADS, digest  # noqa: E402

_BLAS_THREAD_FUNCS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def _blas_threads():
    """Thread count reported by the BLAS library numpy loaded, if it says."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() or "mkl" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _BLAS_THREAD_FUNCS:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }


def _cache_info():
    graph = getattr(bundle, "_static_graph", None)
    info = getattr(graph, "cache_info", None)
    return info() if info else None


def run_phase(wl, inputs, rng, seconds, tracer=None) -> dict:
    """Whole passes over the inputs, each in a seeded order, until the
    window has elapsed; every operation's time, status and detail.  Each
    operation starts after a full collection, so none pays for garbage
    an earlier one left."""
    ops = []
    start = time.perf_counter()
    while True:
        for i in rng.permutation(len(inputs)):
            inp = inputs[i]
            gc.collect()
            t0 = time.perf_counter()
            if tracer is None:
                raw = wl.call(inp)
            else:
                with tracer.span("op"):
                    raw = wl.call(inp)
            dt = time.perf_counter() - t0
            status, detail = wl.check(inp, raw)
            ops.append({"input": inp["label"], "s": dt, "status": status, "detail": detail})
        if time.perf_counter() - start >= seconds:
            break
    return {"ops": ops, "phase_s": time.perf_counter() - start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not Path(blaschkelab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"blaschkelab imported from {blaschkelab.__file__}, not this checkout")

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        inputs = wl.make_inputs(args.seed, workdir)
        warm = inputs[0]
        warm_status, _ = wl.check(warm, wl.call(warm))
        print("READY", flush=True)
        if args.setup_only:
            return 0

        rng = np.random.default_rng(args.seed)
        before = _cache_info()
        result = {
            "warmup": {"input": warm["label"], "status": warm_status},
            "tail_pct": wl.tail_pct,
        }
        if args.trace:
            tracer = Tracer()
            result["untraced"] = run_phase(wl, inputs, rng, args.seconds / 2)
            tracer.install()
            try:
                result["traced"] = run_phase(wl, inputs, rng, args.seconds / 2, tracer)
            finally:
                result["restored"] = tracer.restore()
            result["trace"] = tracer.summary("op")
            result["trace"]["unwrapped"] = tracer.missing
            spans = OUT / f"spans-{wl.name}-seed{args.seed}.json"
            tracer.write(spans)
            result["trace"]["spans_file"] = str(spans.relative_to(ROOT))
        else:
            result["timed"] = run_phase(wl, inputs, rng, args.seconds)
        after = _cache_info()
        if before is not None:
            result["static_graph_cache"] = {
                "hits": after.hits - before.hits,
                "misses": after.misses - before.misses,
                "maxsize": after.maxsize,
            }
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["machine"] = machine()
        result["inputs"] = {
            "run_seed": args.seed,
            "suite_seed": SUITE_SEED,
            "count": len(inputs),
            "sha256": digest([inp["data"] for inp in inputs]),
            "labels": [inp["label"] for inp in inputs],
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
