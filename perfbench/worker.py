"""One benchmark process: import lrforge, set a workload up, run it, check it.

Started by run.py in a fresh interpreter. Prints `READY <monotonic clock>`
once set-up is done, so the parent can time interpreter start, import and
input generation together, then (unless --setup-only) one JSON line with
the measurements. With --trace 1 the first half of the run is untraced and
the second half traced, so the tracing overhead is measured in the same
process; end-to-end numbers only come from untraced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from time import perf_counter

import tracer as tracing

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_lrforge() -> float:
    """Import lrforge.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import lrforge.cli  # noqa: F401
    elapsed = perf_counter() - t0
    import lrforge

    if os.path.dirname(os.path.abspath(lrforge.__file__)) != os.path.join(SRC, "lrforge"):
        raise SystemExit(f"lrforge was imported from {lrforge.__file__}, not {SRC}")
    return elapsed


def _run(workload, seconds: float, trace: bool):
    """Repeat passes until `seconds` are up; with tracing, the second half of
    the time is traced. Returns the tracer (or None) and the untraced pass count."""
    start = perf_counter()
    split = seconds / 2 if trace else seconds
    while True:
        workload.run_pass(len(workload.measured))
        if perf_counter() - start >= split:
            break
    untraced = len(workload.measured)
    if not trace:
        return None, untraced
    tracer = tracing.Tracer()
    tracer.install()
    try:
        while True:
            workload.run_pass(len(workload.measured))
            if perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()
    return tracer, untraced


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_s = _import_lrforge()
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        shutil.rmtree(args.workdir, ignore_errors=True)
        return 0

    tracer, untraced = _run(workload, args.seconds, bool(args.trace))
    result = workload.finish(untraced)
    result["ops"], result["steps"] = workload.OPS, workload.STEPS
    traced = len(workload.measured) - untraced
    if tracer is not None:
        layers = tracing.per_layer(tracer.snapshot(), traced)
        layers["cli.import_s"] = import_s
        layers["trace.wall_s"] = statistics.median(workload.walls[untraced:])
        layers["trace.overhead_frac"] = (layers["trace.wall_s"]
                                         / result["report"]["wall_s"][0] - 1.0)
        result["per_layer"] = {k: (layers[k], unit) for k, unit in tracing.PER_LAYER.items()}
        result["untraced_boundaries"] = tracer.missing
    import numpy

    result["meta"].update({
        "passes": untraced, "traced_passes": traced,
        "python": platform.python_version(), "numpy": numpy.__version__,
    })
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = workload.fails.attempted
    result["failed"] = workload.fails.failed
    result["errors"] = workload.fails.first
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
