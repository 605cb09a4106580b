"""One benchmark process: build a workload's inputs, then solve in a closed loop.

Started by run.py, which sets PYTHONPATH and the BLAS thread count. With
``--phase setup`` it stops once the inputs are ready; with ``--phase
measure`` it then solves one sweep at a time, as many times as take about
``--seconds`` at the workload's nominal speed (at least two, so that every
run repeats its seed), running the reference kernel (reference.py) in the
gaps. The count does not depend on the machine's speed, so a seed gives the
same solves, and the same failed ones, on every run. With ``--trace 1``
untraced and traced solves alternate in pairs. The last line of standard
output is one JSON object.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time

import numpy as np

import clusterpersist
import reference
from tracer import Tracer, busy_by_layer, summarize
from workloads import WORKLOADS

CALIBRATION_SHARE = 0.1   # share of the run spent in reference.kernel()


def _blas_threads():
    """Thread count reported by OpenBLAS itself, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine_context():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "clusterpersist": clusterpersist.__version__,
    }


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def measure(workload, inputs, seconds, tracer):
    solves = []
    traced_metrics = []
    counts: dict = {}
    first_spans = None
    kernel_s = []
    for _ in range(max(2, round(seconds / workload.nominal_s))):
        # the reference kernel fills about CALIBRATION_SHARE of each gap's
        # neighbouring solve time, so every workload samples it as densely
        spent = 0.0
        while not spent or spent < CALIBRATION_SHARE * (solves[-1]["wall_s"] if solves else 0.0):
            kernel_s.append(reference.kernel())
            spent += kernel_s[-1]
        # untraced, traced, traced, untraced, ...: a drift in machine speed
        # over the run biases neither side of the overhead
        traced = tracer is not None and len(solves) % 4 in (1, 2)
        problems = []
        text = ""
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(), tracer.span("workload.solve"):
                    out = workload.solve(inputs)
            else:
                out = workload.solve(inputs)
            text, problems = out
        except (ValueError, RuntimeError) as e:
            problems = [f"{type(e).__name__}: {e}"]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        solves.append({
            "wall_s": wall, "cpu_s": cpu, "traced": traced,
            "digest": _digest(text), "problems": problems,
        })
        if traced:
            spans = tracer.spans
            root = spans[0]
            metrics, span_counts = summarize(spans)
            metrics["trace.root_s"] = root[2] - root[1]
            traced_metrics.append(metrics)
            for name, n in span_counts.items():
                counts[name] = counts.get(name, 0) + n
            if first_spans is None:
                first_spans = list(spans)
            spans.clear()
    return solves, kernel_s, traced_metrics, counts, first_spans


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--phase", choices=("setup", "measure"), required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    setup_busy = None
    setup_counts: dict = {}
    if tracer is None:
        inputs = workload.setup(args.seed)
    else:
        with tracer.installed(), tracer.span("workload.setup"):
            inputs = workload.setup(args.seed)
        setup_busy = busy_by_layer(tracer.spans, "dataset")
        for s in tracer.spans:
            setup_counts[s[0]] = setup_counts.get(s[0], 0) + 1
        tracer.spans.clear()
    ready = time.monotonic()
    if args.phase == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    solves, kernel_s, traced_metrics, counts, spans = measure(workload, inputs, args.seconds, tracer)
    for name, n in setup_counts.items():
        counts[name] = counts.get(name, 0) + n
    result = {
        "ready": ready,
        "context": machine_context(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solves": solves,
        "kernel_s": kernel_s,
        "traced_metrics": traced_metrics,
        "span_counts": counts,
        "setup_dataset_busy_s": setup_busy,
        "stresses": list(workload.stresses),
        "scaled": workload.scaled,
        "first_spans": [
            {"name": name, "start": start, "end": end, "parent": parent, "book": book, "attrs": attrs}
            for name, start, end, parent, book, attrs in spans or ()
        ],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
