"""Benchmark for clusterpersist: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload grid100 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A single client solves one sweep at a time through the public API, in a
worker process with the BLAS thread count fixed at one. With
``--trace 0`` the run reports the end-to-end metrics (solve_s, setup_s,
cpu_s, peak_rss_mb); set-up is timed in several fresh processes and the
median is reported. Times are scaled to a reference machine speed by a
fixed kernel run beside them (reference.py), except the solve times of a
workload whose ``scaled`` is false; the raw times are printed and recorded
too. With ``--trace 1`` untraced and traced solves alternate
and the run reports the per-layer metrics of the traced ones, the tracing
overhead, and the tracer self-test. Every solve's output is checked; a
digest mismatch between repeats of the seed, a solve with tracing on that
differs from one with tracing off, an uncertified eigenvalue, a stressed
layer with no spans or a traced solve that ran mostly outside the layer
spans makes ``correct`` false. A k_t that misses the paper's count
counts as a failed solve.

Human-readable lines come first; the last line of standard output is one
JSON object. The full record, with digests and the machine context, is
written to ``perfbench/out/``.
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

BLAS_THREADS = 1          # one client on one core; see perfbench/README.md
# numpy reads the BLAS thread count when it is first imported, here by
# reference.py; the workers inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 10         # set-up-only processes per run, besides the measuring one
BUDGET_S = 170.0          # the whole run, workers included, must end by then
# The benchmark's own code inside a traced solve (building the output text,
# checking it) takes about 1e-4 of it. A larger share means a call into the
# package that no wrapper saw, such as an entry point that was never wrapped.
UNWRAPPED_MAX_SHARE = 0.01

class RunError(Exception):
    pass


def _worker(args, phase, deadline):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", phase, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise RunError(f"{phase} worker did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"{phase} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{phase} worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def tail(values):
    """Highest whole percentile above the median with at least ten samples
    above it (nearest rank), or None when there are too few samples."""
    n = len(values)
    p = math.floor(100.0 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return p, sorted(values)[math.ceil(p * n / 100.0) - 1]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def self_test(result):
    """Tracer checks of a --trace 1 run; returns the problems found."""
    problems = []
    counts = result["span_counts"]
    for name in result["stresses"]:
        if counts.get(name, 0) == 0:
            problems.append(f"no spans for {name}")
    for m in result["traced_metrics"]:
        share = m["workload.self_s"] / m["trace.root_s"]
        if share > UNWRAPPED_MAX_SHARE:
            problems.append(f"{share:.1%} of the traced solve is outside every layer span")
        if m["linalg.largest_eigenvalue.uncertified"]:
            problems.append("largest_eigenvalue returned an uncertified eigenpair")
    return problems


def layer_metrics(result):
    traced = result["traced_metrics"]
    untraced = [s["wall_s"] for s in result["solves"] if not s["traced"]]
    metrics = {}
    for key in traced[0]:
        if key != "trace.root_s":
            metrics[key] = _median([m[key] for m in traced])
    metrics["trace.solve_s"] = _median([m["trace.root_s"] for m in traced])
    metrics["trace.untraced_solve_s"] = _median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.solve_s"] - metrics["trace.untraced_solve_s"]
    metrics["dataset.busy_s"] = result["setup_dataset_busy_s"]
    return metrics


def declared_units(trace):
    """Metric names and units from BENCHMARK.json; a run must report each one."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    p = argparse.ArgumentParser(description="clusterpersist benchmark (one run)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "clusterpersist" / "__init__.py").is_file():
        print(f"error: no clusterpersist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setups, kernel_s = [], []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                kernel_s.append(reference.kernel())
                setups.append(_worker(args, "setup", deadline)["setup_s"])
            kernel_s.append(reference.kernel())
        result = _worker(args, "measure", deadline)
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    solves = result["solves"]

    for s in solves[1:]:
        if s["digest"] != solves[0]["digest"]:
            s["problems"].append("output digest differs from the first solve's")
    failed = [s for s in solves if s["problems"]]
    digests = sorted({s["digest"] for s in solves})
    integrity = []
    if len(digests) != 1:
        integrity.append(f"{len(digests)} distinct output digests across {len(solves)} solves")
    raw, scales = {}, {}
    if args.trace:
        integrity += self_test(result)
        metrics = layer_metrics(result)
    else:
        raw = {
            "solve_s": _median([s["wall_s"] for s in solves]),
            "setup_s": _median(setups),
            "cpu_s": _median([s["cpu_s"] for s in solves]),
        }
        scales = {"solve": reference.scale(result["kernel_s"]) if result["scaled"] else 1.0,
                  "setup": reference.scale(kernel_s)}
        metrics = {
            "solve_s": raw["solve_s"] * scales["solve"],
            "setup_s": raw["setup_s"] * scales["setup"],
            "cpu_s": raw["cpu_s"] * scales["solve"],
            "peak_rss_mb": result["peak_rss_mib"],
        }
    units = declared_units(args.trace)

    ctx = dict(result["context"], seed=args.seed, workload=args.workload,
               seconds=args.seconds, trace=args.trace)
    walls = [s["wall_s"] for s in solves if not s["traced"]]
    t = tail(walls)
    ok_ratio = (len(solves) - len(failed)) / len(solves)
    record = {
        "context": ctx,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "solve_s": {"median": _median(walls), "samples": len(walls),
                    "tail": None if t is None else {"percentile": t[0], "value": t[1]}},
        "setup_s_samples": setups,
        "raw_metrics": raw,
        "reference_scales": scales,
        "reference_kernel_s": {"setup": kernel_s, "solve": result["kernel_s"]},
        "ok_ratio": ok_ratio,
        "digests": digests,
        "failures": sorted({"; ".join(s["problems"]) for s in failed}),
        "integrity_problems": integrity,
        "solves": solves,
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(f"{stem}.spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in result["first_spans"])

    print(" ".join(f"{k}={v}" for k, v in ctx.items()))
    tail_text = "no percentile above the median has 10 samples beyond it" if t is None \
        else f"p{t[0]}={t[1]:.4f} s"
    print(f"solve wall: median={_median(walls):.4f} s, {tail_text}, samples={len(walls)}")
    if scales:
        print("reference kernel scale: " + ", ".join(f"{k} {v:.4f}" for k, v in scales.items())
              + "; raw " + ", ".join(f"{k}={v:.4f} s" for k, v in raw.items()))
    for k, u in units.items():
        print(f"{k} = {metrics[k]!r} {u}")
    print(f"ok_ratio = {ok_ratio!r} ({len(solves) - len(failed)}/{len(solves)} solves pass)")
    for f in record["failures"]:
        print(f"failed: {f}")
    for d in digests:
        print(f"digest: sha256:{d}")
    for problem in integrity:
        print(f"integrity: {problem}")
    print(json.dumps({
        "correct": not integrity,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
