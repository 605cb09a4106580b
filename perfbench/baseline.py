"""Record the per-layer split of every workload as perfbench/baseline.json.

    python3 perfbench/baseline.py

Runs run.py once untraced and once traced per workload, at seed 0 and for
BENCHMARK.json's ``run_seconds``, and keeps the
end-to-end metrics, the per-layer metrics, each module's share of the traced
solve, the output digests and the machine context. Later changes compare
their own traced split against this file.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MODULES = ("workload", "dataset", "clustering", "linalg", "persistence", "annealing", "cli")
SEED = 0


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=200)
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    doc = {"workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        plain = _run(workload, SEED, seconds, 0)
        traced = _run(workload, SEED, seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        total = layers["trace.solve_s"]
        doc["context"] = {k: v for k, v in plain["context"].items() if k not in ("workload", "trace")}
        doc["workloads"][workload] = {
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "solve_s_samples": plain["solve_s"]["samples"],
            "ok_ratio": plain["ok_ratio"],
            "failures": plain["failures"],
            "digests": plain["digests"],
            "self_share": {m: layers[f"{m}.self_s"] / total for m in MODULES},
            "per_layer": layers,
            "correct": not (plain["integrity_problems"] or traced["integrity_problems"]),
        }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
