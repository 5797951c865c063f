"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--trace-seed N] [--out FILE]

Each run is a separate ``perfbench/run.py`` process with the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (Q3 - Q1) / median next to a third of the metric's bound,
the steadiness target.  ``--trace-seed`` adds one traced run per
workload.  ``--out`` writes the summary, the raw values and the machine
description as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    from run import BLAS_ENV

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": BLAS_ENV,
        "TSENSE_THREADS": "unset (removed by the benchmark)",
    }


# the median pass time and per-job percentiles are printed, not in the result JSON
PRINTED = re.compile(r"^\s+(wall_s|setup_wall_s|job_ms\.p\d+)\s+(\S+)\s+m?s\b")


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["printed"] = {m[1]: float(m[2]) for m in map(PRINTED.match, lines) if m}
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, 0) for seed in parse_seeds(args.seeds)]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        print(f"== {workload}: {len(runs)} runs, {entry['failed']}/{entry['attempted']} failed")
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name:14s} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  f"  (bound/3 {bounds[name] / 3:.4f}) {flag}")
        for name in runs[0]["printed"]:
            s = summarise([r["printed"][name] for r in runs])
            entry.setdefault("printed", {})[name] = s
            print(f"  {name:14s} median {s['median']:<12.6g} spread {s['spread']:.4f}  (printed only)")
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_failed"] = traced["failed"]
        doc["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        doc["environment"] = environment()
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
