"""Repeat the benchmark over seeds and report each metric's spread.

    python3 singbench/collect.py --runs 10 [--out FILE]

Runs ``run.py`` once per (workload, seed), seeds 0 to runs - 1, one run
at a time, with the ``run_seconds`` of BENCHMARK.json.  For each
end-to-end metric it prints the median and the quartile spread,
(Q3 - Q1) / median from ``statistics.quantiles(values, n=4)``, next to
the metric's bound.  With
``--out`` it also makes one traced run per workload and writes the
medians, quartiles, raw values and the per-layer table to FILE, with the
environment of these runs; it refuses to summarise runs whose
environments differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """The result line of one run, and its record."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    record = json.loads(
        (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(out.stdout.strip().splitlines()[-1]), record


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    environments = []
    for workload in names:
        runs, records = [], []
        for seed in range(args.runs):
            result, record = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            records.append(record)
            environments.append(record["environment"])
            values = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {values}", flush=True)
        entry = {"correct": [r["correct"] for r in runs],
                 "failed_frac": [r["failed"] / r["attempted"] for r in runs],
                 "known_defect_frac": [r["known_defect_frac"] for r in records],
                 "metrics": {}}
        for metric in spec["end_to_end"]:
            stats = summarize([r["metrics"][metric["name"]]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            entry["metrics"][metric["name"]] = stats
            print(f"  {metric['name']:<16} median {stats['median']:.4g} {metric['unit']}"
                  f"  spread {stats['spread']:.3f}  bound {metric['bound']}"
                  f"{'' if stats['spread'] < metric['bound'] / 3 else '  (above a third of the bound)'}",
                  flush=True)
        if args.out:
            traced, record = run_once(workload, 0, spec["run_seconds"], 1)
            environments.append(record["environment"])
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if any(env != environments[0] for env in environments):
        print("error: the runs' environments differ", file=sys.stderr)
        return 1
    summary["environment"] = environments[0]
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
