#!/usr/bin/env python3
"""Repeat run.py over several seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --workload chain12_design --seeds 1 2 3 --trace 0 \\
        [--seconds 20] [--out perfbench/baseline.json]

Runs one seed at a time, from the root of the checkout, and prints per
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread: the distance between the quartiles as a share of the median.
With ``--out`` the runs and the summary are added to that JSON file as
one more set in the list ``workloads.<name>.trace<0|1>``; earlier sets
are kept, so two sets of the same code can be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=900).stdout
    elapsed = time.perf_counter() - start
    details, result = (json.loads(line) for line in lines.splitlines()[-2:])
    return {"seed": seed, "elapsed_s": elapsed, "details": details, "result": result}


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        runs.append(one_run(args.workload, seed, args.seconds, args.trace))
        r = runs[-1]["result"]
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
              f"elapsed={runs[-1]['elapsed_s']:.1f}s", flush=True)
    summary = summarise(runs)
    for name, s in summary.items():
        print(f"{name:45s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}")
    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
        record["machine"] = runs[-1]["details"]["machine"]
        record["run_seconds"] = args.seconds
        entry = record["workloads"].setdefault(args.workload, {})
        entry.setdefault(f"trace{args.trace}", []).append({"summary": summary, "runs": runs})
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
