#!/usr/bin/env python3
"""Benchmark of tweezer_ising: pinning-pattern design and misalignment scans.

    python3 perfbench/run.py --workload chain12_design --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The set-up (imports, scenario construction and, for the misalignment
workload, the design it scans) is timed once here and ``SETUP_REPS - 1``
more times in fresh child processes.  Operations then run back to back,
each checked, until at least ``min_ops`` have run and ``--seconds`` have
passed; an untimed preparation (check data and a warm-up) comes first.  With ``--trace 1`` the
first ``TRACE_OPS`` operations run, each once untraced and once traced,
and the per-layer metrics come from the traced ones.

Operation times are in reference seconds (see calibration.py): the
calibration kernel runs between operations and each operation's time is
scaled by how fast the machine ran around it.  The measured seconds and
the scale factors are in the line before the result.  ``setup_s`` is
in measured seconds: scaling did not make its spread smaller.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The
line before it records the machine, the seeds and every operation's time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from calibration import kernel_us, speed_factor
from layers import TARGETS, layer_metrics
from tracer import Tracer
from workloads import Outcome, make_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
#: set-ups timed per run, all but the first in child processes; setup_s is their median
SETUP_REPS = 4
#: operations a traced run times, each once untraced and once traced
TRACE_OPS = 2
CHILD_TIMEOUT_S = 120


def timed_setup(workload, seed, fast) -> float:
    t0 = time.perf_counter()
    workload.setup(seed, fast)
    return time.perf_counter() - t0


def child_setup(name: str, seed, fast) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if fast:
        cmd.append("--fast")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


@dataclass
class Op:
    """One timed operation: measured seconds, speed factor, outcome."""

    wall: float
    cpu: float
    factor: float
    outcome: Outcome


class Timer:
    """Runs the calibration kernel between measured intervals."""

    def __init__(self):
        self.last_us = kernel_us()

    def factor(self) -> float:
        """Calibrate again; the speed factor of the interval just measured."""
        before, self.last_us = self.last_us, kernel_us()
        return speed_factor(before, self.last_us)

    def op(self, workload, i: int, tracer=None) -> Op:
        """Run, time and check operation ``i``; one that raises counts as failed."""
        with tempfile.TemporaryDirectory(dir=TMP) as tmp:
            outdir = Path(tmp)
            with tracer if tracer is not None else contextlib.nullcontext():
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    result = workload.run(i, outdir)
                except Exception as err:
                    result = err
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if isinstance(result, Exception):
                problem = f"{workload.name} op {i}: {type(result).__name__}: {result}"
                outcome = Outcome(math.inf, workload.per_op, workload.per_op, [problem])
            else:
                outcome = workload.check(i, result, outdir)
        return Op(wall, cpu, self.factor(), outcome)


def run_benchmark(workload, seed=None, seconds=12.0, trace=False, fast=False, setup_reps=SETUP_REPS):
    """Set up, run and check ``workload``; returns (details, result)."""
    setup = [timed_setup(workload, seed, fast)]
    setup += [child_setup(workload.name, seed, fast) for _ in range(setup_reps - 1)]
    workload.prepare()
    timer = Timer()
    TMP.mkdir(exist_ok=True)
    try:
        if trace:
            tracer = Tracer(TARGETS)
            ops, ranges, overheads = [], [], []
            for i in range(min(workload.min_ops, TRACE_OPS)):
                plain = timer.op(workload, i)
                lo = len(tracer.spans)
                traced = timer.op(workload, i, tracer)
                ranges.append((lo, len(tracer.spans)))
                overheads.append(traced.wall * traced.factor / (plain.wall * plain.factor) - 1.0)
                ops.append(traced)
                if plain.outcome.epsilon != traced.outcome.epsilon:
                    traced.outcome.problems.append(f"{workload.name} op {i}: tracing changed epsilon")
                traced.outcome.problems.extend(plain.outcome.problems)
        else:
            ops = []
            start = time.perf_counter()
            while len(ops) < workload.min_ops or time.perf_counter() - start < seconds:
                ops.append(timer.op(workload, len(ops)))
    finally:
        with contextlib.suppress(OSError):
            TMP.rmdir()

    outcomes = [op.outcome for op in ops]
    problems = [p for o in outcomes for p in o.problems]
    if trace:
        cells = [len(getattr(o.result, "cells", ())) for o in outcomes]
        factors = [op.factor for op in ops]
        metrics = layer_metrics(tracer.spans, ranges, factors, cells, statistics.median(overheads))
    else:
        eps = workload.epsilon(outcomes)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(op.wall * op.factor for op in ops), "s"),
            "cpu_s": (statistics.median(op.cpu * op.factor for op in ops), "s"),
            "epsilon": (eps if math.isfinite(eps) else None, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    details = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "op_seeds": [workload.op_seed(i) for i in range(len(ops))],
        "op_wall_s": [op.wall for op in ops],
        "op_cpu_s": [op.cpu for op in ops],
        "op_speed_factor": [op.factor for op in ops],
        "op_epsilon": [o.epsilon for o in outcomes],
        "setup_s": setup,
        "problems": problems,
        "machine": machine(),
    }
    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return details, result


def machine() -> dict:
    """Where the numbers were measured; needs nothing beyond numpy and scipy."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    workloads = make_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=None, help="default: the scenario's own seed")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--fast", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tweezer_ising" / "__init__.py").is_file():
        print(f"run.py: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads[args.workload]
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(workload, args.seed, args.fast)}))
        return 0
    details, result = run_benchmark(workload, args.seed, args.seconds, bool(args.trace), args.fast)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
