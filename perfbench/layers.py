"""Traced functions and the per-layer metrics computed from their spans.

Every metric is per operation (one design, or one misalignment scan of
all its samples) unless it is a ratio or a per-call percentile.  Times
are reference times, scaled by the operation's speed factor (see
calibration.py).  Counts
are means over the traced operations, which are the same operations in
every run with the same seed, so they repeat exactly.  ``busy_s`` is self
time: a span's duration minus its traced children, as a median over the
operations.  ``p50_us`` and ``p99_us`` are per-call durations including
children; ``p99_us`` needs at least ``P99_MIN_CALLS`` calls in the run and
reads 0 below that, as does any statistic of a function never called.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracer import Target, self_times

_OPT = "tweezer_ising.optimizer"

TARGETS = (
    Target("optimizer.epsilon_parts", _OPT, "PinProblem.epsilon_parts", lambda r: r is None),
    Target("optimizer.stage1_search", _OPT, "stage1_search"),
    Target("optimizer.stage2_refine", _OPT, "stage2_refine"),
    Target("optimizer.stage3_finalize", _OPT, "stage3_finalize"),
    Target(
        "quasinewton.minimize_box",
        "tweezer_ising.quasinewton",
        "minimize_box",
        lambda r: (r.n_iter, r.n_eval, r.converged, r.fun),
    ),
    Target("feasibility.feasibility_test", "tweezer_ising.feasibility", "feasibility_test", lambda r: r.feasible),
    Target("sensitivity.coupling_jacobian_diag", "tweezer_ising.sensitivity", "coupling_jacobian_diag"),
    Target("targets.build_target", "tweezer_ising.targets", "build_target"),
    Target("crystal.solve_equilibrium", "tweezer_ising.crystal", "solve_equilibrium"),
    Target("modes.mass_scaled_hessian", "tweezer_ising.modes", "mass_scaled_hessian"),
    Target("modes.mode_spectrum", "tweezer_ising.modes", "mode_spectrum"),
    Target("modes.mode_projections", "tweezer_ising.modes", "mode_projections"),
    Target("coupling.coupling_matrix", "tweezer_ising.coupling", "coupling_matrix"),
    Target("coupling.coupling_error", "tweezer_ising.coupling", "coupling_error"),
    Target("experiment.misalignment_scan", "tweezer_ising.experiment", "misalignment_scan"),
    Target("iofmt.save_result", "tweezer_ising.iofmt", "save_result"),
)

_ALL = ("calls", "busy_s", "p50_us", "p99_us")
#: statistics reported for each traced function
REPORTED = {
    "optimizer.epsilon_parts": _ALL,
    "optimizer.stage1_search": ("busy_s",),
    "optimizer.stage2_refine": ("busy_s",),
    "optimizer.stage3_finalize": ("busy_s",),
    "quasinewton.minimize_box": ("calls", "busy_s"),
    "feasibility.feasibility_test": ("calls", "busy_s", "p50_us"),
    "sensitivity.coupling_jacobian_diag": ("calls", "busy_s"),
    "targets.build_target": ("calls", "busy_s"),
    "crystal.solve_equilibrium": _ALL,
    "modes.mass_scaled_hessian": ("calls", "busy_s"),
    "modes.mode_spectrum": _ALL,
    "modes.mode_projections": ("calls", "busy_s"),
    "coupling.coupling_matrix": ("calls", "busy_s"),
    "coupling.coupling_error": ("calls", "busy_s"),
    "experiment.misalignment_scan": ("busy_s",),
    "iofmt.save_result": ("busy_s",),
}
_UNITS = {"calls": "count", "busy_s": "s", "p50_us": "us", "p99_us": "us"}
P99_MIN_CALLS = 1000


def layer_metrics(spans, op_ranges, factors, stage1_cells, overhead_frac) -> dict:
    """{name: (value, unit)} over the spans of the traced operations.

    ``op_ranges`` holds each operation's [start, end) span indices,
    ``factors`` its speed factor to reference seconds, and
    ``stage1_cells`` its stage-1 grid size.
    """
    n_ops = len(op_ranges)
    own = self_times(spans)
    calls = Counter()
    durations = defaultdict(list)
    busy = defaultdict(lambda: [0.0] * n_ops)
    children = defaultdict(list)
    for k, (lo, hi) in enumerate(op_ranges):
        for idx in range(lo, hi):
            s = spans[idx]
            calls[s.label] += 1
            durations[s.label].append((s.end - s.start) * factors[k])
            busy[s.label][k] += own[idx] * factors[k]
            children[s.parent].append(idx)

    out = {}
    for label, stats in REPORTED.items():
        d = durations[label]
        values = {
            "calls": calls[label] / n_ops,
            "busy_s": statistics.median(busy[label]),
            "p50_us": 1e6 * statistics.median(d) if d else 0.0,
            "p99_us": 1e6 * statistics.quantiles(d, n=100)[98] if len(d) >= P99_MIN_CALLS else 0.0,
        }
        for stat in stats:
            out[f"{label}.{stat}"] = (values[stat], _UNITS[stat])

    def ratio(part, whole):
        return part / whole if whole else 0.0

    by_label = defaultdict(list)
    for lo, hi in op_ranges:
        for i in range(lo, hi):
            by_label[spans[i].label].append(i)

    inf = sum(1 for i in by_label["optimizer.epsilon_parts"] if spans[i].note)
    out["optimizer.epsilon_parts.inf_ratio"] = (ratio(inf, calls["optimizer.epsilon_parts"]), "ratio")
    out["optimizer.stage1.cells"] = (sum(stage1_cells) / n_ops, "count")
    out["optimizer.stage1.useful_eval_ratio"] = (_useful_eval_ratio(spans, by_label, children), "ratio")

    runs = [spans[i].note for i in by_label["quasinewton.minimize_box"] if not spans[i].error]
    out["quasinewton.iterations"] = (sum(r[0] for r in runs) / n_ops, "count")
    out["quasinewton.evals"] = (sum(r[1] for r in runs) / n_ops, "count")
    out["quasinewton.converged_ratio"] = (ratio(sum(1 for r in runs if r[2]), len(runs)), "ratio")

    verdicts = [spans[i].note for i in by_label["feasibility.feasibility_test"] if not spans[i].error]
    out["feasibility.feasible_ratio"] = (ratio(sum(1 for v in verdicts if v), len(verdicts)), "ratio")

    sample_ms, failed = _misalignment_samples(spans, op_ranges, factors, children)
    out["experiment.sample_ms_p50"] = (statistics.median(sample_ms) if sample_ms else 0.0, "ms")
    out["experiment.sample_ms_p99"] = (
        statistics.quantiles(sample_ms, n=100)[98] if len(sample_ms) >= P99_MIN_CALLS else 0.0,
        "ms",
    )
    out["experiment.failed_samples"] = (failed / n_ops, "count")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def _useful_eval_ratio(spans, by_label, children) -> float:
    """Objective calls in each cell's winning restart over all stage-1 calls.

    Stage 1 runs, per feasible cell, one feasibility test followed by one
    ``minimize_box`` per restart; the winner is the first restart with the
    lowest value, as in ``stage1_search``.
    """
    useful = total = 0
    for stage1 in by_label["optimizer.stage1_search"]:
        cell = []  # (objective calls, final value) per restart
        for c in children[stage1] + [None]:
            label = None if c is None else spans[c].label
            if label in (None, "feasibility.feasibility_test") and cell:
                total += sum(n for n, _ in cell)
                useful += min(cell, key=lambda r: r[1])[0]
                cell = []
            elif label == "quasinewton.minimize_box" and not spans[c].error:
                evals = sum(1 for g in children[c] if spans[g].label == "optimizer.epsilon_parts")
                cell.append((evals, spans[c].note[3]))
    return useful / total if total else 0.0


def _misalignment_samples(spans, op_ranges, factors, children):
    """Per-sample times (reference ms) and the number of failed samples.

    A sample runs from a ``solve_equilibrium`` call directly under the scan
    to the next ``coupling_error`` call; a solve that raises, or one not
    followed by a ``coupling_error`` before the next solve, is a failure.
    """
    times, failed = [], 0
    for (lo, hi), factor in zip(op_ranges, factors):
        for scan in range(lo, hi):
            if spans[scan].label != "experiment.misalignment_scan":
                continue
            start = None
            for c in children[scan]:
                s = spans[c]
                if s.label == "crystal.solve_equilibrium":
                    failed += (start is not None) + s.error
                    start = None if s.error else s.start
                elif s.label == "coupling.coupling_error" and start is not None:
                    times.append(1e3 * (s.end - start) * factor)
                    start = None
            failed += start is not None
    return times, failed
