"""The benchmark's three workloads: set-up, one timed operation, checks.

Each workload is a closed loop: one caller in one process runs an
operation, checks it, and only then starts the next.  ``threads=1`` (the
CLI default) throughout.  Why each workload exists is written down in
README.md next to this file.

Operation ``i`` of a design workload runs the pipeline with seed
``seed + i``; a misalignment operation repeats the same scan with seed
``seed``.  The default seed is the scenario's own (1, 4 and 123).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: epsilon at each scenario's own seed, measured when the benchmark was added
REFERENCE_EPSILON = {
    "chain12_design": 0.028542981596707,
    "tri19_design": 0.187552689346673,
    "chain12_misalign": 0.02854297,
}
#: agreement needed with REFERENCE_EPSILON (the misalignment value has 7 digits)
REFERENCE_RTOL = 1e-6
#: criterion 4: the pinned chain beats the tweezer-free beatnote scan by this factor
MIN_GAIN_OVER_UNTWEEZED = 3.0
#: criterion 6: largest non-edge coupling, as a fraction of the largest target coupling
MAX_NON_EDGE_RESIDUAL = 0.35
#: criterion 8: small-offset samples, and their median epsilon against the aligned one
SMALL_OFFSET_M = 100e-9
MAX_MISALIGNED_OVER_ALIGNED = 2.0


@dataclass
class Outcome:
    """What one operation produced and whether it passed its checks.

    ``attempted`` and ``failed`` count designs for a design workload and
    samples for the misalignment scan.
    """

    epsilon: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    result: object = None


class DesignWorkload:
    """``run_scenario`` then ``save_result``, as ``reproduce fig3/fig6`` does."""

    def __init__(self, name: str, factory: str, min_ops: int):
        self.name = name
        self.factory = factory
        self.min_ops = min_ops
        self.per_op = 1

    def setup(self, seed: Optional[int], fast: bool) -> None:
        from tweezer_ising import scenarios

        self.scenario = getattr(scenarios, self.factory)(fast=fast)
        self.fast = fast
        self.seed = self.scenario.seed if seed is None else seed

    def prepare(self) -> None:
        """Untimed: the tweezer-free baseline, which the chain check needs.

        Computing it also runs the objective and equilibrium code once, so
        lazy initialisation is not timed in the first design.
        """
        from tweezer_ising import YB171, untweezed_baseline

        sc = self.scenario
        self.untweezed_epsilon, _, _ = untweezed_baseline(
            sc.target, sc.trap, YB171, sc.space.mu,
            drive_axis=sc.drive_axis, pin_axes=sc.space.pin_axes,
        )

    def op_seed(self, i: int) -> int:
        return self.seed + i

    def run(self, i: int, outdir: Path):
        from tweezer_ising import iofmt, scenarios

        result = scenarios.run_scenario(self.scenario, seed=self.op_seed(i))
        iofmt.save_result(result, outdir)
        return result

    def check(self, i: int, result, outdir: Path) -> Outcome:
        import numpy as np
        from tweezer_ising.coupling import max_abs_offdiag
        from tweezer_ising.iofmt import read_summary

        problems = []
        eps = result.epsilon
        where = f"{self.name} pipeline seed {self.op_seed(i)}"
        if not result.converged:
            problems.append(f"{where}: not converged")
        saved = float(read_summary(outdir / "summary.txt")["result"]["epsilon"])
        if saved != eps:
            problems.append(f"{where}: saved epsilon {saved!r} != {eps!r}")
        if self.scenario.target.variant == "nearest_neighbor":
            gain = self.untweezed_epsilon / eps
            if gain < MIN_GAIN_OVER_UNTWEEZED:
                problems.append(f"{where}: only {gain:.2f}x better than untweezed")
        else:
            iu = np.triu_indices(result.target.matrix.shape[0], 1)
            t, j = result.target.matrix[iu], result.realized.matrix[iu]
            edges = t != 0
            wrong = int(np.sum(np.sign(j[edges]) != np.sign(t[edges])))
            if wrong:
                problems.append(f"{where}: {wrong} of {int(edges.sum())} edge signs wrong")
            residual = float(np.abs(j[~edges]).max()) / max_abs_offdiag(result.target.matrix)[0]
            if residual >= MAX_NON_EDGE_RESIDUAL:
                problems.append(f"{where}: non-edge residual {residual:.3f}")
        if not self.fast and self.op_seed(i) == self.scenario.seed:
            _check_reference(self.name, eps, problems)
        return Outcome(eps, 1, int(bool(problems)), problems, result)

    def epsilon(self, outcomes) -> float:
        """Best epsilon over the first ``min_ops`` designs (one per seed)."""
        return min(o.epsilon for o in outcomes[: self.min_ops])


class MisalignWorkload:
    """``misalignment_scan`` of the designed 12-ion chain (fig7)."""

    name = "chain12_misalign"

    def __init__(self, min_ops: int, samples: Optional[int] = None):
        self.min_ops = min_ops
        self.samples = samples

    @property
    def per_op(self) -> int:
        return self.samples

    def setup(self, seed: Optional[int], fast: bool) -> None:
        from tweezer_ising import scenarios

        self.fast = fast
        self.design = scenarios.run_scenario(scenarios.nn_chain_12(fast=fast))
        self.scales, samples, default_seed = scenarios.misalignment_settings(fast)
        self.samples = samples if self.samples is None else self.samples
        self.seed = default_seed if seed is None else seed
        self.default_seed = default_seed

    def prepare(self) -> None:
        """Untimed: a short scan, so lazy initialisation is not timed."""
        from tweezer_ising import experiment, scenarios

        self.first_records = None
        experiment.misalignment_scan(self.design, self.scales, scenarios.misalignment_settings(True)[1], self.seed)

    def op_seed(self, i: int) -> int:
        return self.seed

    def run(self, i: int, outdir: Path):
        from tweezer_ising import experiment

        return experiment.misalignment_scan(self.design, self.scales, self.samples, self.seed)

    def check(self, i: int, scan, outdir: Path) -> Outcome:
        problems = []
        small = [eps for avg, eps in scan.records if avg <= SMALL_OFFSET_M]
        median = statistics.median(small)
        if scan.n_failed:
            problems.append(f"{self.name}: {scan.n_failed} samples failed: {scan.failed_samples[:5]}")
        if median > MAX_MISALIGNED_OVER_ALIGNED * scan.aligned_epsilon:
            problems.append(f"{self.name}: median {median:.4f} > 2x aligned {scan.aligned_epsilon:.4f}")
        if self.first_records is None:
            self.first_records = scan.records
        elif scan.records != self.first_records:
            problems.append(f"{self.name}: repeated scan gave different records")
        if not self.fast and self.seed == self.default_seed:
            _check_reference(self.name, median, problems)
        return Outcome(median, self.samples, scan.n_failed, problems, scan)

    def epsilon(self, outcomes) -> float:
        """Median epsilon over samples offset by at most 100 nm (first scan)."""
        return outcomes[0].epsilon


def _check_reference(name: str, eps: float, problems: list) -> None:
    ref = REFERENCE_EPSILON[name]
    if abs(eps - ref) > REFERENCE_RTOL * ref:
        problems.append(f"{name}: epsilon {eps!r} disagrees with reference {ref!r}")


def make_workloads(samples: Optional[int] = None) -> dict:
    """Workload table; ``samples`` shrinks the misalignment scan for tests."""
    return {
        "chain12_design": DesignWorkload("chain12_design", "nn_chain_12", min_ops=5),
        "tri19_design": DesignWorkload("tri19_design", "triangular_af_19", min_ops=4),
        "chain12_misalign": MisalignWorkload(min_ops=3, samples=samples),
    }
