"""Tests of the benchmark itself, on fast scenarios and short scans.

Run with ``python -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
from layers import TARGETS  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import make_workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(name):
    workload = make_workloads(samples=6)[name]
    workload.min_ops = 1
    return workload


@pytest.fixture(autouse=True, scope="module")
def short_calibration():
    saved, calibration.CALIBRATION_S = calibration.CALIBRATION_S, 0.02
    yield
    calibration.CALIBRATION_S = saved


@pytest.fixture(scope="module")
def tiny_runs(short_calibration):
    runs = {}
    for name in ("chain12_design", "chain12_misalign"):
        for trace in (False, True):
            runs[name, trace] = run.run_benchmark(_tiny(name), seconds=0.0, trace=trace, fast=True, setup_reps=1)
    return runs


def _check_metrics(result, spec_metrics):
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


def test_every_metric_is_printed_with_its_unit(tiny_runs):
    for (name, trace), (_, result) in tiny_runs.items():
        _check_metrics(result, SPEC["per_layer"] if trace else SPEC["end_to_end"])


def test_triangular_design_checks_pass():
    details, result = run.run_benchmark(_tiny("tri19_design"), seconds=0.0, fast=True, setup_reps=2)
    _check_metrics(result, SPEC["end_to_end"])
    assert len(details["setup_s"]) == 2


def test_an_operation_that_raises_counts_as_failed():
    workload = _tiny("chain12_design")

    def broken(i, outdir):
        raise ValueError("singular")

    workload.run = broken
    details, result = run.run_benchmark(workload, seconds=0.0, fast=True, setup_reps=1)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert details["problems"] == ["chain12_design op 0: ValueError: singular"]


def test_traced_and_untraced_runs_agree(tiny_runs):
    for name in ("chain12_design", "chain12_misalign"):
        plain_details, plain = tiny_runs[name, False]
        traced_details, traced = tiny_runs[name, True]
        assert plain_details["op_epsilon"] == traced_details["op_epsilon"]
        assert (plain["attempted"], plain["failed"]) == (traced["attempted"], traced["failed"])


def test_traced_counts_see_every_layer(tiny_runs):
    design = tiny_runs["chain12_design", True][1]["metrics"]
    scan = tiny_runs["chain12_misalign", True][1]["metrics"]
    assert design["optimizer.epsilon_parts.calls"]["value"] > 0
    assert design["quasinewton.evals"]["value"] > 0
    assert design["feasibility.feasibility_test.calls"]["value"] > 0
    assert scan["optimizer.epsilon_parts.calls"]["value"] == 0
    assert scan["quasinewton.evals"]["value"] == 0
    assert scan["crystal.solve_equilibrium.calls"]["value"] == 6
    assert scan["experiment.failed_samples"]["value"] == 0


def _attributes():
    return {
        (mod_name, attr): value
        for mod_name, module in list(sys.modules.items())
        if mod_name.startswith("tweezer_ising")
        for attr, value in vars(module).items()
    }


def test_tracer_restores_every_attribute():
    import tweezer_ising.crystal as crystal
    import tweezer_ising.experiment as experiment
    import tweezer_ising.optimizer as optimizer
    import tweezer_ising.quasinewton as quasinewton

    before = _attributes()
    method = optimizer.PinProblem.__dict__["epsilon_parts"]
    tracer = Tracer(TARGETS)
    with pytest.raises(RuntimeError):
        with tracer:
            # the name is patched in every module that looks it up
            assert optimizer.minimize_box is quasinewton.minimize_box
            assert optimizer.minimize_box is not before["tweezer_ising.quasinewton", "minimize_box"]
            assert experiment.solve_equilibrium is crystal.solve_equilibrium
            assert crystal.solve_equilibrium is not before["tweezer_ising.crystal", "solve_equilibrium"]
            assert optimizer.PinProblem.__dict__["epsilon_parts"] is not method
            raise RuntimeError("leave the block by an exception")
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert optimizer.PinProblem.__dict__["epsilon_parts"] is method


def test_self_time_subtracts_child_spans():
    from tweezer_ising import YB171, TrapConfig
    from tweezer_ising import crystal

    trap = TrapConfig(2 * 6.283e6, 1.7 * 6.283e6, 0.2 * 6.283e6, n_ions=4)
    tracer = Tracer(TARGETS)
    with tracer:
        crystal.solve_equilibrium(trap, YB171, 4)
    solve = [i for i, s in enumerate(tracer.spans) if s.label == "crystal.solve_equilibrium"]
    hessians = [s for s in tracer.spans if s.label == "modes.mass_scaled_hessian"]
    assert len(solve) == 1 and hessians
    assert all(s.parent == solve[0] for s in hessians)
    own = self_times(tracer.spans)
    total = tracer.spans[solve[0]].end - tracer.spans[solve[0]].start
    assert own[solve[0]] == pytest.approx(total - sum(s.end - s.start for s in hessians))
