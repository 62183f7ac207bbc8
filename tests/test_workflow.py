"""The CI workflow parses, and each of its steps runs one thing.

A workflow file that does not parse runs no step at all, and CI cannot
report that about itself, so the check runs here.  It needs PyYAML, which
CI's pinned install includes; where PyYAML is not installed it is skipped.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
SUITE_STEP = "        run: PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors\n"


def _step_faults(text):
    """Why a workflow's text would not run as written: it does not parse,
    it has no job with steps, or a step has not exactly one of ``run`` and
    ``uses``."""
    try:
        workflow = yaml.safe_load(text)
    except yaml.YAMLError as err:
        return [f"does not parse: {err}"]
    jobs = workflow.get("jobs") if isinstance(workflow, dict) else None
    if not jobs:
        return ["no jobs"]
    faults = []
    for job_name, job in jobs.items():
        steps = job.get("steps") or []
        if not steps:
            faults.append(f"{job_name}: no steps")
        for index, step in enumerate(steps):
            if not isinstance(step, dict) or ("run" in step) + ("uses" in step) != 1:
                faults.append(f"{job_name} step {index} ({step!r}): needs exactly one of run and uses")
    return faults


def test_the_workflow_parses_and_each_step_runs_one_thing():
    assert _step_faults(WORKFLOW.read_text()) == []


def test_the_check_sees_a_run_key_without_its_space():
    # `run:PYTHONPATH=...` reads as a plain scalar inside the step's
    # mapping, which YAML rejects; the whole workflow then runs no step
    text = WORKFLOW.read_text()
    assert SUITE_STEP in text
    (fault,) = _step_faults(text.replace(SUITE_STEP, SUITE_STEP.replace("run: ", "run:", 1)))
    assert fault.startswith("does not parse")


@pytest.mark.parametrize(
    "step",
    ["      - name: nothing to do\n", "      - uses: actions/checkout@v4\n        run: echo twice\n"],
    ids=["neither", "both"],
)
def test_the_check_sees_a_step_without_exactly_one_action(step):
    text = f"on: push\njobs:\n  build:\n    runs-on: ubuntu-latest\n    steps:\n{step}"
    (fault,) = _step_faults(text)
    assert fault.startswith("build step 0") and fault.endswith("needs exactly one of run and uses")
