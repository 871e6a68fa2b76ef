"""The CI workflow parses, and every shell block in it is valid bash."""

import subprocess
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
DOC = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
RUN_BLOCKS = [
    (f"{job}: {step['name']}", step["run"])
    for job, spec in DOC["jobs"].items()
    for step in spec["steps"]
    if "run" in step
]


def test_workflow_triggers_and_run_blocks():
    assert set(DOC[True]) == {"push", "pull_request"}  # YAML 1.1 reads the key `on` as true
    assert len(RUN_BLOCKS) >= 10


@pytest.mark.parametrize("name, script", RUN_BLOCKS, ids=[n for n, _ in RUN_BLOCKS])
def test_workflow_run_block_is_valid_bash(name, script):
    result = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert result.returncode == 0, f"{name}:\n{result.stderr}"
