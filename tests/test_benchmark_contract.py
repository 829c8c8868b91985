"""The benchmark runs on the package as it stands.

perfbench drives the CLI and reads library records (it passes
``receiver --trials`` and reads ``DistanceRow`` and ``ModulationOptimum``
fields), so a change that drops something it uses fails here.  Each
workload runs one untimed cycle with every output checked by its oracle.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sweep", "receiver", "point-queries"])
def test_workload_cycle_is_correct(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
