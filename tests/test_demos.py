"""Every demo runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_chain_planning.py",
    "02_reward_temperature_posterior.py",
    "03_policy_optimality_posterior.py",
    "04_multitask_transfer.py",
    "05_baseline_showdown.py",
    "06_value_bound.py",
])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()
