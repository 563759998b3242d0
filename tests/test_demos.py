"""Every demo runs to a clean exit.

``forward_model.py`` and ``joint_reconstruction.py`` write PGM panels into
``demos/output/``, which is gitignored.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sraar

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name):
    env = {**os.environ, "PYTHONPATH": str(Path(sraar.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_line_estimator_demo_runs():
    """The demo exits cleanly and pins beta_y to 0 on the DC row."""
    dc = [line for line in run_demo("line_estimator.py").splitlines() if line.startswith("DC row")]
    assert len(dc) == 1 and "est by=0.000" in dc[0]


def test_solver_comparison_demo_sraar_beats_er():
    """The README's claim: sraar ends at a lower relative RMSE than er."""
    rmse = dict(re.findall(r"^(\w+): final relative RMSE ([0-9.]+)", run_demo("solver_comparison.py"), re.M))
    assert set(rmse) == {"er", "sraar"}
    assert float(rmse["sraar"]) < float(rmse["er"])


@pytest.mark.parametrize("name", ["forward_model.py", "joint_reconstruction.py"])
def test_panel_demos_run(name):
    assert "panels written to" in run_demo(name)
