import os
import subprocess
import sys
from pathlib import Path

import sraar

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_line_estimator_demo_runs():
    """The demo exits cleanly and pins beta_y to 0 on the DC row."""
    env = {**os.environ, "PYTHONPATH": str(Path(sraar.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(DEMOS / "line_estimator.py")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    dc = [line for line in done.stdout.splitlines() if line.startswith("DC row")]
    assert len(dc) == 1 and "est by=0.000" in dc[0]
