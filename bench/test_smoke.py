"""Fast smoke test of the benchmark at a tiny size.

Runs every workload of ``run.py`` (those in BENCHMARK.json and er-128)
both untraced and traced with ``--smoke`` (32x32, ten iterations) and checks
that the result line names exactly the metrics that BENCHMARK.json declares,
each with its declared unit.  Reconstructions this small need not beat the
naive image, so correctness is not asserted here.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))
from run import WORKLOADS  # noqa: E402


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def run_bench(workload, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    stdout, result = run_bench(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert math.isfinite(result["metrics"][m["name"]]["value"])
        assert f"  {m['name']} " in stdout  # the human-readable table names it too
    assert "error_rate" in stdout


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "spans.py"):
        (tmp_path / "bench" / f).write_bytes((ROOT / "bench" / f).read_bytes())
    cmd = [sys.executable, "bench/run.py", "--workload", "default-256", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
