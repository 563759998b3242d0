"""Replay SRAAR budget tuning under the patience stop, on the benchmark's inputs.

For each seed the script simulates a workload's k-space exactly as
``bench/run.py`` does and runs each of the solver's budget candidates
(``sraar.solvers._budgets``) for the full iteration count through the
solver's own driver.  It applies each rule below to every candidate's
records through the solver's own rule (``_keep``) and picks a candidate
through the solver's own choice (``_choose``, ties to the smaller budget):

- ``nostop``: keep each candidate's sparsest P2 output over all iterations;
- ``P=<n>``: stop each candidate once its sparsest P2 output is n
  iterations old.

Only each rule's pick is scored, from its motion estimate.  Per seed and
rule it prints the chosen budget fraction, the returned iteration, the
iterations run over all candidates, and ``rmse_rel`` over the naive image's
``rmse_rel``; then the smallest patience whose returned images equal the
``nostop`` ones on every seed given.  BLAS runs on one thread, as in
``bench/run.py``.

    python3 tools/replay_stop_rule.py --workload default-256 --seeds 11-30
    python3 tools/replay_stop_rule.py --workload large-512-narrow --seeds 1-10,8222547 --patience 20,30
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

# first: run pins BLAS to one thread, which holds only before numpy loads
from run import Run, import_sraar  # noqa: E402

import numpy as np  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_candidates(observed, cfg):
    """(fraction, records) of each budget the solver runs for ``cfg``, each
    for the full iteration count."""
    from sraar.projections import _Workspace
    from sraar.solvers import _budgets, _steps

    work = _Workspace(observed, cfg.bounds)
    return [(fraction, list(_steps(work, replace(cfg, c=c, c_grid=None)))) for fraction, c in _budgets(work, cfg)]


def replay_seed(sraar, name, seed):
    """The candidates of one seed, and a scorer of motion estimates:
    estimate -> (rmse_rel, traj_rms_x, traj_rms_y) of its compensated
    image, plus the naive image's rmse_rel."""
    from sraar.cli import build_parser, reconstruct_config

    # generate() only computes; nothing is written under the work directory
    run = Run(sraar, name, seed, ROOT / ".bench_work", smoke=False)
    gt, traj, observed = run.generate()
    args = build_parser().parse_args(["reconstruct", "--kspace", "-", "--out-dir", "-", *run.recon_args])
    cfg = reconstruct_config(args)
    weights = np.sum(np.abs(observed) ** 2, axis=1)
    truth = sraar.gauge_aligned(traj, sraar.FrequencyGrid(run.size), weights)

    def score(estimate):
        image = sraar.idft2(sraar.invert_translation(observed, estimate.traj))
        return sraar.image_metrics(image, gt)[0], *sraar.trajectory_error(estimate.traj, truth, weights)

    naive_rmse = sraar.image_metrics(sraar.naive_reconstruct(observed), gt)[0]
    return run_candidates(observed, cfg), score, naive_rmse


def apply_rule(candidates, patience):
    """(fraction, returned iteration, iterations run, estimate) of the
    candidate the solver chooses when each keeps its records under
    ``patience`` (inf: no stop)."""
    from sraar.solvers import _choose, _keep

    runs = [(fraction, *_keep(records, patience)) for fraction, records in candidates]
    fraction, estimate, trace = _choose(runs)
    return fraction, trace.returned, sum(len(run[2]) for run in runs), estimate


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["default-256", "large-512-narrow"])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds or ranges, e.g. 11-30,8222547")
    parser.add_argument("--patience", default="10,20,30", help="comma-separated patiences to report")
    args = parser.parse_args(argv)
    sraar = import_sraar()
    rules = {"nostop": math.inf, **{f"P={p}": int(p) for p in args.patience.split(",")}}
    replayed, results = [], {label: [] for label in rules}
    for seed in parse_seeds(args.seeds):
        candidates, score, naive_rmse = replay_seed(sraar, args.workload, seed)
        replayed.append(candidates)
        for label, patience in rules.items():
            fraction, returned, ran, estimate = apply_rule(candidates, patience)
            rmse, rms_x, rms_y = score(estimate)
            results[label].append((ran, rmse, rms_x, rms_y))
            print(f"{args.workload} seed={seed:<8d} {label:>7s}  c={fraction:<4g} returned={returned:>8d} "
                  f"ran={ran:<4d} rmse_rel={rmse:.4f} ratio_to_naive={rmse / naive_rmse:.3f} "
                  f"traj_rms_x={rms_x:.4f} traj_rms_y={rms_y:.4f}", flush=True)

    for label, rows in results.items():
        ran, rmse, rms_x, rms_y = zip(*rows)
        print(f"{args.workload} {label:>7s}: ran {sum(ran)} iterations; rmse_rel median "
              f"{statistics.median(rmse):.4f} worst {max(rmse):.4f}; traj_rms_x median "
              f"{statistics.median(rms_x):.4f}; traj_rms_y median {statistics.median(rms_y):.4f}")
    iterations = max(len(records) for candidates in replayed for _, records in candidates)
    reference = [apply_rule(candidates, math.inf)[:2] for candidates in replayed]
    smallest = next(p for p in range(1, iterations + 1)
                    if [apply_rule(candidates, p)[:2] for candidates in replayed] == reference)
    print(f"{args.workload}: smallest patience whose returned images equal nostop's on these seeds: {smallest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
