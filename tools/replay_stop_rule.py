"""Replay SRAAR budget tuning under the patience stop, on the benchmark's inputs.

For each seed the script simulates a workload's k-space exactly as
``bench/run.py`` does, runs every budget candidate for the full iteration
count, and records the wavelet l1 norm, ``rmse_rel`` and trajectory error of
every P2 output (the observation with that iteration's motion estimate
undone) and of the terminal P2 pass.  It then applies three rules:

- ``last``: keep the candidate whose terminal P2 pass is sparsest (the rule
  before the stop);
- ``nostop``: keep the sparsest P2 output over all iterations and candidates;
- ``P=<n>``: stop each candidate once its sparsest P2 output is n
  iterations old, then keep the sparsest of the candidates' outputs.

Ties go to the first iteration and to the smaller budget, as in
``sraar.solvers.tune_sparsity_budget``.  Per seed and rule it prints the
chosen budget fraction, the returned iteration, the iterations run over all
candidates, and ``rmse_rel`` over the naive image's ``rmse_rel``; then the
smallest patience whose returned images equal the ``nostop`` ones on every
seed given.

    python3 tools/replay_stop_rule.py --workload default-256 --seeds 11-30
    python3 tools/replay_stop_rule.py --workload large-512-narrow --seeds 1-10,8222547 --patience 20,30
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from run import Run, import_sraar  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def replay_seed(sraar, name, seed):
    """Per-candidate records of every P2 output, plus the naive rmse_rel."""
    from sraar.cli import build_parser, reconstruct_config
    from sraar.projections import _Workspace, _compensate
    from sraar.solvers import _sraar_step
    from sraar.transforms import _flip_checkerboard

    # generate() only computes; nothing is written under the work directory
    run = Run(sraar, name, seed, ROOT / ".bench_work", smoke=False)
    gt, traj, observed = run.generate()
    args = build_parser().parse_args(["reconstruct", "--kspace", "-", "--out-dir", "-", *run.recon_args])
    cfg = reconstruct_config(args)
    weights = np.sum(np.abs(observed) ** 2, axis=1)
    truth = sraar.gauge_aligned(traj, sraar.FrequencyGrid(run.size), weights)
    naive = sraar.naive_reconstruct(observed)
    base = sraar.l1_norm(sraar.haar_forward(naive))

    def record(p2, estimate):
        rms_x, rms_y = sraar.trajectory_error(estimate.traj, truth, weights)
        return (sraar.l1_norm(sraar.haar_forward(p2)), sraar.image_metrics(p2, gt)[0], rms_x, rms_y)

    work = _Workspace(observed, cfg.bounds)
    candidates = []
    # the fractions the solver runs: a repeated one runs once
    for fraction in sorted(set(cfg.c_grid)):
        candidate = replace(cfg, c=fraction * base, c_grid=None)
        # the solver's own step, which updates the Haar coefficients w and
        # D * the image in work.spec in place, D = (-1)^(r+c), and keeps no
        # P2 output, so the output is recomputed from its estimate into out,
        # and unflipped
        w, out, rows = sraar.haar_forward(naive).data, np.empty_like(naive), []
        np.copyto(work.spec, naive)
        _flip_checkerboard(work.spec)
        for _ in range(cfg.iterations):
            estimate = _sraar_step(work, w, candidate)[0]
            rows.append(record(_flip_checkerboard(_compensate(work, estimate.traj, out)), estimate))
        terminal = record(*sraar.project_fourier(_flip_checkerboard(work.spec), observed, cfg))
        candidates.append((fraction, np.array(rows), terminal))
    return candidates, sraar.image_metrics(naive, gt)[0]


def stop(l1, patience):
    """(0-based returned iteration, iterations run) of one candidate's l1 column."""
    best = 0
    for i in range(1, l1.size):
        if l1[i] < l1[best]:
            best = i
        elif patience is not None and i - best >= patience:
            return best, i + 1
    return best, l1.size


def apply_rule(candidates, rule):
    """(fraction, returned iteration or 'terminal', iterations run, record) for one rule."""
    chosen, ran = None, 0
    for fraction, rows, terminal in candidates:
        if rule == "last":
            pick = (terminal[0], fraction, "terminal", terminal)
            ran += rows.shape[0]
        else:
            i, count = stop(rows[:, 0], None if rule == "nostop" else rule)
            pick = (rows[i, 0], fraction, i + 1, tuple(rows[i]))
            ran += count
        if chosen is None or pick[0] < chosen[0]:
            chosen = pick
    return chosen[1], chosen[2], ran, chosen[3]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["default-256", "large-512-narrow"])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds or ranges, e.g. 11-30,8222547")
    parser.add_argument("--patience", default="10,20,30", help="comma-separated patiences to report")
    args = parser.parse_args(argv)
    sraar = import_sraar()
    patiences = [int(p) for p in args.patience.split(",")]
    rules = ["last", "nostop", *patiences]
    per_seed = {}
    for seed in parse_seeds(args.seeds):
        candidates, naive_rmse = replay_seed(sraar, args.workload, seed)
        per_seed[seed] = candidates
        for rule in rules:
            fraction, returned, ran, rec = apply_rule(candidates, rule)
            label = rule if isinstance(rule, str) else f"P={rule}"
            print(f"{args.workload} seed={seed:<8d} {label:>7s}  c={fraction:<4g} returned={returned!s:>8s} "
                  f"ran={ran:<4d} rmse_rel={rec[1]:.4f} ratio_to_naive={rec[1] / naive_rmse:.3f} "
                  f"traj_rms_x={rec[2]:.4f} traj_rms_y={rec[3]:.4f}", flush=True)

    iterations = max(rows.shape[0] for cands in per_seed.values() for _, rows, _ in cands)
    for rule in rules:
        results = [apply_rule(cands, rule) for cands in per_seed.values()]
        label = rule if isinstance(rule, str) else f"P={rule}"
        rmse = [r[3][1] for r in results]
        print(f"{args.workload} {label:>7s}: ran {sum(r[2] for r in results)} iterations; rmse_rel median "
              f"{statistics.median(rmse):.4f} worst {max(rmse):.4f}; traj_rms_x median "
              f"{statistics.median(r[3][2] for r in results):.4f}; traj_rms_y median "
              f"{statistics.median(r[3][3] for r in results):.4f}")
    reference = [apply_rule(cands, "nostop")[:2] for cands in per_seed.values()]
    smallest = next(p for p in range(1, iterations + 1)
                    if [apply_rule(cands, p)[:2] for cands in per_seed.values()] == reference)
    print(f"{args.workload}: smallest patience whose returned images equal nostop's on these seeds: {smallest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
