"""Command line front end: simulate, reconstruct, evaluate, export-pgm."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .core import FrequencyGrid, MotionBounds, ReconConfig, require_grid_size
from .fileio import (
    export_pgm,
    format_report,
    load_array,
    load_trace_csv,
    load_trajectory,
    save_array,
    save_trace_csv,
    save_trajectory,
)
from .metrics import EvalReport, image_metrics, trajectory_error
from .motion import gauge_aligned, naive_reconstruct
from .simulate import TrajectoryGenConfig, corrupt, generate_trajectory, load_ground_truth, shepp_logan
from .solvers import _SOLVER_FUNCS, tune_sparsity_budget
from .transforms import dft2, haar_forward, l1_norm

DEFAULT_C_GRID = (0.3, 0.5, 0.7)


def _add_bounds_args(parser):
    parser.add_argument("--max-shift-x", type=float, default=5.0, help="search bound |beta_x| in pixels")
    parser.add_argument("--max-shift-y", type=float, default=5.0, help="search bound |beta_y| in pixels")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sraar",
        description="Simulate and correct translational-motion-corrupted MRI k-space data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a motion-corrupted acquisition")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--phantom", choices=["shepp-logan"], help="built-in ground truth")
    source.add_argument("--input", help="raw array file to use as ground truth")
    sim.add_argument("--size", type=int, default=256, help="phantom side length (power of two)")
    _add_bounds_args(sim)
    sim.add_argument("--snr-db", type=float, default=None, help="add complex white noise at this SNR")
    sim.add_argument("--seed", type=int, default=0, help="random seed")
    sim.add_argument("--out-dir", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="jointly estimate image and motion")
    rec.add_argument("--kspace", required=True, help="observed k-space raw array file")
    rec.add_argument("--solver", choices=["er", "sraar"], default="sraar")
    rec.add_argument("--theta", type=float, default=0.9, help="relaxation parameter in (0, 1]")
    rec.add_argument("--iters", type=int, default=100, help="iteration count")
    budget = rec.add_mutually_exclusive_group()
    budget.add_argument("--c", type=float, help="fixed wavelet l1 budget")
    budget.add_argument("--c-grid", help="comma-separated budget fractions in (0, 1) to tune over")
    _add_bounds_args(rec)
    rec.add_argument("--out-dir", required=True, help="output directory")
    rec.set_defaults(func=cmd_reconstruct)

    ev = sub.add_parser("evaluate", help="report reconstruction quality metrics")
    ev.add_argument("--recon", required=True, help="reconstructed image file")
    ev.add_argument("--gt", required=True, help="ground truth image file")
    ev.add_argument("--est-traj", help="estimated trajectory file")
    ev.add_argument("--true-traj",
                    help="true trajectory file; reduced to its data-equivalent "
                         "canonical form before comparison")
    ev.add_argument("--kspace", help="observed k-space, enables naive-reconstruction baselines")
    ev.add_argument("--trace", help="solver trace CSV, reports iterations and wall time")
    ev.add_argument("--out", help="write the key=value report here as well")
    ev.set_defaults(func=cmd_evaluate)

    pgm = sub.add_parser("export-pgm", help="write image moduli as 16-bit PGM")
    pgm.add_argument("--input", required=True, help="raw array file")
    pgm.add_argument("--out", required=True, help="output PGM path")
    pgm.set_defaults(func=cmd_export_pgm)
    return parser


def cmd_simulate(args):
    if args.phantom is not None:
        gt = shepp_logan(require_grid_size(args.size))
    else:
        gt = load_ground_truth(args.input)
    n = gt.shape[0]
    bounds = MotionBounds(args.max_shift_x, args.max_shift_y)
    # translation leaves per-line spectral energy untouched, so the clean
    # spectrum provides the same gauge weights the solver will derive from
    # the observation; centering on them keeps gt itself the reconstruction
    # target instead of a subpixel-shifted copy
    energy = np.sum(np.abs(dft2(gt)) ** 2, axis=1)
    traj = generate_trajectory(TrajectoryGenConfig(bounds, seed=args.seed), n, gauge_weights=energy)
    clean = corrupt(gt, traj)
    observed = corrupt(gt, traj, noise_snr_db=args.snr_db, seed=args.seed) if args.snr_db is not None else clean
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # save_array may refuse the k-space; written first, a refusal writes nothing
    save_array(out / "kspace.srr", observed)
    # a real image is stored as float32; a complex one keeps its phase
    save_array(out / "ground_truth.srr", gt if np.any(gt.imag) else gt.real)
    save_trajectory(out / "trajectory.txt", traj)
    l1_gt = l1_norm(haar_forward(gt))
    l1_corrupted = l1_norm(haar_forward(naive_reconstruct(observed)))
    l1_motion_only = l1_norm(haar_forward(naive_reconstruct(clean)))
    print(
        f"simulate: n={n} seed={args.seed} l1_gt={l1_gt:.6g} "
        f"l1_corrupted={l1_corrupted:.6g} l1_motion_only={l1_motion_only:.6g}"
    )
    return 0


def _parse_fraction_grid(text):
    try:
        return tuple(float(f) for f in text.split(","))
    except ValueError as exc:
        raise ValueError(f"could not parse --c-grid {text!r}") from exc


def reconstruct_config(args):
    """The ReconConfig that ``reconstruct`` runs for its parsed arguments."""
    c_grid = _parse_fraction_grid(args.c_grid) if args.c_grid is not None else None
    if args.c is None and c_grid is None:
        if args.solver == "er":
            raise ValueError("the er solver needs an explicit --c or --c-grid")
        c_grid = DEFAULT_C_GRID
    return ReconConfig(
        bounds=MotionBounds(args.max_shift_x, args.max_shift_y),
        solver=args.solver,
        theta=args.theta,
        iterations=args.iters,
        c=args.c,
        c_grid=c_grid,
    )


def cmd_reconstruct(args):
    observed = load_array(args.kspace)
    cfg = reconstruct_config(args)
    start = time.perf_counter()
    if cfg.c_grid is not None:
        chosen_c, image, estimate, trace = tune_sparsity_budget(observed, cfg)
    else:
        chosen_c = cfg.c
        image, estimate, trace = _SOLVER_FUNCS[cfg.solver](observed, cfg)
    elapsed = time.perf_counter() - start
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_array(out / "recon.srr", image)
    save_trajectory(out / "est_trajectory.txt", estimate.traj)
    save_trace_csv(out / "trace.csv", trace)
    # the misfit row of the iteration whose image was returned
    misfit = trace.misfit[trace.returned - 1 if trace.returned else -1]
    print(
        f"reconstruct: solver={cfg.solver} c={chosen_c:.6g} iters={len(trace)} "
        f"returned={trace.returned or 'terminal'} final_misfit={misfit:.6g} seconds={elapsed:.2f}"
    )
    return 0


def cmd_evaluate(args):
    if (args.est_traj is None) != (args.true_traj is None):
        raise ValueError("--est-traj and --true-traj go together: give both or neither")
    recon = load_array(args.recon)
    gt = load_ground_truth(args.gt)
    rmse_rel, psnr_db = image_metrics(recon, gt)
    values = {
        "rmse_rel": rmse_rel,
        "psnr_db": psnr_db,
        "l1_gt": l1_norm(haar_forward(gt)),
        "l1_recon": l1_norm(haar_forward(recon)),
    }
    weights = None
    if args.kspace is not None:
        observed = load_array(args.kspace)
        naive = naive_reconstruct(observed)
        values["l1_corrupted"] = l1_norm(haar_forward(naive))
        values["naive_rmse_rel"] = image_metrics(naive, gt)[0]
        weights = np.sum(np.abs(observed) ** 2, axis=1)
    if args.est_traj is not None:
        est = load_trajectory(args.est_traj)
        true_traj = load_trajectory(args.true_traj)
        # global shift and phase-encode aliases are invisible in the data, so
        # compare against the canonical representative of the true motion
        true_traj = gauge_aligned(true_traj, FrequencyGrid(len(true_traj)), weights)
        values["traj_rms_x"], values["traj_rms_y"] = trajectory_error(est, true_traj, weights)
    if args.trace is not None:
        trace = load_trace_csv(args.trace)
        values["iterations"] = int(trace["iter"].size)
        values["wall_time_s"] = float(trace["seconds"].sum())
    text = format_report(EvalReport(**values))
    sys.stdout.write(text)
    if args.out is not None:
        Path(args.out).write_text(text)
    return 0


def cmd_export_pgm(args):
    export_pgm(args.out, load_array(args.input))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        print(f"sraar {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"sraar {args.command}: {exc}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
