"""Benchmark of sraar's user-facing path: simulate, then ``sraar reconstruct``.

Each workload generates its k-space from ``--seed`` with the public
``sraar.simulate`` functions; the reconstruction receives only the written
``.srr`` file, through ``sraar.cli.main``.  Every reconstruction is scored
the way ``sraar evaluate`` scores it and checked for correctness.

    python3 bench/run.py --workload default-256 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` repeats the reconstruction while the next call still fits in
``--seconds`` (at least once) and prints the end-to-end metrics (medians
over the repeats).  ``--trace 1`` runs one untraced and one traced
reconstruction (see ``spans.py``) and prints the per-layer metrics.
``--workload all`` runs every workload both ways, each in a fresh process,
and prints every table.  The last line of standard output is the result as
one JSON object.  Per-run results and the traced spans are written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pinned before numpy loads: unpinned OpenBLAS spins a second core and
# inflates CPU time without cutting wall time.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

from spans import Tracer, self_seconds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUP_REPS = 40
PROBE_REPS = 10
SMOKE_SIZE = 32
SMOKE_ITERS = 10


@dataclasses.dataclass(frozen=True)
class Workload:
    """A Shepp-Logan acquisition and the reconstruct flags run on it.

    ``motion`` bounds the simulated trajectory on both axes, in pixels.
    """

    size: int
    motion: float
    snr_db: float | None
    recon_args: tuple[str, ...]


# default-256 is what users run: every reconstruct default, P2's per-line
# estimator dominates and budget tuning triples the work.  large-512-narrow
# keeps the search grid small (11 points, one budget), so the n^2 log n
# layers (P1, Haar, FFTs, phase ramps) and memory growth show.  er-128 runs
# the other iteration driver at a size where fixed per-call Python costs are
# the largest share.  It is not in BENCHMARK.json: on about one seed in four
# it fails the correctness check, because budget tuning keeps the 0.3 budget
# (smallest final l1) although that ER solve stalls worse than the naive
# image (seed 5: rmse_rel 0.669 against 0.525 naive; the 0.5 and 0.7
# budgets give 0.504 and 0.400).  It stays runnable so the failure shows.
WORKLOADS = {
    "default-256": Workload(256, 5.0, None, ()),
    "large-512-narrow": Workload(
        512, 1.0, 40.0, ("--c-grid", "0.7", "--max-shift-x", "1", "--max-shift-y", "1")
    ),
    "er-128": Workload(
        128, 3.0, None,
        ("--solver", "er", "--c-grid", "0.3,0.5,0.7", "--max-shift-x", "3", "--max-shift-y", "3"),
    ),
}

E2E_UNITS = {"recon_s": "s", "recon_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Scored as `sraar evaluate` scores them.  They change several-fold from seed
# to seed (rmse_rel 0.015-0.09 on default-256), so they cannot carry a bound
# on the spread across seeds; the untraced table prints them and the traced
# run reports them, after checking they are bit-identical to the untraced
# run's.
QUALITY_UNITS = {"rmse_rel": "ratio", "traj_rms_x": "px", "traj_rms_y": "px", "final_misfit": "a.u."}

LAYER_UNITS = {
    "projections.p2_ms_p50": "ms",
    "projections.p2_ms_p90": "ms",
    "projections.p2_calls": "count",
    "projections.p2_self_ms_p50": "ms",
    "projections.p2_ms_p50_threads1": "ms",
    "projections.p1_ms_p50": "ms",
    "projections.p1_self_ms_p50": "ms",
    "projections.lines_at_bound_ratio": "ratio",
    "projections.mean_line_score": "ratio",
    **{f"transforms.{t}_ms_p50": "ms" for t in ("dft2", "idft2", "haar_forward", "haar_inverse")},
    **{f"transforms.{t}_per_iter": "count" for t in ("dft2", "idft2", "haar_forward", "haar_inverse")},
    "motion.translation_ms_p50": "ms",
    "motion.translation_per_iter": "count",
    "solvers.bookkeeping_ms_per_iter": "ms",
    "solvers.self_ms_per_iter": "ms",
    "solvers.iterations": "count",
    "solvers.solves": "count",
    "solvers.useful_solve_ratio": "ratio",
    "fileio.load_ms": "ms",
    "fileio.save_ms": "ms",
    "simulate.generate_ms": "ms",
    "trace.overhead_ratio": "ratio",
    **{f"quality.{name}": unit for name, unit in QUALITY_UNITS.items()},
}

P2 = "projections.project_fourier"
P1 = "projections.project_sparse"
DRIVERS = ("solvers.solve_er", "solvers.solve_sraar")
BOOKKEEPING = ("solvers.data_misfit", "transforms.haar_forward", "transforms.l1_norm")


def import_sraar():
    """Import sraar from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sraar
    import sraar.cli

    if not Path(sraar.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sraar was imported from {sraar.__file__}, not from {src}")
    return sraar


def import_seconds():
    """Seconds for a fresh interpreter to import sraar (numpy included).

    A second import in this process would hit the module cache, so the
    sample is a child process, timed from inside after interpreter start.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import sraar.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def median(values):
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


class Run:
    """One workload at one seed: inputs on disk plus the reconstruct calls."""

    def __init__(self, sraar, name, seed, work, smoke):
        self.sraar = sraar
        self.name = name
        self.seed = seed
        self.work = work
        self.workload = WORKLOADS[name]
        self.size = SMOKE_SIZE if smoke else self.workload.size
        self.recon_args = list(self.workload.recon_args)
        if smoke:
            self.recon_args += ["--iters", str(SMOKE_ITERS)]
        self.kspace = work / "kspace.srr"
        self.gt_path = work / "ground_truth.srr"
        self.traj_path = work / "trajectory.txt"
        self.setup_seconds = []
        self.import_seconds = []

    def generate(self):
        """Ground truth, trajectory and observed k-space, as `sraar simulate` makes them."""
        s = self.sraar
        gt = s.shepp_logan(self.size)
        bounds = s.MotionBounds(self.workload.motion, self.workload.motion)
        energy = np.sum(np.abs(s.dft2(gt)) ** 2, axis=1)
        traj = s.generate_trajectory(
            s.TrajectoryGenConfig(bounds, 8, self.seed), self.size, gauge_weights=energy
        )
        return gt, traj, s.corrupt(gt, traj, noise_snr_db=self.workload.snr_db, seed=self.seed)

    def setup(self, tracer=None):
        """Generate, write and reload the k-space, recording the seconds taken."""
        start = time.perf_counter()
        span = tracer.begin("simulate.generate") if tracer else None
        gt, traj, observed = self.generate()
        if span:
            tracer.end(span)
        self.sraar.save_array(self.kspace, observed)
        self.sraar.load_array(self.kspace)
        self.setup_seconds.append(time.perf_counter() - start)
        self.sraar.save_array(self.gt_path, gt.real)
        self.sraar.save_trajectory(self.traj_path, traj)

    def reconstruct(self, out, tracer=None):
        """One `sraar reconstruct` call; returns (exit code, wall s, cpu s)."""
        argv = ["reconstruct", "--kspace", str(self.kspace), "--out-dir", str(out), *self.recon_args]
        log = io.StringIO()
        wall, cpu = time.perf_counter(), time.process_time()
        span = tracer.begin("cli.reconstruct") if tracer else None
        try:
            with contextlib.redirect_stdout(log):
                code = self.sraar.cli.main(argv)
        finally:
            if span:
                tracer.end(span)
        return code, time.perf_counter() - wall, time.process_time() - cpu

    def score(self, out):
        """Quality as `sraar evaluate` computes it, plus correctness problems."""
        s = self.sraar
        recon = s.load_array(out / "recon.srr")
        est = s.load_trajectory(out / "est_trajectory.txt")
        misfit = s.fileio.load_trace_csv(out / "trace.csv")["misfit"]
        gt = s.load_ground_truth(self.gt_path)
        observed = s.load_array(self.kspace)
        rmse_rel = s.image_metrics(recon, gt)[0]
        naive_rmse_rel = s.image_metrics(s.naive_reconstruct(observed), gt)[0]
        weights = np.sum(np.abs(observed) ** 2, axis=1)
        true_traj = s.gauge_aligned(s.load_trajectory(self.traj_path), s.FrequencyGrid(self.size), weights)
        traj_x, traj_y = s.trajectory_error(est, true_traj, weights)
        problems = []
        if not (np.all(np.isfinite(recon)) and np.all(np.isfinite(misfit))):
            problems.append("non-finite output")
        if not rmse_rel < naive_rmse_rel:
            problems.append(f"rmse_rel {rmse_rel:.6g} not below naive {naive_rmse_rel:.6g}")
        quality = {
            "rmse_rel": rmse_rel,
            "naive_rmse_rel": naive_rmse_rel,
            "traj_rms_x": traj_x,
            "traj_rms_y": traj_y,
            "final_misfit": float(misfit[-1]),
        }
        return quality, problems

    def attempt(self, out, tracer=None):
        """Reconstruct into ``out`` and score it; failures are recorded, not raised."""
        record = {"out": out, "problems": []}
        try:
            code, record["wall"], record["cpu"] = self.reconstruct(out, tracer)
            if code != 0:
                record["problems"].append(f"reconstruct exited with {code}")
            else:
                record["quality"], record["problems"] = self.score(out)
        except Exception as exc:  # a crash is a failed reconstruction, not a benchmark error
            traceback.print_exc(file=sys.stderr)
            record["problems"].append(f"{type(exc).__name__}: {exc}")
        for problem in record["problems"]:
            print(f"{self.name} seed={self.seed}: FAILED: {problem}", file=sys.stderr)
        return record


def outputs_identical(a, b):
    """True when two reconstruct output dirs hold the same image, trajectory and misfits."""
    same = all((a / f).read_bytes() == (b / f).read_bytes() for f in ("recon.srr", "est_trajectory.txt"))
    misfit = [[row.split(",")[1] for row in (d / "trace.csv").read_text().splitlines()] for d in (a, b)]
    return same and misfit[0] == misfit[1]


def end_to_end(run, seconds):
    # Import and set-up alternate, so drift in the box's speed hits both alike.
    for _ in range(SETUP_REPS):
        run.import_seconds.append(import_seconds())
        run.setup()
    attempts = []
    start = time.perf_counter()
    # Start another call only if it should end within the window, so a run
    # lasts about ``seconds`` whatever the call length.
    while not attempts or (time.perf_counter() - start) * (len(attempts) + 1) / len(attempts) <= seconds:
        attempts.append(run.attempt(run.work / f"recon{len(attempts)}"))
    timed = [a for a in attempts if "wall" in a]
    scored = [a["quality"] for a in attempts if "quality" in a]
    metrics = {
        "recon_s": median([a["wall"] for a in timed]),
        "recon_cpu_s": median([a["cpu"] for a in timed]),
        "setup_s": median([a + b for a, b in zip(run.import_seconds, run.setup_seconds)]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    quality = {key: median([q[key] for q in scored]) for key in (*QUALITY_UNITS, "naive_rmse_rel")}
    return attempts, metrics, quality


class P2Observer:
    """Collects line statistics from every P2 result and keeps the last call."""

    def __init__(self):
        self.lines = 0
        self.at_bound = 0
        self.score_sum = 0.0
        self.last_call = None

    def __call__(self, args, kwargs, result):
        self.last_call = (args, kwargs)
        estimate, cfg = result[1], args[2]
        shifts = np.abs(estimate.traj.shifts)
        bound = np.array([cfg.bounds.max_abs_x, cfg.bounds.max_abs_y])
        self.lines += shifts.shape[0]
        self.at_bound += int(np.count_nonzero(np.any(shifts >= bound - 1e-12, axis=1)))
        self.score_sum += float(np.sum(estimate.scores))


def probe_p2_threads1(sraar, call):
    """Median ms of the last traced P2 call replayed with one worker thread."""
    if call is None:
        return 0.0
    args, kwargs = call
    args = (*args[:2], dataclasses.replace(args[2], threads=1), *args[3:])
    times = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        sraar.projections.project_fourier(*args, **kwargs)
        times.append(time.perf_counter() - start)
    return 1e3 * median(times)


def worker_count(sraar, size):
    # Recorded only; once the thread pool is gone there is one worker.
    count = getattr(sraar.projections, "_worker_count", None)
    return count(sraar.ReconConfig().threads, size) if count else 1


def layer_metrics(tracer, p2, iterations, overhead_ratio, threads1_ms):
    own = self_seconds(tracer.spans)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    driver_ids = {s.id for name in DRIVERS for s in by_name.get(name, ())}

    def ms(name):
        return [1e3 * s.seconds for s in by_name.get(name, ())]

    def self_ms(name):
        return [1e3 * own[s.id] for s in by_name.get(name, ())]

    def per_iter(count):
        return count / iterations if iterations else 0.0

    solves = len(driver_ids)
    bookkeeping = sum(
        s.seconds for name in BOOKKEEPING for s in by_name.get(name, ()) if s.parent in driver_ids
    )
    metrics = {
        "projections.p2_ms_p50": median(ms(P2)),
        "projections.p2_ms_p90": percentile(ms(P2), 90),
        "projections.p2_calls": len(ms(P2)),
        "projections.p2_self_ms_p50": median(self_ms(P2)),
        "projections.p2_ms_p50_threads1": threads1_ms,
        "projections.p1_ms_p50": median(ms(P1)),
        "projections.p1_self_ms_p50": median(self_ms(P1)),
        "projections.lines_at_bound_ratio": p2.at_bound / p2.lines if p2.lines else 0.0,
        "projections.mean_line_score": p2.score_sum / p2.lines if p2.lines else 0.0,
    }
    for t in ("dft2", "idft2", "haar_forward", "haar_inverse"):
        metrics[f"transforms.{t}_ms_p50"] = median(ms(f"transforms.{t}"))
        metrics[f"transforms.{t}_per_iter"] = per_iter(len(ms(f"transforms.{t}")))
    metrics.update({
        "motion.translation_ms_p50": median(ms("motion.apply_translation")),
        "motion.translation_per_iter": per_iter(len(ms("motion.apply_translation"))),
        "solvers.bookkeeping_ms_per_iter": per_iter(1e3 * bookkeeping),
        "solvers.self_ms_per_iter": per_iter(sum(1e3 * own[i] for i in driver_ids)),
        "solvers.iterations": iterations,
        "solvers.solves": solves,
        "solvers.useful_solve_ratio": 1.0 / solves if solves else 0.0,
        "fileio.load_ms": sum(ms("fileio.load_array")),
        "fileio.save_ms": sum(
            sum(ms(name)) for name in ("fileio.save_array", "fileio.save_trajectory", "fileio.save_trace_csv")
        ),
        "simulate.generate_ms": median(ms("simulate.generate")),
        "trace.overhead_ratio": overhead_ratio,
    })
    return metrics


def traced(run, spans_path):
    p2 = P2Observer()
    iterations = [0]

    def count_iterations(args, kwargs, result):
        iterations[0] += len(result[2])

    tracer = Tracer({P2: p2, **{name: count_iterations for name in DRIVERS}})
    for _ in range(SETUP_REPS):
        run.setup(tracer)
    base = run.attempt(run.work / "untraced")
    tracer.install()
    try:
        probe = run.attempt(run.work / "traced", tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    attempts = [base, probe]
    if not (base["problems"] or probe["problems"]) and not outputs_identical(base["out"], probe["out"]):
        probe["problems"].append("traced output differs from untraced output")
        print(f"{run.name} seed={run.seed}: FAILED: traced output differs", file=sys.stderr)
    ratio = probe["wall"] / base["wall"] if "wall" in probe and "wall" in base else 0.0
    metrics = layer_metrics(tracer, p2, iterations[0], ratio, probe_p2_threads1(run.sraar, p2.last_call))
    quality = probe.get("quality", {})
    metrics.update({f"quality.{key}": quality.get(key, 0.0) for key in QUALITY_UNITS})
    return attempts, metrics


def print_table(title, metrics, units):
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {units[name]}")


def run_one(args):
    try:
        sraar = import_sraar()
    except ImportError as exc:
        print(f"bench: cannot import sraar from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        run = Run(sraar, args.workload, args.seed, work, args.smoke)
        if args.trace:
            attempts, metrics = traced(run, OUT_DIR / f"{stem}-spans.jsonl")
            units, quality = LAYER_UNITS, {}
        else:
            attempts, metrics, quality = end_to_end(run, args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    failed = sum(1 for a in attempts if a["problems"])
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "p2_workers": worker_count(sraar, run.size),
        "blas_env": BLAS_ENV,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    print(f"== {args.workload} seed={args.seed} trace={args.trace} size={run.size} "
          f"args={' '.join(run.recon_args) or '(defaults)'}")
    print("   " + " ".join(f"{k}={v}" for k, v in env.items()))
    print_table("per-layer metrics (traced run)" if args.trace else "end-to-end metrics", metrics, units)
    if quality:
        print_table("quality (median over the repeats; reported, no bound)", quality,
                    {**QUALITY_UNITS, "naive_rmse_rel": "ratio"})
    print(f"  {'error_rate':36s} {failed / len(attempts):>14.6g} ratio ({failed} of {len(attempts)} failed)")
    result = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": run.size, "recon_args": run.recon_args, "env": env, "quality": quality,
              "import_samples_s": run.import_seconds, "setup_samples_s": run.setup_seconds,
              "recon_samples_s": [a.get("wall") for a in attempts],
              "recon_cpu_samples_s": [a.get("cpu") for a in attempts],
              "problems": [p for a in attempts for p in a["problems"]]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Run every workload, untraced then traced, each in its own process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n" if proc.returncode == 0 else "")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"bench: {name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            results[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{key}/{metric}": value for key, r in results.items() for metric, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat the reconstruction")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"shrink every workload to {SMOKE_SIZE}x{SMOKE_SIZE}, {SMOKE_ITERS} iterations")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
