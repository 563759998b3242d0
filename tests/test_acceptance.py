"""End-to-end acceptance checks for the package.

Each test covers one assured property, prints a single
``[acceptance NN] name: PASS|FAIL`` line, and asserts.  The two full-size
reconstruction checks (07, 08) dominate the runtime; the module finishes
in under a minute on desktop hardware.
"""

import time

import numpy as np

from sraar import (
    FrequencyGrid,
    MotionBounds,
    MotionTrajectory,
    ReconConfig,
    TrajectoryGenConfig,
    apply_translation,
    corrupt,
    dft2,
    estimate_line_shift,
    generate_trajectory,
    haar_forward,
    haar_inverse,
    idft2,
    image_metrics,
    invert_translation,
    l1_norm,
    load_array,
    naive_reconstruct,
    project_fourier,
    project_sparse,
    save_array,
    shepp_logan,
    solve_er,
    solve_sraar,
    trajectory_error,
)
from sraar.cli import main as cli_main
from sraar.fileio import load_trace_csv
from conftest import random_complex
from reference_impls import direct_centered_dft2, loop_haar_forward, scan_l1_projection
from scenarios import make_scenario


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status}")
    assert ok, f"acceptance {num:02d} {name} failed {detail}"


def test_01_translation_operator_algebra():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    ok = True
    for n in (16, 64, 256):
        zero = MotionTrajectory.zero(n)
        for _ in range(50):
            ksp = random_complex(rng, (n, n))
            a = MotionTrajectory(rng.uniform(-5, 5, (n, 2)))
            b = MotionTrajectory(rng.uniform(-5, 5, (n, 2)))
            scale = np.abs(ksp).max()
            ok &= np.array_equal(apply_translation(ksp, zero), ksp)
            back = invert_translation(apply_translation(ksp, a), a)
            ok &= np.abs(back - ksp).max() <= 1e-12 * scale
            moved = apply_translation(ksp, a)
            ok &= np.allclose(np.abs(moved), np.abs(ksp), rtol=1e-14, atol=0.0)
            composed = apply_translation(moved, b)
            ok &= np.abs(composed - apply_translation(ksp, a + b)).max() <= 1e-12 * scale
    elapsed = time.perf_counter() - start
    _report(1, "translation operator algebra", ok and elapsed < 10, f"(elapsed {elapsed:.1f}s)")


def test_02_integer_shifts_match_circular_rolls():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    ok = True
    for _ in range(20):
        img = random_complex(rng, (64, 64))
        sx, sy = (int(s) for s in rng.integers(-8, 9, size=2))
        traj = MotionTrajectory(np.tile([float(sx), float(sy)], (64, 1)))
        shifted = idft2(apply_translation(dft2(img), traj))
        oracle = np.roll(np.roll(img, sy, axis=0), sx, axis=1)
        ok &= np.abs(shifted - oracle).max() <= 1e-10
    elapsed = time.perf_counter() - start
    _report(2, "integer shifts match circular rolls", ok and elapsed < 5,
            f"(elapsed {elapsed:.1f}s)")


def test_03_transform_suite():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    ok = True
    # 30 cases: centered DFT against direct summation
    for case in range(30):
        n = (8, 16, 32)[case % 3]
        img = random_complex(rng, (n, n))
        direct = direct_centered_dft2(img)
        ok &= np.abs(dft2(img) - direct).max() <= 1e-10 * np.abs(direct).max()
    # 30 cases: round trips and unitarity of both transforms
    for case in range(30):
        n = (16, 32, 64)[case % 3]
        img = random_complex(rng, (n, n))
        norm = np.linalg.norm(img)
        ok &= np.abs(idft2(dft2(img)) - img).max() <= 1e-12 * np.abs(img).max()
        ok &= abs(np.linalg.norm(dft2(img)) - norm) <= 1e-12 * norm
        coeffs = haar_forward(img)
        ok &= np.abs(haar_inverse(coeffs) - img).max() <= 1e-12 * np.abs(img).max()
        ok &= abs(np.linalg.norm(coeffs.data) - norm) <= 1e-12 * norm
    # 20 cases: linearity
    for _ in range(20):
        x, y = random_complex(rng, (16, 16)), random_complex(rng, (16, 16))
        alpha, beta = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        combined = dft2(alpha * x + beta * y)
        ok &= np.abs(combined - alpha * dft2(x) - beta * dft2(y)).max() <= 1e-12 * np.abs(combined).max()
    # 20 cases: multi-level Haar against the explicit pair-loop reference
    for case in range(20):
        levels = 1 + case % 3
        img = random_complex(rng, (8, 8))
        got = haar_forward(img, levels).data
        ok &= np.abs(got - loop_haar_forward(img, levels)).max() <= 1e-12 * np.abs(got).max()
    elapsed = time.perf_counter() - start
    _report(3, "transform suite", ok and elapsed < 10, f"(elapsed {elapsed:.1f}s)")


def test_04_l1_projection_matches_scan_oracle():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        img = random_complex(rng, (8, 8))
        base = l1_norm(haar_forward(img))
        c = float(rng.uniform(0.05, 0.95)) * base
        out = project_sparse(img, c)
        ok &= l1_norm(haar_forward(out)) <= c * (1 + 1e-9)
        got = haar_forward(out).data.ravel()
        want = scan_l1_projection(loop_haar_forward(img, 3).ravel(), c)
        ok &= np.linalg.norm(got - want) <= 1e-6
        ok &= np.abs(got - want).max() <= 1e-6
    elapsed = time.perf_counter() - start
    _report(4, "l1-ball projection matches scan oracle", ok and elapsed < 30,
            f"(elapsed {elapsed:.1f}s)")


def test_05_motion_inflates_wavelet_l1():
    start = time.perf_counter()
    gt = shepp_logan(128)
    base = l1_norm(haar_forward(gt))
    bounds = MotionBounds(5.0, 5.0)
    inflated = 0
    for seed in range(20):
        traj = generate_trajectory(TrajectoryGenConfig(bounds, 8, seed), 128)
        corrupted = naive_reconstruct(corrupt(gt, traj))
        if l1_norm(haar_forward(corrupted)) > base:
            inflated += 1
    elapsed = time.perf_counter() - start
    _report(5, "motion inflates wavelet l1 norm", inflated >= 19 and elapsed < 120,
            f"({inflated}/20, elapsed {elapsed:.1f}s)")


def test_06_single_line_shift_estimation():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    grid = FrequencyGrid(64)
    bounds = MotionBounds(5.0, 5.0)
    spectra = [dft2(rng.standard_normal((64, 64))) for _ in range(5)]
    ok = True
    worst = 0.0
    for case in range(100):
        row = int(rng.integers(0, 64))
        if row == grid.dc_index:
            row = 1
        k_y = grid.coord(row)
        window = min(bounds.max_abs_y, 0.5 / abs(k_y))
        bx = float(rng.uniform(-5, 5))
        by = float(rng.uniform(-(window - 0.1), window - 0.1))
        ref = spectra[case % 5][row]
        obs = ref * np.exp(-2j * np.pi * (grid.coords * bx + k_y * by))
        est = estimate_line_shift(obs, ref, k_y, bounds)
        worst = max(worst, abs(est.beta_x - bx), abs(est.beta_y - by))
        ok &= abs(est.beta_x - bx) <= 0.05 and abs(est.beta_y - by) <= 0.05
    elapsed = time.perf_counter() - start
    _report(6, "single-line shift estimation", ok and elapsed < 30,
            f"(worst {worst:.4f}px, elapsed {elapsed:.1f}s)")


def test_07_full_scale_joint_recovery():
    start = time.perf_counter()
    results = []
    for seed in range(5):
        scenario = make_scenario(256, seed, 5.0)
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0), theta=0.9, iterations=100,
                          c=l1_norm(haar_forward(scenario.gt)))
        image, estimate, _ = solve_sraar(scenario.observed, cfg)
        rmse = image_metrics(image, scenario.gt)[0]
        naive_rmse = image_metrics(naive_reconstruct(scenario.observed), scenario.gt)[0]
        rms_x, rms_y = trajectory_error(estimate.traj, scenario.truth, scenario.weights)
        results.append((rmse, naive_rmse, rms_x, rms_y))
    passing = sum(
        rmse <= 0.05 and rms_x <= 0.5 and rms_y <= 0.5 and rmse <= naive_rmse / 5
        for rmse, naive_rmse, rms_x, rms_y in results
    )
    elapsed = time.perf_counter() - start
    _report(7, "full-scale joint recovery", passing >= 4 and elapsed < 900,
            f"({passing}/5 seeds, elapsed {elapsed:.1f}s, {results})")


def test_08_noisy_recovery_beats_naive():
    start = time.perf_counter()
    results = []
    for seed in range(5):
        scenario = make_scenario(128, seed, 5.0, snr_db=30.0)
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0), theta=0.9, iterations=200,
                          c=l1_norm(haar_forward(scenario.gt)))
        image, _, _ = solve_sraar(scenario.observed, cfg)
        rmse = image_metrics(image, scenario.gt)[0]
        naive_rmse = image_metrics(naive_reconstruct(scenario.observed), scenario.gt)[0]
        results.append((rmse, naive_rmse))
    ok = all(rmse < naive_rmse for rmse, naive_rmse in results)
    elapsed = time.perf_counter() - start
    _report(8, "noisy recovery beats naive reconstruction", ok and elapsed < 600,
            f"(elapsed {elapsed:.1f}s, {results})")


def test_09_motion_free_data_is_a_fixed_point():
    start = time.perf_counter()
    gt = shepp_logan(64)
    observed = dft2(gt)
    c = l1_norm(haar_forward(gt)) * (1 + 1e-6)
    ok = True
    for solver, solve in (("er", solve_er), ("sraar", solve_sraar)):
        cfg = ReconConfig(solver=solver, bounds=MotionBounds(5.0, 5.0), c=c,
                          iterations=20, threads=1)
        image, _, _ = solve(observed, cfg)
        ok &= np.linalg.norm(image - gt) / np.linalg.norm(gt) <= 1e-8
    elapsed = time.perf_counter() - start
    _report(9, "motion-free data is a fixed point", ok and elapsed < 60,
            f"(elapsed {elapsed:.1f}s)")


def test_10_full_relaxation_matches_reflection_composition():
    rng = np.random.default_rng(1010)
    start = time.perf_counter()
    ok = True
    for _ in range(5):
        observed = random_complex(rng, (16, 16))
        c = 0.5 * l1_norm(haar_forward(naive_reconstruct(observed)))
        cfg = ReconConfig(bounds=MotionBounds(2.0, 2.0), theta=1.0, c=c,
                          iterations=3, threads=1)
        image, _, _ = solve_sraar(observed, cfg)
        m = naive_reconstruct(observed)
        for _ in range(cfg.iterations):
            p2, _ = project_fourier(m, observed, cfg)
            r2 = 2.0 * p2 - m
            r1r2 = 2.0 * project_sparse(r2, c) - r2
            m = 0.5 * (r1r2 + m)
        expected, _ = project_fourier(m, observed, cfg)
        ok &= np.abs(image - expected).max() <= 1e-10
    elapsed = time.perf_counter() - start
    _report(10, "theta=1 matches reflection composition", ok and elapsed < 60,
            f"(elapsed {elapsed:.1f}s)")


def test_11_determinism_and_thread_independence():
    start = time.perf_counter()
    scenario = make_scenario(64, 7, 3.5)
    base = dict(bounds=MotionBounds(5.0, 5.0), theta=0.9, iterations=15, c=300.0)
    cfg_auto = ReconConfig(threads=0, **base)
    img_a, est_a, _ = solve_sraar(scenario.observed, cfg_auto)
    img_b, est_b, _ = solve_sraar(scenario.observed, cfg_auto)
    ok = np.array_equal(img_a, img_b)
    ok &= np.array_equal(est_a.traj.shifts, est_b.traj.shifts)
    ok &= np.array_equal(est_a.scores, est_b.scores)
    img_s, est_s, _ = solve_sraar(scenario.observed, ReconConfig(threads=1, **base))
    ok &= np.abs(img_s - img_a).max() <= 1e-10
    ok &= np.abs(est_s.traj.shifts - est_a.traj.shifts).max() <= 1e-10
    elapsed = time.perf_counter() - start
    _report(11, "determinism and thread independence", ok and elapsed < 300,
            f"(elapsed {elapsed:.1f}s)")


def test_12_cli_pipeline_round_trip(tmp_path):
    start = time.perf_counter()
    sim = tmp_path / "sim"
    rec = tmp_path / "rec"
    ok = cli_main(["simulate", "--phantom", "shepp-logan", "--size", "64",
                   "--seed", "0", "--out-dir", str(sim)]) == 0
    ok &= cli_main(["reconstruct", "--kspace", str(sim / "kspace.srr"),
                    "--c-grid", "0.5,0.7", "--iters", "10",
                    "--out-dir", str(rec)]) == 0
    ok &= cli_main(["evaluate", "--recon", str(rec / "recon.srr"),
                    "--gt", str(sim / "ground_truth.srr"),
                    "--est-traj", str(rec / "est_trajectory.txt"),
                    "--true-traj", str(sim / "trajectory.txt"),
                    "--kspace", str(sim / "kspace.srr"),
                    "--trace", str(rec / "trace.csv"),
                    "--out", str(tmp_path / "report.txt")]) == 0
    ok &= cli_main(["export-pgm", "--input", str(rec / "recon.srr"),
                    "--out", str(tmp_path / "recon.pgm")]) == 0
    if ok:
        ok &= load_trace_csv(rec / "trace.csv")["iter"].size == 10
        ok &= (tmp_path / "recon.pgm").read_bytes().startswith(b"P5\n64 64\n65535\n")
        ok &= (tmp_path / "report.txt").read_text().startswith("rmse_rel=")
        # stored arrays round-trip bit-for-bit through load and save
        resaved = tmp_path / "resaved.srr"
        save_array(resaved, load_array(rec / "recon.srr"))
        ok &= resaved.read_bytes() == (rec / "recon.srr").read_bytes()
    elapsed = time.perf_counter() - start
    _report(12, "CLI pipeline round trip", ok and elapsed < 60, f"(elapsed {elapsed:.1f}s)")
