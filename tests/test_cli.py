import contextlib
import csv
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sraar import (
    MotionBounds,
    MotionTrajectory,
    ReconConfig,
    TrajectoryGenConfig,
    corrupt,
    dft2,
    generate_trajectory,
    load_array,
    save_array,
    save_trajectory,
    shepp_logan,
    solve_sraar,
)
from sraar import solvers
from sraar.cli import build_parser, main, reconstruct_config
from sraar.fileio import load_trace_csv
from scenarios import make_scenario

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small simulated acquisition shared by the reconstruction tests."""
    out = tmp_path_factory.mktemp("sim")
    rc = main([
        "simulate", "--phantom", "shepp-logan", "--size", "64",
        "--max-shift-x", "1.5", "--max-shift-y", "1.5", "--seed", "0",
        "--out-dir", str(out),
    ])
    assert rc == 0
    return out


RECON_ARGS = [
    "--max-shift-x", "2", "--max-shift-y", "2",
    "--iters", "5",
]


class TestSimulate:
    def test_writes_outputs_and_summary(self, tmp_path, capsys):
        rc = main([
            "simulate", "--phantom", "shepp-logan", "--size", "32",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        for name in ("ground_truth.srr", "trajectory.txt", "kspace.srr"):
            assert (tmp_path / "out" / name).is_file()
        line = capsys.readouterr().out
        for key in ("l1_gt=", "l1_corrupted=", "l1_motion_only="):
            assert key in line

    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--phantom", "shepp-logan", "--size", "32", "--seed", "3"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("ground_truth.srr", "trajectory.txt", "kspace.srr"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_noise_changes_kspace_only(self, tmp_path):
        base = ["simulate", "--phantom", "shepp-logan", "--size", "32", "--seed", "1"]
        assert main(base + ["--out-dir", str(tmp_path / "clean")]) == 0
        assert main(base + ["--snr-db", "20", "--out-dir", str(tmp_path / "noisy")]) == 0
        same = (tmp_path / "clean" / "ground_truth.srr").read_bytes()
        assert same == (tmp_path / "noisy" / "ground_truth.srr").read_bytes()
        assert (tmp_path / "clean" / "kspace.srr").read_bytes() != (
            tmp_path / "noisy" / "kspace.srr").read_bytes()

    @pytest.mark.parametrize("snr_db", [None, 20.0])
    def test_kspace_is_the_saved_corrupt_output(self, tmp_path, snr_db):
        # simulate takes the spectrum once and adds corrupt's noise to the
        # clean k-space; the file must hold corrupt's bytes
        args = ["simulate", "--phantom", "shepp-logan", "--size", "32", "--seed", "4",
                "--max-shift-x", "2", "--max-shift-y", "3", "--out-dir", str(tmp_path / "out")]
        assert main(args + ([] if snr_db is None else ["--snr-db", str(snr_db)])) == 0
        gt = shepp_logan(32)
        energy = np.sum(np.abs(dft2(gt)) ** 2, axis=1)
        traj = generate_trajectory(TrajectoryGenConfig(MotionBounds(2.0, 3.0), seed=4), 32, gauge_weights=energy)
        save_trajectory(tmp_path / "trajectory.txt", traj)
        save_array(tmp_path / "kspace.srr", corrupt(gt, traj, noise_snr_db=snr_db, seed=4))
        for name in ("trajectory.txt", "kspace.srr"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_input_file_as_ground_truth(self, tmp_path, capsys):
        src = tmp_path / "gt.srr"
        save_array(src, 2.0 * shepp_logan(32).real)
        rc = main(["simulate", "--input", str(src), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        stored = load_array(tmp_path / "out" / "ground_truth.srr")
        assert not np.iscomplexobj(stored)  # a real image stays float32
        assert stored.max() == pytest.approx(1.0, abs=1e-6)  # normalized before use

    def test_complex_input_is_stored_with_its_phase(self, tmp_path, capsys):
        # evaluate must score against the image that was simulated, not its
        # real part
        n = 32
        ramp = np.exp(2j * np.pi * np.arange(n) / n)
        gt = shepp_logan(n) * ramp[:, None]
        src = tmp_path / "gt.srr"
        save_array(src, gt)
        assert main(["simulate", "--input", str(src), "--out-dir", str(tmp_path / "out")]) == 0
        stored = load_array(tmp_path / "out" / "ground_truth.srr")
        np.testing.assert_allclose(stored, gt, rtol=0.0, atol=1e-6)
        capsys.readouterr()
        assert main(["evaluate", "--recon", str(src),
                     "--gt", str(tmp_path / "out" / "ground_truth.srr")]) == 0
        values = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert float(values["rmse_rel"]) < 1e-6

    def test_trajectory_centered_on_energy_gauge(self, dataset):
        # simulate centers shifts on the line-energy gauge but keeps the
        # requested peak magnitude exact
        from sraar import load_trajectory

        traj = load_trajectory(dataset / "trajectory.txt")
        observed = load_array(dataset / "kspace.srr")
        w = np.sum(np.abs(observed) ** 2, axis=1)
        w = w / w.sum()
        assert abs(w @ traj.dx) <= 1e-6
        assert abs(w @ traj.dy) <= 1e-6
        assert np.abs(traj.dx).max() == pytest.approx(1.5, abs=1e-8)
        assert np.abs(traj.dy).max() == pytest.approx(1.5, abs=1e-8)

    def test_bad_size_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--phantom", "shepp-logan", "--size", "100",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "sraar simulate:" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["nan", "-inf", "-4000"])
    def test_non_finite_noise_level_exits_2(self, tmp_path, capsys, snr):
        rc = main(["simulate", "--phantom", "shepp-logan", "--size", "32",
                   f"--snr-db={snr}", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "non-finite noise level" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_noise_beyond_single_precision_exits_2(self, tmp_path, capsys):
        # finite in double precision, but Inf once stored as complex64
        rc = main(["simulate", "--phantom", "shepp-logan", "--size", "16",
                   "--snr-db=-3000", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "single-precision range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_infinite_snr_adds_no_noise(self, tmp_path):
        base = ["simulate", "--phantom", "shepp-logan", "--size", "32", "--seed", "1"]
        assert main(base + ["--out-dir", str(tmp_path / "clean")]) == 0
        assert main(base + ["--snr-db=inf", "--out-dir", str(tmp_path / "inf")]) == 0
        assert (tmp_path / "clean" / "kspace.srr").read_bytes() == (
            tmp_path / "inf" / "kspace.srr").read_bytes()

    def test_phantom_and_input_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--phantom", "shepp-logan", "--input", "x.srr",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_out_dir_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--phantom", "shepp-logan"])
        assert exc.value.code == 2

    def test_smoothness_is_not_a_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--phantom", "shepp-logan", "--smoothness", "8",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --smoothness 8" in capsys.readouterr().err


class TestReconstruct:
    def test_threads_is_not_a_flag(self, dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--kspace", str(dataset / "kspace.srr"), "--threads", "1",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err

    def test_default_grid_leaves_out_three_tenths(self):
        args = build_parser().parse_args(["reconstruct", "--kspace", "k.srr", "--out-dir", "out"])
        assert reconstruct_config(args).c_grid == (0.5, 0.7)

    @pytest.mark.parametrize("grid, calls", [([], 2), (["--c-grid", "0.3,0.5,0.7"], 3), (["--c", "300"], 1),
                                             (["--solver", "er", "--c-grid", "0.3,0.5"], 2)])
    def test_solver_calls_per_grid(self, dataset, tmp_path, monkeypatch, grid, calls):
        run, budgets = solvers._steps, []

        def counted(work, cfg):
            budgets.append(cfg.c)
            return run(work, cfg)

        monkeypatch.setattr(solvers, "_steps", counted)
        rc = main(["reconstruct", "--kspace", str(dataset / "kspace.srr"),
                   "--out-dir", str(tmp_path)] + grid + RECON_ARGS)
        assert rc == 0
        assert len(budgets) == calls

    def test_pipeline_outputs(self, dataset, tmp_path, capsys):
        out = tmp_path / "rec"
        rc = main(["reconstruct", "--kspace", str(dataset / "kspace.srr"),
                   "--c-grid", "0.4,0.6", "--out-dir", str(out)] + RECON_ARGS)
        assert rc == 0
        for name in ("recon.srr", "est_trajectory.txt", "trace.csv"):
            assert (out / name).is_file()
        trace = load_trace_csv(out / "trace.csv")
        assert trace["iter"].size == 5
        line = capsys.readouterr().out
        # fewer iterations than the patience: the sparsest P2 output is returned, none stops
        assert " iters=5 returned=" in line and "returned=terminal" not in line
        fields = dict(f.split("=", 1) for f in line.split()[1:])
        assert fields["final_misfit"] == f"{trace['misfit'][int(fields['returned']) - 1]:.6g}"

    def test_fixed_budget_summary_names_terminal_pass(self, dataset, tmp_path, capsys):
        rc = main(["reconstruct", "--kspace", str(dataset / "kspace.srr"), "--c", "300",
                   "--out-dir", str(tmp_path / "rec")] + RECON_ARGS)
        assert rc == 0
        line = capsys.readouterr().out
        assert " iters=5 returned=terminal " in line
        misfit = load_trace_csv(tmp_path / "rec" / "trace.csv")["misfit"][-1]
        assert f" final_misfit={misfit:.6g} " in line

    def test_deterministic_reruns(self, dataset, tmp_path):
        args = ["reconstruct", "--kspace", str(dataset / "kspace.srr"),
                "--c", "300"] + RECON_ARGS
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("recon.srr", "est_trajectory.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_outputs_do_not_depend_on_blas_thread_count(self, blas_runs):
        one, two = blas_runs
        assert one["iter"] == [str(i) for i in range(1, 11)]
        for key in ("recon.srr", "est_trajectory.txt", "iter", "l1"):
            assert one[key] == two[key], key

    def test_trace_misfit_does_not_depend_on_blas_thread_count(self, blas_runs):
        one, two = blas_runs
        assert one["misfit"] == two["misfit"]

    def test_peak_memory_of_one_reconstruct(self, tmp_path):
        # measured 5.15 n x n complex arrays at 256^2 with the default grid:
        # the CLI passes the loaded k-space as a temporary, which the solve
        # drops once its workspace holds D * observed, and SRAAR keeps its
        # iterate image in the workspace.  It was 6.22 with a P2 output
        # buffer and a mask of their own, and 7.22 with an image buffer of
        # its own
        n = 256
        save_array(tmp_path / "k.srr", make_scenario(n, 4, 5.0).observed)
        args = ["reconstruct", "--kspace", str(tmp_path / "k.srr"), "--out-dir", str(tmp_path / "rec"),
                "--max-shift-x", "5", "--max-shift-y", "5", "--iters", "5"]
        assert main(args) == 0
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # before CPython 3.11 the caller's stack holds the argument until the call returns
        held = 0 if sys.version_info >= (3, 11) else 1
        assert peak < (5.15 + held + 0.5) * n * n * 16

    def test_theta_one_matches_library(self, dataset, tmp_path):
        out = tmp_path / "rec"
        rc = main(["reconstruct", "--kspace", str(dataset / "kspace.srr"),
                   "--theta", "1.0", "--c", "250", "--out-dir", str(out)] + RECON_ARGS)
        assert rc == 0
        observed = load_array(dataset / "kspace.srr")
        cfg = ReconConfig(bounds=MotionBounds(2.0, 2.0), theta=1.0, iterations=5, c=250.0)
        image, _, _ = solve_sraar(observed, cfg)
        stored = load_array(out / "recon.srr")
        assert np.abs(stored - image).max() <= 1e-5 * np.abs(image).max()

    def test_er_needs_budget(self, dataset, tmp_path, capsys):
        rc = main(["reconstruct", "--kspace", str(dataset / "kspace.srr"),
                   "--solver", "er", "--out-dir", str(tmp_path)] + RECON_ARGS)
        assert rc == 2
        assert "--c" in capsys.readouterr().err

    def test_bad_theta_exits_2(self, dataset, tmp_path):
        rc = main(["reconstruct", "--kspace", str(dataset / "kspace.srr"),
                   "--theta", "1.5", "--c", "300", "--out-dir", str(tmp_path)] + RECON_ARGS)
        assert rc == 2

    def test_budget_flags_mutually_exclusive(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--kspace", str(dataset / "kspace.srr"),
                  "--c", "300", "--c-grid", "0.5", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_unparsable_grid_exits_2(self, dataset, tmp_path, capsys):
        rc = main(["reconstruct", "--kspace", str(dataset / "kspace.srr"),
                   "--c-grid", "0.3,x", "--out-dir", str(tmp_path)] + RECON_ARGS)
        assert rc == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("budget", [["--c", "5"], []])
    def test_non_finite_kspace_exits_2(self, tmp_path, capsys, bad, budget):
        observed = np.ones((32, 32), dtype=np.complex128)
        observed[3, 7] = bad
        save_array(tmp_path / "k.srr", observed)
        rc = main(["reconstruct", "--kspace", str(tmp_path / "k.srr"),
                   "--out-dir", str(tmp_path / "out")] + budget + RECON_ARGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("sraar reconstruct:") and "non-finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", [1e155, 1e-170])
    def test_out_of_range_kspace_exits_2(self, dataset, tmp_path, capsys, monkeypatch, scale):
        # the .srr format holds single precision, so such a k-space reaches
        # the CLI only through its loader
        observed = load_array(dataset / "kspace.srr")
        monkeypatch.setattr("sraar.cli.load_array", lambda path: scale * observed)
        rc = main(["reconstruct", "--kspace", str(dataset / "kspace.srr"),
                   "--out-dir", str(tmp_path / "out")] + RECON_ARGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("sraar reconstruct: observed k-space has peak modulus") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("budget", [["--c", "10"], []])
    def test_non_square_kspace_exits_2_naming_its_shape(self, tmp_path, capsys, budget):
        save_array(tmp_path / "k.srr", np.ones((8, 16), dtype=np.complex128))
        rc = main(["reconstruct", "--kspace", str(tmp_path / "k.srr"),
                   "--out-dir", str(tmp_path / "out")] + budget + RECON_ARGS)
        assert rc == 2
        assert capsys.readouterr().err == (
            "sraar reconstruct: observed k-space must be square 2-D, got shape (8, 16)\n")
        assert not (tmp_path / "out").exists()

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(0, 12), header=st.binary(min_size=13, max_size=13), garble=st.booleans())
    def test_malformed_header_exits_2(self, tmp_path_factory, cut, header, garble):
        """A header cut short, or any other 13 header bytes in front of a
        valid payload, is refused with exit 2 and no traceback."""
        path = tmp_path_factory.mktemp("hdr") / "k.srr"
        save_array(path, np.ones((16, 16), dtype=np.complex128))
        blob = path.read_bytes()
        if garble:
            assume(header != blob[:13])
            path.write_bytes(header + blob[13:])
        else:
            path.write_bytes(blob[:cut])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["reconstruct", "--kspace", str(path), "--c", "5", "--iters", "1",
                       "--out-dir", str(path.parent / "out")])
        assert rc == 2
        assert err.getvalue().startswith("sraar reconstruct:")

    def test_oversized_search_grid_exits_2(self, dataset, tmp_path, capsys):
        # the readout-shift grid would need more than 128 TiB, which no
        # machine grants
        rc = main(["reconstruct", "--kspace", str(dataset / "kspace.srr"), "--c", "300",
                   "--iters", "1", "--max-shift-x", "1e13", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("sraar reconstruct:") and err.count("\n") == 1

    def test_infinite_search_grid_exits_2(self, tmp_path, capsys):
        # 1e308 / 0.25 px overflows to inf, which has no integer point count
        assert main(["simulate", "--phantom", "shepp-logan", "--size", "32", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["reconstruct", "--kspace", str(tmp_path / "kspace.srr"), "--iters", "3",
                   "--max-shift-x", "1e308", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("sraar reconstruct:") and err.count("\n") == 1
        assert "max_abs_x=1e+308" in err

    def test_missing_kspace_exits_1(self, tmp_path, capsys):
        rc = main(["reconstruct", "--kspace", str(tmp_path / "nope.srr"),
                   "--c", "300", "--out-dir", str(tmp_path)] + RECON_ARGS)
        assert rc == 1

    def test_bad_flag_is_reported_before_the_kspace_is_read(self, tmp_path, capsys):
        rc = main(["reconstruct", "--kspace", str(tmp_path / "nope.srr"),
                   "--theta", "1.5", "--c", "300", "--out-dir", str(tmp_path)] + RECON_ARGS)
        assert rc == 2
        assert "theta must lie in (0, 1]" in capsys.readouterr().err


@pytest.fixture(scope="module")
def blas_runs(tmp_path_factory):
    """simulate --size 256, then reconstruct --iters 10, in child processes
    whose BLAS runs 1 and then 2 threads; the output files' bytes and the
    trace's columns of each."""
    runs = []
    for threads in (1, 2):
        out = tmp_path_factory.mktemp(f"threads{threads}")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        for argv in (["simulate", "--phantom", "shepp-logan", "--size", "256", "--out-dir", str(out)],
                     ["reconstruct", "--kspace", str(out / "kspace.srr"), "--iters", "10",
                      "--out-dir", str(out / "rec")]):
            subprocess.run([sys.executable, "-m", "sraar.cli", *argv], env=env, check=True,
                           capture_output=True, timeout=300)
        with open(out / "rec" / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        run = {name: (out / "rec" / name).read_bytes() for name in ("recon.srr", "est_trajectory.txt")}
        runs.append(run | {column: [row[column] for row in rows] for column in ("iter", "misfit", "l1")})
    return runs


@pytest.fixture(scope="module")
def recon_dir(dataset, tmp_path_factory):
    # enough iterations to converge at this size, so quality checks hold
    out = tmp_path_factory.mktemp("rec")
    rc = main(["reconstruct", "--kspace", str(dataset / "kspace.srr"),
               "--c", "282", "--iters", "50",
               "--max-shift-x", "2", "--max-shift-y", "2",
               "--out-dir", str(out)])
    assert rc == 0
    return out


class TestEvaluate:
    def test_minimal_report(self, dataset, recon_dir, capsys):
        rc = main(["evaluate", "--recon", str(recon_dir / "recon.srr"),
                   "--gt", str(dataset / "ground_truth.srr")])
        assert rc == 0
        keys = [line.split("=")[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == ["rmse_rel", "psnr_db", "l1_gt", "l1_recon"]

    def test_full_report_and_out_file(self, dataset, recon_dir, tmp_path, capsys):
        report_path = tmp_path / "report.txt"
        rc = main(["evaluate", "--recon", str(recon_dir / "recon.srr"),
                   "--gt", str(dataset / "ground_truth.srr"),
                   "--est-traj", str(recon_dir / "est_trajectory.txt"),
                   "--true-traj", str(dataset / "trajectory.txt"),
                   "--kspace", str(dataset / "kspace.srr"),
                   "--trace", str(recon_dir / "trace.csv"),
                   "--out", str(report_path)])
        assert rc == 0
        text = capsys.readouterr().out
        keys = [line.split("=")[0] for line in text.splitlines()]
        assert keys == ["rmse_rel", "psnr_db", "l1_gt", "l1_corrupted", "l1_recon",
                        "naive_rmse_rel", "traj_rms_x", "traj_rms_y",
                        "iterations", "wall_time_s"]
        assert report_path.read_text() == text
        values = dict(line.split("=") for line in text.splitlines())
        assert int(values["iterations"]) == 50
        assert float(values["rmse_rel"]) < float(values["naive_rmse_rel"])
        assert float(values["traj_rms_x"]) < 0.5
        assert float(values["traj_rms_y"]) < 0.5

    @pytest.mark.parametrize("flag", ["--est-traj", "--true-traj"])
    def test_one_trajectory_alone_exits_2(self, dataset, recon_dir, tmp_path, capsys, flag):
        traj = {"--est-traj": recon_dir / "est_trajectory.txt", "--true-traj": dataset / "trajectory.txt"}[flag]
        report_path = tmp_path / "report.txt"
        rc = main(["evaluate", "--recon", str(recon_dir / "recon.srr"),
                   "--gt", str(dataset / "ground_truth.srr"),
                   flag, str(traj), "--out", str(report_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--est-traj and --true-traj go together" in captured.err
        assert not report_path.exists()

    def test_line_count_mismatch_exits_2_naming_both_counts(self, tmp_path, capsys):
        save_array(tmp_path / "image.srr", np.ones((4, 4)))
        save_array(tmp_path / "kspace.srr", np.ones((4, 4), complex))
        save_trajectory(tmp_path / "traj.txt", MotionTrajectory.zero(8))
        rc = main(["evaluate", "--recon", str(tmp_path / "image.srr"), "--gt", str(tmp_path / "image.srr"),
                   "--kspace", str(tmp_path / "kspace.srr"),
                   "--est-traj", str(tmp_path / "traj.txt"), "--true-traj", str(tmp_path / "traj.txt")])
        assert rc == 2
        assert "8 lines, 4 weights" in capsys.readouterr().err

    def test_missing_recon_exits_1(self, dataset, tmp_path):
        rc = main(["evaluate", "--recon", str(tmp_path / "nope.srr"),
                   "--gt", str(dataset / "ground_truth.srr")])
        assert rc == 1


class TestExportPgm:
    def test_export(self, dataset, tmp_path):
        out = tmp_path / "img.pgm"
        rc = main(["export-pgm", "--input", str(dataset / "ground_truth.srr"),
                   "--out", str(out)])
        assert rc == 0
        assert out.read_bytes().startswith(b"P5\n64 64\n65535\n")

    def test_empty_array_exits_2_naming_its_shape(self, tmp_path, capsys):
        save_array(tmp_path / "empty.srr", np.zeros((0, 5)))
        rc = main(["export-pgm", "--input", str(tmp_path / "empty.srr"), "--out", str(tmp_path / "e.pgm")])
        assert rc == 2
        assert "empty array of shape (0, 5)" in capsys.readouterr().err
        assert not (tmp_path / "e.pgm").exists()


class TestTopLevel:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
