import warnings

import numpy as np
import pytest

from sraar import EvalReport, MotionEstimate, MotionTrajectory, image_metrics, trajectory_error
from sraar.core import normalized_line_weights
from conftest import random_complex
from reference_impls import loop_rmse_metrics


class TestImageMetrics:
    def test_exact_match(self, phantom64):
        rmse, psnr = image_metrics(phantom64, phantom64)
        assert rmse == 0.0
        assert psnr == float("inf")

    def test_global_phase_invisible(self, phantom64):
        rmse, psnr = image_metrics(phantom64 * np.exp(0.7j), phantom64)
        assert rmse <= 1e-14
        assert psnr > 250.0

    def test_zeros_against_ones(self):
        gt = np.ones((8, 8))
        rmse, psnr = image_metrics(np.zeros((8, 8)), gt)
        assert rmse == 1.0
        assert psnr == 0.0

    def test_matches_loop_oracle(self, rng):
        for _ in range(10):
            gt = random_complex(rng, (8, 8))
            x = random_complex(rng, (8, 8))
            rmse, psnr = image_metrics(x, gt)
            rmse_ref, psnr_ref = loop_rmse_metrics(x, gt)
            assert rmse == pytest.approx(rmse_ref, rel=1e-12)
            assert psnr == pytest.approx(psnr_ref, abs=1e-9)

    def test_zero_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            image_metrics(np.ones((4, 4)), np.zeros((4, 4)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            image_metrics(np.ones((4, 4)), np.ones((8, 8)))


class TestTrajectoryError:
    def test_constant_offset_is_gauge(self, rng):
        true = MotionTrajectory(rng.uniform(-3, 3, (32, 2)))
        est = MotionTrajectory(true.shifts + np.array([1.25, -0.75]))
        ex, ey = trajectory_error(est, true)
        assert ex <= 1e-12
        assert ey <= 1e-12

    def test_known_perturbation_scale(self, rng):
        # zero-mean Gaussian perturbation: RMS should sit near sigma
        sigma = 0.3
        true = MotionTrajectory.zero(4096)
        noise = rng.normal(0.0, sigma, (4096, 2))
        est = MotionTrajectory(noise)
        ex, ey = trajectory_error(est, true)
        assert abs(ex - sigma) <= 0.2 * sigma
        assert abs(ey - sigma) <= 0.2 * sigma

    def test_weights_concentrate_error(self):
        true = MotionTrajectory.zero(4)
        shifts = np.zeros((4, 2))
        shifts[2, 0] = 1.0
        est = MotionTrajectory(shifts)
        # all weight on an exact line: after gauge removal nothing remains
        w = np.array([0.0, 0.0, 1.0, 0.0])
        ex, ey = trajectory_error(est, true, w)
        assert ex == 0.0 and ey == 0.0
        # uniform weights keep three quarters of the offset
        ex_u, _ = trajectory_error(est, true)
        assert ex_u == pytest.approx(np.sqrt(3) / 4, rel=1e-12)

    def test_validation(self, rng):
        a = MotionTrajectory.zero(8)
        with pytest.raises(ValueError):
            trajectory_error(a, MotionTrajectory.zero(4))
        with pytest.raises(ValueError):
            trajectory_error(a, a, np.zeros(8))
        with pytest.raises(ValueError):
            trajectory_error(a, a, -np.ones(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        # a NaN weight once gave (nan, nan)
        a = MotionTrajectory.zero(4)
        with pytest.raises(ValueError, match="weights contains non-finite values"):
            trajectory_error(a, a, [bad, 1.0, 1.0, 1.0])

    def test_weights_whose_sum_overflows(self):
        # finite weights summing past the float range once normalized to all
        # zeros and gave (0, 0) after an overflow warning
        a = MotionTrajectory.zero(4)
        shifts = np.zeros((4, 2))
        shifts[0, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ex, ey = trajectory_error(MotionTrajectory(shifts), a, [1e308, 1e308, 1.0, 1.0])
        assert ex == pytest.approx(0.5, rel=1e-12)
        assert ey == 0.0

    def test_finite_weight_sum_keeps_its_bits(self, rng):
        w = rng.uniform(0.0, 1e300, 16)
        assert np.array_equal(normalized_line_weights(w, 16), w / w.sum())

    @pytest.mark.parametrize("position", [0, 1])
    def test_motion_estimate_for_a_trajectory_is_named(self, position):
        traj = MotionTrajectory.zero(4)
        args = [traj, traj]
        args[position] = MotionEstimate(traj, np.ones(4))
        name = ("est", "true_traj")[position]
        with pytest.raises(ValueError, match=f"{name} must be a MotionTrajectory, got MotionEstimate"):
            trajectory_error(*args)

    def test_line_count_mismatch_names_both_counts(self):
        a = MotionTrajectory.zero(4)
        with pytest.raises(ValueError, match="4 lines, 3 weights"):
            trajectory_error(a, a, np.ones(3))
        with pytest.raises(ValueError, match="got 4 and 8"):
            trajectory_error(a, MotionTrajectory.zero(8))


class TestEvalReport:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            EvalReport(0.01, 40.0, 100.0, 101.0)

    def test_as_dict_drops_unset_and_orders(self):
        report = EvalReport(rmse_rel=0.01, psnr_db=40.0, l1_gt=100.0, l1_recon=101.0)
        d = report.as_dict()
        assert list(d) == ["rmse_rel", "psnr_db", "l1_gt", "l1_recon"]

    def test_as_dict_full(self):
        report = EvalReport(
            rmse_rel=0.01, psnr_db=40.0, l1_gt=100.0, l1_recon=101.0,
            l1_corrupted=250.0, naive_rmse_rel=0.4, traj_rms_x=0.1, traj_rms_y=0.2,
            iterations=100, wall_time_s=12.5,
        )
        d = report.as_dict()
        assert list(d) == [
            "rmse_rel", "psnr_db", "l1_gt", "l1_corrupted", "l1_recon",
            "naive_rmse_rel", "traj_rms_x", "traj_rms_y", "iterations", "wall_time_s",
        ]
        assert d["l1_corrupted"] == 250.0
