import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sraar import (
    FrequencyGrid,
    MotionBounds,
    MotionEstimate,
    MotionTrajectory,
    ReconConfig,
    dft2,
    estimate_line_shift,
    haar_forward,
    l1_norm,
    project_fourier,
    project_sparse,
    shepp_logan,
    trajectory_error,
)
from conftest import random_complex
from reference_impls import loop_haar_forward, scan_l1_projection
from scenarios import make_scenario


class TestProjectSparse:
    def test_interior_point_returned_unchanged(self, rng):
        m = random_complex(rng, (8, 8))
        c = 2.0 * l1_norm(haar_forward(m))
        out = project_sparse(m, c)
        assert np.array_equal(out, m)
        assert out is not m

    def test_zero_budget_gives_zero_image(self, rng):
        out = project_sparse(random_complex(rng, (8, 8)), 0.0)
        assert np.array_equal(out, np.zeros((8, 8), dtype=np.complex128))

    def test_invalid_budget_rejected(self, rng):
        m = random_complex(rng, (8, 8))
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                project_sparse(m, bad)

    def test_result_feasible(self, rng):
        for _ in range(20):
            m = random_complex(rng, (16, 16))
            c = 0.3 * l1_norm(haar_forward(m))
            out = project_sparse(m, c)
            assert l1_norm(haar_forward(out)) <= c * (1.0 + 1e-9)

    def test_matches_threshold_scan_oracle(self, rng):
        for _ in range(50):
            m = random_complex(rng, (8, 8))
            base = l1_norm(haar_forward(m))
            c = float(rng.uniform(0.05, 0.95)) * base
            got = haar_forward(project_sparse(m, c)).data
            want = scan_l1_projection(loop_haar_forward(m, 3).ravel(), c).reshape(8, 8)
            assert np.abs(got - want).max() <= 1e-6

    def test_idempotent(self, rng):
        m = random_complex(rng, (16, 16))
        c = 0.4 * l1_norm(haar_forward(m))
        once = project_sparse(m, c)
        twice = project_sparse(once, c)
        assert np.abs(twice - once).max() <= 1e-10

    def test_coefficient_phases_preserved(self, rng):
        m = random_complex(rng, (8, 8))
        c = 0.3 * l1_norm(haar_forward(m))
        before = haar_forward(m).data.ravel()
        after = haar_forward(project_sparse(m, c)).data.ravel()
        cross = after * np.conj(before)
        # surviving coefficients are non-negative real multiples of the originals
        assert np.abs(cross.imag).max() <= 1e-12 * np.abs(before).max() ** 2
        assert cross.real.min() >= -1e-12

    @pytest.mark.parametrize("scale, c", [(1.0, 1e-300), (1e8, 1e-9)])
    def test_budget_lost_to_rounding_gives_zero_image(self, scale, c):
        # c vanishes against the largest modulus, so no threshold index passes
        out = project_sparse(scale * shepp_logan(64), c)
        assert np.all(np.isfinite(out))
        assert l1_norm(haar_forward(out)) <= c


@settings(max_examples=200, deadline=None)
@given(
    size=st.sampled_from([4, 8, 16]),
    seed=st.integers(0, 2**32 - 1),
    log10_scale=st.floats(-8.0, 8.0),
    budget=st.floats(0.0, 1.0),
)
def test_project_sparse_properties(size, seed, log10_scale, budget):
    """P1 never raises, stays finite and feasible, and is idempotent for any
    budget between 1e-300 and the input's full wavelet l1 norm."""
    m = 10.0**log10_scale * random_complex(np.random.default_rng(seed), (size, size))
    full = l1_norm(haar_forward(m))
    c = min(full, np.exp((1.0 - budget) * np.log(1e-300) + budget * np.log(full)))
    once = project_sparse(m, c)
    assert np.all(np.isfinite(once))
    assert l1_norm(haar_forward(once)) <= c + 1e-9 * full
    twice = project_sparse(once, c)
    assert np.abs(twice - once).max() <= 1e-9 * np.abs(m).max()


class TestEstimateLineShift:
    def make_line(self, rng, n=64):
        # spectrum of a random real image row: smooth enough for interpolation
        return dft2(rng.standard_normal((n, n)))[n // 4]

    def test_identical_lines_give_zero_shift_full_score(self, rng):
        ref = self.make_line(rng)
        est = estimate_line_shift(ref, ref, 0.125, MotionBounds(5.0, 5.0))
        assert abs(est.beta_x) <= 1e-9
        assert abs(est.beta_y) <= 1e-9
        assert est.score >= 1.0 - 1e-12

    def test_recovers_known_shift(self, rng):
        grid = FrequencyGrid(64)
        bounds = MotionBounds(5.0, 5.0)
        k_y = 0.125  # principal window is 4 px
        for _ in range(25):
            ref = self.make_line(rng)
            bx, by = rng.uniform(-5, 5), rng.uniform(-2, 2)
            obs = ref * np.exp(-2j * np.pi * (grid.coords * bx + k_y * by))
            est = estimate_line_shift(obs, ref, k_y, bounds)
            assert abs(est.beta_x - bx) <= 0.05
            assert abs(est.beta_y - by) <= 0.05
            assert est.score >= 0.999

    def test_zero_energy_line(self):
        zeros = np.zeros(64, dtype=np.complex128)
        est = estimate_line_shift(zeros, zeros, 0.25, MotionBounds(5.0, 5.0))
        assert est == (0.0, 0.0, 0.0)

    def test_dc_line_fixes_beta_y_and_ignores_global_phase(self, rng):
        grid = FrequencyGrid(64)
        bounds = MotionBounds(5.0, 5.0)
        ref = self.make_line(rng)
        obs = ref * np.exp(-2j * np.pi * grid.coords * 1.7)
        est = estimate_line_shift(obs, ref, 0.0, bounds)
        assert est.beta_y == 0.0
        assert abs(est.beta_x - 1.7) <= 0.05
        rotated = estimate_line_shift(obs * np.exp(1j * 0.9), ref, 0.0, bounds)
        assert rotated.beta_x == pytest.approx(est.beta_x, abs=1e-9)

    def test_out_of_window_shift_folds_to_principal_alias(self, rng):
        grid = FrequencyGrid(64)
        bounds = MotionBounds(5.0, 5.0)
        k_y = 0.4  # period 2.5 px, window 1.25 px
        ref = self.make_line(rng)
        obs = ref * np.exp(-2j * np.pi * (grid.coords * 0.0 + k_y * 2.0))
        est = estimate_line_shift(obs, ref, k_y, bounds)
        assert abs(est.beta_y - (-0.5)) <= 0.05

    def test_bad_inputs(self, rng):
        bounds = MotionBounds(5.0, 5.0)
        line = self.make_line(rng)
        with pytest.raises(ValueError, match="differ in length"):
            estimate_line_shift(line[:32], line, 0.1, bounds)
        with pytest.raises(ValueError, match="power of two"):
            estimate_line_shift(line[:30], line[:30], 0.1, bounds)
        with pytest.raises(ValueError):
            estimate_line_shift(line, line, 0.1, bounds, grid_step=0.0)


class TestMotionEstimate:
    def test_score_validation(self):
        traj = MotionTrajectory.zero(4)
        with pytest.raises(ValueError):
            MotionEstimate(traj, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            MotionEstimate(traj, np.array([0.1, 0.2, 0.3, 1.5]))
        est = MotionEstimate(traj, np.array([0.0, 0.5, 1.0, 0.25]))
        with pytest.raises(ValueError):
            est.scores[0] = 0.9


class TestProjectFourier:
    def test_fixed_point_on_motion_free_data(self, phantom64):
        observed = dft2(phantom64)
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0), threads=1)
        corrected, est = project_fourier(phantom64, observed, cfg)
        assert np.abs(est.traj.shifts).max() <= 1e-9
        assert np.abs(corrected - phantom64).max() <= 1e-12

    def test_recovers_trajectory_given_true_image(self):
        scenario = make_scenario(128, 0, 3.5)
        cfg = ReconConfig(
            bounds=MotionBounds(5.0, 5.0), amplitude_replacement=False, threads=1
        )
        corrected, est = project_fourier(scenario.gt, scenario.observed, cfg)
        err_x, err_y = trajectory_error(est.traj, scenario.truth, scenario.weights)
        assert err_x <= 0.02
        assert err_y <= 0.02
        rel = np.linalg.norm(corrected - scenario.gt) / np.linalg.norm(scenario.gt)
        assert rel <= 0.01

    def test_output_explains_observation(self, rng, phantom64):
        scenario = make_scenario(64, 1, 3.5)
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0), threads=1)
        corrected, est = project_fourier(phantom64, scenario.observed, cfg)
        from sraar import apply_translation

        back = apply_translation(dft2(corrected), est.traj)
        assert np.abs(back - scenario.observed).max() <= 1e-10 * np.abs(scenario.observed).max()

    def test_thread_count_does_not_change_bits(self, phantom64):
        scenario = make_scenario(64, 2, 3.5)
        base = dict(bounds=MotionBounds(5.0, 5.0))
        one = ReconConfig(threads=1, **base)
        four = ReconConfig(threads=4, **base)
        img1, est1 = project_fourier(phantom64, scenario.observed, one)
        img4, est4 = project_fourier(phantom64, scenario.observed, four)
        assert np.array_equal(img1, img4)
        assert np.array_equal(est1.traj.shifts, est4.traj.shifts)
        assert np.array_equal(est1.scores, est4.scores)

    def test_estimated_trajectory_is_in_bounds_and_gauge_free(self, phantom64):
        scenario = make_scenario(64, 3, 3.5)
        bounds = MotionBounds(2.0, 2.0)
        cfg = ReconConfig(bounds=bounds, threads=1)
        _, est = project_fourier(phantom64, scenario.observed, cfg)
        assert bounds.contains(est.traj)
        assert np.all(est.scores >= 0) and np.all(est.scores <= 1)

    def test_shape_mismatch_rejected(self, rng, phantom64):
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0))
        with pytest.raises(ValueError):
            project_fourier(phantom64, random_complex(rng, (32, 32)), cfg)
