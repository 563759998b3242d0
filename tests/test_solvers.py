import numpy as np
import pytest

from sraar import (
    MotionBounds,
    ReconConfig,
    apply_translation,
    dft2,
    haar_forward,
    l1_norm,
    naive_reconstruct,
    project_fourier,
    project_sparse,
    shepp_logan,
    solve_er,
    solve_sraar,
    tune_sparsity_budget,
)
from sraar.solvers import SolverTrace
from scenarios import make_scenario


def budget_of(img):
    return l1_norm(haar_forward(img))


class TestConfigHandling:
    def test_er_requires_fixed_budget(self, phantom64):
        cfg = ReconConfig(solver="er", c_grid=(0.3, 0.5))
        with pytest.raises(ValueError):
            solve_er(dft2(phantom64), cfg)

    def test_sraar_requires_fixed_budget(self, phantom64):
        cfg = ReconConfig(solver="sraar", c_grid=(0.3, 0.5))
        with pytest.raises(ValueError):
            solve_sraar(dft2(phantom64), cfg)

    def test_solver_name_must_match_entry_point(self, phantom64):
        with pytest.raises(ValueError):
            solve_er(dft2(phantom64), ReconConfig(solver="sraar", c=10.0))
        with pytest.raises(ValueError):
            solve_sraar(dft2(phantom64), ReconConfig(solver="er", c=10.0))

    def test_tuning_requires_grid(self, phantom64):
        with pytest.raises(ValueError):
            tune_sparsity_budget(dft2(phantom64), ReconConfig(c=10.0))


@pytest.fixture(scope="module")
def sparse_phantom():
    gt = shepp_logan(64)
    return project_sparse(gt, 0.6 * budget_of(gt))


class TestFixedPoint:
    """A sparse, motion-free image must be left alone by both solvers."""

    def test_er_fixed_point(self, sparse_phantom):
        observed = dft2(sparse_phantom)
        cfg = ReconConfig(solver="er", c=budget_of(sparse_phantom) * (1 + 1e-6),
                          iterations=20, threads=1)
        image, _, _ = solve_er(observed, cfg)
        rel = np.linalg.norm(image - sparse_phantom) / np.linalg.norm(sparse_phantom)
        assert rel <= 1e-8

    def test_sraar_fixed_point(self, sparse_phantom):
        observed = dft2(sparse_phantom)
        cfg = ReconConfig(solver="sraar", c=budget_of(sparse_phantom) * (1 + 1e-6),
                          theta=0.9, iterations=20, threads=1)
        image, _, _ = solve_sraar(observed, cfg)
        rel = np.linalg.norm(image - sparse_phantom) / np.linalg.norm(sparse_phantom)
        assert rel <= 1e-8


class TestThetaOneReduction:
    def test_matches_composition_of_public_projections(self, rng):
        # With theta = 1 each update is m <- (R1 R2 + I) m / 2; replay that
        # recurrence using only the public projections and compare.
        scenario = make_scenario(16, 5, 1.0, solver_bound=2.0)
        cfg = ReconConfig(solver="sraar", bounds=MotionBounds(2.0, 2.0), theta=1.0,
                          c=0.5 * budget_of(naive_reconstruct(scenario.observed)),
                          iterations=3, threads=1)
        image, _, _ = solve_sraar(scenario.observed, cfg)

        m = naive_reconstruct(scenario.observed)
        for _ in range(cfg.iterations):
            p2, _ = project_fourier(m, scenario.observed, cfg)
            r2 = 2.0 * p2 - m
            r1r2 = 2.0 * project_sparse(r2, cfg.c) - r2
            m = 0.5 * (r1r2 + m)
        expected, _ = project_fourier(m, scenario.observed, cfg)
        assert np.abs(image - expected).max() <= 1e-10


class TestSolverBehaviour:
    def test_er_beats_naive_on_small_example(self):
        scenario = make_scenario(64, 0, 1.5, solver_bound=2.0)
        cfg = ReconConfig(solver="er", bounds=MotionBounds(2.0, 2.0),
                          c=budget_of(scenario.gt), iterations=50, threads=1)
        image, _, trace = solve_er(scenario.observed, cfg)
        gt_mod = np.abs(scenario.gt)
        err = np.linalg.norm(np.abs(image) - gt_mod) / np.linalg.norm(gt_mod)
        naive = naive_reconstruct(scenario.observed)
        err_naive = np.linalg.norm(np.abs(naive) - gt_mod) / np.linalg.norm(gt_mod)
        assert err < err_naive
        assert trace.misfit[-1] < trace.misfit[0]

    def test_trace_length(self, phantom64):
        scenario = make_scenario(64, 1, 1.5, solver_bound=2.0)
        cfg = ReconConfig(solver="sraar", bounds=MotionBounds(2.0, 2.0),
                          c=budget_of(scenario.gt), iterations=7, threads=1)
        _, _, trace = solve_sraar(scenario.observed, cfg)
        assert len(trace) == 7
        assert len(trace.misfit) == len(trace.l1) == len(trace.seconds) == 7
        assert all(s >= 0 for s in trace.seconds)

    def test_deterministic_rerun(self):
        scenario = make_scenario(64, 2, 1.5, solver_bound=2.0)
        cfg = ReconConfig(solver="sraar", bounds=MotionBounds(2.0, 2.0),
                          c=budget_of(scenario.gt), iterations=5, threads=1)
        a, est_a, _ = solve_sraar(scenario.observed, cfg)
        b, est_b, _ = solve_sraar(scenario.observed, cfg)
        assert np.array_equal(a, b)
        assert np.array_equal(est_a.traj.shifts, est_b.traj.shifts)


def old_misfit(observed, sparse, estimate):
    """The trace misfit as first defined: distance in k-space to the data."""
    return np.linalg.norm(observed - apply_translation(dft2(sparse), estimate.traj))


class TestSharedDriver:
    """Both solvers run one driver; replay each with a hand-written loop."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return make_scenario(32, 4, 1.5, solver_bound=2.0)

    def config(self, scenario, solver):
        return ReconConfig(solver=solver, bounds=MotionBounds(2.0, 2.0), theta=0.9,
                           c=0.5 * budget_of(naive_reconstruct(scenario.observed)),
                           iterations=4, threads=1)

    def check(self, result, expected, estimate, misfit, l1):
        image, got_estimate, trace = result
        assert np.array_equal(image, expected)
        assert np.array_equal(got_estimate.traj.shifts, estimate.traj.shifts)
        assert trace.l1 == l1
        np.testing.assert_allclose(trace.misfit, misfit, rtol=1e-12, atol=0.0)

    def test_er_matches_hand_loop(self, scenario):
        cfg = self.config(scenario, "er")
        observed = scenario.observed
        m = naive_reconstruct(observed)
        misfit, l1 = [], []
        for _ in range(cfg.iterations):
            sparse = project_sparse(m, cfg.c)
            m, estimate = project_fourier(sparse, observed, cfg)
            misfit.append(old_misfit(observed, sparse, estimate))
            l1.append(budget_of(m))
        self.check(solve_er(observed, cfg), m, estimate, misfit, l1)

    def test_sraar_matches_hand_loop(self, scenario):
        cfg = self.config(scenario, "sraar")
        observed = scenario.observed
        m = naive_reconstruct(observed)
        misfit, l1 = [], []
        for _ in range(cfg.iterations):
            p2, estimate = project_fourier(m, observed, cfg)
            r2 = 2.0 * p2 - m
            sparse = project_sparse(r2, cfg.c)
            r1r2 = 2.0 * sparse - r2
            m = 0.5 * cfg.theta * (r1r2 + m) + (1.0 - cfg.theta) * p2
            misfit.append(old_misfit(observed, sparse, estimate))
            l1.append(budget_of(m))
        expected, estimate = project_fourier(m, observed, cfg)
        self.check(solve_sraar(observed, cfg), expected, estimate, misfit, l1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kspace_rejected(self, scenario, bad):
        observed = scenario.observed.copy()
        observed[5, 9] = bad
        for solver, run in (("er", solve_er), ("sraar", solve_sraar)):
            with pytest.raises(ValueError, match="non-finite"):
                run(observed, self.config(scenario, solver))
        with pytest.raises(ValueError, match="non-finite"):
            tune_sparsity_budget(observed, ReconConfig(c_grid=(0.5,), iterations=2))


class TestTuneSparsityBudget:
    def test_chooses_minimum_final_l1(self):
        scenario = make_scenario(64, 3, 1.5, solver_bound=2.0)
        cfg = ReconConfig(solver="sraar", bounds=MotionBounds(2.0, 2.0),
                          c_grid=(0.2, 0.5, 0.8), iterations=8, threads=1)
        chosen_c, image, estimate, trace = tune_sparsity_budget(scenario.observed, cfg)

        base = budget_of(naive_reconstruct(scenario.observed))
        finals = {}
        from dataclasses import replace
        for fraction in cfg.c_grid:
            run_cfg = replace(cfg, c=fraction * base, c_grid=None)
            img, _, _ = solve_sraar(scenario.observed, run_cfg)
            finals[fraction * base] = budget_of(img)
        best_c = min(sorted(finals), key=lambda c: (finals[c], c))
        assert chosen_c == pytest.approx(best_c, rel=1e-12)
        assert budget_of(image) == pytest.approx(finals[best_c], rel=1e-9)
        assert len(trace) == cfg.iterations
        assert len(estimate.traj) == 64
