import tracemalloc
from dataclasses import replace

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
from sraar import projections, solvers, transforms
from sraar.projections import _shrink
from sraar.solvers import _PATIENCE, _SOLVER_FUNCS, SolverTrace
from sraar.transforms import _inverse_levels
from scenarios import make_scenario


def budget_of(img):
    return l1_norm(haar_forward(img))


def image_of(w):
    """The image of full-depth Haar coefficients, as the solvers compute it."""
    return _inverse_levels(w.copy(), int(np.log2(w.shape[0])))


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


class TestRelaxedComposition:
    @pytest.mark.parametrize("theta", [0.9, 1.0])
    def test_matches_composition_of_public_projections(self, theta):
        # theta < 1 relaxes towards P2 m, and theta = 1 is the plain average
        # m <- (R1 R2 + I) m / 2; the solver runs on Haar coefficients, the
        # replay on images through the public projections
        scenario = make_scenario(16, 5, 1.0, solver_bound=2.0)
        cfg = ReconConfig(solver="sraar", bounds=MotionBounds(2.0, 2.0), theta=theta,
                          c=0.5 * budget_of(naive_reconstruct(scenario.observed)),
                          iterations=3, threads=1)
        image, _, _ = solve_sraar(scenario.observed, cfg)

        m = naive_reconstruct(scenario.observed)
        for _ in range(cfg.iterations):
            p2, _ = project_fourier(m, scenario.observed, cfg)
            r2 = 2.0 * p2 - m
            r1r2 = 2.0 * project_sparse(r2, cfg.c) - r2
            m = 0.5 * cfg.theta * (r1r2 + m) + (1.0 - cfg.theta) * p2
        expected, _ = project_fourier(m, scenario.observed, cfg)
        assert np.abs(image - expected).max() <= 1e-10


class TestIterationCost:
    @pytest.mark.parametrize("solver, solve", [("er", solve_er), ("sraar", solve_sraar)])
    def test_two_haar_passes_per_iteration(self, monkeypatch, solver, solve):
        # one forward pass of the P2 output and one inverse pass to P2's
        # next input per iteration; the start and the end add O(1)
        passes = []
        for name in ("_forward_levels", "_inverse_levels"):
            levels_fn = getattr(transforms, name)

            def counted(a, levels, levels_fn=levels_fn):
                passes.append(levels)
                return levels_fn(a, levels)

            for module in (transforms, projections, solvers):
                monkeypatch.setattr(module, name, counted, raising=False)
        scenario = make_scenario(16, 6, 1.0, solver_bound=2.0)
        counts = {}
        for k in (3, 6):
            cfg = ReconConfig(solver=solver, bounds=MotionBounds(2.0, 2.0), iterations=k,
                              c=0.5 * budget_of(naive_reconstruct(scenario.observed)), threads=1)
            passes.clear()
            solve(scenario.observed, cfg)
            counts[k] = len(passes)
        assert counts[6] - counts[3] == 2 * 3
        assert counts[3] <= 2 * 3 + 2

    def test_peak_memory_of_one_sraar_solve(self):
        # measured 8.02 n x n complex arrays at 256^2, half an array below
        # the bound; the parent, which ran P1 on images, peaked at 8.58
        n = 256
        scenario = make_scenario(n, 4, 5.0)
        cfg = ReconConfig(solver="sraar", bounds=MotionBounds(5.0, 5.0), iterations=3,
                          c=0.5 * budget_of(naive_reconstruct(scenario.observed)), threads=1)
        solve_sraar(scenario.observed, cfg)
        tracemalloc.start()
        try:
            solve_sraar(scenario.observed, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (8.02 + 0.5) * n * n * 16


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

    def check(self, result, expected, estimate, misfit, l1, returned):
        image, got_estimate, trace = result
        assert np.array_equal(image, expected)
        assert np.array_equal(got_estimate.traj.shifts, estimate.traj.shifts)
        assert trace.l1 == l1
        assert trace.returned == returned
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
        self.check(solve_er(observed, cfg), m, estimate, misfit, l1, cfg.iterations)

    def test_sraar_matches_hand_loop(self, scenario):
        cfg = self.config(scenario, "sraar")
        observed = scenario.observed
        m = naive_reconstruct(observed)
        w = haar_forward(m).data
        misfit, l1 = [], []
        for _ in range(cfg.iterations):
            p2, estimate = project_fourier(m, observed, cfg)
            wp2 = haar_forward(p2).data
            wr2 = 2.0 * wp2 - w
            ws = _shrink(wr2, cfg.c)
            w = 0.5 * cfg.theta * (2.0 * ws - wr2 + w) + (1.0 - cfg.theta) * wp2
            m = image_of(w)
            misfit.append(old_misfit(observed, image_of(ws), estimate))
            l1.append(budget_of(p2))
        expected, estimate = project_fourier(m, observed, cfg)
        self.check(solve_sraar(observed, cfg), expected, estimate, misfit, l1, None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kspace_rejected(self, scenario, bad):
        observed = scenario.observed.copy()
        observed[5, 9] = bad
        for solver, run in (("er", solve_er), ("sraar", solve_sraar)):
            with pytest.raises(ValueError, match="non-finite"):
                run(observed, self.config(scenario, solver))
        with pytest.raises(ValueError, match="non-finite"):
            tune_sparsity_budget(observed, ReconConfig(c_grid=(0.5,), iterations=2))


def replay_sraar_candidate(observed, cfg):
    """One tuned SRAAR candidate by hand: the l1 of every P2 output, kept
    until the sparsest (first of equals) is _PATIENCE iterations old.

    Returns (best l1, P2 output, estimate, its iteration, iterations run).
    """
    m = naive_reconstruct(observed)
    w = haar_forward(m).data
    best = None
    for iteration in range(1, cfg.iterations + 1):
        p2, estimate = project_fourier(m, observed, cfg)
        wp2 = haar_forward(p2).data
        l1 = l1_norm(wp2)
        if best is None or l1 < best[0]:
            best = (l1, p2, estimate, iteration)
        elif iteration - best[3] >= _PATIENCE:
            return (*best, iteration)
        wr2 = 2.0 * wp2 - w
        w = 0.5 * cfg.theta * (2.0 * _shrink(wr2, cfg.c) - wr2 + w) + (1.0 - cfg.theta) * wp2
        m = image_of(w)
    return (*best, cfg.iterations)


class TestTuneSparsityBudget:
    def test_sraar_keeps_sparsest_p2_output_and_stops(self):
        # more iterations than the patience, so candidates stop early
        scenario = make_scenario(32, 3, 1.5, solver_bound=2.0)
        cfg = ReconConfig(solver="sraar", bounds=MotionBounds(2.0, 2.0),
                          c_grid=(0.2, 0.5, 0.8), iterations=_PATIENCE + 40, threads=1)
        chosen_c, image, estimate, trace = tune_sparsity_budget(scenario.observed, cfg)

        base = budget_of(naive_reconstruct(scenario.observed))
        runs = {}
        for fraction in sorted(cfg.c_grid):
            run_cfg = replace(cfg, c=fraction * base, c_grid=None)
            runs[run_cfg.c] = replay = replay_sraar_candidate(scenario.observed, run_cfg)
            got_image, got_estimate, got_trace = _SOLVER_FUNCS["sraar"](scenario.observed, run_cfg, _PATIENCE)
            assert np.array_equal(got_image, replay[1])
            assert np.array_equal(got_estimate.traj.shifts, replay[2].traj.shifts)
            assert (got_trace.returned, len(got_trace)) == replay[3:]
        assert any(run[4] < cfg.iterations for run in runs.values())
        best_c = min(runs, key=lambda c: (runs[c][0], c))
        best_l1, p2, best_estimate, returned, ran = runs[best_c]
        assert chosen_c == best_c
        assert np.array_equal(image, p2)
        assert np.array_equal(estimate.traj.shifts, best_estimate.traj.shifts)
        assert (trace.returned, len(trace)) == (returned, ran)
        assert trace.l1[returned - 1] == best_l1 == min(trace.l1)

    def test_er_keeps_minimum_final_l1(self):
        scenario = make_scenario(32, 4, 1.5, solver_bound=2.0)
        cfg = ReconConfig(solver="er", bounds=MotionBounds(2.0, 2.0),
                          c_grid=(0.2, 0.5, 0.8), iterations=_PATIENCE + 30, threads=1)
        chosen_c, image, estimate, trace = tune_sparsity_budget(scenario.observed, cfg)

        base = budget_of(naive_reconstruct(scenario.observed))
        runs = {}
        for fraction in cfg.c_grid:
            run_cfg = replace(cfg, c=fraction * base, c_grid=None)
            runs[run_cfg.c] = solve_er(scenario.observed, run_cfg)
        best_c = min(sorted(runs), key=lambda c: (budget_of(runs[c][0]), c))
        # the chosen run's sparsest P2 output is older than the patience, so a
        # stop or a sparsest-output rule would change what ER returns
        assert np.argmin(runs[best_c][2].l1) < cfg.iterations - 1 - _PATIENCE
        expected, expected_estimate, _ = runs[best_c]
        assert chosen_c == best_c
        assert np.array_equal(image, expected)
        assert np.array_equal(estimate.traj.shifts, expected_estimate.traj.shifts)
        assert len(trace) == cfg.iterations == trace.returned
