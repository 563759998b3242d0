import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from sraar.projections import _Workspace, _compensate, _shrink_scale
from sraar.solvers import _PATIENCE, SolverTrace
from sraar.transforms import _flip_checkerboard, _inverse_levels
from conftest import random_complex, shrink
from scenarios import make_scenario


SOLVES = {"er": solve_er, "sraar": solve_sraar}


def budget_of(img):
    return l1_norm(haar_forward(img))


def solve_with_patience(observed, cfg, patience):
    """A fixed-budget solve under a patience no entry point uses."""
    work = _Workspace(observed, cfg.bounds)
    estimate, trace = solvers._keep(solvers._steps(work, cfg), patience)
    return _flip_checkerboard(_compensate(work, estimate.traj, np.empty_like(work.spec))), estimate, trace


def image_of(w):
    """The image of full-depth Haar coefficients, as the solvers compute it."""
    return _inverse_levels(w.copy(), int(np.log2(w.shape[0])))


def sraar_update(w, wp2, cfg):
    """The SRAAR step's new coefficients, wp2 + theta (scale - 1) r, with the
    reflection r = 2 wp2 - w and P1(r) = scale * r, in the step's arithmetic."""
    r = 2.0 * wp2 - w
    scale = _shrink_scale(r, cfg.c, np.empty_like(r))
    return wp2 + cfg.theta * ((1.0 if scale is None else scale) - 1.0) * r


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
        cfg = ReconConfig(solver="er", c=budget_of(sparse_phantom) * (1 + 1e-6), iterations=20)
        image, _, _ = solve_er(observed, cfg)
        rel = np.linalg.norm(image - sparse_phantom) / np.linalg.norm(sparse_phantom)
        assert rel <= 1e-8

    def test_sraar_fixed_point(self, sparse_phantom):
        observed = dft2(sparse_phantom)
        cfg = ReconConfig(solver="sraar", c=budget_of(sparse_phantom) * (1 + 1e-6),
                          theta=0.9, iterations=20)
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
                          iterations=3)
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

            def counted(a, levels, scratch=None, levels_fn=levels_fn, **kwargs):
                passes.append(levels)
                return levels_fn(a, levels, scratch, **kwargs)

            for module in (transforms, projections, solvers):
                monkeypatch.setattr(module, name, counted, raising=False)
        scenario = make_scenario(16, 6, 1.0, solver_bound=2.0)
        counts = {}
        for k in (3, 6):
            cfg = ReconConfig(solver=solver, bounds=MotionBounds(2.0, 2.0), iterations=k,
                              c=0.5 * budget_of(naive_reconstruct(scenario.observed)))
            passes.clear()
            solve(scenario.observed, cfg)
            counts[k] = len(passes)
        assert counts[6] - counts[3] == 2 * 3
        assert counts[3] <= 2 * 3 + 2

    @pytest.mark.parametrize("solver, solve", [("er", solve_er), ("sraar", solve_sraar)])
    def test_no_checkerboard_flip_per_iteration(self, monkeypatch, solver, solve):
        # the iterate's images are kept as D * image, D = (-1)^(r+c), and
        # the Haar passes fold D into level 0, so only the start and the
        # returned image flip, never a step
        flips, per_step = [], []
        flip = transforms._flip_checkerboard

        def counted(a):
            flips.append(a.shape)
            return flip(a)

        for module in (transforms, projections, solvers):
            monkeypatch.setattr(module, "_flip_checkerboard", counted, raising=False)
        run = solvers._steps

        def measured(work, cfg):
            # the flips between records: the start and each step
            before = len(flips)
            for record in run(work, cfg):
                per_step.append(len(flips) - before)
                yield record
                before = len(flips)

        monkeypatch.setattr(solvers, "_steps", measured)
        scenario = make_scenario(16, 6, 1.0, solver_bound=2.0)
        cfg = ReconConfig(solver=solver, bounds=MotionBounds(2.0, 2.0), iterations=4,
                          c=0.5 * budget_of(naive_reconstruct(scenario.observed)))
        solve(scenario.observed, cfg)
        assert per_step == [0] * cfg.iterations
        assert flips

    def test_peak_memory_of_one_sraar_solve(self):
        # measured 5.11 n x n complex arrays at 256^2 (4.80 at 512^2): the
        # workspace and the iterate's one buffer, 4.5 arrays, plus P2's line
        # estimator and numpy's fixed-size ufunc buffers.  It was 6.17 with
        # a P2 output buffer and a mask of their own, 7.17 with SRAAR's
        # iterate image in a buffer of its own, 8.17 (7.86 at 512^2) with a
        # shrink output buffer of its own, 8.02 with per-iteration
        # transients, and 8.58 when P1 ran on images
        n = 256
        scenario = make_scenario(n, 4, 5.0)
        cfg = ReconConfig(solver="sraar", bounds=MotionBounds(5.0, 5.0), iterations=3,
                          c=0.5 * budget_of(naive_reconstruct(scenario.observed)))
        solve_sraar(scenario.observed, cfg)
        tracemalloc.start()
        try:
            solve_sraar(scenario.observed, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (5.11 + 0.5) * n * n * 16

    def test_peak_memory_of_one_budget_tuning(self):
        # measured 5.12 n x n complex arrays at 256^2: both candidates run on
        # one workspace, tuning keeps only the best candidate's estimate,
        # and the caller's only reference to the observation is the
        # argument, which tuning drops once its workspace holds D * observed.
        # It was 6.18 with a P2 output buffer and a mask of their own, 7.18
        # with SRAAR's iterate image in a buffer of its own, and 11.18 with
        # a workspace and a kept image per candidate
        n = 256
        scenario = make_scenario(n, 4, 5.0)
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0), c_grid=(0.5, 0.7), iterations=8)
        tune_sparsity_budget(scenario.observed.copy(), cfg)
        tracemalloc.start()
        try:
            tune_sparsity_budget(scenario.observed.copy(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # before CPython 3.11 the caller's stack holds the argument until the call returns
        held = 0 if sys.version_info >= (3, 11) else 1
        assert peak < (5.12 + held + 0.5) * n * n * 16

    @pytest.mark.parametrize("solver, patience", [("er", None), ("sraar", None), ("sraar", _PATIENCE)])
    def test_steady_state_step_allocates_under_one_array(self, monkeypatch, solver, patience):
        # every n x n array a step writes lives in the solve's workspace or
        # in a buffer the driver hands it, so from the third iteration on a
        # step's peak above its entry is numpy's fixed-size ufunc buffers
        # and the matched filter's n x (grid points) arrays: measured 0.59
        # n x n complex arrays at 256^2 for each solver, where the steps
        # that allocated their transients peaked at 4.63 (ER) and 5.01
        n = 256
        scenario = make_scenario(n, 4, 5.0)
        run, peaks = solvers._steps, []

        def measured(work, cfg):
            # each step's peak between two records (the first's holds the start)
            records = run(work, cfg)
            while True:
                tracemalloc.reset_peak()
                entry = tracemalloc.get_traced_memory()[0]
                record = next(records, None)
                if record is None:
                    return
                peaks.append(tracemalloc.get_traced_memory()[1] - entry)
                yield record

        monkeypatch.setattr(solvers, "_steps", measured)
        cfg = ReconConfig(solver=solver, bounds=MotionBounds(5.0, 5.0), iterations=6,
                          c=0.5 * budget_of(naive_reconstruct(scenario.observed)))
        tracemalloc.start()
        try:
            if patience is None:
                SOLVES[solver](scenario.observed, cfg)
            else:
                tune_sparsity_budget(scenario.observed, replace(cfg, c=None, c_grid=(0.5,)))
        finally:
            tracemalloc.stop()
        assert len(peaks) == cfg.iterations
        assert max(peaks[2:]) <= 1.0 * n * n * 16


@settings(max_examples=20, deadline=None)
@given(
    log2_size=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    bound=st.floats(0.0, 3.0),
    solver=st.sampled_from(["er", "sraar"]),
    patience=st.sampled_from([None, 2]),
    fraction=st.floats(0.1, 0.9),
)
def test_repeat_solves_around_another_size_are_identical(log2_size, seed, bound, solver, patience, fraction):
    """Buffer reuse leaks no state: a solve repeated after a solve of
    another size returns the same bits, also when a patience keeps the
    sparsest output's estimate and recomputes its image at the end."""
    n = 2**log2_size
    rng = np.random.default_rng(seed)
    observed = random_complex(rng, (n, n))
    other = random_complex(rng, (2 * n, 2 * n) if n < 64 else (n // 2, n // 2))

    def run(obs, cfg, patience):
        if patience is None:
            return SOLVES[solver](obs, cfg)
        return solve_with_patience(obs, cfg, patience)

    def config(obs):
        return ReconConfig(solver=solver, bounds=MotionBounds(bound, bound), iterations=6,
                           c=fraction * budget_of(naive_reconstruct(obs)))

    first = run(observed, config(observed), patience)
    run(other, config(other), patience)
    second = run(observed, config(observed), patience)
    assert first[0] is not second[0]
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1].traj.shifts, second[1].traj.shifts)
    assert np.array_equal(first[1].scores, second[1].scores)
    assert (first[2].misfit, first[2].l1, first[2].returned) == (second[2].misfit, second[2].l1, second[2].returned)


class TestSolverBehaviour:
    def test_er_beats_naive_on_small_example(self):
        scenario = make_scenario(64, 0, 1.5, solver_bound=2.0)
        cfg = ReconConfig(solver="er", bounds=MotionBounds(2.0, 2.0),
                          c=budget_of(scenario.gt), iterations=50)
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
                          c=budget_of(scenario.gt), iterations=7)
        _, _, trace = solve_sraar(scenario.observed, cfg)
        assert len(trace) == 7
        assert len(trace.misfit) == len(trace.l1) == len(trace.seconds) == 7
        assert all(s >= 0 for s in trace.seconds)

    def test_deterministic_rerun(self):
        scenario = make_scenario(64, 2, 1.5, solver_bound=2.0)
        cfg = ReconConfig(solver="sraar", bounds=MotionBounds(2.0, 2.0),
                          c=budget_of(scenario.gt), iterations=5)
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
                           iterations=4)

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
            ws = shrink(2.0 * wp2 - w, cfg.c)
            w = sraar_update(w, wp2, cfg)
            m = image_of(w)
            misfit.append(old_misfit(observed, image_of(ws), estimate))
            l1.append(budget_of(p2))
        expected, estimate = project_fourier(m, observed, cfg)
        self.check(solve_sraar(observed, cfg), expected, estimate, misfit, l1, None)

    @pytest.mark.parametrize("theta", [0.3, 0.9, 1.0])
    def test_sraar_step_is_the_relaxed_reflection_update(self, monkeypatch, scenario, theta):
        # the first step builds wp2 + theta (scale - 1) wr2, with P1(wr2) =
        # scale * wr2, from the relaxed update (theta/2) (2 P1(wr2) - wr2 + w)
        # + (1 - theta) wp2 and the reflection wr2 = 2 wp2 - w; the two round
        # differently.  A zero budget gives the scale 0, and a budget above
        # wr2's l1 the scale 1
        update, iterates = solvers._sraar_update, []

        def recorded(work, w, wp2, cfg):
            iterates.append(w)
            return update(work, w, wp2, cfg)

        monkeypatch.setattr(solvers, "_sraar_update", recorded)
        cfg = replace(self.config(scenario, "sraar"), theta=theta, iterations=1)
        naive = naive_reconstruct(scenario.observed)
        start = haar_forward(naive).data
        p2, want_estimate = project_fourier(naive, scenario.observed, cfg)
        wp2 = haar_forward(p2).data
        wr2 = 2.0 * wp2 - start
        for c in (cfg.c, 0.0, 2.0 * l1_norm(wr2)):
            work = _Workspace(scenario.observed, cfg.bounds)
            iterates.clear()
            (estimate, misfit, l1, _), = solvers._steps(work, replace(cfg, c=c))
            w, = iterates
            assert np.array_equal(estimate.traj.shifts, want_estimate.traj.shifts)
            assert l1 == l1_norm(wp2)
            ws = shrink(wr2, c)
            old = 0.5 * theta * (2.0 * ws - wr2 + start) + (1.0 - theta) * wp2
            assert np.abs(w - old).max() <= 1e-12 * np.abs(old).max()
            assert np.array_equal(work.spec, _flip_checkerboard(image_of(w)))
            want_misfit = np.linalg.norm(wp2 - ws)
            assert abs(misfit - want_misfit) <= 1e-12 * want_misfit

    @pytest.mark.parametrize("solver, patience", [("er", None), ("sraar", None), ("er", 2), ("sraar", _PATIENCE)])
    def test_each_buffer_keeps_one_role(self, monkeypatch, scenario, solver, patience):
        # the workspace, w and W of the P2 output (in spec) are the same
        # arrays in every step, also under a patience, which keeps
        # estimates, not images.  Whenever P2 reads spec (each step, and
        # the terminal pass) it holds D * the image of w, D = (-1)^(r+c),
        # and w the coefficients of that image: SRAAR's iterate, from the
        # naive image's coefficients; ER's P1 output, from the shrink of
        # the naive image's coefficients, and then the shrink of W of P2 of
        # the image of the w before it
        update, estimate_motion = getattr(solvers, f"_{solver}_update"), solvers._estimate_motion
        reads, updates = [], []

        def p2_entry(work):
            reads.append(work.spec.copy())
            return estimate_motion(work)

        def recorded(work, w, wp2, cfg):
            before = (w.copy(), wp2.copy())
            misfit = update(work, w, wp2, cfg)
            updates.append((work, w, wp2, *before, w.copy()))
            return misfit

        monkeypatch.setattr(solvers, "_estimate_motion", p2_entry)
        monkeypatch.setattr(solvers, f"_{solver}_update", recorded)
        cfg = replace(self.config(scenario, solver), iterations=8)
        if patience is None:
            SOLVES[solver](scenario.observed, cfg)
        elif patience == _PATIENCE:
            tune_sparsity_budget(scenario.observed, replace(cfg, c=None, c_grid=(0.5,)))
        else:
            solve_with_patience(scenario.observed, cfg, patience)
        work, w = updates[0][:2]
        assert len(updates) == cfg.iterations
        assert all(call[0] is work and call[1] is w and call[2] is work.spec for call in updates)
        assert len({id(work), id(w), id(work.spec), id(work.scratch)}) == 4
        # one P2 read per step, and the terminal pass of a fixed-budget SRAAR solve
        terminal = solver == "sraar" and patience is None
        assert len(reads) == cfg.iterations + terminal
        naive = naive_reconstruct(scenario.observed)
        start = haar_forward(naive).data
        if solver == "er":
            start = shrink(start, cfg.c)
            assert np.array_equal(reads[0], _flip_checkerboard(image_of(start)))
        else:
            assert np.array_equal(reads[0], _flip_checkerboard(naive))
        assert np.array_equal(updates[0][3], start)
        for spec, (*_, w_after) in zip(reads[1:], updates):
            assert np.array_equal(spec, _flip_checkerboard(image_of(w_after)))
        for (*_, w_after), (*_, w_before, _, _) in zip(updates, updates[1:]):
            assert np.array_equal(w_before, w_after)
        if solver == "er":
            for *_, w_before, wp2, w_after in updates:
                assert np.array_equal(wp2, haar_forward(project_fourier(image_of(w_before), scenario.observed,
                                                                        cfg)[0]).data)
                assert np.array_equal(w_after, shrink(wp2, cfg.c))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kspace_rejected(self, scenario, bad):
        observed = scenario.observed.copy()
        observed[5, 9] = bad
        for solver, run in (("er", solve_er), ("sraar", solve_sraar)):
            with pytest.raises(ValueError, match="non-finite"):
                run(observed, self.config(scenario, solver))
        with pytest.raises(ValueError, match="non-finite"):
            tune_sparsity_budget(observed, ReconConfig(c_grid=(0.5,), iterations=2))

    def test_scaled_observation_gives_the_scaled_answer_or_is_refused(self, scenario):
        # a power-of-two scale s multiplies every image, budget and l1 by s
        # and keeps the motion, bit for bit, unless the solve's squares of
        # the observation overflow or underflow; the workspace refuses such
        # a scale, naming the observation.  Before, 1e155 raised from inside
        # MotionEstimate and 1e-170 returned the naive image with no motion
        tune_cfg = ReconConfig(bounds=MotionBounds(2.0, 2.0), c_grid=(0.5,), iterations=6)
        er_cfg = self.config(scenario, "er")
        want_tuned = tune_sparsity_budget(scenario.observed, tune_cfg)
        want_er = solve_er(scenario.observed, er_cfg)
        for scale in (1e155, 1e-170):
            with pytest.raises(ValueError, match="observed k-space"):
                tune_sparsity_budget(scale * scenario.observed, tune_cfg)
        solved = []
        for exponent in range(-1000, 1001, 20):
            scale = 2.0**exponent
            observed = scale * scenario.observed
            try:
                c, image, estimate, trace = tune_sparsity_budget(observed, tune_cfg)
            except ValueError as exc:
                assert "observed k-space" in str(exc)
                with pytest.raises(ValueError, match="observed k-space"):
                    solve_er(observed, replace(er_cfg, c=scale * er_cfg.c))
                continue
            solved.append(exponent)
            assert c == scale * want_tuned[0]
            assert np.array_equal(image, scale * want_tuned[1])
            assert np.array_equal(estimate.traj.shifts, want_tuned[2].traj.shifts)
            assert trace.l1 == [scale * l1 for l1 in want_tuned[3].l1]
            assert trace.returned == want_tuned[3].returned
            image, estimate, trace = solve_er(observed, replace(er_cfg, c=scale * er_cfg.c))
            assert np.array_equal(image, scale * want_er[0])
            assert np.array_equal(estimate.traj.shifts, want_er[1].traj.shifts)
        assert solved == list(range(solved[0], solved[-1] + 1, 20))
        assert solved[0] <= -400 and solved[-1] >= 400

    @pytest.mark.parametrize("dtype", [object, str])
    def test_non_numeric_kspace_rejected_naming_its_dtype(self, scenario, dtype):
        observed = scenario.observed.astype(dtype)
        match = f"observed k-space must be bool, int, float or complex, got dtype {observed.dtype}"
        for solver, run in (("er", solve_er), ("sraar", solve_sraar)):
            with pytest.raises(ValueError, match=match):
                run(observed, self.config(scenario, solver))
        with pytest.raises(ValueError, match=match):
            tune_sparsity_budget(observed, ReconConfig(c_grid=(0.5,), iterations=2))

    @pytest.mark.parametrize("observed", [
        np.ones(64, complex),
        np.ones((8, 16), complex).tolist(),
        np.ones((8, 16), complex),
        np.ones((16, 8), complex),
        np.ones((8, 8, 2), complex),
    ], ids=["1-D", "nested-list", "8x16", "16x8", "8x8x2"])
    def test_non_square_kspace_rejected_naming_its_shape(self, observed, scenario):
        shape = re.escape(f"got shape {np.shape(observed)}")
        for solver, run in (("er", solve_er), ("sraar", solve_sraar)):
            with pytest.raises(ValueError, match=shape):
                run(observed, self.config(scenario, solver))
        with pytest.raises(ValueError, match=shape):
            tune_sparsity_budget(observed, ReconConfig(c_grid=(0.5,), iterations=2))

    def test_nested_list_solves_as_its_array(self, scenario):
        cfg = self.config(scenario, "sraar")
        image, estimate, _ = solve_sraar(scenario.observed.tolist(), cfg)
        want_image, want_estimate, _ = solve_sraar(scenario.observed, cfg)
        assert np.array_equal(image, want_image)
        assert np.array_equal(estimate.traj.shifts, want_estimate.traj.shifts)


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
        w = sraar_update(w, wp2, cfg)
        m = image_of(w)
    return (*best, cfg.iterations)


def test_keep_marks_the_kept_row():
    # without a patience the rule keeps the last record, however sparse the
    # earlier P2 outputs, and marks its row; with one, the sparsest's
    records = [(f"estimate {i}", 1.0, l1, 0.0) for i, l1 in enumerate([3.0, 1.0, 2.0, 2.5], 1)]
    kept, trace = solvers._keep(iter(records), None)
    assert (kept, trace.returned, len(trace)) == ("estimate 4", len(records), len(records))
    assert trace.l1 == [3.0, 1.0, 2.0, 2.5]
    kept, trace = solvers._keep(iter(records), 1)
    assert (kept, trace.returned, len(trace)) == ("estimate 2", 2, 3)


class TestTuneSparsityBudget:
    def test_sraar_keeps_sparsest_p2_output_and_stops(self):
        # more iterations than the patience, so candidates stop early
        scenario = make_scenario(32, 3, 1.5, solver_bound=2.0)
        cfg = ReconConfig(solver="sraar", bounds=MotionBounds(2.0, 2.0),
                          c_grid=(0.2, 0.5, 0.8), iterations=_PATIENCE + 40)
        chosen_c, image, estimate, trace = tune_sparsity_budget(scenario.observed, cfg)

        base = budget_of(naive_reconstruct(scenario.observed))
        runs = {}
        for fraction in sorted(cfg.c_grid):
            run_cfg = replace(cfg, c=fraction * base, c_grid=None)
            runs[run_cfg.c] = replay = replay_sraar_candidate(scenario.observed, run_cfg)
            _, got_image, got_estimate, got_trace = tune_sparsity_budget(scenario.observed,
                                                                         replace(cfg, c_grid=(fraction,)))
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

    @pytest.mark.parametrize("patience", [2, 5])
    def test_stop_saves_the_remaining_steps(self, monkeypatch, patience):
        # the rule reads no record after the stop, so the driver runs no
        # step after it
        update, calls = solvers._sraar_update, []

        def counted(work, w, wp2, cfg):
            calls.append(cfg.c)
            return update(work, w, wp2, cfg)

        monkeypatch.setattr(solvers, "_sraar_update", counted)
        scenario = make_scenario(32, 3, 1.5, solver_bound=2.0)
        base = budget_of(naive_reconstruct(scenario.observed))
        cfg = ReconConfig(bounds=MotionBounds(2.0, 2.0), c=0.5 * base, iterations=_PATIENCE + 40)
        trace = solve_with_patience(scenario.observed, cfg, patience)[2]
        assert len(calls) == len(trace) == trace.returned + patience < cfg.iterations

    def test_repeated_fraction_runs_once(self, monkeypatch):
        # equal fractions give equal solves, and ties go to the first
        scenario = make_scenario(32, 3, 1.5, solver_bound=2.0)
        run, budgets = solvers._steps, []

        def counted(work, cfg):
            budgets.append(cfg.c)
            return run(work, cfg)

        monkeypatch.setattr(solvers, "_steps", counted)
        cfg = ReconConfig(bounds=MotionBounds(2.0, 2.0), c_grid=(0.5, 0.5), iterations=8)
        chosen_c, image, estimate, trace = tune_sparsity_budget(scenario.observed, cfg)
        assert len(budgets) == 1
        want = tune_sparsity_budget(scenario.observed, replace(cfg, c_grid=(0.5,)))
        assert chosen_c == want[0] == budgets[0]
        assert np.array_equal(image, want[1])
        assert np.array_equal(estimate.traj.shifts, want[2].traj.shifts)
        assert (trace.misfit, trace.l1, trace.returned) == (want[3].misfit, want[3].l1, want[3].returned)

    def test_er_keeps_minimum_final_l1(self):
        scenario = make_scenario(32, 4, 1.5, solver_bound=2.0)
        cfg = ReconConfig(solver="er", bounds=MotionBounds(2.0, 2.0),
                          c_grid=(0.2, 0.5, 0.8), iterations=_PATIENCE + 30)
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


@settings(max_examples=15, deadline=None)
@given(
    n=st.sampled_from([16, 32]),
    seed=st.integers(0, 7),
    bound=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    grid=st.lists(st.sampled_from([0.005, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9]),
                  min_size=2, max_size=4, unique=True),
)
def test_candidate_returning_first_iteration_never_changes_tuned_image(n, seed, bound, grid):
    """Every SRAAR candidate's first P2 output is P2 of the naive image,
    whatever its budget, so a candidate that returns it returns the largest
    l1 any candidate can; dropping it from the grid changes no tuned image
    or trajectory, at most the budget reported on an exact tie."""
    scenario = make_scenario(n, seed, 1.0, solver_bound=2.0)
    cfg = ReconConfig(bounds=MotionBounds(bound, bound), c_grid=tuple(grid), iterations=_PATIENCE + 3)
    first = [f for f in grid if tune_sparsity_budget(scenario.observed, replace(cfg, c_grid=(f,)))[3].returned == 1]
    assume(first)
    _, image, estimate, _ = tune_sparsity_budget(scenario.observed, cfg)
    for fraction in first:
        rest = tuple(f for f in grid if f != fraction)
        _, got_image, got_estimate, _ = tune_sparsity_budget(scenario.observed, replace(cfg, c_grid=rest))
        assert np.array_equal(got_image, image)
        assert np.array_equal(got_estimate.traj.shifts, estimate.traj.shifts)
