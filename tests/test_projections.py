import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    idft2,
    l1_norm,
    project_fourier,
    project_sparse,
    shepp_logan,
    trajectory_error,
)
from sraar.motion import _line_ramps
from sraar.projections import (
    _Workspace,
    _axis_points,
    _coarse_basis,
    _compensate,
    _estimate_lines,
    _estimate_motion,
    _l1_ball_threshold,
    _matched_filter_input,
)
from sraar.transforms import _flip_checkerboard
from conftest import random_complex, shrink
from reference_impls import (
    dft2_form_project_fourier,
    loop_estimate_lines,
    loop_haar_forward,
    scan_l1_projection,
    sort_scan_l1_threshold,
)
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

    def test_peak_memory_of_one_call(self, rng):
        # measured 2.50 n x n complex arrays at 256^2 and 512^2: the
        # coefficients, shrunk and inverted in place, and one scratch buffer
        # for the moduli, the scale factors and the butterfly's pair sums.
        # P1 peaked at 2.64 with a shrunk copy, at 3.56 while it sorted
        # every modulus, and at 6.00 with two copies
        n = 256
        m = shepp_logan(n) + 0.01 * random_complex(rng, (n, n))
        c = 0.5 * l1_norm(haar_forward(m))
        project_sparse(m, c)
        tracemalloc.start()
        try:
            project_sparse(m, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.8 * n * n * 16


@settings(max_examples=200, deadline=None)
@given(
    size=st.sampled_from([4, 8, 16]),
    seed=st.integers(0, 2**32 - 1),
    log10_scale=st.floats(-8.0, 8.0),
    budget=st.floats(0.0, 1.0),
    log10_spread=st.floats(-6.0, 0.0),
)
def test_project_sparse_properties(size, seed, log10_scale, budget, log10_spread):
    """P1 never raises, stays finite and feasible, and is idempotent for any
    budget between 1e-300 and the input's full wavelet l1 norm.  It is a
    projection onto a convex set, so it is non-expansive: a second input y at
    the same scale, from near m to as far as an independent draw, lands no
    farther from P1(m) than y is from m."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log10_scale
    m = scale * random_complex(rng, (size, size))
    y = m + 10.0**log10_spread * scale * random_complex(rng, (size, size))
    full = l1_norm(haar_forward(m))
    c = min(full, np.exp((1.0 - budget) * np.log(1e-300) + budget * np.log(full)))
    once = project_sparse(m, c)
    assert np.all(np.isfinite(once))
    assert l1_norm(haar_forward(once)) <= c + 1e-9 * full
    twice = project_sparse(once, c)
    assert np.abs(twice - once).max() <= 1e-9 * np.abs(m).max()
    gap = np.linalg.norm(project_sparse(y, c) - once)
    assert gap <= np.linalg.norm(y - m) + 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(4, 512),
    seed=st.integers(0, 2**32 - 1),
    steps=st.sampled_from([0, 1, 3, 50]),
    zero_fraction=st.floats(0.0, 0.95),
    budget=st.floats(0.0, 1.0),
    from_top=st.booleans(),
)
@example(size=4, seed=0, steps=1, zero_fraction=0.0, budget=0.0, from_top=False)
@example(size=512, seed=1, steps=1, zero_fraction=0.0, budget=0.0, from_top=True)
@example(size=512, seed=2, steps=0, zero_fraction=0.9, budget=0.0, from_top=True)
def test_l1_ball_threshold_matches_sort_and_scan(size, seed, steps, zero_fraction, budget, from_top):
    """Michelot's threshold equals the sort-and-scan one for moduli with ties
    (``steps`` > 0 rounds them to multiples of 1/steps; 1 makes most equal)
    and zeros, and for budgets from 1e-300, lost to rounding against the
    largest modulus, up to within 1e-15 of the total.  Both sum the moduli
    above tau in different orders, so they agree to a few ulps of the
    largest modulus; the shrunk moduli sum to c."""
    rng = np.random.default_rng(seed)
    moduli = rng.exponential(size=size)
    if steps:
        moduli = np.ceil(moduli * steps) / steps
    moduli[rng.random(size) < zero_fraction] = 0.0
    total = moduli.sum()
    assume(total > 0.0)
    if from_top:
        c = total * (1.0 - 10.0 ** (-15.0 * (1.0 - budget)))
    else:
        c = np.exp((1.0 - budget) * np.log(1e-300) + budget * np.log(total))
    assume(0.0 < c < total)
    tau = _l1_ball_threshold(moduli, c, total, np.empty_like(moduli))
    assert 0.0 <= tau <= moduli.max()
    assert abs(tau - sort_scan_l1_threshold(moduli, c)) <= 1e-12 * moduli.max()
    assert abs(np.maximum(moduli - tau, 0.0).sum() - c) <= 1e-12 * size * moduli.max()


def test_budget_an_ulp_below_the_total():
    # the moduli above the first threshold, summed in another order than
    # the total, can fall short of c, which would make tau negative and
    # divide the zero moduli by zero; seeds 45 and 145 did
    for seed in range(200):
        rng = np.random.default_rng(seed)
        mod = rng.exponential(size=64)
        mod[::2] = 0.0
        c = np.nextafter(mod.sum(), 0.0)
        assert _l1_ball_threshold(mod, c, mod.sum(), np.empty_like(mod)) >= 0.0
        coeffs = (mod * np.exp(1j * rng.uniform(-np.pi, np.pi, 64))).reshape(8, 8)
        assert np.all(np.isfinite(shrink(coeffs, c)))


@pytest.mark.parametrize("bound, step, n", [(0.0, 0.25, 8), (1.0, 0.25, 512), (5.0, 0.25, 256), (2.3, 0.7, 64)])
def test_coarse_basis_is_the_fresh_build(bound, step, n):
    basis = _coarse_basis(bound, step, n)
    assert np.array_equal(basis, _line_ramps(_axis_points(bound, step)[0], 0.0, n))
    assert _coarse_basis(bound, step, n) is basis
    assert not basis.flags.writeable


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
        # a 4 x 4 pair was answered as one 16-sample line
        square = line[:16].reshape(4, 4)
        with pytest.raises(ValueError, match=r"^observed line must be 1-D, got shape \(4, 4\)$"):
            estimate_line_shift(square, square, 0.1, bounds)
        with pytest.raises(ValueError, match=r"^reference line must be 1-D, got shape \(4, 4\)$"):
            estimate_line_shift(line[:16], square, 0.1, bounds)
        for k_y in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="k_y"):
                estimate_line_shift(line, line, k_y, bounds)
        # float() raised TypeError
        for k_y in (None, "x"):
            with pytest.raises(ValueError, match=f"^k_y must be a real number, got {k_y!r}$"):
                estimate_line_shift(line, line, k_y, bounds)


def _line_correlation(q, k, shifts):
    """J(b) = Re sum_c q(c) exp(2i*pi*(coords(c)*b_x + k_y*b_y)) of every row,
    summed directly; |J| over b_y on the DC line, where b_y is unidentifiable."""
    coords = FrequencyGrid(q.shape[1]).coords
    s = np.sum(q * np.exp(2j * np.pi * coords * shifts[:, :1]), axis=1)
    return np.where(k == 0.0, np.abs(s), (s * np.exp(2j * np.pi * k * shifts[:, 1])).real)


def _estimator_case(size, seed, bound_x, bound_y, zero_fraction, noise):
    """Lines q = observed * conj(reference) with true shifts up to 4 px on
    both axes, so some lie beyond the bounds or the alias window."""
    rng = np.random.default_rng(seed)
    k = FrequencyGrid(size).coords
    ref = random_complex(rng, (size, size))
    shifts = rng.uniform(-4.0, 4.0, (size, 2))
    obs = ref * np.exp(-2j * np.pi * (k[None, :] * shifts[:, :1] + (k * shifts[:, 1])[:, None]))
    obs += noise * random_complex(rng, (size, size))
    q = obs * np.conj(ref)
    q[rng.uniform(size=size) < zero_fraction] = 0.0
    return q, k, shifts, MotionBounds(bound_x, bound_y)


bound_values = st.one_of(st.just(0.0), st.floats(0.0, 6.0))
estimator_cases = dict(
    size=st.sampled_from([4, 8, 16, 32, 64]),
    seed=st.integers(0, 2**32 - 1),
    bound_x=bound_values,
    bound_y=bound_values,
    zero_fraction=st.floats(0.0, 0.5),
    noise=st.floats(0.0, 1.0),
)


@settings(max_examples=150, deadline=None)
@given(step=st.floats(0.1, 1.0), **estimator_cases)
# 3 * 0.1 > 0.3 in floating point: the edge point is inner only by the slack
@example(size=16, seed=0, bound_x=0.3, bound_y=1.0, step=0.1, zero_fraction=0.0, noise=0.0)
# phi / (2*pi*k_y) rounds past a subnormal bound
@example(size=32, seed=0, bound_x=0.0, bound_y=5e-324, step=1.0, zero_fraction=0.0, noise=0.0)
def test_estimator_beta_y_maximizes_its_window(size, seed, bound_x, bound_y, step, zero_fraction, noise):
    """At the returned b_x, the returned b_y is the best in its alias window
    min(bound_y, 1/(2|k_y|)), checked against a dense scan of that window,
    and the score is the correlation there.  Every phase-encode frequency
    (the DC line, which keeps b_y = 0, included), zero-energy lines, bounds
    of 0 or off the step grid, and windows both inside and beyond
    1/(2|k_y|) (which is 1 px at the highest frequency)."""
    q, k, _, bounds = _estimator_case(size, seed, bound_x, bound_y, zero_fraction, noise)
    got, scores = _estimate_lines(q, k, bounds, step)
    denom = np.abs(q).sum(axis=1)
    live = denom > 0.0
    assert np.all(got[~live] == 0.0) and np.all(scores[~live] == 0.0)
    assert np.all(np.abs(got[:, 0]) <= bound_x)
    assert np.all(got[k == 0.0, 1] == 0.0)
    j = _line_correlation(q, k, got)
    assert np.allclose(scores[live], np.clip(j[live] / denom[live], 0.0, 1.0), rtol=0.0, atol=1e-12)
    for r in np.flatnonzero(live & (k != 0.0)):
        window = min(bound_y, 0.5 / abs(k[r]))
        assert abs(got[r, 1]) <= window * (1.0 + 1e-12)
        scan = np.stack([np.full(4001, got[r, 0]), np.linspace(-window, window, 4001)], axis=1)
        best = _line_correlation(np.broadcast_to(q[r], (4001, size)), np.full(4001, k[r]), scan).max()
        assert j[r] >= best - 1e-12 * denom[r]


@settings(max_examples=150, deadline=None)
@given(step=st.floats(0.1, 0.5), **estimator_cases)
# line 10's true b_x = 0.896 lies between the last grid point 0.5 and the bound
@example(size=16, seed=546, bound_x=0.9, bound_y=1.3, step=0.5, zero_fraction=0.0, noise=0.8)
def test_estimator_objective_matches_grid_reference(size, seed, bound_x, bound_y, step, zero_fraction, noise):
    """On every line whose true shift lies inside the search bounds, the
    correlation at the estimate falls short of the one the joint-grid
    reference reaches by at most step**3 of the line's energy sum |q|
    (measured worst: 0.34 step**3 over 6000 cases at steps 0.1-0.5).  At
    coarser steps, or for shifts beyond the bounds, the objective is
    multimodal in the box and each estimator finds the better local
    maximum on some lines."""
    q, k, truth, bounds = _estimator_case(size, seed, bound_x, bound_y, zero_fraction, noise)
    got, _ = _estimate_lines(q, k, bounds, step)
    want, _ = loop_estimate_lines(q, k, bounds, step)
    denom = np.abs(q).sum(axis=1)
    inside = (denom > 0.0) & (np.abs(truth[:, 0]) <= bound_x) & (np.abs(truth[:, 1]) <= bound_y)
    deficit = _line_correlation(q, k, want) - _line_correlation(q, k, got)
    assert np.all(deficit[inside] <= step**3 * denom[inside])


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


@settings(max_examples=60, deadline=None)
@given(
    log2_size=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    bound_x=st.floats(0.0, 6.0),
    bound_y=st.floats(0.0, 6.0),
    image=st.sampled_from(["complex", "real", "constant", "zero"]),
)
def test_workspace_p2_is_bit_identical_to_the_dft2_form(log2_size, seed, bound_x, bound_y, image):
    """P2 on a workspace whose scratch holds NaN leftovers, whose bytes also
    read as an all-True mask, equals, bit for bit, P2 through dft2, idft2
    and invert_translation on fresh arrays, and so does the public
    project_fourier: the flipped observation and the workspace's D * m in
    and D * P2 out only move exact sign flips.  A constant image's spectrum
    vanishes off DC and a zero image's everywhere, where q must be 0."""
    n = 2**log2_size
    rng = np.random.default_rng(seed)
    observed = random_complex(rng, (n, n))
    m = {"complex": random_complex(rng, (n, n)), "real": rng.standard_normal((n, n)),
         "constant": np.full((n, n), 0.5), "zero": np.zeros((n, n))}[image]
    bounds = MotionBounds(bound_x, bound_y)
    work, out = _Workspace(observed, bounds), np.full((n, n), np.nan + 0j)
    # all-ones bytes: every float a NaN, every bool True
    work.scratch.view(np.uint8).fill(0xFF)
    np.copyto(work.spec, _flip_checkerboard(np.array(m, np.complex128)))
    estimate = _estimate_motion(work)
    got = _flip_checkerboard(_compensate(work, estimate.traj, out))
    want, traj, scores = dft2_form_project_fourier(m, observed, bounds)
    public, public_estimate = project_fourier(m, observed, ReconConfig(bounds=bounds))
    for image_, estimate_ in ((got, estimate), (public, public_estimate)):
        assert np.array_equal(image_, want)
        assert np.array_equal(estimate_.traj.shifts, traj.shifts)
        assert np.array_equal(estimate_.scores, scores)


class TestProjectFourier:
    def test_fixed_point_on_motion_free_data(self, phantom64):
        observed = dft2(phantom64)
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0))
        corrected, est = project_fourier(phantom64, observed, cfg)
        assert np.abs(est.traj.shifts).max() <= 1e-9
        assert np.abs(corrected - phantom64).max() <= 1e-12

    def test_recovers_trajectory_given_true_image(self):
        scenario = make_scenario(128, 0, 3.5)
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0))
        corrected, est = project_fourier(scenario.gt, scenario.observed, cfg)
        err_x, err_y = trajectory_error(est.traj, scenario.truth, scenario.weights)
        assert err_x <= 0.02
        assert err_y <= 0.02
        rel = np.linalg.norm(corrected - scenario.gt) / np.linalg.norm(scenario.gt)
        assert rel <= 0.01

    def test_output_explains_observation(self, rng, phantom64):
        scenario = make_scenario(64, 1, 3.5)
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0))
        corrected, est = project_fourier(phantom64, scenario.observed, cfg)
        from sraar import apply_translation

        back = apply_translation(dft2(corrected), est.traj)
        assert np.abs(back - scenario.observed).max() <= 1e-10 * np.abs(scenario.observed).max()

    def test_estimated_trajectory_is_in_bounds_and_gauge_free(self, phantom64):
        scenario = make_scenario(64, 3, 3.5)
        bounds = MotionBounds(2.0, 2.0)
        cfg = ReconConfig(bounds=bounds)
        _, est = project_fourier(phantom64, scenario.observed, cfg)
        assert np.all(np.abs(est.traj.dx) <= bounds.max_abs_x)
        assert np.all(np.abs(est.traj.dy) <= bounds.max_abs_y)
        assert np.all(est.scores >= 0) and np.all(est.scores <= 1)

    def test_matched_filter_input_matches_reference_chain(self, rng, phantom64):
        """q is observed * conj(reference), the reference carrying the model's
        phase and the observed moduli; the model arrives as D * image."""
        observed = random_complex(rng, (64, 64))
        model = dft2(phantom64)
        want = observed * np.conj(np.abs(observed) * model / np.abs(model))
        work = _Workspace(observed, MotionBounds(5.0, 5.0))
        np.copyto(work.spec, _flip_checkerboard(phantom64.astype(np.complex128)))
        got = _matched_filter_input(work)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("observed_zero", [False, True])
    def test_zero_image_gives_zero_shifts(self, phantom64, observed_zero):
        """A model spectrum with no phase anywhere gives q = 0 on every line,
        without a 0/0."""
        observed = np.zeros((64, 64), complex) if observed_zero else dft2(phantom64)
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            corrected, est = project_fourier(np.zeros((64, 64)), observed, cfg)
        assert np.all(np.isfinite(corrected))
        assert np.array_equal(est.traj.shifts, np.zeros((64, 2)))
        assert np.array_equal(est.scores, np.zeros(64))
        assert np.abs(corrected - idft2(observed)).max() <= 1e-12

    def test_peak_memory_of_one_call(self):
        # measured 4.10 n x n complex arrays at 256^2 (3.80 at 512^2): a
        # one-shot workspace (the flipped observation, its moduli, the
        # spectrum and a complex scratch), whose spectrum buffer holds the
        # ramps, then the translation, and is returned.  It was 5.16 with an
        # output buffer and a mask of their own; fresh spectra and ramps per
        # call peaked at 4.02
        n = 256
        scenario = make_scenario(n, 4, 5.0)
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0))
        project_fourier(scenario.gt, scenario.observed, cfg)
        tracemalloc.start()
        try:
            project_fourier(scenario.gt, scenario.observed, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (4.10 + 0.5) * n * n * 16

    def test_shape_mismatch_rejected(self, rng, phantom64):
        cfg = ReconConfig(bounds=MotionBounds(5.0, 5.0))
        with pytest.raises(ValueError):
            project_fourier(phantom64, random_complex(rng, (32, 32)), cfg)


def _with_bad_sample(arr, bad):
    arr = arr.copy()
    arr.flat[5] = bad
    return arr


_IMAGE = np.random.default_rng(7).standard_normal((16, 16))
_KSPACE = dft2(_IMAGE)
_LINE = _KSPACE[3]
_BOUNDS = MotionBounds(2.0, 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, call", [
    ("image", lambda bad: project_sparse(_with_bad_sample(_IMAGE, bad), 10.0)),
    ("image", lambda bad: project_fourier(_with_bad_sample(_IMAGE, bad), _KSPACE, ReconConfig(bounds=_BOUNDS))),
    ("observed k-space",
     lambda bad: project_fourier(_IMAGE, _with_bad_sample(_KSPACE, bad), ReconConfig(bounds=_BOUNDS))),
    ("observed line", lambda bad: estimate_line_shift(_with_bad_sample(_LINE, bad), _LINE, 0.1, _BOUNDS)),
    ("reference line", lambda bad: estimate_line_shift(_LINE, _with_bad_sample(_LINE, bad), 0.1, _BOUNDS)),
], ids=["project_sparse", "project_fourier-image", "project_fourier-observed", "estimate_line_shift-observed",
        "estimate_line_shift-reference"])
def test_non_finite_input_rejected_naming_the_argument(name, call, bad):
    # a NaN used to give zeros (P1), a NaN image or a motion-free naive
    # image (P2), or a zero shift (the line estimator), with no error
    with pytest.raises(ValueError, match=f"^{name} contains non-finite values"):
        call(bad)


@pytest.mark.parametrize("bad", [_IMAGE.astype(object), np.full(_IMAGE.shape, "a")], ids=["object", "str"])
@pytest.mark.parametrize("name, call", [
    ("image", lambda bad: project_sparse(bad, 10.0)),
    ("image", lambda bad: project_fourier(bad, _KSPACE, ReconConfig(bounds=_BOUNDS))),
    ("observed k-space", lambda bad: project_fourier(_IMAGE, bad, ReconConfig(bounds=_BOUNDS))),
], ids=["project_sparse", "project_fourier-image", "project_fourier-observed"])
def test_non_numeric_input_rejected_naming_the_argument(name, call, bad):
    # numpy's isfinite raised TypeError on an object or str array
    with pytest.raises(ValueError, match=f"^{name} must be bool, int, float or complex, got dtype {bad.dtype}$"):
        call(bad)
