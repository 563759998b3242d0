import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sraar import (
    FrequencyGrid,
    MotionBounds,
    MotionTrajectory,
    TrajectoryGenConfig,
    apply_translation,
    corrupt,
    dft2,
    fold_trajectory,
    gauge_aligned,
    generate_trajectory,
    haar_forward,
    idft2,
    invert_translation,
    l1_norm,
    naive_reconstruct,
    shepp_logan,
)
from sraar.motion import _line_ramps
from conftest import random_complex
from reference_impls import direct_translation
from scenarios import make_scenario


def random_traj(rng, n, bound=4.0):
    return MotionTrajectory(rng.uniform(-bound, bound, size=(n, 2)))


class TestTranslationOperator:
    def test_zero_trajectory_is_identity(self, rng):
        ksp = random_complex(rng, (16, 16))
        out = apply_translation(ksp, MotionTrajectory.zero(16))
        assert np.array_equal(out, ksp)

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.sampled_from([4, 8, 16, 32, 64]),
        seed=st.integers(0, 2**32 - 1),
        max_shift=st.floats(0.0, 8.0),
        log10_scale=st.floats(-6.0, 6.0),
    )
    def test_inverse_round_trip(self, size, seed, max_shift, log10_scale):
        """Translation is unitary: invert undoes apply and the norm is kept."""
        rng = np.random.default_rng(seed)
        ksp = 10.0**log10_scale * random_complex(rng, (size, size))
        traj = random_traj(rng, size, max_shift)
        out = apply_translation(ksp, traj)
        back = invert_translation(out, traj)
        assert np.abs(back - ksp).max() <= 1e-12 * np.abs(ksp).max()
        assert abs(np.linalg.norm(out) - np.linalg.norm(ksp)) <= 1e-12 * np.linalg.norm(ksp)

    def test_invert_equals_apply_negated(self, rng):
        ksp = random_complex(rng, (16, 16))
        traj = random_traj(rng, 16)
        assert np.array_equal(invert_translation(ksp, traj), apply_translation(ksp, -traj))

    def test_norm_preserved(self, rng):
        ksp = random_complex(rng, (16, 16))
        out = apply_translation(ksp, random_traj(rng, 16))
        assert abs(np.linalg.norm(out) - np.linalg.norm(ksp)) <= 1e-12 * np.linalg.norm(ksp)

    def test_group_law(self, rng):
        ksp = random_complex(rng, (16, 16))
        a, b = random_traj(rng, 16), random_traj(rng, 16)
        composed = apply_translation(apply_translation(ksp, a), b)
        direct = apply_translation(ksp, a + b)
        assert np.abs(composed - direct).max() <= 1e-12 * np.abs(ksp).max()

    def test_amplitude_preserved(self, rng):
        ksp = random_complex(rng, (16, 16))
        out = apply_translation(ksp, random_traj(rng, 16))
        np.testing.assert_allclose(np.abs(out), np.abs(ksp), rtol=1e-14)

    def test_uniform_integer_shift_is_circular(self, rng):
        img = random_complex(rng, (32, 32))
        traj = MotionTrajectory(np.tile([3.0, 0.0], (32, 1)))
        shifted = idft2(apply_translation(dft2(img), traj))
        assert np.abs(shifted - np.roll(img, 3, axis=1)).max() < 1e-10

    def test_uniform_integer_shift_both_axes(self, rng):
        img = random_complex(rng, (16, 16))
        traj = MotionTrajectory(np.tile([-2.0, 5.0], (16, 1)))
        shifted = idft2(apply_translation(dft2(img), traj))
        oracle = np.roll(np.roll(img, -2, axis=1), 5, axis=0)
        assert np.abs(shifted - oracle).max() < 1e-10

    def test_single_line_only_touches_its_row(self, rng):
        ksp = random_complex(rng, (16, 16))
        shifts = np.zeros((16, 2))
        shifts[5] = [1.3, -0.4]
        out = apply_translation(ksp, MotionTrajectory(shifts))
        untouched = np.delete(np.arange(16), 5)
        assert np.array_equal(out[untouched], ksp[untouched])
        assert np.abs(out[5] - ksp[5]).max() > 0

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_translation(random_complex(rng, (16, 16)), MotionTrajectory.zero(8))

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.sampled_from([4, 8, 16, 32, 64, 128, 256]),
        seed=st.integers(0, 2**32 - 1),
        max_shift=st.floats(0.0, 64.0),
    )
    def test_matches_direct_exponential(self, size, seed, max_shift):
        """The factored ramps agree with one exp per sample."""
        rng = np.random.default_rng(seed)
        ksp = random_complex(rng, (size, size))
        traj = random_traj(rng, size, max_shift)
        err = np.abs(apply_translation(ksp, traj) - direct_translation(ksp, traj)).max()
        assert err <= 1e-12 * np.linalg.norm(ksp)


@settings(max_examples=300, deadline=None)
@given(
    log2_size=st.integers(2, 10),
    lines=st.lists(st.tuples(st.floats(-64.0, 64.0), st.floats(-64.0, 64.0)), min_size=1, max_size=8),
)
def test_line_ramps_match_direct_exponential(log2_size, lines):
    """Row r is exp(2i*pi*(a[r]*k + b[r])) on the centered grid."""
    n = 2**log2_size
    a, b = np.array(lines).T
    k = FrequencyGrid(n).coords
    want = np.exp(2j * np.pi * (a[:, None] * k + b[:, None]))
    assert np.abs(_line_ramps(a, b, n) - want).max() <= 1e-12


class TestNaiveReconstruct:
    def test_motion_free_recovers_image(self, phantom64):
        assert np.abs(naive_reconstruct(dft2(phantom64)) - phantom64).max() < 1e-12

    def test_motion_raises_wavelet_l1(self, phantom64):
        clean_l1 = l1_norm(haar_forward(phantom64))
        cfg_bounds = MotionBounds(5.0, 5.0)
        worse = 0
        for seed in range(20):
            traj = generate_trajectory(TrajectoryGenConfig(cfg_bounds, 8, seed), 64)
            corrupted = naive_reconstruct(corrupt(phantom64, traj))
            if l1_norm(haar_forward(corrupted)) > clean_l1:
                worse += 1
        assert worse == 20


class TestFoldTrajectory:
    def test_preserves_kspace_effect(self, rng, phantom64):
        grid = FrequencyGrid(64)
        traj = random_traj(rng, 64, bound=5.0)
        folded = fold_trajectory(traj, grid)
        a = apply_translation(dft2(phantom64), traj)
        b = apply_translation(dft2(phantom64), folded)
        assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()

    def test_principal_window_and_dc(self, rng):
        grid = FrequencyGrid(64)
        traj = random_traj(rng, 64, bound=5.0)
        folded = fold_trajectory(traj, grid)
        k = grid.coords
        assert folded.dy[grid.dc_index] == 0.0
        nz = k != 0
        assert np.all(np.abs(folded.dy[nz]) <= 0.5 / np.abs(k[nz]) + 1e-12)
        assert np.array_equal(folded.dx, traj.dx)

    def test_in_window_values_unchanged(self):
        grid = FrequencyGrid(64)
        dy = np.full(64, 0.3)
        traj = MotionTrajectory.from_components(np.zeros(64), dy)
        folded = fold_trajectory(traj, grid)
        nz = grid.coords != 0
        np.testing.assert_allclose(folded.dy[nz], 0.3, atol=1e-12)


class TestGaugeAligned:
    def test_canonical_properties(self, rng):
        grid = FrequencyGrid(64)
        weights = rng.uniform(0.1, 2.0, 64)
        traj = random_traj(rng, 64, bound=4.0)
        aligned = gauge_aligned(traj, grid, weights)
        w = weights / weights.sum()
        assert abs(w @ aligned.dx) < 1e-8
        assert abs(w @ aligned.dy) < 1e-8
        assert aligned.dy[grid.dc_index] == 0.0
        # readout shifts change only by one global constant
        np.testing.assert_allclose(np.ptp(traj.dx - aligned.dx), 0.0, atol=1e-12)

    def test_converges_on_scenario_trajectory(self):
        # folding pins the DC line's beta_y, so de-meaning must spread the
        # whole mean over the other lines or it stalls short of zero
        scenario = make_scenario(64, 3, 3.5)
        w = scenario.weights / scenario.weights.sum()
        assert abs(w @ scenario.truth.dx) < 1e-12
        assert abs(w @ scenario.truth.dy) < 1e-12
        again = gauge_aligned(scenario.truth, FrequencyGrid(64), scenario.weights)
        np.testing.assert_allclose(again.shifts, scenario.truth.shifts, rtol=0.0, atol=1e-12)

    def test_uniform_weights_default(self, rng):
        grid = FrequencyGrid(16)
        aligned = gauge_aligned(random_traj(rng, 16, 1.0), grid)
        assert abs(aligned.dx.mean()) < 1e-8

    def test_bad_weights(self, rng):
        grid = FrequencyGrid(16)
        with pytest.raises(ValueError):
            gauge_aligned(random_traj(rng, 16, 1.0), grid, np.zeros(16))


@settings(max_examples=200, deadline=None)
@given(
    size=st.sampled_from([4, 8, 16, 32, 64]),
    seed=st.integers(0, 2**32 - 1),
    max_shift=st.floats(0.0, 20.0),
    zero_fraction=st.floats(0.0, 0.9),
)
# needs 18 rounds of folding and de-meaning to converge
@example(size=32, seed=1034, max_shift=18.5, zero_fraction=0.0)
def test_gauge_aligned_is_canonical(size, seed, max_shift, zero_fraction):
    """For any trajectory and non-negative weights, gauge alignment is
    idempotent, leaves zero weighted mean readout and non-DC phase-encode
    shift, and changes the data only by one global image shift."""
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(size)
    traj = random_traj(rng, size, max_shift)
    weights = rng.uniform(0.0, 10.0, size) * (rng.uniform(size=size) >= zero_fraction)
    weights[rng.integers(size)] += 1.0
    aligned = gauge_aligned(traj, grid, weights)

    again = gauge_aligned(aligned, grid, weights)
    np.testing.assert_allclose(again.shifts, aligned.shifts, rtol=0.0, atol=1e-12)

    w = weights / weights.sum()
    assert abs(w @ aligned.dx) < 1e-12
    free = grid.coords != 0.0
    if w[free].sum() > 0:
        assert abs(w[free] @ aligned.dy[free]) / w[free].sum() < 1e-12

    # every k_y is a multiple of 1/n, so the global phase-encode shift is
    # fixed modulo n by the lowest non-DC line alone
    global_x = traj.dx[0] - aligned.dx[0]
    global_y = traj.dy[grid.dc_index + 1] - aligned.dy[grid.dc_index + 1]
    ksp = random_complex(rng, (size, size))
    shifted = traj + MotionTrajectory(np.tile([-global_x, -global_y], (size, 1)))
    np.testing.assert_allclose(
        apply_translation(ksp, aligned), apply_translation(ksp, shifted), rtol=0.0, atol=1e-12
    )
