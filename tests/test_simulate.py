import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sraar import (
    MotionBounds,
    MotionTrajectory,
    TrajectoryGenConfig,
    corrupt,
    dft2,
    generate_trajectory,
    load_ground_truth,
    save_array,
    shepp_logan,
)
from sraar.simulate import SHEPP_LOGAN_ELLIPSES, render_ellipses
from reference_impls import full_grid_render_ellipses, point_in_ellipse


def oracle_phantom_sample(r, c, n):
    x = (c - n // 2) / (n // 2)
    y = (n // 2 - r) / (n // 2)
    value = 0.0
    for amp, a, b, x0, y0, phi in SHEPP_LOGAN_ELLIPSES:
        if point_in_ellipse(x, y, a, b, x0, y0, phi):
            value += amp
    return value


class TestPhantom:
    def test_shape_and_dtype(self):
        img = shepp_logan(64)
        assert img.shape == (64, 64)
        assert img.dtype == np.complex128
        assert np.all(img.imag == 0)

    def test_value_range(self):
        img = shepp_logan(128).real
        assert img.min() >= -1e-15  # additive float residue where ellipses cancel
        assert img.max() <= 1.0
        assert img.max() > 0.9  # skull rim carries full intensity

    def test_corner_outside_and_center_inside(self):
        img = shepp_logan(64).real
        assert img[0, 0] == 0.0
        assert img[32, 32] == oracle_phantom_sample(32, 32, 64)

    def test_every_pixel_matches_membership_oracle(self):
        n = 32
        img = shepp_logan(n).real
        for r in range(n):
            for c in range(n):
                assert img[r, c] == oracle_phantom_sample(r, c, n), (r, c)

    def test_outer_shells_mirror_in_x(self):
        # both large ellipses are centered on x = 0 and unrotated, so their
        # rendering is even in x; column N - c carries column c's value
        img = render_ellipses(64, SHEPP_LOGAN_ELLIPSES[:2]).real
        mirrored = np.roll(img[:, ::-1], 1, axis=1)
        assert np.array_equal(img, mirrored)

    def test_bad_sizes(self):
        for n in (0, 3, 12, 100):
            with pytest.raises(ValueError):
                shepp_logan(n)

    @pytest.mark.parametrize("n", [1 << k for k in range(2, 11)])
    def test_equals_full_grid_rendering(self, n):
        expected = full_grid_render_ellipses(n, SHEPP_LOGAN_ELLIPSES)
        assert shepp_logan(n).tobytes() == expected.tobytes()

    def test_peak_memory_of_the_phantom(self):
        # the float image and its complex128 copy make 3.0 n x n float64
        # arrays; each ellipse's box arrays stay below that.  The full-grid
        # renderer peaked at 7.0
        n = 512
        tracemalloc.start()
        try:
            shepp_logan(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8

    @pytest.mark.parametrize("table, match", [
        (np.ones((2, 5)), r"^ellipses must be a \(k, 6\) table, got shape \(2, 5\)$"),
        (np.ones(6), r"^ellipses must be a \(k, 6\) table, got shape \(6,\)$"),
        ([[1, 0.5, 0.5, 0, 0, 0], [1, 0.0, 0.5, 0, 0, 0]], r"^ellipse row 1 must be finite with semi-axes > 0"),
        ([[1, 0.5, -0.5, 0, 0, 0]], r"^ellipse row 0 must be finite with semi-axes > 0"),
        ([[1, 0.5, 0.5, 0, 0, 0], [np.nan, 0.5, 0.5, 0, 0, 0]], r"^ellipse row 1 must be finite"),
        ([[1, 0.5, 0.5, 0, 0, np.inf]], r"^ellipse row 0 must be finite"),
    ], ids=["5-columns", "1-D", "zero-axis", "negative-axis", "nan-amplitude", "inf-angle"])
    def test_malformed_table_rejected_naming_the_row(self, table, match):
        # a zero semi-axis divided by zero, a NaN row drew nothing and a
        # 5-column table failed to unpack
        with pytest.raises(ValueError, match=match):
            render_ellipses(8, table)


def _free_ellipse():
    """Any placement: off-image, sub-pixel, rotated."""
    coord = st.floats(-3.0, 3.0)
    return st.tuples(st.floats(-1.0, 1.0), st.floats(1e-3, 3.0), st.floats(1e-3, 3.0), coord, coord,
                     st.floats(-360.0, 360.0))


def _grid_ellipse(n):
    """Centred on a pixel centre with semi-axes that are multiples of the
    pixel pitch 2/n, so boundary pixels lie exactly on the ellipse."""
    pitch = 2.0 / n
    centre = st.integers(-n, n).map(lambda j: j * pitch)
    axis = st.integers(1, n).map(lambda k: k * pitch)
    return st.tuples(st.floats(-1.0, 1.0), axis, axis, centre, centre, st.sampled_from([0.0, 90.0, -90.0, 180.0, 45.0]))


@st.composite
def _phantoms(draw):
    n = draw(st.sampled_from([1 << k for k in range(2, 9)]))
    rows = draw(st.lists(st.one_of(_free_ellipse(), _grid_ellipse(n)), min_size=1, max_size=6))
    return n, np.array(rows)


@settings(max_examples=200, deadline=None)
@given(case=_phantoms())
def test_box_rendering_equals_full_grid_rendering(case):
    n, table = case
    assert render_ellipses(n, table).tobytes() == full_grid_render_ellipses(n, table).tobytes()


class TestLoadGroundTruth(object):
    def test_normalizes_peak_modulus(self, tmp_path):
        img = 3.25 * shepp_logan(16)
        path = tmp_path / "gt.srr"
        save_array(path, img)
        loaded = load_ground_truth(path)
        assert np.abs(loaded).max() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(loaded, img / np.abs(img).max(), atol=1e-6)

    def test_zero_image_rejected(self, tmp_path):
        path = tmp_path / "zero.srr"
        save_array(path, np.zeros((8, 8), dtype=np.complex128))
        with pytest.raises(ValueError):
            load_ground_truth(path)

    @pytest.mark.parametrize("n", [256, 512])
    def test_peak_memory_of_one_real_load(self, tmp_path, n):
        # the complex128 copy and the moduli for the peak search peak at 1.5
        # n x n complex arrays; dividing into a second copy peaks at 2.0
        path = tmp_path / "gt.srr"
        save_array(path, 3.0 * shepp_logan(n).real)
        tracemalloc.start()
        try:
            load_ground_truth(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * n * n * 16


class TestGenerateTrajectory:
    def test_deterministic_per_seed(self):
        cfg = TrajectoryGenConfig(MotionBounds(5.0, 5.0), 8, 7)
        a = generate_trajectory(cfg, 64)
        b = generate_trajectory(cfg, 64)
        assert np.array_equal(a.shifts, b.shifts)

    def test_seeds_differ(self):
        bounds = MotionBounds(5.0, 5.0)
        a = generate_trajectory(TrajectoryGenConfig(bounds, 8, 0), 64)
        b = generate_trajectory(TrajectoryGenConfig(bounds, 8, 1), 64)
        assert not np.array_equal(a.shifts, b.shifts)

    def test_peak_hits_bound_exactly(self):
        for seed in range(100):
            traj = generate_trajectory(TrajectoryGenConfig(MotionBounds(5.0, 3.0), 8, seed), 128)
            assert abs(np.abs(traj.dx).max() - 5.0) < 1e-12
            assert abs(np.abs(traj.dy).max() - 3.0) < 1e-12

    def test_zero_bounds_give_zero_trajectory(self):
        traj = generate_trajectory(TrajectoryGenConfig(MotionBounds(0.0, 0.0), 8, 3), 64)
        assert np.array_equal(traj.shifts, np.zeros((64, 2)))

    def test_increments_stay_small(self):
        for seed in range(100):
            traj = generate_trajectory(TrajectoryGenConfig(MotionBounds(4.0, 4.0), 8, seed), 256)
            assert np.abs(np.diff(traj.shifts, axis=0)).max() <= 1.0

    def test_higher_smoothness_smaller_jumps(self):
        bounds = MotionBounds(5.0, 5.0)
        for seed in range(20):
            rough = generate_trajectory(TrajectoryGenConfig(bounds, 2, seed), 128)
            fine = generate_trajectory(TrajectoryGenConfig(bounds, 16, seed), 128)
            rough_jump = np.abs(np.diff(rough.shifts, axis=0)).mean()
            fine_jump = np.abs(np.diff(fine.shifts, axis=0)).mean()
            assert fine_jump < rough_jump

    def test_gauge_weights_zero_the_weighted_mean(self, rng):
        cfg = TrajectoryGenConfig(MotionBounds(5.0, 3.0), 8, 4)
        w = rng.uniform(0.1, 2.0, 128)
        traj = generate_trajectory(cfg, 128, gauge_weights=w)
        wn = w / w.sum()
        assert abs(wn @ traj.dx) <= 1e-10
        assert abs(wn @ traj.dy) <= 1e-10
        # rescaling happens after centering, so the bounds stay exact
        assert abs(np.abs(traj.dx).max() - 5.0) < 1e-12
        assert abs(np.abs(traj.dy).max() - 3.0) < 1e-12

    def test_bad_gauge_weights(self):
        cfg = TrajectoryGenConfig(MotionBounds(5.0, 5.0), 8, 0)
        with pytest.raises(ValueError):
            generate_trajectory(cfg, 64, gauge_weights=np.zeros(64))
        with pytest.raises(ValueError):
            generate_trajectory(cfg, 64, gauge_weights=np.ones(32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gauge_weights_rejected(self, bad):
        # a NaN weight once gave an all-zero trajectory: its peak was NaN
        cfg = TrajectoryGenConfig(MotionBounds(5.0, 5.0), 8, 0)
        with pytest.raises(ValueError, match="weights contains non-finite values"):
            generate_trajectory(cfg, 4, gauge_weights=[bad, 1.0, 1.0, 1.0])

    def test_bad_smoothness(self):
        for bad in (0, -1, 1.5):
            with pytest.raises(ValueError):
                TrajectoryGenConfig(MotionBounds(5.0, 5.0), bad, 0)

    def test_bad_seed(self):
        # a str seed failed only later, inside numpy's SeedSequence
        for bad in ("x", -1, 1.5, None):
            with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {bad!r}$"):
                TrajectoryGenConfig(MotionBounds(5.0, 5.0), 8, bad)

    def test_bad_line_count(self):
        # a float or str count raised TypeError
        for bad in (0, 4.5, "4"):
            with pytest.raises(ValueError, match=f"^n_lines must be a positive integer, got {bad!r}$"):
                generate_trajectory(TrajectoryGenConfig(MotionBounds(5.0, 5.0), 8, 0), bad)


class TestCorrupt:
    def test_zero_trajectory_noiseless_is_plain_dft(self, phantom64):
        out = corrupt(phantom64, MotionTrajectory.zero(64))
        assert np.array_equal(out, dft2(phantom64))

    def test_noiseless_preserves_amplitudes(self, phantom64, rng):
        traj = MotionTrajectory(rng.uniform(-5, 5, size=(64, 2)))
        out = corrupt(phantom64, traj)
        np.testing.assert_allclose(np.abs(out), np.abs(dft2(phantom64)), rtol=1e-14)

    def test_noise_deterministic_per_seed(self, phantom64):
        traj = MotionTrajectory.zero(64)
        a = corrupt(phantom64, traj, noise_snr_db=20.0, seed=11)
        b = corrupt(phantom64, traj, noise_snr_db=20.0, seed=11)
        c = corrupt(phantom64, traj, noise_snr_db=20.0, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    def test_measured_snr_matches_request(self, phantom64, snr_db):
        clean = dft2(phantom64)
        signal_power = np.sum(np.abs(clean) ** 2)
        traj = MotionTrajectory.zero(64)
        measured = []
        for seed in range(50):
            noisy = corrupt(phantom64, traj, noise_snr_db=snr_db, seed=seed)
            noise_power = np.sum(np.abs(noisy - clean) ** 2)
            measured.append(10.0 * np.log10(signal_power / noise_power))
        measured = np.asarray(measured)
        assert np.all(np.abs(measured - snr_db) < 0.5)
        assert abs(measured.mean() - snr_db) < 0.1
