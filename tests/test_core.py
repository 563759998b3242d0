import dataclasses

import numpy as np
import pytest

from sraar import (FrequencyGrid, MotionBounds, MotionTrajectory, ReconConfig, TrajectoryGenConfig,
                   estimate_line_shift, generate_trajectory, project_fourier, solve_er, solve_sraar,
                   tune_sparsity_budget)


class TestFrequencyGrid:
    def test_known_coords(self):
        g = FrequencyGrid(8)
        assert g.coord(5) == 0.125
        assert g.coord(4) == 0.0
        assert g.coord(0) == -0.5
        assert g.dc_index == 4

    def test_coords_array_matches_scalar(self):
        g = FrequencyGrid(16)
        assert np.array_equal(g.coords, [g.coord(i) for i in range(16)])
        assert g.coords.min() == -0.5
        assert g.coords.max() == 0.5 - 1 / 16

    def test_out_of_range_index(self):
        g = FrequencyGrid(8)
        with pytest.raises(IndexError):
            g.coord(8)
        with pytest.raises(IndexError):
            g.coord(-1)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            FrequencyGrid(12)

    @pytest.mark.parametrize("n", [0, 3, 5, 2, 12, 100, -8])
    def test_bad_sizes_rejected(self, n):
        with pytest.raises(ValueError):
            FrequencyGrid(n)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            FrequencyGrid(8.0)

    def test_coords_read_only(self):
        with pytest.raises(ValueError):
            FrequencyGrid(8).coords[0] = 1.0


class TestMotionTrajectory:
    def test_components(self):
        t = MotionTrajectory.from_components([1.0, 2.0], [3.0, 4.0])
        assert len(t) == 2
        assert np.array_equal(t.dx, [1.0, 2.0])
        assert np.array_equal(t.dy, [3.0, 4.0])

    def test_zero(self):
        assert np.all(MotionTrajectory.zero(5).shifts == 0)

    def test_group_operations(self):
        a = MotionTrajectory.from_components([1.0, -1.0], [0.5, 0.0])
        b = MotionTrajectory.from_components([2.0, 2.0], [0.0, 1.0])
        assert np.array_equal((a + b).shifts, a.shifts + b.shifts)
        assert np.array_equal((-a).shifts, -a.shifts)
        assert np.all((a + -a).shifts == 0)

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            MotionTrajectory(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            MotionTrajectory(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            MotionTrajectory(np.array([[np.nan, 0.0]]))

    def test_length_mismatch_add(self):
        with pytest.raises(ValueError):
            MotionTrajectory.zero(3) + MotionTrajectory.zero(4)

    def test_immutability(self):
        t = MotionTrajectory.zero(3)
        with pytest.raises(ValueError):
            t.shifts[0, 0] = 1.0


class TestMotionBounds:
    def test_clamp(self):
        b = MotionBounds(1.0, 2.0)
        out = b.clamp(np.array([[3.0, -5.0], [-0.5, 1.5]]))
        assert np.array_equal(out, [[1.0, -2.0], [-0.5, 1.5]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MotionBounds(-1.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            MotionBounds(np.inf, 1.0)


class TestReconConfig:
    def test_defaults_valid(self):
        cfg = ReconConfig()
        assert cfg.solver == "sraar"
        assert cfg.theta == 0.9
        assert cfg.iterations == 100

    @pytest.mark.parametrize("theta", [0.0, -0.1, 1.0001, np.nan])
    def test_theta_range(self, theta):
        with pytest.raises(ValueError):
            ReconConfig(theta=theta)

    def test_theta_one_allowed(self):
        assert ReconConfig(theta=1.0).theta == 1.0

    @pytest.mark.parametrize("iters", [0, -3, 2.5])
    def test_iterations_positive(self, iters):
        with pytest.raises(ValueError):
            ReconConfig(iterations=iters)

    def test_budget_exclusive(self):
        with pytest.raises(ValueError):
            ReconConfig(c=1.0, c_grid=(0.5,))

    @pytest.mark.parametrize("grid", [(), (1.0,), (0.5, 1.2), (0.0,), (-0.1, 0.5)])
    def test_bad_fraction_grids(self, grid):
        with pytest.raises(ValueError):
            ReconConfig(c_grid=grid)

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            ReconConfig(c=-1.0)

    def test_bad_solver(self):
        with pytest.raises(ValueError):
            ReconConfig(solver="gradient")

    @pytest.mark.parametrize("make, name", [
        (lambda: ReconConfig(bounds=(1.0, 1.0)), "bounds"),
        (lambda: ReconConfig(c_grid=0.5), "c_grid"),
        (lambda: ReconConfig(c_grid="0.5,0.7"), "c_grid"),
        (lambda: ReconConfig(c_grid=(0.5, None)), "c_grid"),
        (lambda: ReconConfig(theta=None), "theta"),
        (lambda: ReconConfig(c=[1.0, 2.0]), "sparsity budget c"),
        (lambda: MotionBounds(None, 1), "max_abs_x"),
        (lambda: MotionBounds(1, 1j), "max_abs_y"),
    ], ids=["bounds-tuple", "c_grid-float", "c_grid-str", "c_grid-None", "theta-None", "c-list",
            "max_abs_x-None", "max_abs_y-complex"])
    def test_argument_of_wrong_type_rejected_naming_it(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            make()

    def test_only_the_solver_settings_are_fields(self):
        # P2 estimates every line in one batched pass, so a thread count is
        # no setting of the solve
        with pytest.raises(TypeError):
            ReconConfig(threads=1)
        names = [f.name for f in dataclasses.fields(ReconConfig)]
        assert names == ["bounds", "solver", "theta", "iterations", "c", "c_grid"]


_OBSERVED = np.ones((8, 8), complex)


@pytest.mark.parametrize("call, name, cls, got", [
    (lambda: solve_er(_OBSERVED, "cfg"), "cfg", "ReconConfig", "str"),
    (lambda: solve_sraar(_OBSERVED, "cfg"), "cfg", "ReconConfig", "str"),
    (lambda: tune_sparsity_budget(_OBSERVED, "cfg"), "cfg", "ReconConfig", "str"),
    (lambda: project_fourier(_OBSERVED, _OBSERVED, None), "cfg", "ReconConfig", "NoneType"),
    (lambda: estimate_line_shift(_OBSERVED[0], _OBSERVED[0], 0.1, (1, 1)), "bounds", "MotionBounds", "tuple"),
    (lambda: TrajectoryGenConfig((1, 1)), "bounds", "MotionBounds", "tuple"),
    (lambda: generate_trajectory("cfg", 4), "cfg", "TrajectoryGenConfig", "str"),
], ids=["solve_er", "solve_sraar", "tune_sparsity_budget", "project_fourier", "estimate_line_shift",
        "TrajectoryGenConfig", "generate_trajectory"])
def test_config_object_of_wrong_type_rejected_naming_it(call, name, cls, got):
    # each raised AttributeError on its first use of the object
    with pytest.raises(ValueError, match=f"^{name} must be a {cls}, got {got}$"):
        call()
