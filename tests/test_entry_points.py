"""Public entry points refuse a malformed argument with a ValueError naming it.

Each case below was answered otherwise before the shared checks in
``sraar.core`` covered it: a Python bool passed the count checks as 0 or 1
(or reached numpy, which raised TypeError), a str or object array raised
numpy's TypeError, also where a complex value sat in an object array of
real values, and a complex value lost its imaginary part with only a
ComplexWarning.
"""

import numpy as np
import pytest

from sraar import (
    FrequencyGrid,
    MotionBounds,
    MotionEstimate,
    MotionTrajectory,
    ReconConfig,
    TrajectoryGenConfig,
    corrupt,
    estimate_line_shift,
    export_pgm,
    gauge_aligned,
    generate_trajectory,
    haar_forward,
    image_metrics,
    save_array,
    shepp_logan,
    trajectory_error,
)

_BOUNDS = MotionBounds(1.0, 1.0)
_IMAGE = np.ones((4, 4))
_TRAJ = MotionTrajectory.zero(4)
_COMPLEX_WEIGHTS = [1.0, 1.0, 1.0, 1j]
_OBJECT_WEIGHTS = np.array(_COMPLEX_WEIGHTS, dtype=object)
_NUMERIC = "{} must be bool, int, float or complex"

_CASES = [
    # counts: an integer, not a bool, at least a minimum
    ("ReconConfig-iterations", "iterations must be a positive integer",
     lambda path: ReconConfig(c=1.0, iterations=True)),
    ("haar_forward-levels", "levels must be a positive integer",
     lambda path: haar_forward(_IMAGE, levels=True)),
    ("TrajectoryGenConfig-smoothness", "smoothness must be a positive integer",
     lambda path: TrajectoryGenConfig(_BOUNDS, smoothness=True)),
    ("TrajectoryGenConfig-seed", "seed must be an integer >= 0",
     lambda path: TrajectoryGenConfig(_BOUNDS, seed=False)),
    ("corrupt-seed-bool", "seed must be an integer >= 0",
     lambda path: corrupt(_IMAGE, _TRAJ, noise_snr_db=20.0, seed=True)),
    ("corrupt-seed-float", "seed must be an integer >= 0",
     lambda path: corrupt(_IMAGE, _TRAJ, noise_snr_db=20.0, seed=1.5)),
    ("corrupt-seed-str", "seed must be an integer >= 0",
     lambda path: corrupt(_IMAGE, _TRAJ, noise_snr_db=20.0, seed="a")),
    ("generate_trajectory-n_lines", "n_lines must be a positive integer",
     lambda path: generate_trajectory(TrajectoryGenConfig(_BOUNDS), True)),
    ("shepp_logan-n", "grid size must be an integer >= 4",
     lambda path: shepp_logan(True)),
    # arrays: bool, int, float or complex
    ("image_metrics-x-str", _NUMERIC.format("x"),
     lambda path: image_metrics(np.full((4, 4), "a"), _IMAGE)),
    ("image_metrics-x-object", _NUMERIC.format("x"),
     lambda path: image_metrics(_IMAGE.astype(object), _IMAGE)),
    ("image_metrics-gt-str", _NUMERIC.format("gt"),
     lambda path: image_metrics(_IMAGE, np.full((4, 4), "a"))),
    ("image_metrics-gt-object", _NUMERIC.format("gt"),
     lambda path: image_metrics(_IMAGE, _IMAGE.astype(object))),
    ("export_pgm-str", _NUMERIC.format("arr"),
     lambda path: export_pgm(path / "x.pgm", np.full((4, 4), "a"))),
    ("export_pgm-object", _NUMERIC.format("arr"),
     lambda path: export_pgm(path / "x.pgm", _IMAGE.astype(object))),
    ("save_array-str", _NUMERIC.format("arr"),
     lambda path: save_array(path / "x.srr", np.full((4, 4), "a"))),
    ("save_array-object", _NUMERIC.format("arr"),
     lambda path: save_array(path / "x.srr", _IMAGE.astype(object))),
    # real values: a complex dtype, refused by type
    ("MotionTrajectory-shifts", "trajectory shifts must be real",
     lambda path: MotionTrajectory(np.full((4, 2), 1j))),
    ("trajectory_error-weights", "weights must be real",
     lambda path: trajectory_error(_TRAJ, _TRAJ, _COMPLEX_WEIGHTS)),
    ("gauge_aligned-weights", "weights must be real",
     lambda path: gauge_aligned(_TRAJ, FrequencyGrid(4), _COMPLEX_WEIGHTS)),
    ("generate_trajectory-gauge_weights", "weights must be real",
     lambda path: generate_trajectory(TrajectoryGenConfig(_BOUNDS), 4, _COMPLEX_WEIGHTS)),
    ("MotionEstimate-scores", "scores must be real",
     lambda path: MotionEstimate(_TRAJ, np.zeros(4, complex))),
    ("MotionBounds-clamp", "shifts must be real",
     lambda path: _BOUNDS.clamp(np.ones((2, 2)) * 1j)),
    # real values: a complex value in an object array, refused by the cast
    ("MotionTrajectory-shifts-object", "trajectory shifts must be real",
     lambda path: MotionTrajectory(np.array([[1j, 1]], dtype=object))),
    ("trajectory_error-weights-object", "weights must be real",
     lambda path: trajectory_error(_TRAJ, _TRAJ, _OBJECT_WEIGHTS)),
    ("MotionEstimate-scores-object", "scores must be real",
     lambda path: MotionEstimate(_TRAJ, _OBJECT_WEIGHTS)),
    ("ReconConfig-theta", "theta must be a real number",
     lambda path: ReconConfig(theta=np.complex128(0.5 + 2j))),
    ("ReconConfig-c", "sparsity budget c must be a real number",
     lambda path: ReconConfig(c=np.complex128(5.0))),
    ("ReconConfig-c_grid", "c_grid fraction must be a real number",
     lambda path: ReconConfig(c_grid=(np.complex64(0.5),))),
    ("MotionBounds-max_abs_x", "max_abs_x must be a real number",
     lambda path: MotionBounds(np.complex128(1.0), 1.0)),
    ("MotionBounds-max_abs_y", "max_abs_y must be a real number",
     lambda path: MotionBounds(1.0, np.complex128(1.0))),
    ("corrupt-noise_snr_db", "noise_snr_db must be a real number",
     lambda path: corrupt(_IMAGE, _TRAJ, noise_snr_db=np.complex128(10.0))),
    ("estimate_line_shift-k_y", "k_y must be a real number",
     lambda path: estimate_line_shift(np.ones(4), np.ones(4), np.complex128(0.1), _BOUNDS)),
]


@pytest.mark.parametrize("message, call", [case[1:] for case in _CASES], ids=[case[0] for case in _CASES])
def test_malformed_argument_rejected_naming_it(tmp_path, message, call):
    # each message starts with the argument's name
    with pytest.raises(ValueError, match=f"^{message}"):
        call(tmp_path)
