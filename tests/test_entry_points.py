"""Public entry points refuse a malformed argument with a ValueError naming
it, and answer a finite argument with finite values or such a ValueError.

Each case below was answered otherwise before the shared checks in
``sraar.core`` covered it: a Python bool passed the count checks as 0 or 1
(or reached numpy, which raised TypeError), a str or object array raised
numpy's TypeError, also where a complex value sat in an object array of
real values, a complex value lost its imaginary part with only a
ComplexWarning, NaN or Inf gave NaN metrics or an all-zero image, and
finite values whose squares or sums overflow or underflow gave NaN, Inf or
a false refusal.
"""

import math
from fractions import Fraction

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
    TrajectoryGenConfig,
    corrupt,
    estimate_line_shift,
    export_pgm,
    gauge_aligned,
    generate_trajectory,
    haar_forward,
    image_metrics,
    l1_norm,
    project_sparse,
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
_NON_FINITE = "{} contains non-finite values"
# an 8 x 8 zero image with a 3 x 3 block of ones
_BLOCK = np.zeros((8, 8))
_BLOCK[2:5, 2:5] = 1.0

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
    # finite values: NaN or Inf are refused where no answer is defined
    ("image_metrics-x-inf", _NON_FINITE.format("x"),
     lambda path: image_metrics(np.where(_BLOCK > 0, np.inf, 0.0), _BLOCK)),
    ("export_pgm-nan", _NON_FINITE.format("arr"),
     lambda path: export_pgm(path / "x.pgm", np.where(_BLOCK > 0, np.nan, 0.0))),
    ("export_pgm-inf", _NON_FINITE.format("arr"),
     lambda path: export_pgm(path / "x.pgm", np.where(_BLOCK > 0, np.inf, 0.0))),
]


@pytest.mark.parametrize("message, call", [case[1:] for case in _CASES], ids=[case[0] for case in _CASES])
def test_malformed_argument_rejected_naming_it(tmp_path, message, call):
    # each message starts with the argument's name
    with pytest.raises(ValueError, match=f"^{message}"):
        call(tmp_path)


# the block at 2^1000 and a 1 that x holds 2^-40 larger: rmse_rel 2^-1040 / 3
# and PSNR 20 log10(2^1000 / (2^-40 / 8)), whose ratio exceeds the largest float
_PEAKED = np.where(_BLOCK > 0, 2.0**1000, 0.0)
_PEAKED[0, 0] = 1.0

# (id, call, the answer it must give); each but the last gave NaN or Inf, or
# refused, unscaled, and the last loses its small axis to a scale shared by both
_ANSWERS = [
    ("image_metrics-2^1000", lambda: image_metrics(np.where(_PEAKED == 1.0, 1.0 + 2.0**-40, _PEAKED), _PEAKED),
     lambda got: got == (pytest.approx(2.0**-1040 / 3, rel=1e-9), pytest.approx(20860.0 * np.log10(2.0), rel=1e-14))),
    ("image_metrics-1e160", lambda: image_metrics(1.5e160 * _BLOCK, 1e160 * _BLOCK),
     lambda got: got == pytest.approx(image_metrics(1.5 * _BLOCK, _BLOCK), rel=1e-14)),
    ("image_metrics-1e-200", lambda: image_metrics(1.5e-200 * _BLOCK, 1e-200 * _BLOCK),
     lambda got: got == pytest.approx(image_metrics(1.5 * _BLOCK, _BLOCK), rel=1e-14)),
    ("estimate_line_shift-1e160",
     lambda: estimate_line_shift(np.full(8, 1e160 + 0j), np.full(8, 1e160 + 0j), 0.1, _BOUNDS),
     lambda got: tuple(got) == (0.0, 0.0, 1.0)),
    ("project_sparse-1.7e308", lambda: project_sparse(1.7e308 * _BLOCK, 1e308),
     lambda got: np.allclose(got, 1.7e308 * project_sparse(_BLOCK, 1e308 / 1.7e308), rtol=1e-12, atol=0.0)
     and l1_norm(haar_forward(got)) == pytest.approx(1e308, rel=1e-12)),
    ("trajectory_error-1e308",
     lambda: trajectory_error(MotionTrajectory(np.full((4, 2), 1e308)), MotionTrajectory(np.full((4, 2), -1e308))),
     lambda got: got == (0.0, 0.0)),
    ("trajectory_error-axes-1e100-1e-100",
     lambda: trajectory_error(MotionTrajectory(np.array([[1e100, 1e-100], [1e100, -1e-100]])),
                              MotionTrajectory(np.zeros((2, 2)))),
     lambda got: got == (0.0, 1e-100)),
]


@pytest.mark.parametrize("call, check", [case[1:] for case in _ANSWERS], ids=[case[0] for case in _ANSWERS])
def test_finite_argument_gets_the_right_answer(call, check):
    assert check(call())


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pgm") / "x.pgm"


def _array(data, shape, complex_, non_finite=True):
    """2^k times a random pattern of ``shape``, k in [-1000, 1000], with
    NaN, +Inf or -Inf at up to two entries if ``non_finite``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pattern = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0.0)
    a = pattern * 2.0 ** data.draw(st.integers(-1000, 1000))
    for value in data.draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2 * non_finite)):
        a.flat[rng.integers(a.size)] = value
    return a


@settings(max_examples=200, deadline=None)
@given(data=st.data(), complex_=st.booleans())
def test_finite_values_or_value_error(pgm_path, data, complex_):
    """Magnitudes across the float range, and NaN or Inf: every call
    returns finite values of the expected shape or raises ValueError."""
    image, other = _array(data, (8, 8), complex_), _array(data, (8, 8), False)
    lines, shifts = _array(data, (2, 8), complex_), _array(data, (2, 8, 2), False)
    shifts[..., 1] = _array(data, (2, 8), False)  # an axis of its own magnitude
    budget = 2.0 ** data.draw(st.integers(-1000, 1000))

    def grey_levels():
        export_pgm(pgm_path, image)
        return np.frombuffer(pgm_path.read_bytes()[-128:], ">u2")

    calls = {
        "image_metrics": (lambda: image_metrics(image, other), (2,)),
        "trajectory_error": (lambda: trajectory_error(MotionTrajectory(shifts[0]), MotionTrajectory(shifts[1])),
                             (2,)),
        "estimate_line_shift": (lambda: estimate_line_shift(lines[0], lines[1], 0.125, _BOUNDS), (3,)),
        "project_sparse": (lambda: project_sparse(image, budget), (8, 8)),
        "export_pgm": (grey_levels, (64,)),
    }
    for name, (call, shape) in calls.items():
        try:
            values = np.asarray(call())
        except ValueError:
            continue
        assert values.shape == shape, name
        finite = np.isfinite(values)
        if name == "image_metrics":
            finite[1] |= values[0] == 0.0  # exact agreement reports PSNR +inf
        assert np.all(finite), (name, values)


def _sqrt(q):
    """The square root of the non-negative Fraction ``q``, as a float (inf
    beyond the largest), taken at a scale where the float conversion is exact
    to rounding."""
    if q == 0:
        return 0.0
    k = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(q / Fraction(4) ** k), k)
    except OverflowError:
        return math.inf


@settings(max_examples=200, deadline=None)
@given(data=st.data(), complex_=st.booleans())
def test_answers_match_exact_arithmetic(data, complex_):
    """Finite magnitudes across the float range, a separate one for each
    array and trajectory axis: image_metrics and trajectory_error agree with
    the same formulas in exact rational arithmetic, and refuse only an
    answer beyond the largest float."""
    x, gt = _array(data, (8, 8), complex_, False), _array(data, (8, 8), False, False)
    est, true = _array(data, (8, 2), False, False), _array(data, (8, 2), False, False)
    est[:, 1], true[:, 1] = _array(data, 8, False, False), _array(data, 8, False, False)

    x_mod, gt_mod = ([Fraction(v) for v in np.abs(a).ravel()] for a in (x, gt))
    sq_err = sum((a - b) ** 2 for a, b in zip(x_mod, gt_mod))
    rmse_rel = _sqrt(sq_err / sum(b**2 for b in gt_mod))
    if sq_err == 0:  # x is gt: PSNR +inf
        psnr = math.inf
    else:  # 20 log10(peak / sqrt(sq_err / n)), exact to the rounding of each log
        psnr = 20 * (math.log10(max(gt_mod)) - (math.log10(sq_err.numerator) - math.log10(sq_err.denominator)
                                                 - math.log10(len(gt_mod))) / 2)
    if rmse_rel == math.inf:
        with pytest.raises(ValueError, match="^x is too far from gt"):
            image_metrics(x, gt)
    else:
        assert image_metrics(x, gt) == (pytest.approx(rmse_rel, rel=1e-12, abs=2.0**-1000),
                                        pytest.approx(psnr, rel=1e-12, abs=1e-9))

    rms = []
    for axis in range(2):
        d = [Fraction(a) - Fraction(b) for a, b in zip(est[:, axis], true[:, axis])]
        mean = sum(d) / len(d)
        rms.append(_sqrt(sum((v - mean) ** 2 for v in d) / len(d)))
    if math.inf in rms:
        with pytest.raises(ValueError, match="^est and true_traj differ"):
            trajectory_error(MotionTrajectory(est), MotionTrajectory(true))
    else:
        got = trajectory_error(MotionTrajectory(est), MotionTrajectory(true))
        assert got == (pytest.approx(rms[0], rel=1e-12, abs=2.0**-1000),
                       pytest.approx(rms[1], rel=1e-12, abs=2.0**-1000))
