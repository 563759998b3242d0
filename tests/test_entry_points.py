"""Public entry points refuse a malformed argument with a ValueError naming
it, and answer a finite argument with finite values or such a ValueError.

Each case below was answered otherwise before the shared checks in
``sraar.core`` covered it: a Python bool passed the count checks as 0 or 1
(or reached numpy, which raised TypeError), a str or object array raised
numpy's TypeError, also where a complex value sat in an object array of
real values, a complex value lost its imaginary part with only a
ComplexWarning, NaN or Inf gave NaN metrics or an all-zero image, finite
values whose squares or sums overflow or underflow gave NaN, Inf or a false
refusal, shifts of many grid periods lost their phase, and integer sums
wrapped to 0.

Every function that takes an image, k-space, coefficients or a line
checks it with :func:`sraar.core.require_in_range`: a nonzero peak modulus
in [2^-480, 2^480 / n] where the function squares it, and in the wider
[2^-481 / n, 2^481], which holds every transform of an array in the first,
where it only transforms, translates or sums the moduli of k-space or
coefficients.  Outside, the answer is a ValueError that starts "<name> has
peak modulus"; a trajectory, and a search bound, holds shifts of at most
2^30 px.  The boundary table pins both ends of the range for every such
function, the round trips of an image at either end come back, and a guard
over ``sraar.__all__`` keeps a new function from landing without a row.
"""

import math
import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impls import loop_haar_forward

import sraar
from sraar import (
    FrequencyGrid,
    MotionBounds,
    MotionEstimate,
    MotionTrajectory,
    ReconConfig,
    SolverTrace,
    TrajectoryGenConfig,
    WaveletCoeffs,
    apply_translation,
    corrupt,
    dft2,
    estimate_line_shift,
    export_pgm,
    gauge_aligned,
    generate_trajectory,
    haar_forward,
    haar_inverse,
    idft2,
    image_metrics,
    invert_translation,
    l1_norm,
    load_array,
    naive_reconstruct,
    project_fourier,
    project_sparse,
    save_array,
    shepp_logan,
    solve_er,
    solve_sraar,
    trajectory_error,
    tune_sparsity_budget,
)
from sraar.projections import _Workspace

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
# at 1.7e308 the block's DFT and Haar sums exceed the largest float
_HUGE = 1.7e308 * _BLOCK
# a 2 x 2 block at 1e308, whose DFT and Haar coefficients fit in a float,
# though their unscaled sums do not
_PAIR = np.zeros((8, 8))
_PAIR[2:4, 2:4] = 1e308
# the ranges of an 8 x 8 array or a line of 8 (sraar.core.require_in_range)
_LOW, _HIGH = 2.0**-480, 2.0**480 / 8
_TRANSFORMED_LOW, _TRANSFORMED_HIGH = 2.0**-481 / 8, 2.0**481
_OUT_OF_RANGE = "{} has peak modulus"
_TOO_FAR = "trajectory shifts must not exceed 1073741824 px"

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
    ("haar_inverse-nan", _NON_FINITE.format("coefficients"),
     lambda path: haar_inverse(WaveletCoeffs(np.where(_BLOCK > 0, np.nan, 0.0), None))),
    ("l1_norm-inf", _NON_FINITE.format("x"),
     lambda path: l1_norm(np.where(_BLOCK > 0, np.inf, 0.0))),
    ("apply_translation-nan", _NON_FINITE.format("k-space"),
     lambda path: apply_translation(np.where(_BLOCK > 0, np.nan, 0.0), MotionTrajectory.zero(8))),
    # finite values outside the range are refused
    ("dft2-1.7e308", _OUT_OF_RANGE.format("image"), lambda path: dft2(_HUGE)),
    ("idft2-1.7e308", _OUT_OF_RANGE.format("k-space"), lambda path: idft2(_HUGE)),
    ("naive_reconstruct-1.7e308", _OUT_OF_RANGE.format("k-space"), lambda path: naive_reconstruct(_HUGE)),
    ("haar_forward-1.7e308", _OUT_OF_RANGE.format("image"), lambda path: haar_forward(_HUGE)),
    ("l1_norm-1.7e308", _OUT_OF_RANGE.format("x"), lambda path: l1_norm(_HUGE)),
    ("corrupt-1.7e308", _OUT_OF_RANGE.format("image"), lambda path: corrupt(_HUGE, MotionTrajectory.zero(8))),
    ("corrupt-2x2-1e308--15dB", _OUT_OF_RANGE.format("image"),
     lambda path: corrupt(_PAIR, MotionTrajectory.zero(8), noise_snr_db=-15.0, seed=0)),
    ("MotionTrajectory-shifts-2^30", _TOO_FAR,
     lambda path: MotionTrajectory(np.full((4, 2), np.nextafter(2.0**30, np.inf)))),
    # a bound beyond 2^30 px is refused where it is set, and a trajectory
    # that an operation takes beyond it names that operation's result
    ("MotionBounds-max_abs_x-2^30", "max_abs_x must not exceed 1073741824 px",
     lambda path: MotionBounds(np.nextafter(2.0**30, np.inf), 1.0)),
    ("MotionBounds-max_abs_y-2^31", "max_abs_y must not exceed 1073741824 px",
     lambda path: MotionBounds(1.0, 2**31)),
    ("MotionTrajectory-add-2^30", "the sum of the trajectories' shifts must not exceed 1073741824 px",
     lambda path: MotionTrajectory(np.full((4, 2), 2.0**30)) + MotionTrajectory(np.full((4, 2), 1.0))),
    ("gauge_aligned-2^30", "the de-meaned readout shifts must not exceed 1073741824 px",
     lambda path: gauge_aligned(MotionTrajectory.from_components([2.0**30, -2.0**30, -2.0**30, -2.0**30], np.zeros(4)),
                                FrequencyGrid(4))),
    # an empty array has no longest axis, and keeps its own refusals
    ("export_pgm-empty-0x0", r"an empty array of shape \(0, 0\)",
     lambda path: export_pgm(path / "x.pgm", np.zeros((0, 0)))),
    ("export_pgm-empty-0", r"only 2-D arrays are exported, got shape \(0,\)",
     lambda path: export_pgm(path / "x.pgm", np.zeros(0))),
    ("image_metrics-empty-0x0", "metrics are undefined for a zero ground truth",
     lambda path: image_metrics(np.zeros((0, 0)), np.zeros((0, 0)))),
    # an image in range at an SNR whose noise level overflows
    ("corrupt--4000dB", "SNR of -4000.0 dB gives a non-finite noise level",
     lambda path: corrupt(_BLOCK, MotionTrajectory.zero(8), noise_snr_db=-4000.0, seed=0)),
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
# the block at the top of the range, and an x that differs from it by the
# smallest subnormal: rmse_rel underflows to 0, and peak / rmse = 2^1554
_TOP = _HIGH * _BLOCK
_TOP_OFF = _TOP.copy()
_TOP_OFF[0, 0] = 5e-324

_SPECTRUM = dft2(_BLOCK)
# 1e308 and 1e-20 on opposite corners: the Haar transforms keep the small
# corner's cell, which scaling both by the large corner's power of two flushes
_CORNERS = np.zeros((8, 8))
_CORNERS[0, 0], _CORNERS[7, 7] = 1e308, 1e-20
# the same in range: 1e140 beside 1e-300
_IN_RANGE_CORNERS = np.zeros((8, 8))
_IN_RANGE_CORNERS[0, 0], _IN_RANGE_CORNERS[7, 7] = 1e140, 1e-300
_CORNER_CELLS = np.zeros((8, 8))
_CORNER_CELLS[:2, :2] = 0.5e140
_CORNER_CELLS[6:, 6:] = 0.5e-300 * np.array([[1.0, -1.0], [-1.0, 1.0]])


def _spectrum(got):
    """Whether ``got`` is _SPECTRUM to 1e-12 of its peak."""
    return np.abs(got - _SPECTRUM).max() <= 1e-12 * np.abs(_SPECTRUM).max()


# (id, call, the answer it must give); a str is the start of the ValueError
# that an input outside the range gets (1e17 and 1e308 px are shifts beyond
# 2^30 px).  In range, an answer keeps its small values beside large ones
# (the error norms of the metrics, the axes of trajectory_error, the corners
# of the Haar transforms), scales with a power-of-two scale of its input, or
# keeps an integer sum that once wrapped to 0; shifts of 2^30 px are
# multiples of 8 px, so they leave an 8 x 8 spectrum as it is
_ANSWERS = [
    ("image_metrics-2^1000", lambda: image_metrics(np.where(_PEAKED == 1.0, 1.0 + 2.0**-40, _PEAKED), _PEAKED),
     _OUT_OF_RANGE.format("x")),
    ("image_metrics-1e160", lambda: image_metrics(1.5e160 * _BLOCK, 1e160 * _BLOCK), _OUT_OF_RANGE.format("x")),
    ("image_metrics-1e-200", lambda: image_metrics(1.5e-200 * _BLOCK, 1e-200 * _BLOCK), _OUT_OF_RANGE.format("x")),
    ("image_metrics-top-5e-324", lambda: image_metrics(_TOP_OFF, _TOP),
     lambda got: got == (0.0, pytest.approx(20.0 * 1554 * np.log10(2.0), rel=1e-14))),
    ("image_metrics-1e140", lambda: image_metrics(1.5e140 * _BLOCK, 1e140 * _BLOCK),
     lambda got: got == pytest.approx(image_metrics(1.5 * _BLOCK, _BLOCK), rel=1e-14)),
    ("image_metrics-1e-140", lambda: image_metrics(1.5e-140 * _BLOCK, 1e-140 * _BLOCK),
     lambda got: got == pytest.approx(image_metrics(1.5 * _BLOCK, _BLOCK), rel=1e-14)),
    ("estimate_line_shift-1e160",
     lambda: estimate_line_shift(np.full(8, 1e160 + 0j), np.full(8, 1e160 + 0j), 0.1, _BOUNDS),
     _OUT_OF_RANGE.format("observed line")),
    ("estimate_line_shift-1e140",
     lambda: estimate_line_shift(np.full(8, 1e140 + 0j), np.full(8, 1e140 + 0j), 0.1, _BOUNDS),
     lambda got: tuple(got) == (0.0, 0.0, 1.0)),
    ("project_sparse-1.7e308", lambda: project_sparse(1.7e308 * _BLOCK, 1e308), _OUT_OF_RANGE.format("image")),
    ("project_sparse-1e140", lambda: project_sparse(1e140 * _BLOCK, 1e140),
     lambda got: np.allclose(got, 1e140 * project_sparse(_BLOCK, 1.0), rtol=1e-12, atol=0.0)
     and l1_norm(haar_forward(got)) == pytest.approx(1e140, rel=1e-12)),
    ("trajectory_error-1e308",
     lambda: trajectory_error(MotionTrajectory(np.full((4, 2), 1e308)), MotionTrajectory(np.full((4, 2), -1e308))),
     _TOO_FAR),
    ("trajectory_error-2^30",
     lambda: trajectory_error(MotionTrajectory(np.full((4, 2), 2.0**30)), MotionTrajectory(np.full((4, 2), -2.0**30))),
     lambda got: got == (0.0, 0.0)),
    ("trajectory_error-axes-1e100-1e-100",
     lambda: trajectory_error(MotionTrajectory(np.array([[1e100, 1e-100], [1e100, -1e-100]])),
                              MotionTrajectory(np.zeros((2, 2)))),
     _TOO_FAR),
    ("trajectory_error-axes-2^30-1e-300",
     lambda: trajectory_error(MotionTrajectory(np.array([[2.0**30, 1e-300], [2.0**30, -1e-300]])),
                              MotionTrajectory(np.zeros((2, 2)))),
     lambda got: got == (0.0, 1e-300)),
    ("dft2-2x2-1e308", lambda: dft2(_PAIR), _OUT_OF_RANGE.format("image")),
    ("idft2-2x2-1e308", lambda: idft2(_PAIR), _OUT_OF_RANGE.format("k-space")),
    ("naive_reconstruct-2x2-1e308", lambda: naive_reconstruct(_PAIR), _OUT_OF_RANGE.format("k-space")),
    ("corrupt-2x2-1e308", lambda: corrupt(_PAIR, MotionTrajectory.zero(8)), _OUT_OF_RANGE.format("image")),
    ("corrupt-2x2-1e308-20dB", lambda: corrupt(_PAIR, MotionTrajectory.zero(8), noise_snr_db=20.0, seed=0),
     _OUT_OF_RANGE.format("image")),
    ("haar_forward-2x2-1e308", lambda: haar_forward(_PAIR).data, _OUT_OF_RANGE.format("image")),
    ("haar_inverse-1.7e308", lambda: haar_inverse(WaveletCoeffs(_HUGE, None)), _OUT_OF_RANGE.format("coefficients")),
    ("haar_forward-1e308-1e-20", lambda: haar_forward(_CORNERS).data, _OUT_OF_RANGE.format("image")),
    ("haar_inverse-1e308-1e-20", lambda: haar_inverse(WaveletCoeffs(_CORNERS, 1)),
     _OUT_OF_RANGE.format("coefficients")),
    ("haar_forward-1e140-1e-300", lambda: haar_forward(_IN_RANGE_CORNERS).data,
     lambda got: np.allclose(got, loop_haar_forward(_IN_RANGE_CORNERS, 3), rtol=1e-12, atol=0.0)),
    ("haar_inverse-1e140-1e-300", lambda: haar_inverse(WaveletCoeffs(_IN_RANGE_CORNERS, 1)),
     lambda got: np.allclose(got, _CORNER_CELLS, rtol=1e-12, atol=0.0)),
    ("apply_translation-1e17", lambda: apply_translation(_SPECTRUM, MotionTrajectory(np.full((8, 2), 1e17))),
     _TOO_FAR),
    ("apply_translation-1e308", lambda: apply_translation(_SPECTRUM, MotionTrajectory(np.full((8, 2), 1e308))),
     _TOO_FAR),
    ("apply_translation-2^30", lambda: apply_translation(_SPECTRUM, MotionTrajectory(np.full((8, 2), 2.0**30))),
     _spectrum),
    ("l1_norm-int64-2^62", lambda: l1_norm(np.full((4, 4), 2**62, dtype=np.int64)), lambda got: got == 2.0**66),
    ("l1_norm-int64-min", lambda: l1_norm(np.full((4, 4), -2**63, dtype=np.int64)), lambda got: got == 2.0**67),
    ("l1_norm-empty-0", lambda: l1_norm(np.zeros(0)), lambda got: got == 0.0),
    ("l1_norm-empty-0x0", lambda: l1_norm(np.zeros((0, 0))), lambda got: got == 0.0),
]


@pytest.mark.parametrize("call, check", [case[1:] for case in _ANSWERS], ids=[case[0] for case in _ANSWERS])
def test_finite_argument_gets_the_right_answer(call, check):
    if isinstance(check, str):
        with pytest.raises(ValueError, match=f"^{check}"):
            call()
    else:
        assert check(call())


_MOVING = MotionTrajectory(np.full((8, 2), 0.3))
_ER = ReconConfig(bounds=_BOUNDS, solver="er", c=1.0, iterations=2)
_SRAAR = ReconConfig(bounds=_BOUNDS, solver="sraar", c=1.0, iterations=2)
_TUNED = ReconConfig(bounds=_BOUNDS, c_grid=(0.5,), iterations=2)


def _values(*parts):
    """Every number of the answer ``parts`` (arrays, scalars, motion
    estimates and solver traces), as one flat complex array."""
    flat = []
    for part in parts:
        if isinstance(part, MotionEstimate):
            flat += [part.traj.shifts, part.scores]
        elif isinstance(part, SolverTrace):
            flat += [part.misfit, part.l1]
        else:
            flat.append(part)
    return np.concatenate([np.ravel(np.asarray(p, dtype=complex)) for p in flat])


def _grey_levels(a, path):
    export_pgm(path / "x.pgm", a)
    return np.frombuffer((path / "x.pgm").read_bytes()[-128:], ">u2")


# (function, parameter, the name its refusal starts with, call on an 8 x 8
# array a); a line is a's first row, of length 8, so that n is 8 throughout.
# The functions in _TRANSFORMED take the wider range.
_BOUNDARY = [
    ("dft2", "img", "image", lambda a, path: dft2(a)),
    ("idft2", "ksp", "k-space", lambda a, path: idft2(a)),
    ("naive_reconstruct", "ksp", "k-space", lambda a, path: naive_reconstruct(a)),
    ("haar_forward", "img", "image", lambda a, path: haar_forward(a).data),
    ("haar_inverse", "coeffs", "coefficients", lambda a, path: haar_inverse(WaveletCoeffs(a, None))),
    ("l1_norm", "x", "x", lambda a, path: l1_norm(a)),
    ("apply_translation", "ksp", "k-space", lambda a, path: apply_translation(a, _MOVING)),
    ("invert_translation", "ksp", "k-space", lambda a, path: invert_translation(a, _MOVING)),
    ("corrupt", "gt", "image", lambda a, path: corrupt(a, _MOVING, noise_snr_db=20.0, seed=0)),
    ("project_sparse", "m", "image", lambda a, path: project_sparse(a, 1.0)),
    ("project_fourier", "m", "image",
     lambda a, path: _values(*project_fourier(a, _SPECTRUM, ReconConfig(bounds=_BOUNDS)))),
    ("project_fourier", "observed", "observed k-space",
     lambda a, path: _values(*project_fourier(_BLOCK, a, ReconConfig(bounds=_BOUNDS)))),
    ("estimate_line_shift", "observed_line", "observed line",
     lambda a, path: estimate_line_shift(a[0], _SPECTRUM[4], 0.125, _BOUNDS)),
    ("estimate_line_shift", "reference_line", "reference line",
     lambda a, path: estimate_line_shift(_SPECTRUM[4], a[0], 0.125, _BOUNDS)),
    ("image_metrics", "x", "x", lambda a, path: image_metrics(a, _BLOCK)),
    ("image_metrics", "gt", "gt", lambda a, path: image_metrics(_BLOCK, a)),
    ("export_pgm", "arr", "arr", _grey_levels),
    ("solve_er", "observed", "observed k-space", lambda a, path: _values(*solve_er(a, _ER))),
    ("solve_sraar", "observed", "observed k-space", lambda a, path: _values(*solve_sraar(a, _SRAAR))),
    ("tune_sparsity_budget", "observed", "observed k-space",
     lambda a, path: _values(*tune_sparsity_budget(a, _TUNED))),
]
_TRANSFORMED = {"idft2", "naive_reconstruct", "haar_inverse", "l1_norm", "apply_translation", "invert_translation"}
# an all-zero array that is refused by a rule of its own
_ZERO_REFUSED = {("image_metrics", "gt"): "metrics are undefined for a zero ground truth"}
# (id, the value of every entry given the range's ends, whether it is
# answered): each end, a real and imaginary part there, the float beyond
# each end, and 0
_EDGES = [
    ("low", lambda low, high: low, True),
    ("high", lambda low, high: high, True),
    ("complex-low", lambda low, high: low * (1 + 1j), True),
    ("complex-high", lambda low, high: high * (1 + 1j), True),
    ("below-low", lambda low, high: np.nextafter(low, 0.0), False),
    ("above-high", lambda low, high: np.nextafter(high, np.inf), False),
    ("zero", lambda low, high: 0.0, True),
]


@pytest.mark.parametrize("value, answered", [edge[1:] for edge in _EDGES], ids=[edge[0] for edge in _EDGES])
@pytest.mark.parametrize("function, parameter, name, call", _BOUNDARY,
                         ids=[f"{row[0]}-{row[1]}" for row in _BOUNDARY])
def test_range_boundary(tmp_path, function, parameter, name, call, value, answered):
    """Every entry at an end of the function's range is answered with finite
    values, and so is an all-zero array; every entry one float beyond an
    end is refused, naming the argument."""
    ends = (_TRANSFORMED_LOW, _TRANSFORMED_HIGH) if function in _TRANSFORMED else (_LOW, _HIGH)
    a = np.full((8, 8), value(*ends))
    if not answered:
        with pytest.raises(ValueError, match=f"^{name} has peak modulus"):
            call(a, tmp_path)
    elif not a.any() and (function, parameter) in _ZERO_REFUSED:
        with pytest.raises(ValueError, match=f"^{_ZERO_REFUSED[function, parameter]}"):
            call(a, tmp_path)
    else:
        assert np.all(np.isfinite(_values(call(a, tmp_path))))


# an 8 x 8 image at each end of the range: every entry at the top, or one
# entry at the bottom, whose transforms spread it over every entry
_LOW_ONE = np.zeros((8, 8))
_LOW_ONE[3, 5] = _LOW
_ENDS = {"high": np.full((8, 8), _HIGH), "complex-high": np.full((8, 8), _HIGH * (1 - 1j)),
         "low": _LOW_ONE, "complex-low": _LOW_ONE * (1 + 1j)}


@pytest.mark.parametrize("image", _ENDS.values(), ids=_ENDS.keys())
def test_transforms_of_an_image_at_an_end_of_the_range_come_back(image):
    """The DFT and the Haar coefficients of an image in range lie in the
    wider range, so the inverses, the translations and l1_norm take them:
    each round trip gives the image back to rounding."""
    scale = np.abs(image).max()

    def close(got, want):
        return np.abs(got - want).max() <= 1e-14 * scale

    ksp = dft2(image)
    assert close(idft2(ksp), image)
    assert close(naive_reconstruct(invert_translation(apply_translation(ksp, _MOVING), _MOVING)), image)
    assert close(naive_reconstruct(invert_translation(corrupt(image, _MOVING), _MOVING)), image)
    coeffs = haar_forward(image)
    assert close(haar_inverse(coeffs), image)
    assert l1_norm(coeffs) == pytest.approx(l1_norm(loop_haar_forward(image, 3)), rel=1e-14)
    assert np.all(np.isfinite(corrupt(image, _MOVING, noise_snr_db=20.0, seed=0)))


# parameters of public callables that take an image, k-space, coefficients or a line
_ARRAY_PARAMETERS = {"img", "ksp", "gt", "x", "arr", "coeffs", "m", "observed", "observed_line", "reference_line",
                     "data"}
# every other parameter of a public callable: sizes, settings, paths,
# trajectories, weights and the fields of records
_OTHER_PARAMETERS = {
    "size", "n", "n_lines", "levels", "max_abs_x", "max_abs_y", "bounds", "solver", "theta", "iterations", "c",
    "c_grid", "cfg", "smoothness", "seed", "noise_snr_db", "k_y", "grid", "path", "traj", "shifts", "est",
    "true_traj", "weights", "gauge_weights", "scores", "misfit", "l1", "seconds", "returned", "rmse_rel", "psnr_db",
    "l1_gt", "l1_corrupted", "l1_recon", "naive_rmse_rel", "traj_rms_x", "traj_rms_y", "wall_time_s",
}
# public callables that take such an array but have no row in _BOUNDARY
_EXEMPT = {
    # stores any finite array whose values fit in float32, by its own rule
    ("save_array", "arr"),
    # a record; haar_inverse checks its data when it is inverted
    ("WaveletCoeffs", "data"),
}


def test_every_array_parameter_has_a_boundary_row():
    """A public callable that takes an image, k-space, coefficients or a
    line has a row in the boundary table or an entry in the exempt list,
    so that none lands without the range check; a parameter name that is
    in neither list of names fails until it is classified."""
    rows = {(row[0], row[1]) for row in _BOUNDARY}
    unclassified, uncovered = [], []
    for function in sraar.__all__:
        obj = getattr(sraar, function)
        if not callable(obj):
            continue
        for parameter in inspect.signature(obj).parameters:
            if parameter in _ARRAY_PARAMETERS:
                if (function, parameter) not in rows | _EXEMPT:
                    uncovered.append(f"{function}({parameter})")
            elif parameter not in _OTHER_PARAMETERS:
                unclassified.append(f"{function}({parameter})")
    assert (uncovered, unclassified) == ([], [])
    assert rows | _EXEMPT <= {(f, p) for f in sraar.__all__ for p in inspect.signature(getattr(sraar, f)).parameters
                              if callable(getattr(sraar, f))}


_FLOAT32 = np.finfo(np.float32)


@pytest.mark.parametrize("n", [4, 512])
@pytest.mark.parametrize("value", [float(_FLOAT32.max), float(_FLOAT32.smallest_subnormal),
                                   complex(_FLOAT32.max, -_FLOAT32.max),
                                   complex(_FLOAT32.smallest_subnormal, _FLOAT32.smallest_subnormal)],
                         ids=["real-max", "real-subnormal", "complex-max", "complex-subnormal"])
def test_every_stored_array_is_in_range(tmp_path, n, value):
    """A .srr file holds float32 or complex64, whose values lie between
    2^-149 and 2^128: every array it can hold is in range, at any side the
    CLI runs, so dft2 and a solve's workspace accept it."""
    save_array(tmp_path / "x.srr", np.full((n, n), value))
    a = load_array(tmp_path / "x.srr")
    assert a[0, 0] == value
    assert np.all(np.isfinite(dft2(a)))
    _Workspace(a, _BOUNDS)


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


def _in_range(a, transformed=False):
    """Whether the array ``a`` is finite, with a zero peak or one in the
    range: its largest real or imaginary part in [2^-480, 2^480 / n], or
    with ``transformed`` in [2^-481 / n, 2^481], with n its longest axis."""
    peak, n = np.abs(np.stack([np.real(a), np.imag(a)])).max(), max(np.shape(a))
    low, high = (2.0**-481 / n, 2.0**481) if transformed else (2.0**-480, 2.0**480 / n)
    return bool(np.isfinite(peak)) and (peak == 0 or low <= peak <= high)


def _in_transformed_range(a):
    return _in_range(a, True)


def _within_2_30(shifts):
    """Whether every shift is finite and at most 2^30 px in magnitude."""
    return bool(np.all(np.abs(shifts) <= 2.0**30))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), complex_=st.booleans())
def test_finite_values_or_value_error(pgm_path, data, complex_):
    """Magnitudes across the float range, and NaN or Inf: every call with
    its arrays in range and its shifts within 2^30 px returns finite values
    of the expected shape; any other raises a ValueError naming the first
    argument it checks that is not."""
    image, other = _array(data, (8, 8), complex_), _array(data, (8, 8), False)
    lines, shifts = _array(data, (2, 8), complex_), _array(data, (2, 8, 2), False)
    shifts[..., 1] = _array(data, (2, 8), False)  # an axis of its own magnitude
    budget = 2.0 ** data.draw(st.integers(-1000, 1000))

    def grey_levels():
        export_pgm(pgm_path, image)
        return np.frombuffer(pgm_path.read_bytes()[-128:], ">u2")

    # name: (call, the shape of its answer, the arguments in the order it
    # checks them, each with the test of its range)
    trajectory = ("trajectory", shifts[0], _within_2_30)
    calls = {
        "dft2": (lambda: dft2(image), (8, 8), [("image", image, _in_range)]),
        "idft2": (lambda: idft2(image), (8, 8), [("k-space", image, _in_transformed_range)]),
        "naive_reconstruct": (lambda: naive_reconstruct(image), (8, 8), [("k-space", image, _in_transformed_range)]),
        "haar_forward": (lambda: haar_forward(image).data, (8, 8), [("image", image, _in_range)]),
        "haar_inverse": (lambda: haar_inverse(WaveletCoeffs(image, None)), (8, 8),
                         [("coefficients", image, _in_transformed_range)]),
        "l1_norm": (lambda: l1_norm(image), (), [("x", image, _in_transformed_range)]),
        "apply_translation": (lambda: apply_translation(image, MotionTrajectory(shifts[0])), (8, 8),
                              [trajectory, ("k-space", image, _in_transformed_range)]),
        "image_metrics": (lambda: image_metrics(image, other), (2,),
                          [("x", image, _in_range), ("gt", other, _in_range)]),
        "trajectory_error": (lambda: trajectory_error(MotionTrajectory(shifts[0]), MotionTrajectory(shifts[1])),
                             (2,), [trajectory, ("trajectory", shifts[1], _within_2_30)]),
        "estimate_line_shift": (lambda: estimate_line_shift(lines[0], lines[1], 0.125, _BOUNDS), (3,),
                                [("observed line", lines[0], _in_range), ("reference line", lines[1], _in_range)]),
        "project_sparse": (lambda: project_sparse(image, budget), (8, 8), [("image", image, _in_range)]),
        "export_pgm": (grey_levels, (64,), [("arr", image, _in_range)]),
    }
    for name, (call, shape, arguments) in calls.items():
        refused = [arg for arg, a, in_range in arguments if not in_range(a)]
        if refused:
            with pytest.raises(ValueError, match=f"^{refused[0]}"):
                call()
            continue
        values = np.asarray(call())
        assert values.shape == shape, name
        finite = np.isfinite(values)
        if name == "image_metrics":
            finite[1] |= values[0] == 0.0  # exact agreement reports PSNR +inf
        assert np.all(finite), (name, values)


def _sqrt(q):
    """The square root of the non-negative Fraction ``q``, as a float, taken
    at a scale where the float conversion is exact to rounding."""
    if q == 0:
        return 0.0
    k = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(q / Fraction(4) ** k), k)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), complex_=st.booleans())
def test_answers_match_exact_arithmetic(data, complex_):
    """Finite magnitudes across the float range, a separate one for each
    array and trajectory axis: in range, image_metrics and trajectory_error
    agree with the same formulas in exact rational arithmetic; outside it
    they, or the trajectories, refuse the first argument out of range."""
    x, gt = _array(data, (8, 8), complex_, False), _array(data, (8, 8), False, False)
    est, true = _array(data, (8, 2), False, False), _array(data, (8, 2), False, False)
    est[:, 1], true[:, 1] = _array(data, 8, False, False), _array(data, 8, False, False)

    refused = [name for name, a in (("x", x), ("gt", gt)) if not _in_range(a)]
    if refused:
        with pytest.raises(ValueError, match=f"^{refused[0]} has peak modulus"):
            image_metrics(x, gt)
    else:
        x_mod, gt_mod = ([Fraction(v) for v in np.abs(a).ravel()] for a in (x, gt))
        sq_err = sum((a - b) ** 2 for a, b in zip(x_mod, gt_mod))
        rmse_rel = _sqrt(sq_err / sum(b**2 for b in gt_mod))
        if sq_err == 0:  # x is gt: PSNR +inf
            psnr = math.inf
        else:  # 20 log10(peak / sqrt(sq_err / n)), exact to the rounding of each log
            psnr = 20 * (math.log10(max(gt_mod)) - (math.log10(sq_err.numerator) - math.log10(sq_err.denominator)
                                                     - math.log10(len(gt_mod))) / 2)
        assert image_metrics(x, gt) == (pytest.approx(rmse_rel, rel=1e-12, abs=2.0**-1000),
                                        pytest.approx(psnr, rel=1e-12, abs=1e-9))

    if not (_within_2_30(est) and _within_2_30(true)):
        with pytest.raises(ValueError, match="^trajectory shifts must not exceed"):
            trajectory_error(MotionTrajectory(est), MotionTrajectory(true))
        return
    rms = []
    for axis in range(2):
        d = [Fraction(a) - Fraction(b) for a, b in zip(est[:, axis], true[:, axis])]
        mean = sum(d) / len(d)
        rms.append(_sqrt(sum((v - mean) ** 2 for v in d) / len(d)))
    got = trajectory_error(MotionTrajectory(est), MotionTrajectory(true))
    assert got == (pytest.approx(rms[0], rel=1e-12, abs=2.0**-1000),
                   pytest.approx(rms[1], rel=1e-12, abs=2.0**-1000))
