"""Reconstruction quality metrics and the evaluation report container."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import MotionTrajectory, _peak, normalized_line_weights, require_in_range, require_type

__all__ = ["EvalReport", "image_metrics", "trajectory_error"]


def image_metrics(x, gt):
    """Relative RMSE and PSNR of the moduli of x against ground truth.

    rmse_rel = ||absdiff||_2 / || |gt| ||_2 and
    psnr = 20*log10(peak / sqrt(mean(absdiff**2))) with peak = max |gt|.
    Exact agreement reports PSNR as +inf.  A zero ground truth leaves both
    undefined and raises.  x and gt lie in the range of
    :func:`sraar.core.require_in_range`, so neither the moduli nor the
    squares of gt overflow.  Their difference can hold values far below
    either peak, so its norm is taken on it scaled to a peak in [0.5, 1) by
    a power of two, which is exact; peak / rmse can then exceed the
    largest float, and PSNR is taken from the logarithms.
    """
    x = require_in_range(x, "x")
    gt = require_in_range(gt, "gt")
    if x.shape != gt.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {gt.shape}")
    x_mod, gt_mod = np.abs(x), np.abs(gt)
    gt_norm = float(np.linalg.norm(gt_mod))
    if gt_norm == 0:
        raise ValueError("metrics are undefined for a zero ground truth")
    diff = np.subtract(x_mod, gt_mod, out=x_mod)
    err_exp = int(np.frexp(_peak(diff))[1])
    err = float(np.linalg.norm(np.ldexp(diff, -err_exp, out=diff)))
    if err == 0:
        return 0.0, float("inf")
    rmse_rel = math.ldexp(err / gt_norm, err_exp)
    # peak / rmse, times 2^-err_exp
    ratio = gt_mod.max() / (err / np.sqrt(gt.size))
    try:
        psnr = 20.0 * np.log10(math.ldexp(ratio, -err_exp))
    except OverflowError:
        psnr = 20.0 * (np.log10(ratio) - err_exp * np.log10(2.0))
    return rmse_rel, float(psnr)


def trajectory_error(est, true_traj, weights=None):
    """Per-axis RMS trajectory error after removing the global-shift gauge.

    The weighted mean difference (a constant displacement, invisible in the
    data) is subtracted first; the remaining RMS uses the same per-line
    weights, typically the observed line energies.  ``weights=None`` means
    uniform.
    """
    require_type(est, MotionTrajectory, "est")
    require_type(true_traj, MotionTrajectory, "true_traj")
    if len(est) != len(true_traj):
        raise ValueError(f"trajectories must have the same number of lines, got {len(est)} and {len(true_traj)}")
    w = normalized_line_weights(weights, len(est))
    # each axis scaled by its own power of two, so that no square underflows
    # beside the other axis; a difference of two shifts is at most 2^31 px
    d = est.shifts - true_traj.shifts
    exp = np.frexp(np.abs(d).max(axis=0, initial=0.0))[1]
    d = np.ldexp(d, -exp)
    d -= w @ d
    rms = np.ldexp(np.sqrt(w @ d**2), exp)
    return float(rms[0]), float(rms[1])


@dataclass(frozen=True, kw_only=True)
class EvalReport:
    """Flat bundle of evaluation numbers; optional entries may be None.

    Built by keyword only.  The fields are declared in report order, which
    :meth:`as_dict` and the ``evaluate`` report follow.
    """

    rmse_rel: float
    psnr_db: float
    l1_gt: float
    l1_corrupted: float | None = None
    l1_recon: float
    naive_rmse_rel: float | None = None
    traj_rms_x: float | None = None
    traj_rms_y: float | None = None
    iterations: int | None = None
    wall_time_s: float | None = None

    def as_dict(self):
        """Ordered name -> value mapping with the unset entries dropped."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: value for name, value in values if value is not None}
