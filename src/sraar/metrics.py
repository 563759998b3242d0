"""Reconstruction quality metrics and the evaluation report container."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import MotionTrajectory, _pow2_scaled, normalized_line_weights, require_finite, require_type

__all__ = ["EvalReport", "image_metrics", "trajectory_error"]


def _moduli(a, name):
    """The float64 moduli of the finite array ``a``; a complex value whose
    modulus lies beyond the largest float is refused, naming ``name``."""
    with np.errstate(over="ignore"):
        mod = np.abs(a).astype(np.float64, copy=False)
    if mod.max(initial=0.0) == np.inf:
        raise ValueError(f"{name} has a modulus beyond the largest float")
    return mod


def image_metrics(x, gt):
    """Relative RMSE and PSNR of the moduli of x against ground truth.

    rmse_rel = ||absdiff||_2 / || |gt| ||_2 and
    psnr = 20*log10(peak / sqrt(mean(absdiff**2))) with peak = max |gt|.
    Exact agreement reports PSNR as +inf.  A zero ground truth leaves both
    undefined and raises, and so does an rmse_rel beyond the largest float.
    Each norm is taken on its moduli scaled to a peak in [0.5, 1) by a
    power of two, which is exact, so no square overflows or underflows.
    """
    x = require_finite(x, "x")
    gt = require_finite(gt, "gt")
    if x.shape != gt.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {gt.shape}")
    x_mod, gt_mod = _moduli(x, "x"), _moduli(gt, "gt")
    diff, err_exp = _pow2_scaled(np.subtract(x_mod, gt_mod, out=x_mod), out=x_mod)
    gt_mod, gt_exp = _pow2_scaled(gt_mod, out=gt_mod)
    gt_norm = float(np.linalg.norm(gt_mod))
    if gt_norm == 0:
        raise ValueError("metrics are undefined for a zero ground truth")
    err = float(np.linalg.norm(diff))
    if err == 0:
        return 0.0, float("inf")
    try:
        rmse_rel = math.ldexp(err / gt_norm, err_exp - gt_exp)
    except OverflowError:
        raise ValueError("x is too far from gt: rmse_rel exceeds the largest float") from None
    # peak / rmse, times 2^(err_exp - gt_exp)
    ratio = gt_mod.max() / (err / np.sqrt(gt.size))
    try:
        psnr = 20.0 * np.log10(math.ldexp(ratio, gt_exp - err_exp))
    except OverflowError:
        psnr = 20.0 * (np.log10(ratio) + (gt_exp - err_exp) * np.log10(2.0))
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
    with np.errstate(over="ignore"):
        d, half = est.shifts - true_traj.shifts, 0
    if not np.all(np.isfinite(d)):  # the difference of the halves is exact there
        d, half = est.shifts / 2 - true_traj.shifts / 2, 1
    # each axis scaled by its own power of two, so that no square overflows,
    # nor underflows beside the other axis
    exp = np.frexp(np.abs(d).max(axis=0, initial=0.0))[1]
    d = np.ldexp(d, -exp)
    d -= w @ d
    with np.errstate(over="ignore"):
        rms = np.ldexp(np.sqrt(w @ d**2), exp + half)
    if not np.all(np.isfinite(rms)):
        raise ValueError("est and true_traj differ by an RMS beyond the largest float")
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
