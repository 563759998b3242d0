"""Reconstruction quality metrics and the evaluation report container."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import MotionTrajectory, normalized_line_weights, require_numeric, require_type

__all__ = ["EvalReport", "image_metrics", "trajectory_error"]


def image_metrics(x, gt):
    """Relative RMSE and PSNR of the moduli of x against ground truth.

    rmse_rel = ||absdiff||_2 / || |gt| ||_2 and
    psnr = 20*log10(peak / sqrt(mean(absdiff**2))) with peak = max |gt|.
    Exact agreement reports PSNR as +inf.  A zero ground truth leaves both
    undefined and raises.
    """
    x = require_numeric(x, "x")
    gt = require_numeric(gt, "gt")
    if x.shape != gt.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {gt.shape}")
    gt_mod = np.abs(gt)
    gt_norm = float(np.linalg.norm(gt_mod))
    if gt_norm == 0:
        raise ValueError("metrics are undefined for a zero ground truth")
    err = float(np.linalg.norm(np.abs(x) - gt_mod))
    rmse_rel = err / gt_norm
    if err == 0:
        return rmse_rel, float("inf")
    rmse_abs = err / np.sqrt(gt.size)
    psnr = 20.0 * np.log10(gt_mod.max() / rmse_abs)
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
    d = est.shifts - true_traj.shifts
    w = normalized_line_weights(weights, len(est))
    d = d - w @ d
    rms = np.sqrt(w @ d**2)
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
