"""Sparsity-driven correction of translational motion in MRI k-space.

The acquisition model treats each readout line as translated by its own
in-plane shift, which multiplies the line by a phase ramp.  Reconstruction
alternates between a wavelet-domain l1-ball projection and a Fourier-domain
projection that re-estimates the per-line shifts, either directly (ER) or
through relaxed averaged alternating reflections (SRAAR).
"""

from .core import FrequencyGrid, MotionBounds, MotionTrajectory, ReconConfig
from .fileio import export_pgm, load_array, load_trajectory, save_array, save_trajectory
from .metrics import EvalReport, image_metrics, trajectory_error
from .motion import apply_translation, gauge_aligned, invert_translation, naive_reconstruct
from .projections import MotionEstimate, estimate_line_shift, project_fourier, project_sparse
from .simulate import TrajectoryGenConfig, corrupt, generate_trajectory, load_ground_truth, shepp_logan
from .solvers import SolverTrace, solve_er, solve_sraar, tune_sparsity_budget
from .transforms import WaveletCoeffs, dft2, haar_forward, haar_inverse, idft2, l1_norm

__version__ = "0.1.0"

__all__ = [
    "EvalReport",
    "FrequencyGrid",
    "MotionBounds",
    "MotionEstimate",
    "MotionTrajectory",
    "ReconConfig",
    "SolverTrace",
    "TrajectoryGenConfig",
    "WaveletCoeffs",
    "apply_translation",
    "corrupt",
    "dft2",
    "estimate_line_shift",
    "export_pgm",
    "gauge_aligned",
    "generate_trajectory",
    "haar_forward",
    "haar_inverse",
    "idft2",
    "image_metrics",
    "invert_translation",
    "l1_norm",
    "load_array",
    "load_ground_truth",
    "load_trajectory",
    "naive_reconstruct",
    "project_fourier",
    "project_sparse",
    "save_array",
    "save_trajectory",
    "shepp_logan",
    "solve_er",
    "solve_sraar",
    "trajectory_error",
    "tune_sparsity_budget",
]
