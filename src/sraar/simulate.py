"""Synthetic data: Shepp-Logan phantom, random trajectories, corruption.

The forward model takes a motion-free image to k-space, applies per-line
translation phase ramps, and optionally adds complex white Gaussian noise
at a prescribed SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MotionBounds, MotionTrajectory, normalized_line_weights, require_square_image
from .motion import apply_translation
from .transforms import dft2

__all__ = [
    "SHEPP_LOGAN_ELLIPSES",
    "TrajectoryGenConfig",
    "corrupt",
    "generate_trajectory",
    "load_ground_truth",
    "render_ellipses",
    "shepp_logan",
]

# Columns: intensity, semi-axis a, semi-axis b, center x0, center y0, angle deg.
# The usual ten-ellipse head phantom with intensities scaled into [0, 1].
SHEPP_LOGAN_ELLIPSES = np.array(
    [
        [1.0, 0.69, 0.92, 0.0, 0.0, 0.0],
        [-0.8, 0.6624, 0.8740, 0.0, -0.0184, 0.0],
        [-0.2, 0.1100, 0.3100, 0.22, 0.0, -18.0],
        [-0.2, 0.1600, 0.4100, -0.22, 0.0, 18.0],
        [0.1, 0.2100, 0.2500, 0.0, 0.35, 0.0],
        [0.1, 0.0460, 0.0460, 0.0, 0.1, 0.0],
        [0.1, 0.0460, 0.0460, 0.0, -0.1, 0.0],
        [0.1, 0.0460, 0.0230, -0.08, -0.605, 0.0],
        [0.1, 0.0230, 0.0230, 0.0, -0.606, 0.0],
        [0.1, 0.0230, 0.0460, 0.06, -0.605, 0.0],
    ]
)
SHEPP_LOGAN_ELLIPSES.setflags(write=False)


def render_ellipses(n, ellipses):
    """Point-sample additive ellipse intensities on an n-by-n pixel grid.

    Pixel (r, c) is sampled at x = (c - N/2)/(N/2), y = (N/2 - r)/(N/2), so
    the image center pixel (N/2, N/2) sits exactly at the origin.
    """
    from .core import require_grid_size

    n = require_grid_size(n)
    x = (np.arange(n) - n // 2) / (n // 2)
    y = (n // 2 - np.arange(n)) / (n // 2)
    xx, yy = np.meshgrid(x, y)
    img = np.zeros((n, n))
    for amp, a, b, x0, y0, phi_deg in np.asarray(ellipses, dtype=np.float64):
        phi = np.deg2rad(phi_deg)
        u = (xx - x0) * np.cos(phi) + (yy - y0) * np.sin(phi)
        v = (yy - y0) * np.cos(phi) - (xx - x0) * np.sin(phi)
        img[(u / a) ** 2 + (v / b) ** 2 <= 1.0] += amp
    return img.astype(np.complex128)


def shepp_logan(n):
    """The ten-ellipse head phantom, real-valued with intensities in [0, 1]."""
    return render_ellipses(n, SHEPP_LOGAN_ELLIPSES)


def load_ground_truth(path):
    """Load an image file and normalize it to unit maximum modulus."""
    from .fileio import load_array

    img = require_square_image(load_array(path), "ground truth").astype(np.complex128)
    peak = np.abs(img).max()
    if peak == 0:
        raise ValueError(f"ground truth in {path} is identically zero")
    return img / peak


@dataclass(frozen=True)
class TrajectoryGenConfig:
    """Random-trajectory settings: bounds, correlation length, seed."""

    bounds: MotionBounds
    smoothness: int = 8
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.smoothness, (int, np.integer)) or self.smoothness < 1:
            raise ValueError(f"smoothness must be a positive integer, got {self.smoothness!r}")
        object.__setattr__(self, "smoothness", int(self.smoothness))


def generate_trajectory(cfg, n_lines, gauge_weights=None):
    """Smoothed Gaussian random-walk trajectory rescaled into the bounds.

    Each component is a cumulative sum of unit normal steps, smoothed by a
    moving average of window 2*smoothness, then rescaled so its largest
    magnitude equals the per-axis bound exactly.  Larger smoothness values
    stretch the correlation length across lines and shrink line-to-line
    jumps.  Deterministic for a fixed seed.

    ``gauge_weights`` re-centers each component to zero weighted mean before
    rescaling (scaling preserves the zero mean).  Acquired data cannot pin
    down a global shift, so a trajectory centered with the observed line
    energies makes the original image itself the expected reconstruction
    rather than a subpixel-shifted copy.
    """
    if n_lines < 1:
        raise ValueError("n_lines must be positive")
    w = None if gauge_weights is None else normalized_line_weights(gauge_weights, n_lines)
    rng = np.random.default_rng(cfg.seed)
    walk = np.cumsum(rng.standard_normal((n_lines, 2)), axis=0)
    window = 2 * cfg.smoothness
    kernel = np.full(window, 1.0 / window)
    padded = np.pad(walk, ((window, window), (0, 0)), mode="edge")
    out = np.empty_like(walk)
    for axis, bound in enumerate((cfg.bounds.max_abs_x, cfg.bounds.max_abs_y)):
        smooth = np.convolve(padded[:, axis], kernel, mode="same")[window:window + n_lines]
        if w is not None:
            smooth = smooth - w @ smooth
        peak = np.abs(smooth).max()
        out[:, axis] = smooth * (bound / peak) if peak > 0 else 0.0
    return MotionTrajectory(out)


def corrupt(gt, traj, noise_snr_db=None, seed=None):
    """Simulate motion-corrupted k-space acquisition of a motion-free image.

    Returns apply_translation(dft2(gt), traj), optionally plus complex white
    Gaussian noise whose expected power matches the requested SNR in dB.
    An SNR of +inf adds no noise; one whose noise level is not finite
    (NaN, -inf, or so low that the power overflows) raises ValueError.
    """
    gt = require_square_image(gt, "ground truth")
    ksp = apply_translation(dft2(gt), traj)
    if noise_snr_db is not None:
        signal_power = float(np.sum(np.abs(ksp) ** 2))
        try:
            sigma = np.sqrt(signal_power * 10.0 ** (-float(noise_snr_db) / 10.0) / (2.0 * ksp.size))
        except OverflowError:
            sigma = np.inf
        if not np.isfinite(sigma):
            raise ValueError(f"SNR of {noise_snr_db} dB gives a non-finite noise level")
        rng = np.random.default_rng(seed)
        ksp = ksp + sigma * (rng.standard_normal(ksp.shape) + 1j * rng.standard_normal(ksp.shape))
    return ksp
