"""Synthetic data: Shepp-Logan phantom, random trajectories, corruption.

The forward model takes a motion-free image to k-space, applies per-line
translation phase ramps, and optionally adds complex white Gaussian noise
at a prescribed SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (MotionBounds, MotionTrajectory, _real, normalized_line_weights, require_count, require_grid_size,
                   require_square_image, require_type)
from .fileio import load_array
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
    the image center pixel (N/2, N/2) sits exactly at the origin.  Each row
    of ``ellipses`` is (intensity, a, b, x0, y0, angle in degrees), finite,
    with semi-axes a, b > 0; a pixel inside an ellipse gains its intensity.

    Each ellipse is evaluated only on the rows and columns of its
    axis-aligned bounding box, whose half-extents are
    hx = hypot(a cos(phi), b sin(phi)) and hy = hypot(a sin(phi), b cos(phi)).
    Rounding moves the membership test by a few ulps of hx + hy, so the box
    is widened by 1e-9 of hx + hy and by 1e-12; a pixel outside it lies
    outside the ellipse by far more than rounding can cover.  Inside the box
    every pixel goes through the full-grid arithmetic in the same order, so
    the image equals the full-grid rendering bit for bit.
    """
    n = require_grid_size(n)
    table = np.asarray(ellipses, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != 6:
        raise ValueError(f"ellipses must be a (k, 6) table, got shape {table.shape}")
    for i, row in enumerate(table):
        if not np.all(np.isfinite(row)) or min(row[1], row[2]) <= 0:
            raise ValueError(f"ellipse row {i} must be finite with semi-axes > 0, got {row.tolist()}")
    x = (np.arange(n) - n // 2) / (n // 2)
    y = (n // 2 - np.arange(n)) / (n // 2)
    img = np.zeros((n, n))
    for amp, a, b, x0, y0, phi_deg in table:
        phi = np.deg2rad(phi_deg)
        cos, sin = np.cos(phi), np.sin(phi)
        hx, hy = math.hypot(a * cos, b * sin), math.hypot(a * sin, b * cos)
        pad = 1e-9 * (hx + hy) + 1e-12
        dx, dy = x - x0, y - y0
        cols = np.flatnonzero(np.abs(dx) <= hx + pad)
        rows = np.flatnonzero(np.abs(dy) <= hy + pad)
        if cols.size == 0 or rows.size == 0:
            continue
        cols, rows = slice(cols[0], cols[-1] + 1), slice(rows[0], rows[-1] + 1)
        dx, dy = dx[cols], dy[rows, None]
        u = dx * cos + dy * sin
        v = dy * cos - dx * sin
        u /= a
        u *= u
        v /= b
        v *= v
        u += v
        box = img[rows, cols]
        np.add(box, amp, out=box, where=u <= 1.0)
    return img.astype(np.complex128)


def shepp_logan(n):
    """The ten-ellipse head phantom, real-valued with intensities in [0, 1]."""
    return render_ellipses(n, SHEPP_LOGAN_ELLIPSES)


def load_ground_truth(path):
    """Load an image file and normalize it to unit maximum modulus."""
    img = require_square_image(load_array(path), "ground truth").astype(np.complex128)
    peak = np.abs(img).max()
    if peak == 0:
        raise ValueError(f"ground truth in {path} is identically zero")
    img /= peak
    return img


@dataclass(frozen=True)
class TrajectoryGenConfig:
    """Random-trajectory settings: bounds, correlation length, seed."""

    bounds: MotionBounds
    smoothness: int = 8
    seed: int = 0

    def __post_init__(self):
        require_type(self.bounds, MotionBounds, "bounds")
        object.__setattr__(self, "smoothness", require_count(self.smoothness, "smoothness", 1))
        require_count(self.seed, "seed", 0)


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
    require_type(cfg, TrajectoryGenConfig, "cfg")
    n_lines = require_count(n_lines, "n_lines", 1)
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
    The image lies in the range of :func:`sraar.core.require_in_range`, so
    its k-space lies in the ``transformed`` one; a solve takes the result
    only where it also lies in the first.  An SNR of
    +inf adds no noise; one whose noise level is not finite (NaN, -inf, or
    so low that the power overflows) raises ValueError.  ``seed`` is None
    or an integer >= 0.
    """
    gt = require_square_image(gt, "ground truth")
    if seed is not None:
        seed = require_count(seed, "seed", 0)
    ksp = apply_translation(dft2(gt), traj)
    return ksp if noise_snr_db is None else _add_noise(ksp, noise_snr_db, seed)


def _add_noise(ksp, noise_snr_db, seed):
    """Add :func:`corrupt`'s noise to the complex array ``ksp`` in place and
    return it.  The real parts take the first standard-normal draw of
    ``default_rng(seed)`` and the imaginary parts the second, each scaled by
    sigma; adding each part on its own rounds as the complex sum does.

    ``ksp`` is the spectrum of an image in range, so its power is finite;
    a finite sigma is below 2^512, far below the largest float."""
    try:
        sigma = np.sqrt(float(np.sum(np.abs(ksp) ** 2)) * 10.0 ** (-_real(noise_snr_db, "noise_snr_db") / 10.0)
                        / (2.0 * ksp.size))
    except OverflowError:
        sigma = np.inf
    if not np.isfinite(sigma):
        raise ValueError(f"SNR of {noise_snr_db} dB gives a non-finite noise level")
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal(ksp.shape)
    draw *= sigma
    ksp.real += draw
    rng.standard_normal(out=draw)
    draw *= sigma
    ksp.imag += draw
    return ksp
