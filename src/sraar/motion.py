"""Per-line translation operators on k-space and trajectory gauge helpers.

A translation of readout line r by (beta_x, beta_y) pixels multiplies the
line by the phase ramp exp(-2i*pi*(k_x*beta_x + k_y*beta_y)) with k_x the
readout coordinate varying along the line and k_y = coord(r) fixed on it.
A trajectory that is constant across lines is an ordinary image-domain
circular shift.  Each line's ramp is built as the outer product of two
tables of about sqrt(N) complex exponentials each, not N of them.
"""

from __future__ import annotations

import numpy as np

from .core import FrequencyGrid, MotionTrajectory, normalized_line_weights, require_square_image, require_type
from .transforms import idft2

__all__ = [
    "apply_translation",
    "invert_translation",
    "naive_reconstruct",
    "fold_trajectory",
    "gauge_aligned",
]

_GAUGE_TOL = 1e-9


def _ramp_tables(a, b, n):
    """(lead, tail): with c = L*h + l (L a power of two near sqrt(n)), row r
    of :func:`_line_ramps` is the outer product of lead[r, h] =
    exp(2i*pi*(b - a/2 + a*L*h/n)) and tail[r, l] = exp(2i*pi*a*l/n)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 1)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 1)
    tail_len = 1 << (n.bit_length() // 2)
    lead = np.exp(2j * np.pi * (b - a / 2 + a * (np.arange(0, n, tail_len) / n)))
    tail = np.exp(2j * np.pi * a * (np.arange(tail_len) / n))
    return lead, tail


def _line_ramps(a, b, n, out=None):
    """Row r of the result is exp(2i*pi*(a[r]*k + b[r])) on the centered grid
    k = (c - n/2)/n, c = 0..n-1; b may be a scalar.  The result goes into
    ``out``, a contiguous complex (rows, n) array, or a new one.
    """
    lead, tail = _ramp_tables(a, b, n)
    out = np.empty((lead.shape[0], n), np.complex128) if out is None else out
    np.multiply(lead[:, :, None], tail[:, None, :], out=out.reshape(lead.shape + tail.shape[1:]))
    return out


def apply_translation(ksp, traj):
    """Apply per-line phase ramps encoding the trajectory's translations.

    The frequency grid is the centered grid of the k-space's side.
    """
    ksp = require_square_image(ksp, "k-space").astype(np.complex128, copy=False)
    require_type(traj, MotionTrajectory, "traj")
    if len(traj) != ksp.shape[0]:
        raise ValueError(f"trajectory has {len(traj)} lines, k-space has {ksp.shape[0]} rows")
    n = ksp.shape[0]
    return ksp * _line_ramps(-traj.dx, -traj.dy * FrequencyGrid(n).coords, n)


def invert_translation(ksp, traj):
    """Undo :func:`apply_translation`; identical to applying -traj."""
    require_type(traj, MotionTrajectory, "traj")
    return apply_translation(ksp, -traj)


def naive_reconstruct(ksp):
    """Zero-order reconstruction: inverse DFT ignoring any motion."""
    return idft2(ksp)


def fold_trajectory(traj, grid):
    """Reduce each phase-encode shift to its principal alias.

    On line r the data depend on beta_y only through exp(-2i*pi*k_y*beta_y),
    so beta_y is identifiable only modulo 1/|k_y|.  Folding maps it into
    [-1/(2|k_y|), 1/(2|k_y|)] and zeroes the DC line, where beta_y has no
    effect at all.  The readout shifts are untouched.  Applying the folded
    trajectory produces the same k-space as the original.
    """
    require_type(traj, MotionTrajectory, "traj")
    require_type(grid, FrequencyGrid, "grid")
    if len(traj) != grid.size:
        raise ValueError(f"trajectory has {len(traj)} lines, grid expects {grid.size}")
    k = grid.coords
    dy = traj.dy.copy()
    nonzero = k != 0.0
    dy[nonzero] -= np.round(dy[nonzero] * np.abs(k[nonzero])) / np.abs(k[nonzero])
    dy[~nonzero] = 0.0
    return MotionTrajectory.from_components(traj.dx, dy)


def gauge_aligned(traj, grid, weights=None):
    """Return the canonical data-equivalent form of a trajectory.

    Removes the weighted mean displacement (a global image shift, which the
    data cannot pin down) and folds phase-encode shifts to their principal
    aliases.  Folding and de-meaning interact, so the two are iterated to a
    fixed point.  The result is the representative against which estimated
    trajectories are comparable line by line.
    """
    # Each round moves the removed global shift monotonically towards the
    # nearest zero of the folded weighted mean, and a round that falls short
    # of it crosses at least one fold boundary.  That zero lies within n
    # pixels (every k_y is a multiple of 1/n), where line r has n|k_y(r)|
    # boundaries.
    require_type(traj, MotionTrajectory, "traj")
    require_type(grid, FrequencyGrid, "grid")
    max_rounds = int(grid.size * np.abs(grid.coords).sum()) + 2
    w = normalized_line_weights(weights, len(traj))
    aligned = fold_trajectory(MotionTrajectory.from_components(traj.dx - w @ traj.dx, traj.dy), grid)
    # folding pins the DC line's beta_y to 0, so only the other lines' weight
    # can absorb a shift of the mean
    free = w[grid.coords != 0.0].sum()
    for _ in range(max_rounds):
        mean = w @ aligned.dy / free if free > 0 else 0.0
        aligned = fold_trajectory(MotionTrajectory.from_components(aligned.dx, aligned.dy - mean), grid)
        if abs(mean) < _GAUGE_TOL:
            break
    return aligned
