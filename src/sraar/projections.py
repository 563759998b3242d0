"""The two projections the solvers alternate between.

P1 (:func:`project_sparse`) projects onto the set of images whose Haar
coefficients lie in an l1 ball of radius c: moduli are soft-shrunk by the
exact threshold found by sorting, phases are preserved.

P2 (:func:`project_fourier`) projects onto the set of images consistent
with the observed k-space under some in-bounds per-line translation: each
readout line's shift is estimated by a matched filter against a reference
spectrum, the trajectory is de-meaned (a global shift is pure gauge) and
clamped, and the observation is un-translated accordingly.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import FrequencyGrid, MotionTrajectory, require_square_image
from .motion import invert_translation
from .transforms import WaveletCoeffs, dft2, haar_forward, haar_inverse, idft2

__all__ = [
    "LineShiftEstimate",
    "MotionEstimate",
    "estimate_line_shift",
    "project_fourier",
    "project_sparse",
]


def _l1_ball_threshold(moduli, c):
    """Shrink threshold tau with sum(max(moduli - tau, 0)) == c.

    Sort-and-scan construction; assumes 0 < c < moduli.sum().  A c lost to
    rounding against the largest modulus passes no index; rho = 0 is the limit.
    """
    s = np.sort(moduli)[::-1]
    cumulative = np.cumsum(s)
    k = np.arange(1, s.size + 1)
    passing = np.nonzero(s > (cumulative - c) / k)[0]
    rho = passing[-1] if passing.size else 0
    return (cumulative[rho] - c) / (rho + 1.0)


def project_sparse(m, c):
    """Project an image onto {m : ||haar(m)||_1 <= c} (full-depth Haar), preserving phases."""
    m = require_square_image(m, "image").astype(np.complex128, copy=False)
    c = float(c)
    if not np.isfinite(c) or c < 0:
        raise ValueError(f"sparsity budget c must be finite and >= 0, got {c}")
    if c == 0.0:
        return np.zeros_like(m)
    coeffs = haar_forward(m)
    mod = np.abs(coeffs.data)
    if mod.sum() <= c:
        return m.copy()
    tau = _l1_ball_threshold(mod.ravel(), c)
    scale = np.maximum(mod - tau, 0.0)
    nz = mod > 0
    scale[nz] /= mod[nz]
    return haar_inverse(WaveletCoeffs(coeffs.data * scale, coeffs.levels))


class LineShiftEstimate(NamedTuple):
    beta_x: float
    beta_y: float
    score: float


def _axis_points(bound, step):
    """Multiples of ``step`` covering [-bound, bound] plus one pad point per side.

    The pad points sit outside the bound and are only ever used as parabola
    neighbours, so refinement works at the edge of the search range.
    """
    n = int(np.ceil(bound / step - 1e-12)) if bound > 0 else 0
    pts = step * np.arange(-(n + 1), n + 2)
    inner = np.abs(pts) <= bound + 1e-12
    return pts, inner


def _parabola(x0, h, f_minus, f_zero, f_plus):
    """Vertex of the parabola through three equispaced samples around a max."""
    denom = f_minus - 2.0 * f_zero + f_plus
    if not denom < 0.0:
        return x0
    delta = 0.5 * h * (f_minus - f_plus) / denom
    return x0 + float(np.clip(delta, -h, h))


def _estimate_core(q, coords, k_y, bounds, step, x_pts, x_inner, basis):
    """Shift estimate for one line from q = observed * conj(reference).

    The objective is the matched-filter correlation
    J(b) = Re sum_c q(c) exp(+2i*pi*(coords(c)*b_x + k_y*b_y)),
    maximal when the candidate translation re-aligns the observation with
    the reference.  b_y only enters through a line-constant phase, so it is
    searched within the principal alias window min(bound, 1/(2|k_y|)); on
    the DC line it is unidentifiable and fixed to 0 while b_x maximizes
    |J|.  After the joint coarse search two rounds of coordinate ascent
    re-maximize each axis on its full grid at the other axis's current
    estimate and refine by quadratic interpolation; re-running the argmax
    matters for small |k_y|, where a subpixel b_x misalignment tilts the
    b_y profile by whole grid cells, and the second round removes most of
    the residual cross-axis bias.
    """
    denom = float(np.abs(q).sum())
    if denom == 0.0:
        return 0.0, 0.0, 0.0
    s_grid = q @ basis
    if k_y == 0.0:
        mag = np.abs(s_grid)
        i = int(np.argmax(np.where(x_inner, mag, -np.inf)))
        bx = _parabola(x_pts[i], step, mag[i - 1], mag[i], mag[i + 1])
        bx = float(np.clip(bx, -bounds.max_abs_x, bounds.max_abs_x))
        s_exact = q @ np.exp(2j * np.pi * coords * bx)
        return bx, 0.0, float(np.clip(np.abs(s_exact) / denom, 0.0, 1.0))
    window = min(bounds.max_abs_y, 0.5 / abs(k_y))
    y_pts, y_inner = _axis_points(window, step)
    j_grid = (s_grid[:, None] * np.exp(2j * np.pi * k_y * y_pts)[None, :]).real
    masked = np.where(x_inner[:, None] & y_inner[None, :], j_grid, -np.inf)
    i, j = np.unravel_index(int(np.argmax(masked)), j_grid.shape)
    by = _parabola(y_pts[j], step, j_grid[i, j - 1], j_grid[i, j], j_grid[i, j + 1])
    by = float(np.clip(by, -window, window))
    for _ in range(2):
        f_x = (s_grid * np.exp(2j * np.pi * k_y * by)).real
        i = int(np.argmax(np.where(x_inner, f_x, -np.inf)))
        bx = _parabola(x_pts[i], step, f_x[i - 1], f_x[i], f_x[i + 1])
        bx = float(np.clip(bx, -bounds.max_abs_x, bounds.max_abs_x))
        s_exact = q @ np.exp(2j * np.pi * coords * bx)
        f_y = (s_exact * np.exp(2j * np.pi * k_y * y_pts)).real
        j = int(np.argmax(np.where(y_inner, f_y, -np.inf)))
        by = _parabola(y_pts[j], step, f_y[j - 1], f_y[j], f_y[j + 1])
        by = float(np.clip(by, -window, window))
    score = (s_exact * np.exp(2j * np.pi * k_y * by)).real / denom
    return bx, by, float(np.clip(score, 0.0, 1.0))


def estimate_line_shift(observed_line, reference_line, k_y, bounds, grid_step=0.25):
    """Estimate the (beta_x, beta_y) translation relating one readout line
    to its reference, with a normalized correlation score in [0, 1].

    The two lines must have equal length n; the readout frequencies are
    those of ``FrequencyGrid(n)``.  Zero-energy lines return (0, 0) with
    score 0.
    """
    obs = np.asarray(observed_line, dtype=np.complex128).ravel()
    ref = np.asarray(reference_line, dtype=np.complex128).ravel()
    if obs.shape != ref.shape:
        raise ValueError(f"lines differ in length: {obs.size} vs {ref.size} samples")
    coords = FrequencyGrid(obs.size).coords
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    x_pts, x_inner = _axis_points(bounds.max_abs_x, grid_step)
    basis = np.exp(2j * np.pi * np.outer(coords, x_pts))
    bx, by, score = _estimate_core(
        obs * np.conj(ref), coords, float(k_y), bounds, grid_step, x_pts, x_inner, basis
    )
    return LineShiftEstimate(bx, by, score)


@dataclass(frozen=True)
class MotionEstimate:
    """Estimated trajectory plus a per-line normalized correlation score."""

    traj: MotionTrajectory
    scores: np.ndarray

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64, copy=True)
        if scores.shape != (len(self.traj),):
            raise ValueError("one score per trajectory line expected")
        if np.any(scores < 0) or np.any(scores > 1):
            raise ValueError("scores must lie in [0, 1]")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)


def _worker_count(threads, n_rows):
    if threads == 1:
        return 1
    limit = threads if threads > 0 else min(os.cpu_count() or 1, 8)
    return max(1, min(limit, n_rows))


def project_fourier(m, observed, cfg):
    """Project onto the set of images explaining the observed k-space.

    Builds a reference spectrum from the current image (amplitude-replaced
    with the observed moduli unless disabled), estimates each line's shift
    by the matched filter, removes the energy-weighted mean displacement
    (the unidentifiable global-shift gauge), clamps into bounds, and
    returns the observation with the estimated motion undone, back in image
    space, together with the motion estimate.  Frequencies come from the
    centered grid of the data's side.

    Lines are independent, so the estimation loop may run on a thread pool;
    results do not depend on the schedule.
    """
    m = require_square_image(m, "image")
    observed = require_square_image(observed, "observed k-space").astype(np.complex128, copy=False)
    if m.shape != observed.shape:
        raise ValueError(f"image shape {m.shape} does not match observation {observed.shape}")
    n = observed.shape[0]
    coords = FrequencyGrid(n).coords
    model = dft2(m)
    if cfg.amplitude_replacement:
        mod = np.abs(model)
        phase = np.where(mod > 0, model / np.where(mod > 0, mod, 1.0), 0.0)
        reference = np.abs(observed) * phase
    else:
        reference = model
    q = observed * np.conj(reference)
    x_pts, x_inner = _axis_points(cfg.bounds.max_abs_x, cfg.grid_step)
    basis = np.exp(2j * np.pi * np.outer(coords, x_pts))
    shifts = np.empty((n, 2))
    scores = np.empty(n)

    def run_rows(rows):
        for r in rows:
            bx, by, sc = _estimate_core(
                q[r], coords, coords[r], cfg.bounds, cfg.grid_step, x_pts, x_inner, basis
            )
            shifts[r, 0] = bx
            shifts[r, 1] = by
            scores[r] = sc

    workers = _worker_count(cfg.threads, n)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_rows, np.array_split(np.arange(n), workers)))
    else:
        run_rows(range(n))

    energy = np.sum(np.abs(observed) ** 2, axis=1)
    total = energy.sum()
    if total > 0:
        shifts -= (energy @ shifts) / total
    traj = MotionTrajectory(cfg.bounds.clamp(shifts))
    corrected = idft2(invert_translation(observed, traj))
    return corrected, MotionEstimate(traj, scores)
