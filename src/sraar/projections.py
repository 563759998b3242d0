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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import FrequencyGrid, MotionTrajectory, require_grid_size, require_square_image
from .motion import _line_ramps, invert_translation
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
    scale = np.divide(np.maximum(mod - tau, 0.0), mod, out=np.zeros_like(mod), where=mod > 0)
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


def _peak(f, inner, pts, step):
    """Parabola-refined position of each row's maximum of f over its inner points.

    Samples that do not curve downwards (only at the edge of the inner
    points) move to the larger neighbour: a convex piece peaks at an end.
    """
    i = np.argmax(np.where(inner, f, -np.inf), axis=1)
    r = np.arange(f.shape[0])
    f_minus, f_zero, f_plus = f[r, i - 1], f[r, i], f[r, i + 1]
    denom = f_minus - 2.0 * f_zero + f_plus
    curved = denom < 0.0
    vertex = 0.5 * step * (f_minus - f_plus) / np.where(curved, denom, -1.0)
    delta = np.where(curved, vertex, step * np.sign(f_plus - f_minus))
    return pts[i] + np.clip(delta, -step, step)


def _best_phase(s, reach):
    """Maximum of Re(s * exp(i*phi)) over |phi| <= reach, and the phi attaining it."""
    a = -np.angle(s)
    phi = np.clip(a, -reach, reach)
    return np.abs(s) * np.cos(a - phi), phi


def _estimate_lines(q, k_y, bounds, step):
    """Shift estimates for every row of q = observed * conj(reference).

    Row r is a readout line at phase-encode frequency k_y[r].  The
    matched-filter correlation J(b) = Re s(b_x) exp(2i*pi*k_y*b_y), with
    s(b_x) = sum_c q(c) exp(2i*pi*coords(c)*b_x), is maximal when the
    candidate translation re-aligns the observation with the reference.
    b_y enters only through that line-constant phase, so its best value in
    the principal alias window min(bound, 1/(2|k_y|)) is closed-form, and
    b_x is searched on the readout-shift grid with quadratic refinement.
    On the DC line b_y is unidentifiable: the window spans the whole circle,
    so b_x maximizes |s|, and b_y is 0.  Zero-energy lines give (0, 0) with
    score 0.  Returns the (rows, 2) shifts and the rows' scores.
    """
    rows, n = q.shape
    x_pts, x_inner = _axis_points(bounds.max_abs_x, step)
    turn = 2.0 * np.pi * k_y
    reach = np.where(k_y == 0.0, np.pi, np.minimum(np.abs(turn) * bounds.max_abs_y, np.pi))
    profile, _ = _best_phase(q @ _line_ramps(x_pts, 0.0, n).T, reach[:, None])
    bx = np.clip(_peak(profile, x_inner, x_pts, step), -bounds.max_abs_x, bounds.max_abs_x)
    ramp = _line_ramps(bx, 0.0, n)
    corr, phi = _best_phase((q[:, None, :] @ ramp[:, :, None])[:, 0, 0], reach)
    by = np.divide(phi, turn, out=np.zeros(rows), where=k_y != 0.0)
    by = np.clip(by, -bounds.max_abs_y, bounds.max_abs_y)  # phi / turn can round past the bound

    denom = np.abs(q).sum(axis=1)
    live = denom > 0.0
    scores = np.clip(np.divide(corr, denom, out=np.zeros(rows), where=live), 0.0, 1.0)
    return np.where(live[:, None], np.stack([bx, by], axis=1), 0.0), scores


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
    require_grid_size(obs.size)
    k_y = float(k_y)
    if not np.isfinite(k_y):
        raise ValueError(f"k_y must be finite, got {k_y}")
    grid_step = float(grid_step)
    if not np.isfinite(grid_step) or grid_step <= 0:
        raise ValueError(f"grid_step must be finite and positive, got {grid_step}")
    shifts, scores = _estimate_lines((obs * np.conj(ref))[None, :], np.array([k_y]), bounds, grid_step)
    return LineShiftEstimate(float(shifts[0, 0]), float(shifts[0, 1]), float(scores[0]))


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


def _matched_filter_input(m, observed, abs_observed):
    """q = observed * conj(reference), with the reference spectrum dft2(m)
    amplitude-replaced by ``abs_observed`` unless that is None.

    Frequencies where the model vanishes have no phase and give q = 0.
    """
    model = dft2(m)
    q = observed * np.conj(model, out=model)
    if abs_observed is not None:
        mod = np.abs(model)
        q *= np.divide(abs_observed, mod, out=np.zeros_like(mod), where=mod > 0)
    return q


def project_fourier(m, observed, cfg):
    """Project onto the set of images explaining the observed k-space.

    Builds a reference spectrum from the current image (amplitude-replaced
    with the observed moduli unless disabled), estimates each line's shift
    by the matched filter, removes the energy-weighted mean displacement
    (the unidentifiable global-shift gauge), clamps into bounds, and
    returns the observation with the estimated motion undone, back in image
    space, together with the motion estimate.  Frequencies come from the
    centered grid of the data's side.

    All lines are estimated in one batched pass; ``cfg.threads`` has no
    effect.
    """
    m = require_square_image(m, "image")
    observed = require_square_image(observed, "observed k-space").astype(np.complex128, copy=False)
    if m.shape != observed.shape:
        raise ValueError(f"image shape {m.shape} does not match observation {observed.shape}")
    abs_observed = np.abs(observed)
    energy = np.sum(abs_observed**2, axis=1)
    # q and the spectra behind it die before the translation's temporaries
    q = _matched_filter_input(m, observed, abs_observed if cfg.amplitude_replacement else None)
    del abs_observed
    shifts, scores = _estimate_lines(q, FrequencyGrid(observed.shape[0]).coords, cfg.bounds, cfg.grid_step)
    del q
    total = energy.sum()
    if total > 0:
        shifts -= (energy @ shifts) / total
    traj = MotionTrajectory(cfg.bounds.clamp(shifts))
    corrected = idft2(invert_translation(observed, traj))
    return corrected, MotionEstimate(traj, scores)
