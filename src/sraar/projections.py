"""The two projections the solvers alternate between.

P1 (:func:`project_sparse`) projects onto the set of images whose Haar
coefficients lie in an l1 ball of radius c: moduli are soft-shrunk by the
exact threshold, phases are preserved.  The solvers run it on Haar
coefficients directly, as the shrink alone.

P2 (:func:`project_fourier`) projects onto the set of images consistent
with the observed k-space under some in-bounds per-line translation: each
readout line's shift is estimated by a matched filter against a reference
spectrum, the trajectory is de-meaned (a global shift is pure gauge) and
clamped, and the observation is un-translated accordingly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import FrequencyGrid, MotionTrajectory, require_budget, require_grid_size, require_square_image
from .motion import _line_ramps, invert_translation
from .transforms import _forward_levels, _inverse_levels, dft2, idft2

__all__ = [
    "LineShiftEstimate",
    "MotionEstimate",
    "estimate_line_shift",
    "project_fourier",
    "project_sparse",
]


def _l1_ball_threshold(moduli, c):
    """Shrink threshold tau with sum(max(moduli - tau, 0)) == c.

    Michelot's finite algorithm (reviewed by Condat, Math. Prog. 158, 2016),
    in place of sorting every modulus: tau starts as the threshold that
    keeps every modulus, then each pass drops the moduli at or below it and
    recomputes it from the rest, until no modulus drops.  tau only rises, so
    no pass drops a modulus that the final threshold keeps, and each pass
    scans only the moduli still kept (under 15 passes on 512^2 test
    distributions).  Assumes 0 < c < moduli.sum().  When rounding loses c
    against the largest modulus, every modulus drops and the returned tau
    is that modulus minus c, the limit the sort-and-scan construction
    takes too.  When c is within a few ulps of the total, the kept moduli
    summed in another order can fall short of c; tau is then 0, not negative.
    """
    active = moduli
    tau = (active.sum() - c) / active.size
    while True:
        kept = active[active > tau]
        if kept.size in (0, active.size):
            return max(tau, 0.0)
        active = kept
        tau = (active.sum() - c) / active.size


def _shrink(coeffs, c):
    """Nearest point to ``coeffs`` in the l1 ball of radius c, in a new array.

    Moduli are soft-shrunk by the exact threshold and phases are kept: this
    is P1 on Haar coefficients.
    """
    mod = np.abs(coeffs).ravel()
    if mod.sum() <= c:
        return coeffs.copy()
    out = np.zeros_like(coeffs)
    if c == 0.0:
        return out
    tau = _l1_ball_threshold(mod, c)
    # only the kept coefficients are scaled; the rest stay zero
    kept = np.flatnonzero(mod > tau)
    mod = mod[kept]
    out.reshape(-1)[kept] = coeffs.reshape(-1)[kept] * ((mod - tau) / mod)
    return out


def project_sparse(m, c):
    """Project an image onto {m : ||haar(m)||_1 <= c} (full-depth Haar), preserving phases."""
    m = require_square_image(m, "image").astype(np.complex128, copy=False)
    c = require_budget(c)
    levels = int(np.log2(m.shape[0]))
    coeffs = _forward_levels(m.copy(), levels)
    if np.abs(coeffs).sum() <= c:
        return m.copy()
    shrunk = _shrink(coeffs, c)
    del coeffs
    return _inverse_levels(shrunk, levels)


# coarse readout-shift search step in pixels; quadratic refinement goes below it
_GRID_STEP = 0.25


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


@functools.lru_cache(maxsize=8)
def _coarse_basis(bound, step, n):
    """Read-only ramps exp(2i*pi*k*x) of the readout-shift grid points x
    that :func:`_axis_points` gives for (bound, step), one row per point.

    They depend only on the bounds and the side, so each P2 call of a solve
    reuses one build.
    """
    basis = _line_ramps(_axis_points(bound, step)[0], 0.0, n)
    basis.setflags(write=False)
    return basis


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
    profile, _ = _best_phase(q @ _coarse_basis(bounds.max_abs_x, step, n).T, reach[:, None])
    bx = np.clip(_peak(profile, x_inner, x_pts, step), -bounds.max_abs_x, bounds.max_abs_x)
    ramp = _line_ramps(bx, 0.0, n)
    corr, phi = _best_phase((q[:, None, :] @ ramp[:, :, None])[:, 0, 0], reach)
    by = np.divide(phi, turn, out=np.zeros(rows), where=k_y != 0.0)
    by = np.clip(by, -bounds.max_abs_y, bounds.max_abs_y)  # phi / turn can round past the bound

    denom = np.abs(q).sum(axis=1)
    live = denom > 0.0
    scores = np.clip(np.divide(corr, denom, out=np.zeros(rows), where=live), 0.0, 1.0)
    return np.where(live[:, None], np.stack([bx, by], axis=1), 0.0), scores


def estimate_line_shift(observed_line, reference_line, k_y, bounds):
    """Estimate the (beta_x, beta_y) translation relating one readout line
    to its reference, with a normalized correlation score in [0, 1].

    The two lines must have equal length n; the readout frequencies are
    those of ``FrequencyGrid(n)``.  beta_x is searched on the same
    quarter-pixel grid as :func:`project_fourier` uses.  Zero-energy lines
    return (0, 0) with score 0.
    """
    obs = np.asarray(observed_line, dtype=np.complex128).ravel()
    ref = np.asarray(reference_line, dtype=np.complex128).ravel()
    if obs.shape != ref.shape:
        raise ValueError(f"lines differ in length: {obs.size} vs {ref.size} samples")
    require_grid_size(obs.size)
    k_y = float(k_y)
    if not np.isfinite(k_y):
        raise ValueError(f"k_y must be finite, got {k_y}")
    shifts, scores = _estimate_lines((obs * np.conj(ref))[None, :], np.array([k_y]), bounds, _GRID_STEP)
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
    """q = observed * conj(reference), the reference carrying the phase of
    the model spectrum dft2(m) and the observed moduli ``abs_observed``.

    A translation changes only the phase of a line, so the motion-free
    spectrum has the observed moduli and only its phase is unknown: the
    model supplies that phase (amplitude replacement, as in Fienup, Appl.
    Opt. 21 (1982)).  Frequencies where the model vanishes have no phase
    and give q = 0.
    """
    model = dft2(m)
    q = observed * np.conj(model, out=model)
    mod = np.abs(model)
    q *= np.divide(abs_observed, mod, out=np.zeros_like(mod), where=mod > 0)
    return q


def project_fourier(m, observed, cfg):
    """Project onto the set of images explaining the observed k-space.

    Builds a reference spectrum with the current image's phase and the
    observed moduli, estimates each line's shift by the matched filter on a
    quarter-pixel grid with quadratic refinement, removes the energy-weighted
    mean displacement (the unidentifiable global-shift gauge), clamps into
    bounds, and returns the observation with the estimated motion undone,
    back in image space, together with the motion estimate.  Frequencies
    come from the centered grid of the data's side.

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
    q = _matched_filter_input(m, observed, abs_observed)
    del abs_observed
    shifts, scores = _estimate_lines(q, FrequencyGrid(observed.shape[0]).coords, cfg.bounds, _GRID_STEP)
    del q
    total = energy.sum()
    if total > 0:
        shifts -= (energy @ shifts) / total
    traj = MotionTrajectory(cfg.bounds.clamp(shifts))
    corrected = idft2(invert_translation(observed, traj))
    return corrected, MotionEstimate(traj, scores)
