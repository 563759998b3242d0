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

from .core import (FrequencyGrid, MotionBounds, MotionTrajectory, ReconConfig, _pow2_scaled, _real, _real_array,
                   require_budget, require_finite, require_grid_size, require_square_image, require_type)
from .motion import _line_ramps, _ramp_tables
from .transforms import _flip_checkerboard, _float_halves, _forward_levels, _inverse_levels, _unitary

__all__ = [
    "LineShiftEstimate",
    "MotionEstimate",
    "estimate_line_shift",
    "project_fourier",
    "project_sparse",
]


def _l1_ball_threshold(moduli, c, total, buf):
    """Shrink threshold tau with sum(max(moduli - tau, 0)) == c, where
    ``total`` is moduli.sum(), which the caller has already computed, and
    the 1-D float64 buffer ``buf``, as long as ``moduli``, takes the first
    pass's kept moduli.

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
    tau = (total - c) / moduli.size
    keep = moduli > tau
    count = np.count_nonzero(keep)
    if count in (0, moduli.size):
        return max(tau, 0.0)
    # the first pass, the largest, compacts into buf, so that no later pass
    # holds it or its mask (np.compress(..., out=) would copy out as well)
    active = np.take(moduli, np.flatnonzero(keep), out=buf[:count], mode="clip")
    del keep
    while True:
        tau = (active.sum() - c) / active.size
        kept = active[active > tau]
        if kept.size in (0, active.size):
            return max(tau, 0.0)
        active = kept


def _shrink_scale(coeffs, c, scratch):
    """The shrink's factors max((|x| - tau) / |x|, 0), so that P1(coeffs) =
    scale * coeffs, in the second float half of the contiguous complex
    buffer ``scratch`` (:func:`_float_halves`), after the moduli in its
    first; None, with the scale 1, when the moduli sum to at most c.  The
    threshold compacts its first pass into the scale's half.
    """
    moduli, scale = _float_halves(scratch)
    mod = np.abs(coeffs, out=moduli).ravel()
    total = mod.sum()
    if total <= c:
        return None
    if c == 0.0:
        scale.fill(0.0)
        return scale
    tau = _l1_ball_threshold(mod, c, total, scale.ravel())
    # the scale is 0 for every modulus not above tau, also for the NaN of
    # 0/0 and the -inf of -tau/0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.subtract(moduli, tau, out=scale), moduli, out=scale)
        np.fmax(scale, 0.0, out=scale)
    return scale


def project_sparse(m, c):
    """Project an image onto {m : ||haar(m)||_1 <= c} (full-depth Haar), preserving phases."""
    m = require_finite(require_square_image(m, "image"), "image").astype(np.complex128, copy=False)
    c = require_budget(c)
    levels = int(np.log2(m.shape[0]))
    # P1 at c of 2^e m is 2^e P1 at c / 2^e of m, and 2^-e m has a peak below
    # 1, so that no Haar sum or l1 overflows; a c / 2^e beyond the largest
    # float is inf, above every l1
    coeffs, exp = _pow2_scaled(m)
    with np.errstate(over="ignore"):
        budget = np.ldexp(c, -exp)
    scratch = np.empty_like(m)
    _forward_levels(coeffs, levels, scratch)
    scale = _shrink_scale(coeffs, budget, scratch)
    if scale is None:
        return m.copy()
    coeffs *= scale
    out = _inverse_levels(coeffs, levels, scratch)
    _pow2_scaled(out, -exp, out=out)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"the projection of image at c={c:g} has moduli beyond the largest float")
    return out


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
    # beyond this (inf included) the point count has no array index
    if not bound / step < np.iinfo(np.intp).max / 4:
        raise ValueError(f"max_abs_x={bound:g} px is too large for a {step:g} px readout-shift search grid")
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


def _estimate_lines(q, k_y, bounds, step, moduli=None):
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
    score 0.  Returns the (rows, 2) shifts and the rows' scores.  The
    moduli of q go into ``moduli``, a float array of q's shape (made new
    when None).
    """
    rows, n = q.shape
    x_pts, x_inner = _axis_points(bounds.max_abs_x, step)
    turn = 2.0 * np.pi * k_y
    reach = np.where(k_y == 0.0, np.pi, np.minimum(np.abs(turn) * bounds.max_abs_y, np.pi))
    profile, _ = _best_phase(q @ _coarse_basis(bounds.max_abs_x, step, n).T, reach[:, None])
    bx = np.clip(_peak(profile, x_inner, x_pts, step), -bounds.max_abs_x, bounds.max_abs_x)
    # s(b_x) from the ramps' tables, with no n x n ramp
    lead, tail = _ramp_tables(bx, 0.0, n)
    blocks = q.reshape(lead.shape + tail.shape[1:]) @ tail[:, :, None]
    corr, phi = _best_phase((lead[:, None, :] @ blocks)[:, 0, 0], reach)
    by = np.divide(phi, turn, out=np.zeros(rows), where=k_y != 0.0)
    by = np.clip(by, -bounds.max_abs_y, bounds.max_abs_y)  # phi / turn can round past the bound

    denom = np.abs(q, out=moduli).sum(axis=1)
    live = denom > 0.0
    scores = np.clip(np.divide(corr, denom, out=np.zeros(rows), where=live), 0.0, 1.0)
    return np.where(live[:, None], np.stack([bx, by], axis=1), 0.0), scores


def estimate_line_shift(observed_line, reference_line, k_y, bounds):
    """Estimate the (beta_x, beta_y) translation relating one readout line
    to its reference, with a normalized correlation score in [0, 1].

    The two lines must be 1-D of equal length n; the readout frequencies
    are those of ``FrequencyGrid(n)``.  beta_x is searched on the same
    quarter-pixel grid as :func:`project_fourier` uses.  Zero-energy lines
    return (0, 0) with score 0.
    """
    obs = require_finite(np.asarray(observed_line, dtype=np.complex128), "observed line")
    ref = require_finite(np.asarray(reference_line, dtype=np.complex128), "reference line")
    for name, line in (("observed line", obs), ("reference line", ref)):
        if line.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {line.shape}")
    if obs.shape != ref.shape:
        raise ValueError(f"lines differ in length: {obs.size} vs {ref.size} samples")
    require_grid_size(obs.size)
    k_y = _real(k_y, "k_y")
    if not np.isfinite(k_y):
        raise ValueError(f"k_y must be finite, got {k_y}")
    require_type(bounds, MotionBounds, "bounds")
    # shifts and score do not change with the scale of either line: scaled
    # by powers of two, q's moduli stay below 2 and its sums cannot overflow
    q = _pow2_scaled(obs)[0] * np.conj(_pow2_scaled(ref)[0])
    shifts, scores = _estimate_lines(q[None, :], np.array([k_y]), bounds, _GRID_STEP)
    return LineShiftEstimate(float(shifts[0, 0]), float(shifts[0, 1]), float(scores[0]))


@dataclass(frozen=True)
class MotionEstimate:
    """Estimated trajectory plus a per-line normalized correlation score."""

    traj: MotionTrajectory
    scores: np.ndarray

    def __post_init__(self):
        scores = _real_array(self.scores, "scores")
        if scores.shape != (len(self.traj),):
            raise ValueError("one score per trajectory line expected")
        if np.any(scores < 0) or np.any(scores > 1):
            raise ValueError("scores must lie in [0, 1]")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)


# an observation's peak modulus lies in [2^-this, 2^this / n] (see _Workspace)
_PEAK_EXPONENT = 480


class _Workspace:
    """What P2 derives from one observation, plus the n x n buffers that a
    solve's phases share; :func:`sraar.solvers._solve` builds the one
    workspace of each solve, whatever its number of budgets.  The iterate's
    Haar coefficients are the driver's (:func:`sraar.solvers._steps`).

    With D = (-1)^(r+c) the checkerboard, the centered DFT is D * fft(D * x)
    and the flips are exact, so P2 works with ``obs_d`` = D * observed and
    images as D * m: its matched-filter input is obs_d * conj(fft(D * m))
    and D times its output is ifft(obs_d * ramps), both with the bits of the
    dft2/idft2 form and no flip.  ``spec`` holds D * m, P2's input, then the
    matched-filter input, then D times P2's output and, in each step, its
    Haar coefficients and D * the next m.  ``scratch`` is every phase's
    temporary, never alive across a call: the matched filter's ratio and its
    "model != 0" mask, the line estimator's moduli, the Haar butterflies'
    pair sums, the shrink's moduli and scale, and the moduli of the l1 norm
    and the squared difference of the misfit; it also serves as two n x n
    float arrays (:func:`_float_halves`).

    The peak modulus p of a nonzero observation must lie in [2^-480,
    2^480 / n]: a solve squares moduli in q = |obs|^2 e^(i phase), in the
    line energies and in the misfit, and sums up to 2 n^2 such squares.
    The sums are at most a few (n p)^2 <= 2^962, about 2^60 below overflow,
    and the squares of samples down to 2^-31 p stay normal floats.
    """

    def __init__(self, observed, bounds):
        n = observed.shape[0]
        self.obs_d = _flip_checkerboard(observed.astype(np.complex128, copy=True))
        self.abs_obs = np.abs(self.obs_d)
        peak, low, high = self.abs_obs.max(), 2.0**-_PEAK_EXPONENT, 2.0**_PEAK_EXPONENT / n
        if peak and not low <= peak <= high:
            raise ValueError(f"observed k-space has peak modulus {peak:.3g}, outside [{low:.3g}, {high:.3g}] "
                             f"for side {n}, where its squares neither overflow nor underflow; rescale it")
        self.energy = np.sum(self.abs_obs**2, axis=1)
        self.k_y = FrequencyGrid(n).coords
        self.bounds = bounds
        self.levels = int(np.log2(n))
        self.spec = np.empty((n, n), np.complex128)
        self.scratch = np.empty_like(self.spec)

    def naive_image(self):
        """D * idft2 of the observation, in a new array."""
        return _unitary(np.fft.ifftn, self.obs_d.copy())


def _matched_filter_input(work):
    """q = observed * conj(reference), the reference carrying the phase of
    the model spectrum dft2(m) and the observed moduli, from D * m in
    work.spec; computed in work.spec.

    A translation changes only the phase of a line, so the motion-free
    spectrum has the observed moduli and only its phase is unknown: the
    model supplies that phase (amplitude replacement, as in Fienup, Appl.
    Opt. 21 (1982)).  Frequencies where the model vanishes have no phase
    and give q = 0.
    """
    spec = work.spec
    np.conjugate(_unitary(np.fft.fftn, spec), out=spec)
    ratio, rest = _float_halves(work.scratch)
    np.abs(spec, out=ratio)
    # the "model != 0" mask takes the bytes of the float half the ratio leaves free
    mask = rest.reshape(-1).view(bool)[: ratio.size].reshape(ratio.shape)
    # in place, so where the model vanishes the ratio keeps the modulus, 0
    np.divide(work.abs_obs, ratio, out=ratio, where=np.greater(ratio, 0.0, out=mask))
    q = np.multiply(work.obs_d, spec, out=spec)
    q *= ratio
    return q


def _estimate_motion(work):
    """P2's motion estimate for the image m, given as D * m in work.spec,
    with the observation and buffers of the workspace ``work``."""
    q = _matched_filter_input(work)
    shifts, scores = _estimate_lines(q, work.k_y, work.bounds, _GRID_STEP, _float_halves(work.scratch)[0])
    total = work.energy.sum()
    if total > 0:
        shifts -= (work.energy @ shifts) / total
    return MotionEstimate(MotionTrajectory(work.bounds.clamp(shifts)), scores)


def _compensate(work, traj, out):
    """D times the observation of ``work`` with the motion ``traj`` undone,
    in image space, written to ``out``; the same trajectory gives the same bits."""
    # invert_translation's ramps: the negated trajectory, negated again
    corrected = _line_ramps(traj.dx, traj.dy * work.k_y, out.shape[0], out=out)
    np.multiply(work.obs_d, corrected, out=corrected)
    return _unitary(np.fft.ifftn, corrected)


def project_fourier(m, observed, cfg):
    """Project onto the set of images explaining the observed k-space.

    Builds a reference spectrum with the current image's phase and the
    observed moduli, estimates each line's shift by the matched filter on a
    quarter-pixel grid with quadratic refinement, removes the energy-weighted
    mean displacement (the unidentifiable global-shift gauge), clamps into
    bounds, and returns the observation with the estimated motion undone,
    back in image space, together with the motion estimate.  Frequencies
    come from the centered grid of the data's side.
    """
    m = require_finite(require_square_image(m, "image"), "image")
    observed = require_finite(require_square_image(observed, "observed k-space"), "observed k-space")
    require_type(cfg, ReconConfig, "cfg")
    if m.shape != observed.shape:
        raise ValueError(f"image shape {m.shape} does not match observation {observed.shape}")
    work = _Workspace(observed, cfg.bounds)
    np.copyto(work.spec, m)
    _flip_checkerboard(work.spec)
    estimate = _estimate_motion(work)
    return _flip_checkerboard(_compensate(work, estimate.traj, work.spec)), estimate
