"""Joint image and motion estimation by alternating projections.

Both solvers start from the naive reconstruction of the observed k-space and
run one iteration driver with their own step rule.  ``solve_er`` alternates
the two projections directly.  ``solve_sraar`` iterates the relaxed averaged
alternating reflections update

    m <- (theta/2) * (R1 R2 + I) m + (1 - theta) * P2 m

with reflectors R = 2P - I; the Fourier projection P2 m is evaluated once
per iteration and shared between both terms, and a terminal P2 pass makes
the returned image data-consistent.  The DFT and the translations are
unitary, so the data misfit equals ||P2 output - P1 output|| in image space.

The full-depth Haar transform W is orthonormal, so W P1 W^T is the shrink
of Haar coefficients onto the l1 ball, and both solvers iterate on
coefficients.  An iteration makes one forward pass, W of the P2 output
(whose l1 norm the trace records), and one inverse pass, to the image that
P2 takes next: SRAAR reflects, shrinks and relaxes the coefficients and
inverts the result; ER shrinks them and inverts the shrunk ones.  SRAAR
measures the misfit between coefficients and ER between images, which
orthonormality makes equal.

Each solve builds one workspace (:class:`~sraar.projections._Workspace`):
obs_d = D * observed with D = (-1)^(r+c), its moduli and line energies, and
n x n buffers that P2, the Haar passes, the shrink and the update share.
The centered DFT is D * fft(D * x), so P2 forms obs_d * conj(fft(D * m))
and D * ifft(obs_d * ramps), the same bits as through dft2 and idft2 with
two fewer sign flips.  No iteration after the first allocates an n x n
array, so the heap no longer shrinks after each iteration only to fault its
pages back in.

Every P2 output is a compensated image: the observation with one estimated
motion undone.  The trace records the wavelet l1 norm of each one.  Budget
tuning keeps the maximally sparse compensated image: each SRAAR candidate
returns its sparsest P2 output and stops once that output is ``_PATIENCE``
iterations old, because the reflection iterates of an inconsistent problem
drift while their P2 outputs first get sparser and then drift back (the
shadow sequence of Bauschke, Combettes & Luke, J. Approx. Theory 127, 2004).
ER candidates run every iteration and keep their last image.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SOLVER_ER, SOLVER_SRAAR, require_finite, require_square_image
from .motion import naive_reconstruct
from .projections import _Workspace, _project_fourier, _shrink
from .transforms import _float_halves, _forward_levels, _inverse_levels, haar_forward, l1_norm

__all__ = ["SolverTrace", "solve_er", "solve_sraar", "tune_sparsity_budget"]

# A tuned SRAAR candidate stops once its sparsest P2 output is this many
# iterations old: the smallest patience whose tuned images equal those of a
# run without the stop on seeds 11-30 of the 256^2 default benchmark inputs
# (grid 0.3/0.5/0.7) and seeds 11-20 of the 512^2 narrow ones (grid 0.7)
# (tools/replay_stop_rule.py).
_PATIENCE = 30


@dataclass
class SolverTrace:
    """Per-iteration history: data misfit, wavelet l1 norm, wall seconds.

    ``misfit[j]`` is the Frobenius distance between the observation and the
    translated spectrum of iteration j's sparsity-projected image under
    iteration j's motion estimate.  By unitarity it equals the distance
    between iteration j's P2 and P1 outputs, which SRAAR computes between
    their Haar coefficients and ER between the images; the orthonormal Haar
    transform makes the two equal.
    ``l1[j]`` is the Haar l1 norm of iteration j's P2 output, the
    observation with iteration j's motion estimate undone; for ER that is
    the iterate itself.  ``returned`` is the 1-based iteration whose P2
    output the solver returned, or None when the image is a terminal P2
    pass over the last iterate.  A tuned SRAAR run can stop before
    cfg.iterations, so the trace can be shorter.
    """

    misfit: list[float] = field(default_factory=list)
    l1: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    returned: int | None = None

    def append(self, misfit, l1, seconds):
        self.misfit.append(float(misfit))
        self.l1.append(float(l1))
        self.seconds.append(float(seconds))

    def __len__(self):
        return len(self.misfit)


def _require_fixed_budget(cfg, expected_solver):
    if cfg.solver != expected_solver:
        raise ValueError(f"config selects solver {cfg.solver!r}, expected {expected_solver!r}")
    if cfg.c is None:
        raise ValueError("a fixed sparsity budget c is required; use tune_sparsity_budget for a grid")


def _require_observation(observed):
    return require_finite(require_square_image(observed, "observed k-space"), "observed k-space")


def _l1(work, coeffs):
    """Haar l1 norm of ``coeffs``, with the moduli in the workspace's scratch."""
    return float(np.abs(coeffs, out=_float_halves(work.scratch)[0]).sum())


def _er_step(work, w, m, out, cfg):
    # the shrunk coefficients and their image pass through w, which ends holding W of P2's output
    sparse = _inverse_levels(_shrink(w, cfg.c, w, work.scratch, work.mask), work.levels, work.scratch)
    p2, estimate = _project_fourier(work, sparse, out)
    misfit = np.linalg.norm(np.subtract(p2, sparse, out=work.scratch))
    np.copyto(w, p2)
    return p2, estimate, misfit, _l1(work, _forward_levels(w, work.levels, work.scratch))


def _sraar_step(work, w, m, out, cfg):
    p2, estimate = _project_fourier(work, m, out)
    wp2 = work.spec
    np.copyto(wp2, p2)
    _forward_levels(wp2, work.levels, work.scratch)
    l1 = _l1(work, wp2)
    wr2 = np.multiply(2.0, wp2, out=m)
    wr2 -= w
    ws = _shrink(wr2, cfg.c, work.shrunk, work.scratch, work.mask)
    misfit = np.linalg.norm(np.subtract(wp2, ws, out=work.scratch))
    # (theta/2) * (2 ws - wr2 + w) + (1 - theta) * wp2, built in wr2's buffer
    # (m) with ws and wp2 scaled in place; the operations run in that
    # expression's order, so they round the same.  w takes a copy, and m
    # inverts in place to the image
    ws *= 2.0
    nxt = np.subtract(ws, wr2, out=wr2)
    nxt += w
    nxt *= 0.5 * cfg.theta
    wp2 *= 1.0 - cfg.theta
    nxt += wp2
    np.copyto(w, nxt)
    return _inverse_levels(m, work.levels, work.scratch), estimate, misfit, l1


def _iterate(observed, cfg, solver, step, patience=None):
    """Run ``step`` up to cfg.iterations times from the naive reconstruction.

    Each buffer keeps one role for the whole solve: w holds the iterate's
    Haar coefficients, m SRAAR's iterate image and ``out`` the P2 output.
    ``step(work, w, m, out, cfg)`` writes the P2 output into ``out``,
    updates w and m in place, and returns (iterate image, motion estimate,
    misfit, Haar l1 of the P2 output); ER's iterate image is ``out``.
    Without ``patience`` the last iterate is returned, after a terminal P2
    pass when it is not a P2 output.  With ``patience`` the sparsest P2
    output (the first of equals) is returned with its estimate, and the run
    stops once that output is ``patience`` iterations old; a kept output's
    buffer trades places with a spare one, made on the first keep.
    """
    _require_fixed_budget(cfg, solver)
    observed = _require_observation(observed)
    work = _Workspace(observed, cfg.bounds)
    trace = SolverTrace()
    m = work.naive_image()
    w = _forward_levels(m.copy(), work.levels, work.scratch)
    out = np.empty_like(m)
    kept = spare = None
    for iteration in range(1, cfg.iterations + 1):
        start = time.perf_counter()
        image, estimate, misfit, l1 = step(work, w, m, out, cfg)
        trace.append(misfit, l1, time.perf_counter() - start)
        if patience is None:
            continue
        if kept is None or l1 < trace.l1[trace.returned - 1]:
            kept, trace.returned = (out, estimate), iteration
            out, spare = (np.empty_like(out) if spare is None else spare), out
        elif iteration - trace.returned >= patience:
            break
    if kept is not None:
        return (*kept, trace)
    if image is out:
        trace.returned = len(trace)
        return out, estimate, trace
    return (*_project_fourier(work, m, out), trace)


def _run_er(observed, cfg, patience=None):
    return _iterate(observed, cfg, SOLVER_ER, _er_step, patience)


def _run_sraar(observed, cfg, patience=None):
    return _iterate(observed, cfg, SOLVER_SRAAR, _sraar_step, patience)


def solve_er(observed, cfg):
    """Alternate m <- P2(P1(m)) for cfg.iterations steps.

    Returns (image, motion estimate, trace); the image is the output of the
    final Fourier projection and therefore data-consistent.
    """
    return _run_er(observed, cfg)


def solve_sraar(observed, cfg):
    """Run the relaxed reflection iteration followed by a terminal P2 pass."""
    return _run_sraar(observed, cfg)


# The CLI and budget tuning reach the solvers through this table; only
# tuning passes a patience.
_SOLVER_FUNCS = {SOLVER_ER: _run_er, SOLVER_SRAAR: _run_sraar}


def tune_sparsity_budget(observed, cfg):
    """Pick the budget from cfg.c_grid whose run returns the sparsest image,
    by wavelet l1 norm, ties going to the smaller budget.

    Fractions apply to the wavelet l1 norm of the naive reconstruction.  A
    SRAAR candidate returns its sparsest P2 output with that output's motion
    estimate, and stops once the output is ``_PATIENCE`` iterations old, so
    its trace can hold fewer than cfg.iterations rows; no terminal P2 pass
    runs.  An ER candidate runs every iteration and returns its last image,
    its sparsest P2 output as a rule; stopping it with a patience of 20
    raised the median rmse_rel of ER's 128^2 benchmark inputs from 0.083 to
    0.255.  Returns (chosen c, image, motion estimate, trace of the chosen
    run).
    """
    if cfg.c_grid is None:
        raise ValueError("tune_sparsity_budget requires c_grid")
    observed = _require_observation(observed)
    base = l1_norm(haar_forward(naive_reconstruct(observed)))
    solver = _SOLVER_FUNCS[cfg.solver]
    patience = _PATIENCE if cfg.solver == SOLVER_SRAAR else None
    best = None
    # equal fractions would run the same solve again and lose its tie
    for fraction in sorted(set(cfg.c_grid)):
        candidate = fraction * base
        image, estimate, trace = solver(observed, replace(cfg, c=candidate, c_grid=None), patience)
        l1 = trace.l1[trace.returned - 1]
        if best is None or l1 < best[0]:
            best = (l1, candidate, image, estimate, trace)
    _, c, image, estimate, trace = best
    return c, image, estimate, trace
