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

from .core import SOLVER_ER, SOLVER_SRAAR
from .motion import naive_reconstruct
from .projections import _shrink, project_fourier
from .transforms import _inverse_levels, haar_forward, l1_norm

__all__ = ["SolverTrace", "solve_er", "solve_sraar", "tune_sparsity_budget"]

# A tuned SRAAR candidate stops once its sparsest P2 output is this many
# iterations old: the smallest patience whose tuned images equal those of a
# run without the stop on seeds 11-30 of the 256^2 default benchmark inputs
# and seeds 11-20 of the 512^2 narrow ones (tools/replay_stop_rule.py).
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
    return cfg.c


def _require_finite(observed):
    if not np.all(np.isfinite(observed)):
        raise ValueError("observed k-space contains non-finite values (NaN or Inf)")


def _image(w):
    """W^T w, the image of full-depth Haar coefficients, computed in w's buffer."""
    return _inverse_levels(w, int(np.log2(w.shape[0])))


def _er_step(w, m, observed, cfg, c):
    sparse = _image(_shrink(w, c))
    p2, estimate = project_fourier(sparse, observed, cfg)
    wp2 = haar_forward(p2).data
    return wp2, p2, p2, estimate, np.linalg.norm(p2 - sparse), l1_norm(wp2)


def _sraar_step(w, m, observed, cfg, c):
    p2, estimate = project_fourier(m, observed, cfg)
    wp2 = haar_forward(p2).data
    l1 = l1_norm(wp2)
    wr2 = 2.0 * wp2
    wr2 -= w
    ws = _shrink(wr2, c)
    misfit = np.linalg.norm(wp2 - ws)
    # (theta/2) * (2 ws - wr2 + w) + (1 - theta) * wp2, built in wr2's buffer
    # with ws and wp2 scaled in place and dropped before the inverse pass,
    # which saves the solve n x n arrays at its memory peak; the operations
    # run in that expression's order, so they round the same
    ws *= 2.0
    nxt = np.subtract(ws, wr2, out=wr2)
    del ws
    nxt += w
    nxt *= 0.5 * cfg.theta
    wp2 *= 1.0 - cfg.theta
    nxt += wp2
    del wp2
    return nxt, _image(nxt.copy()), p2, estimate, misfit, l1


def _iterate(observed, cfg, solver, step, patience=None):
    """Run ``step`` up to cfg.iterations times from the naive reconstruction.

    The iterate is carried as its Haar coefficients w together with its
    image m.  ``step`` returns (next w, next m, P2 output, motion estimate,
    misfit, Haar l1 of the P2 output).  Without ``patience`` the last
    iterate is returned, after a terminal P2 pass when it is not a P2
    output.  With ``patience`` the sparsest P2 output (the first of equals)
    is returned with its estimate, and the run stops once that output is
    ``patience`` iterations old.
    """
    c = _require_fixed_budget(cfg, solver)
    _require_finite(observed)
    trace = SolverTrace()
    m = naive_reconstruct(observed)
    w = haar_forward(m).data
    kept = None
    for iteration in range(1, cfg.iterations + 1):
        start = time.perf_counter()
        w, m, p2, estimate, misfit, l1 = step(w, m, observed, cfg, c)
        trace.append(misfit, l1, time.perf_counter() - start)
        if patience is None:
            continue
        if kept is None or l1 < trace.l1[trace.returned - 1]:
            kept, trace.returned = (p2, estimate), iteration
        elif iteration - trace.returned >= patience:
            break
    if kept is not None:
        return (*kept, trace)
    if m is p2:
        trace.returned = len(trace)
    else:
        m, estimate = project_fourier(m, observed, cfg)
    return m, estimate, trace


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
    _require_finite(observed)
    base = l1_norm(haar_forward(naive_reconstruct(observed)))
    solver = _SOLVER_FUNCS[cfg.solver]
    patience = _PATIENCE if cfg.solver == SOLVER_SRAAR else None
    best = None
    for fraction in sorted(cfg.c_grid):
        candidate = fraction * base
        image, estimate, trace = solver(observed, replace(cfg, c=candidate, c_grid=None), patience)
        l1 = trace.l1[trace.returned - 1]
        if best is None or l1 < best[0]:
            best = (l1, candidate, image, estimate, trace)
    _, c, image, estimate, trace = best
    return c, image, estimate, trace
