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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SOLVER_ER, SOLVER_SRAAR
from .motion import naive_reconstruct
from .projections import project_fourier, project_sparse
from .transforms import haar_forward, l1_norm

__all__ = ["SolverTrace", "solve_er", "solve_sraar", "tune_sparsity_budget"]


@dataclass
class SolverTrace:
    """Per-iteration history: data misfit, wavelet l1 norm, wall seconds.

    ``misfit[j]`` is the Frobenius distance between the observation and the
    translated spectrum of iteration j's sparsity-projected image under
    iteration j's motion estimate.  By unitarity it is computed as the
    image-space distance between iteration j's P2 and P1 outputs.
    """

    misfit: list[float] = field(default_factory=list)
    l1: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

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


def _er_step(m, observed, cfg, c):
    sparse = project_sparse(m, c)
    p2, estimate = project_fourier(sparse, observed, cfg)
    return p2, p2, sparse, estimate


def _sraar_step(m, observed, cfg, c):
    p2, estimate = project_fourier(m, observed, cfg)
    r2 = 2.0 * p2 - m
    sparse = project_sparse(r2, c)
    r1r2 = 2.0 * sparse - r2
    return 0.5 * cfg.theta * (r1r2 + m) + (1.0 - cfg.theta) * p2, p2, sparse, estimate


def _iterate(observed, cfg, solver, step):
    """Run ``step`` cfg.iterations times from the naive reconstruction.

    ``step`` returns (next iterate, P2 output, P1 output, motion estimate);
    a last iterate that is not a P2 output gets a terminal P2 pass.
    """
    c = _require_fixed_budget(cfg, solver)
    _require_finite(observed)
    trace = SolverTrace()
    m = naive_reconstruct(observed)
    for _ in range(cfg.iterations):
        start = time.perf_counter()
        m, p2, sparse, estimate = step(m, observed, cfg, c)
        trace.append(np.linalg.norm(p2 - sparse), l1_norm(haar_forward(m)), time.perf_counter() - start)
    if m is not p2:
        m, estimate = project_fourier(m, observed, cfg)
    return m, estimate, trace


def solve_er(observed, cfg):
    """Alternate m <- P2(P1(m)) for cfg.iterations steps.

    Returns (image, motion estimate, trace); the image is the output of the
    final Fourier projection and therefore data-consistent.
    """
    return _iterate(observed, cfg, SOLVER_ER, _er_step)


def solve_sraar(observed, cfg):
    """Run the relaxed reflection iteration followed by a terminal P2 pass."""
    return _iterate(observed, cfg, SOLVER_SRAAR, _sraar_step)


_SOLVER_FUNCS = {SOLVER_ER: solve_er, SOLVER_SRAAR: solve_sraar}


def tune_sparsity_budget(observed, cfg):
    """Pick the budget from cfg.c_grid whose run ends with the smallest
    wavelet l1 norm, ties going to the smaller budget.

    Fractions apply to the wavelet l1 norm of the naive reconstruction.
    Returns (chosen c, image, motion estimate, trace of the chosen run).
    """
    if cfg.c_grid is None:
        raise ValueError("tune_sparsity_budget requires c_grid")
    _require_finite(observed)
    base = l1_norm(haar_forward(naive_reconstruct(observed)))
    solver = _SOLVER_FUNCS[cfg.solver]
    best = None
    for fraction in sorted(cfg.c_grid):
        candidate = fraction * base
        run_cfg = replace(cfg, c=candidate, c_grid=None)
        image, estimate, trace = solver(observed, run_cfg)
        final_l1 = l1_norm(haar_forward(image))
        if best is None or final_l1 < best[0]:
            best = (final_l1, candidate, image, estimate, trace)
    _, c, image, estimate, trace = best
    return c, image, estimate, trace
