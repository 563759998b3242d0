"""Joint image and motion estimation by alternating projections.

Both solvers start from the naive reconstruction of the observed k-space and
run one iteration driver with their own coefficient update.  ``solve_er``
alternates the two projections directly.  ``solve_sraar`` iterates the
relaxed averaged alternating reflections update

    m <- (theta/2) * (R1 R2 + I) m + (1 - theta) * P2 m

with reflectors R = 2P - I (the RAAR step of Luke, Inverse Problems 21,
2005), which is theta * (P1 R2 m + m) + (1 - 2 theta) * P2 m.  The Fourier
projection P2 m is evaluated once per iteration and shared between the
terms, and a terminal P2 pass makes the returned image data-consistent.
The DFT and the translations are unitary, so the data misfit equals
||P2 output - P1 output|| in image space.

The full-depth Haar transform W is orthonormal, so W P1 W^T is the shrink
of Haar coefficients onto the l1 ball, and both solvers iterate on
coefficients.  Every step (``_steps``) runs P2, one forward pass to W of the
P2 output, the solver's update of the coefficients and one inverse pass, to
the image that P2 takes next: SRAAR reflects, shrinks and relaxes the
coefficients; ER shrinks W of the P2 output.  Each update returns the misfit
between coefficients and the l1 norm of W of the P2 output, which the trace
records; ER takes it from its shrink.  The shrink of
SRAAR's reflected coefficients r = 2 W P2 m - W m is scale * r, one factor
per coefficient, so its update is W P2 m + theta * (scale - 1) * r, which
needs neither W m nor the shrunk coefficients once r is formed.

Each solve, fixed or tuned, builds one workspace in ``_solve``
(:class:`~sraar.projections._Workspace`) and one iterate buffer, the Haar
coefficients; P2 runs in the workspace.  Its images stay in the workspace's D
domain, D = (-1)^(r+c): P2 reads and writes D * m, and the Haar passes fold
D into level 0, so only the start and the returned image flip signs; the
flips are exact, so the bits are those of dft2 and idft2.  No iteration
after the first allocates an n x n array, so the heap no longer shrinks
after each iteration only to fault its pages back in.

Every P2 output is a compensated image: the observation with one estimated
motion undone, so a solve keeps motion estimates and computes its returned
image from the chosen one at the end.  A run yields one record per iteration
(``_steps``); one rule (``_keep``) keeps an estimate, marks its row and
builds the trace, with the wavelet l1 norm of each P2 output.  ``_solve``
applies the rule to each budget's run and, for a fixed-budget SRAAR solve,
replaces the kept estimate by the terminal P2 pass's.  A fixed budget is a
grid of one without the stop; tuning keeps the maximally sparse compensated
image: each SRAAR candidate returns its sparsest P2 output and stops once
that output is ``_PATIENCE`` iterations old, because the reflection iterates
of an inconsistent problem drift while their P2 outputs first get sparser
and then drift back (the shadow sequence of Bauschke, Combettes & Luke,
J. Approx. Theory 127, 2004).  ER candidates keep their last image.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SOLVER_ER, SOLVER_SRAAR, ReconConfig, require_square_image, require_type
from .projections import _Workspace, _compensate, _estimate_motion, _shrink_scale
from .transforms import _flip_checkerboard, _float_halves, _forward_levels, _inverse_levels

__all__ = ["SolverTrace", "solve_er", "solve_sraar", "tune_sparsity_budget"]

# A tuned SRAAR candidate stops once its sparsest P2 output is this many
# iterations old.  The smallest patience whose tuned images equal those of a
# run without the stop is 13 on seeds 11-30 of the 256^2 default benchmark
# inputs (grid 0.5/0.7) and 28 on seeds 11-20 of the 512^2 narrow ones
# (grid 0.7) (tools/replay_stop_rule.py); 30 holds for both.
_PATIENCE = 30


@dataclass
class SolverTrace:
    """Per-iteration history: data misfit, wavelet l1 norm, wall seconds.

    ``misfit[j]`` is the Frobenius distance between the observation and the
    translated spectrum of iteration j's sparsity-projected image under
    iteration j's motion estimate.  By unitarity it equals the distance
    between iteration j's P2 and P1 outputs, which the solvers compute
    between their Haar coefficients.
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


def _l1(work, coeffs):
    """Haar l1 norm of ``coeffs``, with the moduli in the workspace's scratch."""
    return float(np.abs(coeffs, out=_float_halves(work.scratch)[0]).sum())


def _distance(work, a, b, scale=None):
    """Frobenius distance between ``a`` and ``scale * b`` (``b`` when scale is
    None), one row half at a time in the first float half of the
    workspace's scratch.

    numpy's pairwise sum adds in one order whatever the BLAS thread count,
    where np.linalg.norm's BLAS dot splits its sum by thread; for n >= 16 it
    splits the whole difference at the same half, so the halves move no bit.
    """
    half = a.shape[0] // 2
    buf = _float_halves(work.scratch)[0].reshape(-1).view(np.complex128).reshape(half, -1)
    total = 0.0
    for rows in (slice(None, half), slice(half, None)):
        other = b[rows] if scale is None else np.multiply(b[rows], scale[rows], out=buf)
        squares = np.subtract(a[rows], other, out=buf).reshape(-1).view(np.float64)
        total += np.square(squares, out=squares).sum()
    return float(np.sqrt(total))


def _shrink(work, coeffs, c, out):
    """P1 of ``coeffs`` into ``out``; inside the ball a copy, which keeps
    signed zeros.  Returns the l1 norm of ``coeffs``, which the shrink sums."""
    scale, total = _shrink_scale(coeffs, c, work.scratch)
    if scale is None:
        np.copyto(out, coeffs)
    else:
        np.multiply(coeffs, scale, out=out)
    return total


def _er_update(work, w, wp2, cfg):
    # w holds the P1 output that P2 just read, and takes P1 of wp2
    misfit = _distance(work, wp2, w)
    return misfit, _shrink(work, wp2, cfg.c, w)


def _sraar_update(work, w, wp2, cfg):
    l1 = _l1(work, wp2)
    # w takes the reflection r = 2 wp2 - w, and P1(r) = scale * r
    np.subtract(np.multiply(2.0, wp2, out=work.scratch), w, out=w)
    scale, _ = _shrink_scale(w, cfg.c, work.scratch)
    if scale is None:
        scale = _float_halves(work.scratch)[1]
        scale.fill(1.0)
    misfit = _distance(work, wp2, w, scale)
    # theta (P1(r) + w) + (1 - 2 theta) wp2 = wp2 + theta (scale - 1) r, built in w
    scale -= 1.0
    scale *= cfg.theta
    w *= scale
    w += wp2
    return misfit, l1


def _steps(work, cfg):
    """Yield one (motion estimate, misfit, Haar l1 of the P2 output, seconds)
    record per step of cfg.solver at the budget cfg.c, up to cfg.iterations,
    from the naive reconstruction of the workspace ``work``'s observation.

    Between steps ``work.spec`` holds D * the image that P2 reads next and
    the one iterate buffer w its Haar coefficients, for ER its P1 output.
    A step runs P2 and W into spec, the solver's update of w (a module
    global, looked up here), which returns the misfit and the l1 of W of
    the P2 output, and the inverse pass of w into spec.
    """
    update = _er_update if cfg.solver == SOLVER_ER else _sraar_update
    w = work.naive_image()
    np.copyto(work.spec, w)
    _forward_levels(w, work.levels, work.scratch, flipped=True)
    if cfg.solver == SOLVER_ER:
        _shrink(work, w, cfg.c, w)
        _inverse_levels(w, work.levels, work.scratch, flipped=True, out=work.spec)
    for _ in range(cfg.iterations):
        start = time.perf_counter()
        estimate = _estimate_motion(work)
        _compensate(work, estimate.traj, work.spec)
        wp2 = _forward_levels(work.spec, work.levels, work.scratch, flipped=True)
        misfit, l1 = update(work, w, wp2, cfg)
        _inverse_levels(w, work.levels, work.scratch, flipped=True, out=work.spec)
        yield estimate, misfit, l1, time.perf_counter() - start


def _keep(records, patience):
    """(kept estimate, trace) of a run's records, with ``trace.returned`` the
    kept row.  Without ``patience`` the last estimate; with it the sparsest
    P2 output's (the first of equals), reading no record once that output
    is ``patience`` iterations old.
    """
    trace, kept = SolverTrace(), None
    for iteration, (estimate, misfit, l1, seconds) in enumerate(records, 1):
        trace.append(misfit, l1, seconds)
        if patience is None or kept is None or l1 < trace.l1[trace.returned - 1]:
            kept, trace.returned = estimate, iteration
        elif iteration - trace.returned >= patience:
            break
    return kept, trace


def _budgets(work, cfg):
    """(fraction, c) of each budget a solve runs: (None, cfg.c) for a fixed
    budget, else one per distinct cfg.c_grid fraction of the Haar l1 of
    ``work``'s naive image, ascending."""
    if cfg.c_grid is None:
        return [(None, cfg.c)]
    base = _l1(work, _forward_levels(work.naive_image(), work.levels, work.scratch, flipped=True))
    # equal fractions would run the same solve again and lose its tie
    return [(fraction, fraction * base) for fraction in sorted(set(cfg.c_grid))]


def _choose(runs):
    """The first of ``runs``, each (budget, estimate, trace), whose returned
    row has the smallest l1: ties go to the earlier, smaller budget."""
    return min(runs, key=lambda run: run[2].l1[run[2].returned - 1])


def _solve(observed, cfg):
    """Run cfg.solver on one workspace at each of :func:`_budgets` and keep
    the run :func:`_choose` picks; returns its (c, image, estimate, trace).
    """
    work = _Workspace(require_square_image(observed, "observed k-space"), cfg.bounds)
    # the workspace holds D * observed; on CPython >= 3.11 a caller that
    # passes its only reference lets this free the observation: the CLI
    # passes a temporary, and each entry point gives up its own reference
    del observed
    patience = _PATIENCE if cfg.c_grid is not None and cfg.solver == SOLVER_SRAAR else None
    runs = [(c, *_keep(_steps(work, replace(cfg, c=c, c_grid=None)), patience)) for _, c in _budgets(work, cfg)]
    c, estimate, trace = _choose(runs)
    if patience is None and cfg.solver == SOLVER_SRAAR:
        # a fixed budget runs once: the terminal P2 pass over its last iterate, in spec
        estimate, trace.returned = _estimate_motion(work), None
    return c, _flip_checkerboard(_compensate(work, estimate.traj, np.empty_like(work.spec))), estimate, trace


def _require_fixed_budget(cfg, solver):
    if require_type(cfg, ReconConfig, "cfg").solver != solver:
        raise ValueError(f"config selects solver {cfg.solver!r}, expected {solver!r}")
    if cfg.c is None:
        raise ValueError("a fixed sparsity budget c is required; use tune_sparsity_budget for a grid")


def solve_er(observed, cfg):
    """Alternate m <- P2(P1(m)) for cfg.iterations steps.

    Returns (image, motion estimate, trace); the image is the output of the
    final Fourier projection and therefore data-consistent.
    """
    _require_fixed_budget(cfg, SOLVER_ER)
    held, observed = [observed], None  # _solve gets the only reference
    return _solve(held.pop(), cfg)[1:]


def solve_sraar(observed, cfg):
    """Run the relaxed reflection iteration followed by a terminal P2 pass."""
    _require_fixed_budget(cfg, SOLVER_SRAAR)
    held, observed = [observed], None  # _solve gets the only reference
    return _solve(held.pop(), cfg)[1:]


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
    if require_type(cfg, ReconConfig, "cfg").c_grid is None:
        raise ValueError("tune_sparsity_budget requires c_grid")
    held, observed = [observed], None  # _solve gets the only reference
    return _solve(held.pop(), cfg)
