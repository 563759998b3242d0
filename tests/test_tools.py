"""The replay tool agrees with the solver driver.

``tools/replay_stop_rule.py`` chose ``_PATIENCE`` by replaying full-length
candidate runs from the driver's per-iteration records under the driver's
own rule and choice; that choice holds only while the replayed records are
those of the driver's solve at the solver's budgets, the rule applied to
them returns what a tuned SRAAR candidate returns, and the choice among
candidates is the solver's.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sraar import (MotionBounds, ReconConfig, haar_forward, l1_norm, naive_reconstruct, solve_sraar, solvers,
                   tune_sparsity_budget)
from sraar.cli import build_parser, reconstruct_config
from sraar.projections import _Workspace
from sraar.solvers import _PATIENCE
from scenarios import make_scenario

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay_stop_rule.py"


@pytest.fixture(scope="module")
def replay_tool():
    spec = importlib.util.spec_from_file_location("replay_stop_rule", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def candidate():
    """A 32^2 SRAAR candidate's observation, config and untruncated trace."""
    observed = make_scenario(32, 3, 1.5, solver_bound=2.0).observed
    base = l1_norm(haar_forward(naive_reconstruct(observed)))
    cfg = ReconConfig(bounds=MotionBounds(2.0, 2.0), c=0.5 * base, iterations=_PATIENCE + 40)
    return observed, cfg, solve_sraar(observed, cfg)[2]


@pytest.mark.parametrize("patience", [2, 5, _PATIENCE])
def test_stop_matches_tuned_candidate(replay_tool, candidate, patience):
    observed, cfg, full = candidate
    kept, trace = solvers._keep(solvers._steps(_Workspace(observed, cfg.bounds), cfg), patience)
    assert trace.l1 == full.l1[:len(trace)]
    # the tool's full-length records of the same budget, under the patience
    (fraction, records), = replay_tool.run_candidates(observed, replace(cfg, c=None, c_grid=(0.5,)))
    assert fraction == 0.5
    assert [record[2] for record in records] == full.l1
    _, returned, ran, estimate = replay_tool.apply_rule([(fraction, records)], patience)
    assert (returned, ran) == (trace.returned, len(trace))
    assert np.array_equal(estimate.traj.shifts, kept.traj.shifts)
    if patience < _PATIENCE:
        assert len(trace) < cfg.iterations


def test_replay_runs_the_drivers_sraar_step(replay_tool, tmp_path):
    # every candidate's records are the trace of the driver's own solve at
    # that budget, run for the full iteration count
    sraar = replay_tool.import_sraar()
    candidates, _, _ = replay_tool.replay_seed(sraar, "default-256", 1)
    run = replay_tool.Run(sraar, "default-256", 1, tmp_path, smoke=False)
    observed = run.generate()[2]
    args = build_parser().parse_args(["reconstruct", "--kspace", "-", "--out-dir", "-", *run.recon_args])
    cfg = reconstruct_config(args)
    base = l1_norm(haar_forward(naive_reconstruct(observed)))
    assert [fraction for fraction, _ in candidates] == sorted(set(cfg.c_grid))
    for fraction, records in candidates:
        trace = solve_sraar(observed, replace(cfg, c=fraction * base, c_grid=None))[2]
        assert [record[2] for record in records] == trace.l1
        assert [record[1] for record in records] == trace.misfit


def test_equal_l1_goes_to_the_smaller_budget(replay_tool, candidate):
    # a candidate's first P2 output is P2 of the naive image at every budget,
    # so one-iteration candidates tie; the solver and the tool both keep the
    # smaller budget, whatever the grid's order
    observed, cfg, _ = candidate
    cfg = replace(cfg, c=None, c_grid=(0.7, 0.5), iterations=1)
    base = l1_norm(haar_forward(naive_reconstruct(observed)))
    candidates = replay_tool.run_candidates(observed, cfg)
    first, second = ([l1 for _, _, l1, _ in records] for _, records in candidates)
    assert first == second
    assert replay_tool.apply_rule(candidates, _PATIENCE)[0] == 0.5
    assert tune_sparsity_budget(observed, cfg)[0] == 0.5 * base
