"""Shared builders for motion-corruption test scenarios.

The generated true trajectory is put into canonical gauge (zero
energy-weighted mean, principal phase-encode aliases, zero DC shift) so
that estimates are comparable to it line by line; every member of that
equivalence class produces the same observed k-space up to a global image
shift that no estimator can recover.
"""

from dataclasses import dataclass

import numpy as np

import sraar as S


@dataclass
class MotionScenario:
    gt: np.ndarray
    weights: np.ndarray
    truth: S.MotionTrajectory
    observed: np.ndarray


def make_scenario(n, seed, gen_bound, smoothness=8, snr_db=None, solver_bound=5.0):
    """Phantom acquisition with smooth random motion inside solver_bound."""
    gt = S.shepp_logan(n)
    weights = np.sum(np.abs(S.dft2(gt)) ** 2, axis=1)
    raw = S.generate_trajectory(
        S.TrajectoryGenConfig(S.MotionBounds(gen_bound, gen_bound), smoothness, seed),
        n,
        gauge_weights=weights,
    )
    truth = S.gauge_aligned(raw, S.FrequencyGrid(n), weights)
    # generation is centered on the same gauge, so only the phase-encode
    # fold's re-centering can nudge peaks past the bound, by millipixels
    assert np.abs(truth.shifts).max() <= solver_bound * (1 + 1e-3)
    observed = S.corrupt(gt, truth, noise_snr_db=snr_db, seed=seed)
    return MotionScenario(gt, weights, truth, observed)
