"""Run the direct alternating solver and the relaxed-reflection solver on
identical data and compare convergence."""

from dataclasses import replace

import numpy as np

from sraar import (
    MotionBounds,
    ReconConfig,
    TrajectoryGenConfig,
    corrupt,
    dft2,
    generate_trajectory,
    haar_forward,
    image_metrics,
    l1_norm,
    shepp_logan,
    solve_er,
    solve_sraar,
)

n = 128
gt = shepp_logan(n)
bounds = MotionBounds(5.0, 5.0)
energy = np.sum(np.abs(dft2(gt)) ** 2, axis=1)
traj = generate_trajectory(TrajectoryGenConfig(bounds, smoothness=8, seed=11), n, gauge_weights=energy)
observed = corrupt(gt, traj)

base = ReconConfig(bounds=bounds, theta=0.9, iterations=100, c=l1_norm(haar_forward(gt)))

runs = {
    "er": solve_er(observed, replace(base, solver="er")),
    "sraar": solve_sraar(observed, base),
}

print(f"{'iter':>5} {'er misfit':>12} {'sraar misfit':>13}")
for i in (0, 4, 9, 24, 49, 99):
    print(f"{i + 1:>5} {runs['er'][2].misfit[i]:>12.4f} {runs['sraar'][2].misfit[i]:>13.4f}")

for name, (image, estimate, trace) in runs.items():
    rmse_rel = image_metrics(image, gt)[0]
    print(f"{name}: final relative RMSE {rmse_rel:.5f}, "
          f"last P2 output's wavelet l1 {trace.l1[-1]:.1f}, "
          f"mean line score {estimate.scores.mean():.4f}")
