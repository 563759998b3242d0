"""Recover the translation of a single readout line from its phase ramp.

Each observed line relates to its reference by out(c) = ref(c) *
exp(-i 2 pi (k_x(c) beta_x + k_y beta_y)).  The estimator inverts this by
matched filtering over a shift grid plus quadratic refinement.
"""

import numpy as np

from sraar import FrequencyGrid, MotionBounds, estimate_line_shift, dft2, shepp_logan

n = 128
grid = FrequencyGrid(n)
bounds = MotionBounds(5.0, 5.0)
spectrum = dft2(shepp_logan(n))

rng = np.random.default_rng(5)
print(f"{'row':>4} {'k_y':>8} {'true bx':>8} {'true by':>8} {'est bx':>8} {'est by':>8} {'score':>7}")
for row in (8, 40, 63, 100):
    k_y = grid.coords[row]
    window = min(bounds.max_abs_y, 0.5 / abs(k_y)) if k_y != 0 else 0.0
    bx = float(rng.uniform(-4, 4))
    by = float(rng.uniform(-0.9, 0.9)) * window
    ref = spectrum[row]
    line = ref * np.exp(-2j * np.pi * (grid.coords * bx + k_y * by))
    est = estimate_line_shift(line, ref, k_y, bounds)
    print(f"{row:>4} {k_y:>8.4f} {bx:>8.3f} {by:>8.3f} {est.beta_x:>8.3f} {est.beta_y:>8.3f} {est.score:>7.4f}")

# The DC line carries no beta_y information at all: k_y = 0 makes the
# phase term vanish, so the estimator pins beta_y to 0 there.
row = n // 2
ref = spectrum[row]
line = ref * np.exp(-2j * np.pi * grid.coords * 2.5)
est = estimate_line_shift(line, ref, 0.0, bounds)
print(f"DC row: true bx=2.500, est bx={est.beta_x:.3f}, est by={est.beta_y:.3f} (pinned)")

# beta_y is only identifiable modulo 1/|k_y|; outside the principal window
# the estimator reports the alias inside it, which fits the data equally well.
row, by = 90, 3.5
k_y = grid.coords[row]
ref = spectrum[row]
line = ref * np.exp(-2j * np.pi * k_y * by)
est = estimate_line_shift(line, ref, k_y, bounds)
print(f"alias: row {row} k_y={k_y:.4f}, true by={by:.3f} folds to {est.beta_y:.3f} "
      f"(period {1 / abs(k_y):.3f} px), score {est.score:.4f}")
