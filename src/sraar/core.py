"""Shared conventions for images, k-space grids, motion, and solver config.

Images and k-space arrays are square numpy arrays whose side is a power of
two (at least 4).  K-space rows are readout lines: row index r is the
phase-encode coordinate, column index c runs along the readout.  Frequencies
are centered, with DC at index N/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FrequencyGrid",
    "MotionBounds",
    "MotionTrajectory",
    "ReconConfig",
    "require_budget",
    "require_grid_size",
    "require_square_image",
]

SOLVER_ER = "er"
SOLVER_SRAAR = "sraar"
_SOLVERS = (SOLVER_ER, SOLVER_SRAAR)


def require_grid_size(n):
    """Validate a grid side length: integer power of two, at least 4."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"grid size must be an integer, got {n!r}")
    n = int(n)
    if n < 4 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 4, got {n}")
    return n


def require_square_image(arr, name="array"):
    """Validate shape of an image or k-space array and return it as ndarray."""
    a = np.asarray(arr)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {a.shape}")
    require_grid_size(a.shape[0])
    return a


def require_budget(c):
    """Validate a wavelet-l1 budget: finite and non-negative; returns a float."""
    c = float(c)
    if not np.isfinite(c) or c < 0:
        raise ValueError(f"sparsity budget c must be finite and >= 0, got {c}")
    return c


def normalized_line_weights(weights, n_lines):
    """Validate per-line weights and normalize them to sum 1; None = uniform."""
    if weights is None:
        return np.full(n_lines, 1.0 / n_lines)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n_lines,) or np.any(w < 0) or w.sum() <= 0:
        raise ValueError("weights must be non-negative per line with positive sum")
    return w / w.sum()


@dataclass(frozen=True)
class FrequencyGrid:
    """Centered frequency coordinates for a square grid.

    Index i maps to (i - N/2) / N cycles per pixel, so coordinates cover
    [-1/2, 1/2) and DC sits at index N/2.  A displacement of one pixel is
    one full phase cycle across the grid.
    """

    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", require_grid_size(self.size))

    @cached_property
    def coords(self):
        c = (np.arange(self.size) - self.size // 2) / self.size
        c.setflags(write=False)
        return c

    def coord(self, index):
        if not isinstance(index, (int, np.integer)):
            raise IndexError(f"index must be an integer, got {index!r}")
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range for size {self.size}")
        return (int(index) - self.size // 2) / self.size

    @property
    def dc_index(self):
        return self.size // 2


@dataclass(frozen=True)
class MotionBounds:
    """Symmetric per-axis search bounds, in pixels: |beta_x| <= max_abs_x."""

    max_abs_x: float
    max_abs_y: float

    def __post_init__(self):
        for name in ("max_abs_x", "max_abs_y"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)

    def clamp(self, shifts):
        """Clip an (n, 2) displacement array into the bounds, componentwise."""
        out = np.asarray(shifts, dtype=np.float64).copy()
        out[:, 0] = np.clip(out[:, 0], -self.max_abs_x, self.max_abs_x)
        out[:, 1] = np.clip(out[:, 1], -self.max_abs_y, self.max_abs_y)
        return out


@dataclass(frozen=True)
class MotionTrajectory:
    """Per-readout-line translations, one (beta_x, beta_y) pair per line.

    ``shifts`` has shape (n_lines, 2) with column 0 the readout-axis shift
    beta_x and column 1 the phase-encode shift beta_y, both in pixels.
    """

    shifts: np.ndarray

    def __post_init__(self):
        arr = np.array(self.shifts, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"trajectory must have shape (n, 2), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("trajectory needs at least one line")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trajectory entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "shifts", arr)

    @classmethod
    def zero(cls, n_lines):
        return cls(np.zeros((n_lines, 2)))

    @classmethod
    def from_components(cls, dx, dy):
        return cls(np.column_stack([dx, dy]))

    @property
    def dx(self):
        return self.shifts[:, 0]

    @property
    def dy(self):
        return self.shifts[:, 1]

    def __len__(self):
        return self.shifts.shape[0]

    def __neg__(self):
        return MotionTrajectory(-self.shifts)

    def __add__(self, other):
        if len(other) != len(self):
            raise ValueError("trajectory lengths differ")
        return MotionTrajectory(self.shifts + other.shifts)


@dataclass(frozen=True)
class ReconConfig:
    """Settings shared by the reconstruction solvers.

    Exactly one of ``c`` (fixed wavelet-l1 budget) and ``c_grid`` (fractions
    of the starting image's wavelet l1 norm, each in (0, 1), for budget
    tuning) may be set.  ``theta`` is the relaxation parameter of the
    reflection solver; ``theta == 1`` gives plain averaged alternating
    reflections.  ``threads`` has no effect: P2 estimates every line in one
    batched pass.  It is kept, validated, only because the benchmark's traced
    run replays P2 with ``threads=1``; nothing in the package reads it.
    """

    bounds: MotionBounds = MotionBounds(5.0, 5.0)
    solver: str = SOLVER_SRAAR
    theta: float = 0.9
    iterations: int = 100
    c: float | None = None
    c_grid: tuple[float, ...] | None = None
    threads: int = 0

    def __post_init__(self):
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}, got {self.solver!r}")
        theta = float(self.theta)
        if not (0.0 < theta <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {theta}")
        object.__setattr__(self, "theta", theta)
        if not isinstance(self.iterations, (int, np.integer)) or self.iterations < 1:
            raise ValueError(f"iterations must be a positive integer, got {self.iterations!r}")
        object.__setattr__(self, "iterations", int(self.iterations))
        if self.c is not None:
            object.__setattr__(self, "c", require_budget(self.c))
        if self.c_grid is not None:
            grid = tuple(float(f) for f in self.c_grid)
            if len(grid) == 0:
                raise ValueError("c_grid must not be empty")
            if any(not (0.0 < f < 1.0) for f in grid):
                raise ValueError(f"c_grid fractions must lie in (0, 1), got {grid}")
            object.__setattr__(self, "c_grid", grid)
        if self.c is not None and self.c_grid is not None:
            raise ValueError("set either c or c_grid, not both")
        if not isinstance(self.threads, (int, np.integer)) or self.threads < 0:
            raise ValueError(f"threads must be a non-negative integer, got {self.threads!r}")
        object.__setattr__(self, "threads", int(self.threads))
