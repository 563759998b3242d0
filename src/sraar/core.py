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
    "require_count",
    "require_finite",
    "require_grid_size",
    "require_numeric",
    "require_square_image",
    "require_type",
]

SOLVER_ER = "er"
SOLVER_SRAAR = "sraar"
_SOLVERS = (SOLVER_ER, SOLVER_SRAAR)


def require_count(value, name, minimum):
    """Refuse ``value`` unless it is an integer, not a bool, and at least
    ``minimum``, naming it; return it as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        least = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {least}, got {value!r}")
    return int(value)


def require_grid_size(n):
    """Validate a grid side length: integer power of two, at least 4."""
    n = require_count(n, "grid size", 4)
    if n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 4, got {n}")
    return n


def require_square_image(arr, name="array"):
    """Validate shape of an image or k-space array and return it as ndarray."""
    a = np.asarray(arr)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {a.shape}")
    require_grid_size(a.shape[0])
    return a


def require_numeric(arr, name):
    """Refuse an array that is not bool, int, float or complex, naming it and
    its dtype; return it as ndarray."""
    a = np.asarray(arr)
    if a.dtype.kind not in "biufc":
        raise ValueError(f"{name} must be bool, int, float or complex, got dtype {a.dtype}")
    return a


def require_finite(arr, name):
    """Refuse an array that is not numeric or holds NaN or Inf, naming it;
    return it as ndarray."""
    a = require_numeric(arr, name)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite values (NaN or Inf)")
    return a


def require_type(value, cls, name):
    """Refuse ``value`` unless it is a ``cls``, naming it and its type; return it."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _real(value, name):
    """``value`` as a float; a complex type or a value float() refuses is a
    ValueError naming ``name``."""
    if not np.iscomplexobj(value):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _real_array(values, name):
    """A float64 copy of ``values``; a complex dtype, tested by type and not
    by value, or a value the cast refuses (a complex or a str in an object
    array) is a ValueError naming ``name``."""
    a = np.asarray(values)
    if a.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got dtype {a.dtype}")
    try:
        return a.astype(np.float64)
    except (TypeError, ValueError) as error:
        raise ValueError(f"{name} must be real: {error}") from None


def _pow2_scaled(a, e=None, out=None):
    """(a * 2^-e, e) for a finite numeric array ``a``, as float64 or complex128,
    with e by default the exponent that puts its largest component modulus
    in [0.5, 1) (0 when it has none), written to ``out`` (which may be
    ``a``) when given.  Each component is scaled by ldexp, exactly unless it
    leaves the normal range, so arithmetic that scales with ``a`` keeps its
    bits on the result and neither overflows nor underflows at the peak; an
    overflow gives inf."""
    a = np.ascontiguousarray(a, np.complex128 if np.iscomplexobj(a) else np.float64)
    parts = a.view(np.float64)
    if e is None:
        e = int(np.frexp(max(parts.max(initial=0.0), -parts.min(initial=0.0)))[1])
    with np.errstate(over="ignore"):
        return np.ldexp(parts, -e, out=None if out is None else out.view(np.float64)).view(a.dtype), e


def require_budget(c):
    """Validate a wavelet-l1 budget: finite and non-negative; returns a float."""
    c = _real(c, "sparsity budget c")
    if not np.isfinite(c) or c < 0:
        raise ValueError(f"sparsity budget c must be finite and >= 0, got {c}")
    return c


def normalized_line_weights(weights, n_lines):
    """Validate per-line weights and normalize them to sum 1; None = uniform."""
    if weights is None:
        return np.full(n_lines, 1.0 / n_lines)
    w = _real_array(weights, "weights")
    if w.shape != (n_lines,):
        got = f"{w.size} weights" if w.ndim == 1 else f"weights of shape {w.shape}"
        raise ValueError(f"weights must hold one value per line: {n_lines} lines, {got}")
    require_finite(w, "weights")
    with np.errstate(over="ignore"):
        total = w.sum()
    if np.any(w < 0) or total <= 0:
        raise ValueError("weights must be non-negative per line with positive sum")
    if not np.isfinite(total):  # finite weights whose sum overflows
        w = w / w.max()
        total = w.sum()
    return w / total


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
            v = _real(getattr(self, name), name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)

    def clamp(self, shifts):
        """Clip an (n, 2) displacement array into the bounds, componentwise;
        complex shifts are a ValueError."""
        out = _real_array(shifts, "shifts")
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
        arr = _real_array(self.shifts, "trajectory shifts")
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
    reflections.
    """

    bounds: MotionBounds = MotionBounds(5.0, 5.0)
    solver: str = SOLVER_SRAAR
    theta: float = 0.9
    iterations: int = 100
    c: float | None = None
    c_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        require_type(self.bounds, MotionBounds, "bounds")
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}, got {self.solver!r}")
        theta = _real(self.theta, "theta")
        if not (0.0 < theta <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "iterations", require_count(self.iterations, "iterations", 1))
        if self.c is not None:
            object.__setattr__(self, "c", require_budget(self.c))
        if self.c_grid is not None:
            if isinstance(self.c_grid, str) or not np.iterable(self.c_grid):
                raise ValueError(f"c_grid must be a sequence of fractions, got {self.c_grid!r}")
            grid = tuple(_real(f, "c_grid fraction") for f in self.c_grid)
            if len(grid) == 0:
                raise ValueError("c_grid must not be empty")
            if any(not (0.0 < f < 1.0) for f in grid):
                raise ValueError(f"c_grid fractions must lie in (0, 1), got {grid}")
            object.__setattr__(self, "c_grid", grid)
        if self.c is not None and self.c_grid is not None:
            raise ValueError("set either c or c_grid, not both")
