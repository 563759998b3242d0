"""On-disk formats: raw arrays, trajectory text files, trace CSV, PGM.

Raw array files are little-endian: 4-byte magic ``SRR1``, one dtype code
byte (0 = float32, 1 = complex64 interleaved), uint32 rows, uint32 cols,
then the row-major payload.  Trajectory files are plain text with a
``# sraar-trajectory v1`` header and one ``index beta_x beta_y`` line per
readout line.  PGM export writes 16-bit binary (P5) images of the moduli.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .core import MotionTrajectory, require_finite, require_in_range, require_numeric

__all__ = [
    "MAGIC",
    "TRAJECTORY_HEADER",
    "export_pgm",
    "format_report",
    "load_array",
    "load_trace_csv",
    "load_trajectory",
    "save_array",
    "save_trace_csv",
    "save_trajectory",
]

MAGIC = b"SRR1"
_DTYPE_REAL = 0
_DTYPE_COMPLEX = 1
TRAJECTORY_HEADER = "# sraar-trajectory v1"


def save_array(path, arr):
    """Write a 2-D array; complex data as complex64, real data as float32.

    Finite values beyond the single-precision range are rejected rather
    than written as Inf.
    """
    arr = require_numeric(arr, "arr")
    if arr.ndim != 2:
        raise ValueError(f"only 2-D arrays are stored, got shape {arr.shape}")
    code, dtype = (_DTYPE_COMPLEX, "<c8") if np.iscomplexobj(arr) else (_DTYPE_REAL, "<f4")
    with np.errstate(over="ignore"):
        payload = arr.astype(dtype)
    cast_bad = ~np.isfinite(payload)
    if cast_bad.any() and np.isfinite(arr[cast_bad]).any():
        raise ValueError(f"{path}: values exceed the single-precision range of the file format")
    header = MAGIC + struct.pack("<BII", code, arr.shape[0], arr.shape[1])
    Path(path).write_bytes(header + payload.tobytes())


def load_array(path):
    """Read a raw array file; returns float64 or complex128, rejecting NaN/Inf."""
    blob = Path(path).read_bytes()
    if len(blob) < 13 or blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a raw array file (bad magic)")
    code, rows, cols = struct.unpack("<BII", blob[4:13])
    if code not in (_DTYPE_REAL, _DTYPE_COMPLEX):
        raise ValueError(f"{path}: unknown dtype code {code}")
    dtype = "<f4" if code == _DTYPE_REAL else "<c8"
    expected = rows * cols * np.dtype(dtype).itemsize
    if len(blob) - 13 != expected:
        raise ValueError(f"{path}: payload has {len(blob) - 13} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype=dtype, offset=13).reshape(rows, cols)
    require_finite(data, f"{path}: payload")
    return data.astype(np.float64 if code == _DTYPE_REAL else np.complex128)


def save_trajectory(path, traj):
    lines = [TRAJECTORY_HEADER]
    lines += [f"{i} {dx:.9f} {dy:.9f}" for i, (dx, dy) in enumerate(traj.shifts)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_trajectory(path):
    text = Path(path).read_text()
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows or rows[0] != TRAJECTORY_HEADER:
        raise ValueError(f"{path}: missing trajectory header {TRAJECTORY_HEADER!r}")
    shifts = []
    for expected, line in enumerate(rows[1:]):
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"{path}: malformed line {line!r}")
        try:
            index, dx, dy = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError as exc:
            raise ValueError(f"{path}: malformed line {line!r}") from exc
        if index != expected:
            raise ValueError(f"{path}: line indices must be contiguous from 0, got {index}")
        shifts.append((dx, dy))
    if not shifts:
        raise ValueError(f"{path}: trajectory has no lines")
    return MotionTrajectory(np.array(shifts))


def save_trace_csv(path, trace):
    """Write a solver trace as CSV with columns iter, misfit, l1, seconds."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "misfit", "l1", "seconds"])
        for i, (misfit, l1, seconds) in enumerate(zip(trace.misfit, trace.l1, trace.seconds), start=1):
            writer.writerow([i, repr(misfit), repr(l1), repr(seconds)])


def load_trace_csv(path):
    """Read back a trace CSV as a dict of column arrays."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["iter", "misfit", "l1", "seconds"]:
            raise ValueError(f"{path}: unexpected trace header {header}")
        cols = {"iter": [], "misfit": [], "l1": [], "seconds": []}
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"{path}: malformed trace row {row}")
            cols["iter"].append(int(row[0]))
            for name, value in zip(("misfit", "l1", "seconds"), row[1:]):
                cols[name].append(float(value))
    return {name: np.asarray(values) for name, values in cols.items()}


def export_pgm(path, arr):
    """Write the moduli as a 16-bit binary PGM, min to 0 and max to 65535.

    A constant image maps to all zeros.  The array lies in the range of
    :func:`sraar.core.require_in_range`: NaN and Inf have no grey level.
    """
    arr = require_in_range(arr, "arr")
    if arr.ndim != 2:
        raise ValueError(f"only 2-D arrays are exported, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"an empty array of shape {arr.shape} has no image to export")
    mod = np.abs(arr)
    lo, hi = mod.min(), mod.max()
    if hi > lo:
        levels = np.round((mod - lo) / (hi - lo) * 65535.0)
    else:
        levels = np.zeros_like(mod)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + levels.astype(">u2").tobytes())


def format_report(report):
    """Render an EvalReport as key=value lines."""
    lines = []
    for name, value in report.as_dict().items():
        if isinstance(value, float):
            lines.append(f"{name}={value:.12g}")
        else:
            lines.append(f"{name}={value}")
    return "\n".join(lines) + "\n"
