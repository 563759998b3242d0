"""Unitary centered 2-D DFT and the orthonormal multi-level Haar transform.

Both directions of the DFT carry 1/N scaling, so round trips are exact and
inner products are preserved.  The image origin and the DC frequency both
sit at index N/2, matching :class:`sraar.core.FrequencyGrid`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import require_square_image

__all__ = ["WaveletCoeffs", "dft2", "idft2", "haar_forward", "haar_inverse", "l1_norm"]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def dft2(img):
    """Centered unitary 2-D DFT of a square power-of-two image."""
    img = require_square_image(img, "image").astype(np.complex128, copy=False)
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(img), norm="ortho"))


def idft2(ksp):
    """Inverse of :func:`dft2`."""
    ksp = require_square_image(ksp, "k-space").astype(np.complex128, copy=False)
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(ksp), norm="ortho"))


def _check_levels(n, levels):
    depth = int(np.log2(n))
    if levels is None:
        return depth
    if not isinstance(levels, (int, np.integer)) or not 1 <= levels <= depth:
        raise ValueError(f"levels must lie in [1, {depth}] for size {n}, got {levels!r}")
    return int(levels)


def _butterfly(a, b, c, d):
    """Orthonormal Haar step on the 2x2 blocks [[a, b], [c, d]]: pair (a, b) and
    (c, d), then pair the two sums and the two differences.  It is its own inverse."""
    p, q = (a + b) * _INV_SQRT2, (a - b) * _INV_SQRT2
    r, t = (c + d) * _INV_SQRT2, (c - d) * _INV_SQRT2
    return (p + r) * _INV_SQRT2, (q + t) * _INV_SQRT2, (p - r) * _INV_SQRT2, (q - t) * _INV_SQRT2


@dataclass(frozen=True)
class WaveletCoeffs:
    """Multi-level 2-D Haar coefficients, stored in-place Mallat layout.

    ``data`` has the same shape as the source image; the approximation of
    the deepest level occupies the top-left block of side N / 2**levels.
    """

    data: np.ndarray
    levels: int

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128, copy=True)
        require_square_image(arr, "coefficients")
        levels = _check_levels(arr.shape[0], self.levels)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "levels", levels)


def haar_forward(img, levels=None):
    """Orthonormal 2-D Haar decomposition.

    Each level applies the pairwise (a+b)/sqrt(2), (a-b)/sqrt(2) transform
    along rows then columns of the current approximation block, halving its
    side.  ``levels=None`` applies the full depth log2(N).  Both directions
    run the same self-inverse 2x2 butterfly on every level.
    """
    img = require_square_image(img, "image").astype(np.complex128, copy=True)
    levels = _check_levels(img.shape[0], levels)
    for level in range(levels):
        h = img.shape[0] >> (level + 1)
        blk = img[: 2 * h, : 2 * h]
        cells = blk[0::2, 0::2], blk[0::2, 1::2], blk[1::2, 0::2], blk[1::2, 1::2]
        blk[:h, :h], blk[:h, h:], blk[h:, :h], blk[h:, h:] = _butterfly(*cells)
    return WaveletCoeffs(img, levels)


def haar_inverse(coeffs):
    """Invert :func:`haar_forward`; round trips are exact to float precision.

    The butterfly reads the quadrants and writes the cells with the middle
    pair swapped (top-left, bottom-left, top-right, bottom-right), so it
    undoes the forward's column step before its row step.  Without the swap
    the result would differ only in rounding.
    """
    if not isinstance(coeffs, WaveletCoeffs):
        raise ValueError("haar_inverse expects WaveletCoeffs")
    out = np.array(coeffs.data, dtype=np.complex128, copy=True)
    for level in reversed(range(coeffs.levels)):
        h = out.shape[0] >> (level + 1)
        blk = out[: 2 * h, : 2 * h]
        quads = blk[:h, :h], blk[h:, :h], blk[:h, h:], blk[h:, h:]
        blk[0::2, 0::2], blk[1::2, 0::2], blk[0::2, 1::2], blk[1::2, 1::2] = _butterfly(*quads)
    return out


def l1_norm(x):
    """Sum of complex moduli of an array or of WaveletCoeffs."""
    data = x.data if isinstance(x, WaveletCoeffs) else np.asarray(x)
    return float(np.abs(data).sum())
