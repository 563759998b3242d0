"""Unitary centered 2-D DFT and the orthonormal multi-level Haar transform.

Both directions of the DFT carry 1/N scaling, so round trips are exact and
inner products are preserved.  The image origin and the DC frequency both
sit at index N/2, matching :class:`sraar.core.FrequencyGrid`.  For even N,
moving an origin from index 0 to N/2 multiplies the other domain by the
checkerboard (-1)^(r+c), so the centered DFT is an FFT between two sign
flips; the flips are exact, and the result equals the
``fftshift(fft2(ifftshift(x)))`` formula value for value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import require_count, require_numeric, require_square_image

__all__ = ["WaveletCoeffs", "dft2", "idft2", "haar_forward", "haar_inverse", "l1_norm"]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _flip_checkerboard(a):
    """Negate, in place, the entries of ``a`` whose row + column is odd."""
    for cells in (a[0::2, 1::2], a[1::2, 0::2]):
        np.negative(cells, out=cells)
    return a


def _unitary(fft, a):
    """Unitary ``fft`` (np.fft.fftn or ifftn) of the writable complex array ``a``, in place."""
    # fftn and ifftn honour out=; numpy's ifft2 drops it
    return fft(a, norm="ortho", out=a)


def _centered(fft, arr):
    """Centered unitary transform of a copy of ``arr``, computed in that copy."""
    return _flip_checkerboard(_unitary(fft, _flip_checkerboard(arr.astype(np.complex128, copy=True))))


def dft2(img):
    """Centered unitary 2-D DFT of a square power-of-two image."""
    return _centered(np.fft.fftn, require_square_image(img, "image"))


def idft2(ksp):
    """Inverse of :func:`dft2`."""
    return _centered(np.fft.ifftn, require_square_image(ksp, "k-space"))


def _check_levels(n, levels):
    depth = int(np.log2(n))
    if levels is None:
        return depth
    levels = require_count(levels, "levels", 1)
    if levels > depth:
        raise ValueError(f"levels must lie in [1, {depth}] for size {n}, got {levels}")
    return levels


def _butterfly(blk, ins, outs, scratch):
    """Orthonormal Haar step on the 2x2 blocks [[a, b], [c, d]] of ``ins``:
    pair (a, b) and (c, d), then pair the two sums and the two differences.
    It is its own inverse.

    The four results go into the four arrays of ``outs``, which tile
    ``blk`` and may overlap the inputs: the pair sums and differences go
    into the first four a-sized blocks of the contiguous complex buffer
    ``scratch`` before the first result is written.
    """
    a, b, c, d = ins
    pairs = scratch.reshape(-1)[: 4 * a.size]
    p, q, r, t = pairs.reshape(4, *a.shape)
    np.add(a, b, out=p)
    np.subtract(a, b, out=q)
    np.add(c, d, out=r)
    np.subtract(c, d, out=t)
    pairs *= _INV_SQRT2
    np.add(p, r, out=outs[0])
    np.add(q, t, out=outs[1])
    np.subtract(p, r, out=outs[2])
    np.subtract(q, t, out=outs[3])
    blk *= _INV_SQRT2


@dataclass(frozen=True)
class WaveletCoeffs:
    """Multi-level 2-D Haar coefficients, stored in-place Mallat layout.

    ``data`` has the same shape as the source image; the approximation of
    the deepest level occupies the top-left block of side N / 2**levels.
    The record owns ``data``, a writable complex128 copy of its input that
    never aliases the caller's array.  :func:`haar_forward` decomposes it in
    place; nothing writes it afterwards, and :func:`haar_inverse` inverts a copy.
    """

    data: np.ndarray
    levels: int

    def __post_init__(self):
        arr = require_square_image(np.array(self.data, dtype=np.complex128, copy=True), "coefficients")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "levels", _check_levels(arr.shape[0], self.levels))


def _forward_levels(a, levels, scratch=None, flipped=False):
    """Haar-decompose the writable complex array ``a`` in place; returns ``a``.

    ``scratch`` is a contiguous complex buffer of ``a``'s size for the
    butterfly's pair sums; a new one is made when it is None.  With
    ``flipped``, ``a`` holds D * x, D = (-1)^(r+c), and the result is W(x):
    level 0 of W(D * x) is level 0 of W(x) with its quadrants in reverse
    order, bit for bit, so level 0 writes them reversed.
    """
    scratch = np.empty_like(a) if scratch is None else scratch
    for level in range(levels):
        h = a.shape[0] >> (level + 1)
        blk = a[: 2 * h, : 2 * h]
        cells = blk[0::2, 0::2], blk[0::2, 1::2], blk[1::2, 0::2], blk[1::2, 1::2]
        quads = blk[:h, :h], blk[:h, h:], blk[h:, :h], blk[h:, h:]
        _butterfly(blk, cells, quads[::-1] if flipped and level == 0 else quads, scratch)
    return a


def _inverse_levels(a, levels, scratch=None, flipped=False, out=None):
    """Undo :func:`_forward_levels` on the array ``a``; returns the image.

    The image goes into ``out``, or into ``a`` when ``out`` is None; ``a``
    keeps its detail quadrants.  The butterfly reads the quadrants and
    writes the cells with the middle pair swapped (top-left, bottom-left,
    top-right, bottom-right), so it undoes the forward's column step before
    its row step.  Without the swap the result would differ only in
    rounding.  With ``flipped`` level 0 reads its quadrants in reverse
    order, and the image is D * x (see :func:`_forward_levels`).
    """
    scratch = np.empty_like(a) if scratch is None else scratch
    out = a if out is None else out
    side = a.shape[0] >> levels
    out[:side, :side] = a[:side, :side]
    for level in reversed(range(levels)):
        h = a.shape[0] >> (level + 1)
        src, blk = a[: 2 * h, : 2 * h], out[: 2 * h, : 2 * h]
        # the approximation is the deeper level's output, in out
        quads = blk[:h, :h], src[h:, :h], src[:h, h:], src[h:, h:]
        cells = blk[0::2, 0::2], blk[1::2, 0::2], blk[0::2, 1::2], blk[1::2, 1::2]
        _butterfly(blk, quads[::-1] if flipped and level == 0 else quads, cells, scratch)
    return out


def haar_forward(img, levels=None):
    """Orthonormal 2-D Haar decomposition.

    Each level applies the pairwise (a+b)/sqrt(2), (a-b)/sqrt(2) transform
    along rows then columns of the current approximation block, halving its
    side.  ``levels=None`` applies the full depth log2(N).  Both directions
    run the same self-inverse 2x2 butterfly on every level.
    """
    coeffs = WaveletCoeffs(require_square_image(img, "image"), levels)
    _forward_levels(coeffs.data, coeffs.levels)
    return coeffs


def haar_inverse(coeffs):
    """Invert :func:`haar_forward`; round trips are exact to float precision."""
    if not isinstance(coeffs, WaveletCoeffs):
        raise ValueError("haar_inverse expects WaveletCoeffs")
    return _inverse_levels(coeffs.data.copy(), coeffs.levels)


def _float_halves(buf):
    """The two halves of the contiguous complex buffer ``buf``'s memory, as
    float64 arrays of its shape."""
    flat = buf.reshape(-1).view(np.float64)
    return flat[: buf.size].reshape(buf.shape), flat[buf.size :].reshape(buf.shape)


def l1_norm(x):
    """Sum of complex moduli of an array or of WaveletCoeffs."""
    return float(np.abs(x.data if isinstance(x, WaveletCoeffs) else require_numeric(x, "x")).sum())
