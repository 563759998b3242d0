"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (direct summation,
explicit loops, threshold scanning) so it shares no code path or algebraic
shortcut with the library.  The per-line shift estimator is the joint
(b_x, b_y) grid search with coordinate ascent that the package used before
it solved b_y in closed form.  The Haar level loops built from
``np.concatenate`` and per-level scratch arrays are the ones the package used
before both directions shared one 2x2 butterfly; its output must stay equal
to theirs bit for bit.  The same holds for the centered DFT built from
``np.roll`` shifts around the FFT, which the package used before it moved
both origins with checkerboard sign flips.  The l1-ball threshold found by
sorting every modulus is the one the package used before it switched to
Michelot's algorithm.  P2 in the dft2/idft2 form, with all four
checkerboard flips and fresh arrays, is the one the package used before it
ran on a per-solve workspace holding the flipped observation; its output
must stay equal to the workspace form's bit for bit.  The phantom renderer
that evaluates every ellipse on the full grid is the one the package used
before it evaluated each ellipse on its bounding box only; the two must
agree bit for bit.
"""

import numpy as np

import sraar as S
# the search grid defines the estimator rather than implementing it, so the
# reference walks the same grid points
from sraar.projections import _GRID_STEP, _axis_points, _estimate_lines

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def direct_centered_dft2(img):
    """Centered unitary DFT by direct summation with explicit phase matrices.

    out[i, j] = (1/N) * sum_{r,c} img[r, c]
                * exp(-2j*pi*((i-N/2)*(r-N/2) + (j-N/2)*(c-N/2)) / N)
    """
    img = np.asarray(img, dtype=complex)
    n = img.shape[0]
    idx = np.arange(n) - n // 2
    phase = np.exp(-2j * np.pi * np.outer(idx, idx) / n)
    return phase @ img @ phase.T / n


def roll_dft2(img):
    """Centered unitary DFT with both origin moves done by fftshift / ifftshift."""
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(np.asarray(img, dtype=complex)), norm="ortho"))


def roll_idft2(ksp):
    """Inverse of :func:`roll_dft2`, shifted the same way."""
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(np.asarray(ksp, dtype=complex)), norm="ortho"))


def direct_translation(ksp, traj):
    """Per-line translation with one complex exponential per k-space sample:
    ksp * exp(-2i*pi*(k_x*dx[r] + k_y[r]*dy[r]))."""
    k = S.FrequencyGrid(ksp.shape[0]).coords
    ramp = traj.dx[:, None] * k[None, :] + (traj.dy * k)[:, None]
    return ksp * np.exp(-2j * np.pi * ramp)


def dft2_form_project_fourier(m, observed, bounds):
    """P2 through the public dft2 and idft2, each on a fresh array, with
    the observation multiplied by invert_translation's ramps; the line
    estimator is the package's.  Returns (image, trajectory, scores).

    The ramps are taken as invert_translation of ones, which is exact, and
    multiplied in P2's order, observed * ramps: invert_translation
    multiplies ramps * ksp, and with fused multiply-adds the two orders
    round the imaginary parts apart."""
    observed = np.asarray(observed, dtype=complex)
    abs_observed = np.abs(observed)
    model = S.dft2(m)
    q = observed * np.conj(model, out=model)
    mod = np.abs(model)
    q *= np.divide(abs_observed, mod, out=np.zeros_like(mod), where=mod > 0)
    shifts, scores = _estimate_lines(q, S.FrequencyGrid(observed.shape[0]).coords, bounds, _GRID_STEP)
    energy = np.sum(abs_observed**2, axis=1)
    if energy.sum() > 0:
        shifts -= (energy @ shifts) / energy.sum()
    limits = np.array([bounds.max_abs_x, bounds.max_abs_y])
    traj = S.MotionTrajectory(np.clip(shifts, -limits, limits))
    ramps = S.invert_translation(np.ones_like(observed), traj)
    return S.idft2(observed * ramps), traj, scores


def loop_haar_forward(img, levels):
    """Level-by-level 2-D Haar decomposition with explicit pair loops."""
    out = np.array(img, dtype=complex)
    size = out.shape[0]
    root2 = np.sqrt(2.0)
    for _ in range(levels):
        block = out[:size, :size].copy()
        half = size // 2
        rows = np.zeros_like(block)
        for r in range(size):
            for c in range(half):
                rows[r, c] = (block[r, 2 * c] + block[r, 2 * c + 1]) / root2
                rows[r, half + c] = (block[r, 2 * c] - block[r, 2 * c + 1]) / root2
        cols = np.zeros_like(block)
        for c in range(size):
            for r in range(half):
                cols[r, c] = (rows[2 * r, c] + rows[2 * r + 1, c]) / root2
                cols[half + r, c] = (rows[2 * r, c] - rows[2 * r + 1, c]) / root2
        out[:size, :size] = cols
        size = half
    return out


def concat_haar_forward(img, levels):
    """Haar decomposition, rows then columns, each level joined with np.concatenate."""
    img = np.array(img, dtype=complex)
    size = img.shape[0]
    for _ in range(levels):
        block = img[:size, :size]
        lo = (block[:, 0::2] + block[:, 1::2]) * _INV_SQRT2
        hi = (block[:, 0::2] - block[:, 1::2]) * _INV_SQRT2
        block = np.concatenate((lo, hi), axis=1)
        lo = (block[0::2, :] + block[1::2, :]) * _INV_SQRT2
        hi = (block[0::2, :] - block[1::2, :]) * _INV_SQRT2
        img[:size, :size] = np.concatenate((lo, hi), axis=0)
        size //= 2
    return img


def scratch_haar_inverse(data, levels):
    """Inverse of :func:`concat_haar_forward`, columns then rows, through
    per-level scratch arrays."""
    out = np.array(data, dtype=complex)
    size = out.shape[0] >> (levels - 1)
    for _ in range(levels):
        block = out[:size, :size]
        half = size // 2
        lo, hi = block[:half, :], block[half:, :]
        step = np.empty_like(block)
        step[0::2, :] = (lo + hi) * _INV_SQRT2
        step[1::2, :] = (lo - hi) * _INV_SQRT2
        lo, hi = step[:, :half], step[:, half:]
        block = np.empty_like(step)
        block[:, 0::2] = (lo + hi) * _INV_SQRT2
        block[:, 1::2] = (lo - hi) * _INV_SQRT2
        out[:size, :size] = block
        size *= 2
    return out


def scan_l1_projection(values, c, n_scan=4001, bisections=80):
    """Project a complex vector onto the l1 ball of radius c by scanning the
    soft-shrink threshold and bisecting the bracket to high resolution."""
    values = np.asarray(values, dtype=complex).ravel()
    mod = np.abs(values)
    if mod.sum() <= c:
        return values.copy()
    if c == 0:
        return np.zeros_like(values)

    def shrunk_sum(tau):
        return np.maximum(mod - tau, 0.0).sum()

    taus = np.linspace(0.0, mod.max(), n_scan)
    sums = np.array([shrunk_sum(t) for t in taus])
    first_inside = int(np.argmax(sums <= c))
    lo, hi = taus[first_inside - 1], taus[first_inside]
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        if shrunk_sum(mid) > c:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    scale = np.where(mod > 0, np.maximum(mod - tau, 0.0) / np.where(mod > 0, mod, 1.0), 0.0)
    return values * scale


def sort_scan_l1_threshold(moduli, c):
    """Shrink threshold tau with sum(max(moduli - tau, 0)) == c, by sorting.

    The construction the package used before Michelot's algorithm: the
    largest rho whose sorted modulus exceeds (its prefix sum - c) / rho
    fixes tau.  Assumes 0 < c < moduli.sum(); when rounding loses c
    against the largest modulus no index passes, and the first is the limit.
    """
    s = np.sort(moduli)[::-1]
    cumulative = np.cumsum(s)
    k = np.arange(1, s.size + 1)
    passing = np.nonzero(s > (cumulative - c) / k)[0]
    rho = passing[-1] if passing.size else 0
    return (cumulative[rho] - c) / (rho + 1.0)


def loop_rmse_metrics(x, gt):
    """Relative RMSE and PSNR of moduli via explicit accumulation loops."""
    x = np.asarray(x)
    gt = np.asarray(gt)
    sq_err = 0.0
    sq_ref = 0.0
    peak = 0.0
    for r in range(gt.shape[0]):
        for c in range(gt.shape[1]):
            ref = abs(gt[r, c])
            diff = abs(x[r, c]) - ref
            sq_err += diff * diff
            sq_ref += ref * ref
            peak = max(peak, ref)
    rmse_rel = np.sqrt(sq_err) / np.sqrt(sq_ref)
    if sq_err == 0.0:
        return rmse_rel, float("inf")
    rmse_abs = np.sqrt(sq_err / gt.size)
    return rmse_rel, 20.0 * np.log10(peak / rmse_abs)


def full_grid_render_ellipses(n, ellipses):
    """Ellipse phantom with every ellipse evaluated on the full n-by-n grid."""
    x = (np.arange(n) - n // 2) / (n // 2)
    y = (n // 2 - np.arange(n)) / (n // 2)
    xx, yy = np.meshgrid(x, y)
    img = np.zeros((n, n))
    for amp, a, b, x0, y0, phi_deg in np.asarray(ellipses, dtype=np.float64):
        phi = np.deg2rad(phi_deg)
        u = (xx - x0) * np.cos(phi) + (yy - y0) * np.sin(phi)
        v = (yy - y0) * np.cos(phi) - (xx - x0) * np.sin(phi)
        img[(u / a) ** 2 + (v / b) ** 2 <= 1.0] += amp
    return img.astype(np.complex128)


def point_in_ellipse(x, y, a, b, x0, y0, phi_deg):
    """Membership test used to recompute phantom samples independently."""
    phi = np.deg2rad(phi_deg)
    u = (x - x0) * np.cos(phi) + (y - y0) * np.sin(phi)
    v = (y - y0) * np.cos(phi) - (x - x0) * np.sin(phi)
    return (u / a) ** 2 + (v / b) ** 2 <= 1.0


def _parabola(x0, h, f_minus, f_zero, f_plus):
    """Vertex of the parabola through three equispaced samples around a max."""
    denom = f_minus - 2.0 * f_zero + f_plus
    if not denom < 0.0:
        return x0
    delta = 0.5 * h * (f_minus - f_plus) / denom
    return x0 + float(np.clip(delta, -h, h))


def _estimate_core(q, coords, k_y, bounds, step, x_pts, x_inner, basis):
    """Shift estimate for one line from q = observed * conj(reference).

    The objective is the matched-filter correlation
    J(b) = Re sum_c q(c) exp(+2i*pi*(coords(c)*b_x + k_y*b_y)),
    maximal when the candidate translation re-aligns the observation with
    the reference.  b_y only enters through a line-constant phase, so it is
    searched within the principal alias window min(bound, 1/(2|k_y|)); on
    the DC line it is unidentifiable and fixed to 0 while b_x maximizes
    |J|.  After the joint coarse search two rounds of coordinate ascent
    re-maximize each axis on its full grid at the other axis's current
    estimate and refine by quadratic interpolation; re-running the argmax
    matters for small |k_y|, where a subpixel b_x misalignment tilts the
    b_y profile by whole grid cells, and the second round removes most of
    the residual cross-axis bias.
    """
    denom = float(np.abs(q).sum())
    if denom == 0.0:
        return 0.0, 0.0, 0.0
    s_grid = q @ basis
    if k_y == 0.0:
        mag = np.abs(s_grid)
        i = int(np.argmax(np.where(x_inner, mag, -np.inf)))
        bx = _parabola(x_pts[i], step, mag[i - 1], mag[i], mag[i + 1])
        bx = float(np.clip(bx, -bounds.max_abs_x, bounds.max_abs_x))
        s_exact = q @ np.exp(2j * np.pi * coords * bx)
        return bx, 0.0, float(np.clip(np.abs(s_exact) / denom, 0.0, 1.0))
    window = min(bounds.max_abs_y, 0.5 / abs(k_y))
    y_pts, y_inner = _axis_points(window, step)
    j_grid = (s_grid[:, None] * np.exp(2j * np.pi * k_y * y_pts)[None, :]).real
    masked = np.where(x_inner[:, None] & y_inner[None, :], j_grid, -np.inf)
    i, j = np.unravel_index(int(np.argmax(masked)), j_grid.shape)
    by = _parabola(y_pts[j], step, j_grid[i, j - 1], j_grid[i, j], j_grid[i, j + 1])
    by = float(np.clip(by, -window, window))
    for _ in range(2):
        f_x = (s_grid * np.exp(2j * np.pi * k_y * by)).real
        i = int(np.argmax(np.where(x_inner, f_x, -np.inf)))
        bx = _parabola(x_pts[i], step, f_x[i - 1], f_x[i], f_x[i + 1])
        bx = float(np.clip(bx, -bounds.max_abs_x, bounds.max_abs_x))
        s_exact = q @ np.exp(2j * np.pi * coords * bx)
        f_y = (s_exact * np.exp(2j * np.pi * k_y * y_pts)).real
        j = int(np.argmax(np.where(y_inner, f_y, -np.inf)))
        by = _parabola(y_pts[j], step, f_y[j - 1], f_y[j], f_y[j + 1])
        by = float(np.clip(by, -window, window))
    score = (s_exact * np.exp(2j * np.pi * k_y * by)).real / denom
    return bx, by, float(np.clip(score, 0.0, 1.0))


def loop_estimate_lines(q, k_y, bounds, step):
    """Matched-filter shift estimates, one line at a time through
    :func:`_estimate_core`; returns (rows, 2) shifts and the rows' scores."""
    q = np.asarray(q, dtype=complex)
    coords = S.FrequencyGrid(q.shape[1]).coords
    x_pts, x_inner = _axis_points(bounds.max_abs_x, step)
    basis = np.exp(2j * np.pi * np.outer(coords, x_pts))
    out = [_estimate_core(q[r], coords, float(k_y[r]), bounds, step, x_pts, x_inner, basis)
           for r in range(q.shape[0])]
    est = np.array(out, dtype=float).reshape(-1, 3)
    return est[:, :2], est[:, 2]
