"""Determinant-based eigenvalue counting on disks.

The entire function of interest is

    f(lam) = det(I - lam K + lam^2 A^{-1}),   K = A^{-1/2} B A^{-1/2},

whose zeros are exactly the pencil roots and which satisfies f(0) = 1.
The matrix vanishes off the symmetry blocks of the whitened system, so f is
a product of one determinant per block b, of I - lam K_b + lam^2 diag(mu_b)
with K_b from the stored block of B_w (``WhitenedSystem.k_block``); no N x N
matrix is formed.  The blocks are those of the stabilizer of V
(``assembly.Symmetry``); a twin's matrix equals its source's, and its
determinant is factored once.  Because f grows like |lam|^(2N), every
magnitude here is carried in log scale.  Winding numbers
come from unwrapped contour phases, the disk-count bound from the standard
contour-maximum inequality

    N(R/2) <= (max_{|lam|=R} log|f| - log|f(0)|) / log 2
           <= sum_b max_{|lam|=R} log|f_b| / log 2,

and the growth profile fits log N(R) against log R over the radii the
discretization actually resolves.

Automatic radii sit in gaps of the computed spectrum (``auto_radii``), so
they need no adjustment; a given radius too close to the spectrum fails, and
one so large that its contour matrices overflow is refused.
Since f = prod_b f_b, the winding of f is the sum of the windings of the
f_b, and the phase of f_b turns only with the roots of block b.  So each
block winds on its own contour grid, sized from its own computed roots by
the phase-speed rule of Ying & Katz (Numer. Math. 53 (1988) 143) alone
(``_grid_size``); a twin adds its source's winding and maximum.  f_b is
still evaluated by determinants, on the upper half circle since
f_b(conj z) = conj f_b(z), so a zero the spectrum missed shows in the
winding or in a refused phase step of pi/2.  max log|f_b| is taken over the
grid points, theta = 0 and pi always among them.  One call evaluates a
whole grid: the block is factored for a stack of grid points per LU call, a
stack holding at most ``_DET_STACK_BYTES`` of matrices, so small blocks
share the per-call overhead and a large block still goes one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import densela
from .assembly import WhitenedSystem
from .companion import block_eigenvalues, build_companion
from .errors import ContourNearZero, InsufficientResolvedRange, PhaseUnresolved, RangeExceeded
from .util import unit_scale, wrap_angle

_MIN_CONTOUR_POINTS = 16
_MAX_CONTOUR_POINTS = 8192
_PROBE_BLOCK = 128  # probe angles per block: bounds the transient memory
_DET_STACK_BYTES = 1 << 20  # matrix bytes per LU call: bounds the transient memory
_PHASE_STEP_LIMIT = 0.5 * np.pi
_SPECTRUM_CLEARANCE = 0.01
_AUTO_RADII = 5  # log-spaced target counts of ``auto_radii``


@dataclass(frozen=True)
class CountReport:
    """Counting diagnostics over a list of radii plus the growth fit.

    The ``block_`` fields and ``grid_sizes`` hold one row per radius and one
    column per symmetry block, in ``WhitenedSystem.blocks`` order, a twin's
    column repeating its source's; ``windings`` and ``cross_counts`` are
    the row sums of the ``block_`` fields.
    """

    radii: np.ndarray
    grid_sizes: np.ndarray  # points on each block's full circle
    max_phase_steps: np.ndarray  # largest measured phase step of each block, rad
    windings: np.ndarray
    block_windings: np.ndarray
    jensen_bounds: np.ndarray  # bound on the count in the half-radius disk
    cross_counts: np.ndarray  # computed eigenvalues inside each radius
    block_cross_counts: np.ndarray
    growth_exponent: float
    resolved: np.ndarray  # mask of radii inside the counting window


def fredholm_det(wh: WhitenedSystem, lam, block: Optional[int] = None) -> densela.LogDet:
    """Log-scale determinant of I - lam K + lam^2 A^{-1}, at one lam or an array.

    The matrix vanishes off the symmetry blocks, so f is the product of one
    determinant f_b per block: log-magnitudes add, arguments add modulo
    2 pi; a twin block adds its source's again.  ``block`` = b gives f_b
    alone.  Each block is factored for a stack of points per LU call, at
    most ``_DET_STACK_BYTES`` of matrices; an array ``lam`` gives fields of
    its shape, a scalar gives floats.
    """
    lam = np.asarray(lam, dtype=complex)
    z = lam.reshape(-1, 1, 1)
    # lam^2 from its parts, each product rounded once: numpy's vector complex
    # multiply may fuse them, which moves the last bit depending on the CPU
    z2 = (z.real**2 - z.imag**2) + 2j * (z.real * z.imag)

    def block_det(b: int) -> tuple[np.ndarray, np.ndarray]:
        neg_k, mu = (-wh.k_block(b)).astype(complex), wh.mu[wh.blocks[b]]
        diag = np.arange(mu.size)
        step = max(1, _DET_STACK_BYTES // max(16 * mu.size**2, 1))
        log_abs, arg = np.empty(z.shape[0]), np.empty(z.shape[0])
        for part in (slice(i, i + step) for i in range(0, z.shape[0], step)):
            # one pass over the stack, then the diagonal: 1 + (-x) rounds as 1 - x
            stack = z[part] * neg_k
            stack[:, diag, diag] += 1.0
            stack[:, diag, diag] += z2[part, 0] * mu
            det = densela.complex_det(stack)
            log_abs[part], arg[part] = det.log_abs, det.arg
        return log_abs, arg

    dets = wh.per_block(block_det) if block is None else [block_det(block)]
    log_abs = sum((d[0] for d in dets), np.zeros(z.shape[0])).reshape(lam.shape)
    arg = wrap_angle(sum((d[1] for d in dets), np.zeros(z.shape[0])).reshape(lam.shape))
    return densela.LogDet(float(log_abs) if lam.ndim == 0 else log_abs, arg)


def _grid_size(radius: float, spectrum: np.ndarray) -> int:
    """Contour points on |lam| = radius, from the phase speed the spectrum predicts.

    On z = R e^{i theta} the phase of prod(z - lam_i) turns at
    g(theta) = sum_i Re(z / (z - lam_i)).  g is probed at an angular spacing
    of at most gap/4, gap = min_i |R - |lam_i|| / R, and the grid is the
    smallest multiple of 8 (theta = 0 and pi on the grid, conjugate-symmetric)
    holding 8 max|g| points, at least 16, so every predicted step is <= pi/4.
    No larger floor is needed to catch a zero the spectrum missed: it adds
    less than pi to any single step, so the measured step either stays below
    pi/2, and the winding counts the zero, or reaches pi/2 (or wraps, landing
    above 3 pi/4) and is refused.  This holds at any grid size.

    Raises:
        ContourNearZero: 8/gap or the grid exceeds 8192 points.
    """
    gap = np.min(np.abs(radius - np.abs(spectrum)), initial=np.inf) / radius
    if gap * _MAX_CONTOUR_POINTS < 8.0:  # 8/gap above the largest grid
        raise ContourNearZero(f"|lam| = {radius:g} is {gap:.1e} (relative) from the spectrum")
    probes = int(np.ceil(8.0 * np.pi / gap))
    theta = 2.0 * np.pi * np.arange(probes) / probes
    peak = 0.0
    for start in range(0, probes, _PROBE_BLOCK):
        z = radius * np.exp(1j * theta[start : start + _PROBE_BLOCK])[:, None]
        speed = np.sum((z / (z - spectrum[None, :])).real, axis=1)
        peak = max(peak, float(np.max(np.abs(speed))))
    points = 8 * int(np.ceil(max(_MIN_CONTOUR_POINTS, 8.0 * peak) / 8.0))
    if points > _MAX_CONTOUR_POINTS:
        raise ContourNearZero(f"|lam| = {radius:g} needs {points} contour points")
    return points


def _check_radius(wh: WhitenedSystem, radius: float) -> None:
    """Refuse (``RangeExceeded``) a radius R whose contour matrices could overflow.

    The entries of I - lam K + lam^2 diag(mu) on |lam| = R are at most
    1 + R max mu (max|B_w| + R), and the LU may grow them N-fold.
    """
    radius = float(radius)  # a Python float overflows to inf without a warning
    if radius <= 0:
        raise ValueError("radius must be positive")
    b = max(float(np.max(np.abs(bb), initial=0.0)) for bb in wh.b)
    if not (1.0 + radius * float(np.max(wh.mu)) * (b + radius)) * wh.size < np.finfo(float).max:
        raise RangeExceeded(f"|lam| = {radius:g} is too large: its contour matrices overflow")


def _contour_scan(
    wh: WhitenedSystem, radius: float, spectra: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per block: max log|f_b|, winding, grid size and largest |phase step| on |lam| = radius.

    The phase of f_b turns only with the roots of block b, so each block's
    grid is sized from its own roots ``spectra[b]``; a twin reuses its
    source's scan.  Every grid is sized before any determinant.

    Raises:
        RangeExceeded: the contour matrices overflow (``_check_radius``).
        ContourNearZero: the contour is too close to a block's computed roots.
        PhaseUnresolved: a measured phase step of some f_b reaches pi/2.
    """
    _check_radius(wh, radius)
    grids = wh.per_block(lambda b: _grid_size(radius, spectra[b]))

    def scan(b: int) -> tuple[float, int, float]:
        points = grids[b]
        # f_b(conj z) = conj f_b(z): evaluate theta in [0, pi], mirror the arguments
        det = fredholm_det(wh, radius * np.exp(2j * np.pi * np.arange(points // 2 + 1) / points), block=b)
        args = np.concatenate([det.arg, -det.arg[-2:0:-1]])
        steps = wrap_angle(np.diff(args, append=args[:1]))
        worst = float(np.max(np.abs(steps)))
        if worst >= _PHASE_STEP_LIMIT:
            raise PhaseUnresolved(
                f"phase step {worst:.3f} rad reaches pi/2 on {points} points of "
                f"|lam| = {radius:g} in block {b}: the computed spectrum misses a zero near it"
            )
        return float(np.max(det.log_abs)), int(round(float(np.sum(steps)) / (2.0 * np.pi))), worst

    max_logs, windings, worst = zip(*wh.per_block(scan))
    return np.array(max_logs), np.array(windings), np.array(grids), np.array(worst)


def winding_count(wh: WhitenedSystem, radius: float) -> int:
    """Zeros of the determinant inside |lam| < radius via the argument principle, summed over the blocks."""
    return int(np.sum(_contour_scan(wh, radius, block_eigenvalues(build_companion(wh)))[1]))


def jensen_bound(wh: WhitenedSystem, radius: float) -> float:
    """Contour-maximum bound on the zero count in the half-radius disk: sum_b max log|f_b| / log 2."""
    return float(np.sum(_contour_scan(wh, radius, block_eigenvalues(build_companion(wh)))[0])) / np.log(2.0)


def _window_top(size: float) -> float:
    """Top N/2 of the counting window [3, N/2] of a size-N discretization; empty below N = 6."""
    top = size / 2.0
    if top < 3:
        msg = f"too few eigenvalues for the counting window [3, N/2]: {2 * size:g} eigenvalues, so N/2 = {top:g}"
        raise InsufficientResolvedRange(msg)
    return top


def auto_radii(spectrum: np.ndarray) -> list[float]:
    """Contour radii in gaps of the spectrum, at counts in the window [3, N/2].

    Over sorted moduli m, r_i = sqrt(m[i-1] m[i]) encloses i of them and is
    usable when it clears m[i-1] by over 1% of itself.  Each of
    ``_AUTO_RADII`` log-spaced target counts takes the widest usable gap
    within 10% of it, else the usable gap nearest in log count.

    Raises:
        InsufficientResolvedRange: the window holds no count, or no usable gap.
    """
    moduli = np.sort(np.abs(spectrum))
    top = _window_top(moduli.size / 2.0)  # 2N eigenvalues for a matrix of size N
    counts = np.arange(3, min(int(top), moduli.size - 1) + 1)
    clearance = 1.0 - np.sqrt(moduli[counts - 1] / moduli[counts])
    usable = clearance > _SPECTRUM_CLEARANCE
    counts, clearance = counts[usable], clearance[usable]
    if counts.size == 0:
        raise InsufficientResolvedRange(f"no usable gap of the spectrum at counts in [3, {top:g}]")
    picks = set()
    for target in np.geomspace(3.0, top, _AUTO_RADII):
        near = np.flatnonzero(np.abs(counts - target) <= 0.1 * target)
        nearest = np.argmin(np.abs(np.log(counts / target)))
        picks.add(int(near[np.argmax(clearance[near])] if near.size else nearest))
    top, scale = counts[sorted(picks)], unit_scale(moduli, ())  # exact: no product of scaled moduli underflows
    return [float(r) for r in np.sqrt((moduli[top - 1] * scale[top]) * (moduli[top] * scale[top])) / scale[top]]


def growth_profile(
    wh: WhitenedSystem,
    radii: Sequence[float],
    spectra: Optional[Sequence[np.ndarray]] = None,
) -> CountReport:
    """Count zeros on a list of ascending radii and fit the growth law.

    ``spectra`` holds the computed roots of each block
    (``companion.block_eigenvalues``, solved here when absent); they size
    the contour grids and give the cross counts.  The least-squares slope
    of log N(R) against log R uses only radii whose count lies in [3, N/2],
    the window a size-N discretization resolves.

    Raises:
        RangeExceeded: the largest radius overflows the contour matrices.
        InsufficientResolvedRange: the window is empty, or fewer than 3 radii fall in it.
    """
    radii = np.asarray(list(radii), dtype=float)
    if radii.size < 1 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be ascending and nonempty")
    _check_radius(wh, radii[-1])  # the largest, before any determinant
    window_hi = _window_top(wh.size)
    spectra = block_eigenvalues(build_companion(wh)) if spectra is None else [np.asarray(s) for s in spectra]
    if len(spectra) != len(wh.blocks):
        raise ValueError(f"{len(spectra)} spectra for {len(wh.blocks)} blocks")

    scans = [_contour_scan(wh, float(r), spectra) for r in radii]
    max_logs, block_windings, grids, steps = (np.array(column) for column in zip(*scans))
    block_cross = np.array([[int(np.sum(np.abs(s) < r)) for s in spectra] for r in radii])
    windings = block_windings.sum(axis=1)

    resolved = (windings >= 3) & (windings <= window_hi)
    if int(np.count_nonzero(resolved)) < 3:
        raise InsufficientResolvedRange(
            f"only {int(np.count_nonzero(resolved))} radii have counts in "
            f"[3, {window_hi:g}]"
        )
    slope, _ = np.polyfit(np.log(radii[resolved]), np.log(windings[resolved]), 1)

    return CountReport(
        radii=radii,
        grid_sizes=grids,
        max_phase_steps=steps,
        windings=windings,
        block_windings=block_windings,
        jensen_bounds=max_logs.sum(axis=1) / np.log(2.0),
        cross_counts=block_cross.sum(axis=1),
        block_cross_counts=block_cross,
        growth_exponent=float(slope),
        resolved=resolved,
    )
