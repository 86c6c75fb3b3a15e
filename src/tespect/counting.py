"""Determinant-based eigenvalue counting on disks.

The entire function of interest is

    f(lam) = det(I - lam K + lam^2 A^{-1}),   K = A^{-1/2} B A^{-1/2},

whose zeros are exactly the pencil roots and which satisfies f(0) = 1.
The matrix vanishes off the symmetry blocks of the whitened system, so f is
a product of one determinant per block b, of I - lam K_b + lam^2 diag(mu_b)
with K_b from the stored block of B_w (``WhitenedSystem.k_block``); no N x N
matrix is formed.  For a reflection-invariant V a block is half the size on
the interval and a quarter on the square, and on the square a
swap-invariant V splits two of those quarters into halves again and makes
the other two twins, equal matrices whose determinant is factored once.
Because f grows like
|lam|^(2N), every magnitude here is carried in log scale.  Winding numbers
come from unwrapped contour phases, the disk-count bound from the standard
contour-maximum inequality

    N(R/2) <= (max_{|lam|=R} log|f| - log|f(0)|) / log 2,

and the growth profile fits log N(R) against log R over the radii the
discretization actually resolves.

Automatic radii sit in gaps of the computed spectrum (``auto_radii``), so
they need no adjustment; a given radius too close to the spectrum fails, and
one so large that its contour matrices overflow is refused.
Each contour grid is sized once from the computed spectrum (Ying & Katz,
Numer. Math. 53 (1988) 143); f is still evaluated by determinants, on the
upper half circle since f(conj z) = conj f(z), so a measured phase step of
pi/2 shows a zero the spectrum missed.  One call evaluates a whole grid:
each symmetry block is factored for a stack of grid points per LU call, a
stack holding at most ``_DET_STACK_BYTES`` of matrices, so small blocks
share the per-call overhead and a large block still goes one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import densela
from .assembly import WhitenedSystem
from .companion import build_companion, extract_eigenvalues
from .errors import ContourNearZero, InsufficientResolvedRange, PhaseUnresolved, RangeExceeded
from .util import wrap_angle

_MIN_CONTOUR_POINTS = 256
_MAX_CONTOUR_POINTS = 8192
_PROBE_BLOCK = 128  # probe angles per block: bounds the transient memory
_DET_STACK_BYTES = 1 << 20  # matrix bytes per LU call: bounds the transient memory
_PHASE_STEP_LIMIT = 0.5 * np.pi
_SPECTRUM_CLEARANCE = 0.01
_AUTO_RADII = 5  # log-spaced target counts of ``auto_radii``


@dataclass(frozen=True)
class CountReport:
    """Counting diagnostics over a list of radii plus the growth fit."""

    radii: np.ndarray
    grid_sizes: np.ndarray
    windings: np.ndarray
    jensen_bounds: np.ndarray  # bound on the count in the half-radius disk
    max_log_det: np.ndarray
    cross_counts: np.ndarray  # computed eigenvalues inside each radius
    growth_exponent: float
    resolved: np.ndarray  # mask of radii inside the counting window


def fredholm_det(wh: WhitenedSystem, lam) -> densela.LogDet:
    """Log-scale determinant of I - lam K + lam^2 A^{-1}, at one lam or an array.

    The matrix vanishes off the symmetry blocks, so f is the product of one
    determinant per block: log-magnitudes add, arguments add modulo 2 pi; a
    twin block adds its source's again.  Each block is factored for a stack
    of points per LU call, at most ``_DET_STACK_BYTES`` of matrices; an
    array ``lam`` gives fields of its shape, a scalar gives floats.
    """
    lam = np.asarray(lam, dtype=complex)
    z = lam.reshape(-1, 1, 1)
    # lam^2 from its parts, each product rounded once: numpy's vector complex
    # multiply may fuse them, which moves the last bit depending on the CPU
    z2 = (z.real**2 - z.imag**2) + 2j * (z.real * z.imag)

    def block_det(b: int) -> tuple[np.ndarray, np.ndarray]:
        k, mu = wh.k_block(b), wh.mu[wh.blocks[b]]
        eye, diag = np.eye(mu.size, dtype=complex), np.arange(mu.size)
        step = max(1, _DET_STACK_BYTES // max(eye.nbytes, 1))
        log_abs, arg = np.empty(z.shape[0]), np.empty(z.shape[0])
        for part in (slice(i, i + step) for i in range(0, z.shape[0], step)):
            stack = eye - z[part] * k
            stack[:, diag, diag] += z2[part, 0] * mu
            det = densela.complex_det(stack)
            log_abs[part], arg[part] = det.log_abs, det.arg
        return log_abs, arg

    dets = wh.per_block(block_det)
    log_abs = sum((d[0] for d in dets), np.zeros(z.shape[0])).reshape(lam.shape)
    arg = wrap_angle(sum((d[1] for d in dets), np.zeros(z.shape[0])).reshape(lam.shape))
    return densela.LogDet(float(log_abs) if lam.ndim == 0 else log_abs, arg)


def _grid_size(radius: float, spectrum: np.ndarray) -> int:
    """Contour points on |lam| = radius, from the phase speed the spectrum predicts.

    On z = R e^{i theta} the phase of prod(z - lam_i) turns at
    g(theta) = sum_i Re(z / (z - lam_i)).  g is probed at an angular spacing
    of at most gap/4, gap = min_i |R - |lam_i|| / R, and the grid is the
    smallest multiple of 8 (theta = pi on the grid, conjugate-symmetric)
    holding 256 points and 8 max|g|, so every predicted step is <= pi/4.

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
    wh: WhitenedSystem, radius: float, spectrum: np.ndarray
) -> tuple[float, int, int]:
    """max log|f|, winding and grid size on the grid sized from the spectrum.

    Raises:
        RangeExceeded: the contour matrices overflow (``_check_radius``).
        ContourNearZero: the contour is too close to the computed spectrum.
        PhaseUnresolved: a measured phase step reaches pi/2.
    """
    _check_radius(wh, radius)
    points = _grid_size(radius, spectrum)
    # f(conj z) = conj f(z): evaluate theta in [0, pi], mirror the arguments
    det = fredholm_det(wh, radius * np.exp(2j * np.pi * np.arange(points // 2 + 1) / points))
    args = np.concatenate([det.arg, -det.arg[-2:0:-1]])
    steps = wrap_angle(np.diff(args, append=args[:1]))
    worst = float(np.max(np.abs(steps)))
    if worst >= _PHASE_STEP_LIMIT:
        raise PhaseUnresolved(
            f"phase step {worst:.3f} rad reaches pi/2 on {points} points of "
            f"|lam| = {radius:g}: the computed spectrum misses a zero near it"
        )
    winding = int(round(float(np.sum(steps)) / (2.0 * np.pi)))
    return float(np.max(det.log_abs)), winding, points


def winding_count(wh: WhitenedSystem, radius: float) -> int:
    """Zeros of the determinant inside |lam| < radius via the argument principle."""
    return _contour_scan(wh, radius, extract_eigenvalues(build_companion(wh)))[1]


def jensen_bound(wh: WhitenedSystem, radius: float) -> float:
    """Contour-maximum bound on the zero count in the half-radius disk."""
    return _contour_scan(wh, radius, extract_eigenvalues(build_companion(wh)))[0] / np.log(2.0)


def auto_radii(spectrum: np.ndarray) -> list[float]:
    """Contour radii in gaps of the spectrum, at counts in the window [3, N/2].

    Over sorted moduli m, r_i = sqrt(m[i-1] m[i]) encloses i of them and is
    usable when it clears m[i-1] by over 1% of itself.  Each of
    ``_AUTO_RADII`` log-spaced target counts takes the widest usable gap
    within 10% of it, else the usable gap nearest in log count.

    Raises:
        InsufficientResolvedRange: no usable gap in the window.
    """
    moduli = np.sort(np.abs(spectrum))
    top = moduli.size / 4.0  # N/2 for a matrix of size N
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
    return [float(np.sqrt(moduli[i - 1] * moduli[i])) for i in counts[sorted(picks)]]


def growth_profile(
    wh: WhitenedSystem,
    radii: Sequence[float],
    spectrum: Optional[np.ndarray] = None,
) -> CountReport:
    """Count zeros on a list of ascending radii and fit the growth law.

    The least-squares slope of log N(R) against log R uses only radii whose
    count lies in [3, N/2], the window a size-N discretization resolves.

    Raises:
        RangeExceeded: the largest radius overflows the contour matrices.
        InsufficientResolvedRange: fewer than 3 radii fall in the window.
    """
    radii = np.asarray(list(radii), dtype=float)
    if radii.size < 1 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be ascending and nonempty")
    _check_radius(wh, radii[-1])  # the largest, before any determinant
    spectrum = extract_eigenvalues(build_companion(wh)) if spectrum is None else np.asarray(spectrum)

    scans = [_contour_scan(wh, float(r), spectrum) for r in radii]
    max_logs, windings, grids = (np.array(column) for column in zip(*scans))
    cross = np.array([int(np.sum(np.abs(spectrum) < r)) for r in radii])

    window_hi = wh.size / 2.0
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
        windings=windings,
        jensen_bounds=max_logs / np.log(2.0),
        max_log_det=max_logs,
        cross_counts=cross,
        growth_exponent=float(slope),
        resolved=resolved,
    )
