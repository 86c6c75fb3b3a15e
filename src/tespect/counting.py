"""Determinant-based eigenvalue counting on disks.

The entire function of interest is

    f(lam) = det(I - lam K + lam^2 A^{-1}),   K = A^{-1/2} B A^{-1/2},

whose zeros are exactly the pencil roots and which satisfies f(0) = 1.
Because f grows like |lam|^(2N), every magnitude here is carried in log
scale.  Winding numbers come from unwrapped contour phases, the disk-count
bound from the standard contour-maximum inequality

    N(R/2) <= (max_{|lam|=R} log|f| - log|f(0)|) / log 2,

and the growth profile fits log N(R) against log R over the radii the
discretization actually resolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import densela
from .assembly import WhitenedSystem
from .companion import build_companion, extract_spectrum
from .errors import ContourNearZero, InsufficientResolvedRange, PhaseUnresolved
from .util import wrap_angle

DEFAULT_CONTOUR_POINTS = 512
_MIN_CONTOUR_POINTS = 256
_DET_FLOOR_LOG = np.log(1e-10)
_MAX_GRID_DOUBLINGS = 4
_PHASE_STEP_LIMIT = 0.5 * np.pi
_SPECTRUM_CLEARANCE = 0.01
GROWTH_CEILING = 2.0


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
    growth_ceiling: float
    resolved: np.ndarray  # mask of radii inside the counting window


def fredholm_det(wh: WhitenedSystem, lam: complex) -> densela.LogDet:
    """Log-scale determinant of I - lam K + lam^2 A^{-1}; exact one at zero."""
    if lam == 0:
        return densela.LogDet(0.0, 0.0)
    n = wh.size
    mat = np.eye(n, dtype=complex) - lam * wh.comp_block + lam**2 * wh.inv_a
    return densela.complex_det(mat)


def _contour(wh, radius, points):
    theta = 2.0 * np.pi * np.arange(points) / points
    lams = radius * np.exp(1j * theta)
    dets = [fredholm_det(wh, z) for z in lams]
    log_abs = np.array([d.log_abs for d in dets])
    args = np.array([d.arg for d in dets])
    return log_abs, args


def _contour_scan(
    wh: WhitenedSystem, radius: float, points: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Contour values with automatic grid doubling for phase resolution.

    Raises:
        ContourNearZero: determinant magnitude dips below the floor.
        PhaseUnresolved: adjacent phase steps stay too large after doubling.
    """
    if points < _MIN_CONTOUR_POINTS:
        raise ValueError(f"need at least {_MIN_CONTOUR_POINTS} contour points")
    if radius <= 0:
        raise ValueError("radius must be positive")
    for _ in range(_MAX_GRID_DOUBLINGS + 1):
        log_abs, args = _contour(wh, radius, points)
        if np.min(log_abs) < _DET_FLOOR_LOG:
            raise ContourNearZero(
                f"determinant magnitude {np.exp(np.min(log_abs)):.2e} below floor "
                f"on |lam| = {radius:g}; choose another radius"
            )
        steps = wrap_angle(np.diff(np.concatenate([args, args[:1]])))
        if np.max(np.abs(steps)) < _PHASE_STEP_LIMIT:
            return log_abs, steps, points
        points *= 2
    raise PhaseUnresolved(
        f"phase steps still exceed pi/2 at {points // 2} contour points"
    )


def winding_count(
    wh: WhitenedSystem,
    radius: float,
    points: int = DEFAULT_CONTOUR_POINTS,
) -> int:
    """Zeros of the determinant inside |lam| < radius via the argument principle."""
    _, steps, _ = _contour_scan(wh, radius, points)
    total = float(np.sum(steps)) / (2.0 * np.pi)
    return int(round(total))


def jensen_bound(
    wh: WhitenedSystem,
    radius: float,
    points: int = DEFAULT_CONTOUR_POINTS,
) -> float:
    """Contour-maximum bound on the zero count in the half-radius disk."""
    log_abs, _, _ = _contour_scan(wh, radius, points)
    return float(np.max(log_abs) / np.log(2.0))


def nudge_radius(radius: float, lam_moduli: np.ndarray, clearance: float = _SPECTRUM_CLEARANCE) -> float:
    """Push a radius outward until it clears the spectrum by the given margin."""
    r = float(radius)
    if lam_moduli.size == 0:
        return r
    for _ in range(256):
        if np.min(np.abs(lam_moduli - r)) / r > clearance:
            return r
        r *= 1.0 + 2.5 * clearance
    return r


def growth_profile(
    wh: WhitenedSystem,
    radii: Sequence[float],
    points: int = DEFAULT_CONTOUR_POINTS,
    spectrum: Optional[np.ndarray] = None,
) -> CountReport:
    """Count zeros on a list of ascending radii and fit the growth law.

    The least-squares slope of log N(R) against log R uses only radii whose
    count lies in [3, N/2], the window a size-N discretization resolves; the
    theoretical ceiling of two is reported alongside.

    Raises:
        InsufficientResolvedRange: fewer than 3 radii fall in the window.
    """
    radii = np.asarray(list(radii), dtype=float)
    if radii.size < 1 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be ascending and nonempty")
    if spectrum is None:
        comp = build_companion(wh)
        spectrum = np.array([t.lam for t in extract_spectrum(comp)])

    windings = []
    jensens = []
    max_logs = []
    grids = []
    for r in radii:
        log_abs, steps, used = _contour_scan(wh, float(r), points)
        windings.append(int(round(float(np.sum(steps)) / (2.0 * np.pi))))
        max_logs.append(float(np.max(log_abs)))
        jensens.append(float(np.max(log_abs) / np.log(2.0)))
        grids.append(used)
    windings = np.array(windings, dtype=int)
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
        grid_sizes=np.array(grids),
        windings=windings,
        jensen_bounds=np.array(jensens),
        max_log_det=np.array(max_logs),
        cross_counts=cross,
        growth_exponent=float(slope),
        growth_ceiling=GROWTH_CEILING,
        resolved=resolved,
    )
