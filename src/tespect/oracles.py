"""Independent closed-form references for constant-potential problems.

Two matching determinants whose real roots are transmission wavenumbers of
the second-order preset with constant V (contrast eta = sqrt(1 + V)):

* interval: interior waves cos(kx)/sin(kx) against cos(eta k x)/sin(eta k x),
  matched in value and first derivative at both endpoints -- a 4x4
  determinant, row-equilibrated so its magnitude is meaningful as a residual;
* unit disk: per angular mode l, the 2x2 radial matching of J_l(k r) against
  J_l(eta k r) at r = 1, d_l(k) = eta J_l(k) J_l'(eta k) - J_l'(k) J_l(eta k).

Bessel values come from the module's own evaluator, one normalized backward
recurrence over an array of arguments (stable for every x > 0: Gautschi, SIAM
Rev. 9 (1967) 24), so the reference side shares no code with the Galerkin
pipeline it validates.

Roots are located on a dense k-grid, evaluated for all modes in blocks of 2048
points (bounding the memory), then refined for all brackets at once: sign
changes are bisected; even-order zeros, where the determinant only touches
zero (for eta = 2 the interval determinant is 2 (cos k - 1)^2 (cos k + 2), so
the whole 2 pi j family is of this kind), are caught as deep local minima and
refined by ternary search on |F|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateContrast, NoSignChange, RangeExceeded

_L_MAX = 60
_X_MAX = 200.0
_RESIDUAL_TOL = 1e-10
_TANGENT_DETECT = 1e-8
DEFAULT_POINTS_PER_UNIT = 2000
_MIN_CONTRAST = 1e-6
_SCAN_BLOCK = 2048  # grid points per table evaluation


@dataclass(frozen=True)
class OracleRoot:
    """A located root of a reference matching determinant."""

    k: float
    lam: float
    l: Optional[int]  # angular index; None for the interval determinant
    residual: float
    bracket: tuple[float, float]
    kind: str  # "sign-change" | "tangency"


# -- Bessel functions of the first kind ---------------------------------------


def _bessel_rows(lmax: int, x: np.ndarray) -> np.ndarray:
    """J_0..J_lmax at a flat x >= 0 by backward recurrence with even-order sum
    normalization; each column starts and is rescaled on its own."""
    rows = np.zeros((lmax + 1, x.size))
    rows[0, x == 0.0] = 1.0
    pos = x > 0.0
    x = x[pos]
    top = np.maximum(lmax, np.ceil(x))
    starts = np.ceil(top + 18.0 * np.sqrt(top) + 30.0).astype(int)
    starts += starts % 2  # even start keeps the normalization bookkeeping simple
    row = np.zeros((lmax + 1, x.size))
    jp = np.zeros(x.size)  # J_{s+1}
    jc = np.zeros(x.size)  # J_s, zero above the column's start
    norm = np.zeros(x.size)
    for s in range(int(starts.max(initial=0)), 0, -1):
        jc[starts == s] = 1e-30
        jp, jc = jc, (2.0 * s / x) * jc - jp
        if s - 1 <= lmax:
            row[s - 1] = jc
        if (s - 1) % 2 == 0 and s - 1 > 0:
            norm += 2.0 * jc
        big = np.abs(jc) > 1e250
        if big.any():
            jp[big] *= 1e-250
            jc[big] *= 1e-250
            norm[big] *= 1e-250
            row[:, big] *= 1e-250
    norm += jc  # J_0 enters once
    rows[:, pos] = row / norm
    return rows


def bessel_row(lmax: int, x: float | np.ndarray) -> np.ndarray:
    """J_0(x) .. J_lmax(x), shape (lmax + 1,) + shape(x), on the validated range."""
    if lmax < 0 or lmax > _L_MAX:
        raise RangeExceeded(f"order {lmax} outside [0, {_L_MAX}]")
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= _X_MAX)
    if not inside.all():
        raise RangeExceeded(f"argument {x[~inside][0]} outside [0, {_X_MAX}]")
    return _bessel_rows(lmax, x.ravel()).reshape((lmax + 1,) + x.shape)


def _derivative_rows(rows: np.ndarray) -> np.ndarray:
    """J_l' for l < lmax from J_0..J_lmax: (J_{l-1} - J_{l+1}) / 2, J_0' = -J_1."""
    deriv = np.empty_like(rows[:-1])
    deriv[0] = -rows[1]
    deriv[1:] = 0.5 * (rows[:-2] - rows[2:])
    return deriv


def bessel_j(l: int, x: float) -> float:
    """Bessel function of the first kind, integer order."""
    return float(bessel_row(l, x)[l])


def bessel_j_derivative(l: int, x: float) -> float:
    """dJ_l/dx via J_l' = (J_{l-1} - J_{l+1}) / 2, with J_0' = -J_1."""
    return float(_derivative_rows(bessel_row(l + 1, x))[l])


# -- matching determinants ------------------------------------------------------


def interval_matching_matrix(k: float | np.ndarray, eta: float) -> np.ndarray:
    """Endpoint value/derivative matching of the two interior wave families.

    Columns weight cos(kx), sin(kx), cos(eta k x), sin(eta k x); rows enforce
    equality of value and first derivative at x = 0 and x = 1.  Rows are
    scaled to unit norm so the determinant doubles as a residual measure.
    Shape shape(k) + (4, 4).
    """
    k = np.asarray(k, dtype=float)
    ek = eta * k
    c, s, ce, se = np.cos(k), np.sin(k), np.cos(ek), np.sin(ek)
    rows = np.zeros(k.shape + (4, 4))
    rows[..., 0, 0], rows[..., 0, 2] = 1.0, -1.0
    rows[..., 1, 1], rows[..., 1, 3] = k, -ek
    rows[..., 2, 0], rows[..., 2, 1], rows[..., 2, 2], rows[..., 2, 3] = c, s, -ce, -se
    rows[..., 3, 0], rows[..., 3, 1] = -k * s, k * c
    rows[..., 3, 2], rows[..., 3, 3] = ek * se, -ek * ce
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows


def interval_determinant(k: float | np.ndarray, eta: float) -> float | np.ndarray:
    return np.linalg.det(interval_matching_matrix(k, eta))


def _disk_table(k: float | np.ndarray, eta: float, lmax: int) -> np.ndarray:
    """d_l(k) for every l <= lmax, shape (lmax + 1,) + shape(k)."""
    row = bessel_row(lmax + 1, k)
    row_eta = bessel_row(lmax + 1, eta * k)
    return eta * row[:-1] * _derivative_rows(row_eta) - _derivative_rows(row) * row_eta[:-1]


def disk_determinant(k: float | np.ndarray, eta: float, l: int) -> float | np.ndarray:
    return _disk_table(k, eta, l)[l]


# -- root location ---------------------------------------------------------------


def _bisect(fn: Callable, lo, hi):
    """Bisect every bracket [lo, hi] of fn at once; scalars give a scalar."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo = fn(lo)
    active = np.ones(lo.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active &= hi - lo >= np.maximum(1e-13, 8.0 * np.finfo(float).eps * np.abs(mid))
        if not active.any():
            break
        fm = fn(mid)
        left = (flo < 0) != (fm < 0)  # sign change in [lo, mid]; fm == 0 closes the bracket
        hi = np.where(active & (left | (fm == 0.0)), mid, hi)
        lo = np.where(active & (~left | (fm == 0.0)), mid, lo)
        flo = np.where(active & ~left, fm, flo)
    return 0.5 * (lo + hi) if lo.ndim else float(0.5 * (lo + hi))


def _ternary_min(fn: Callable, lo, hi):
    """Minimize |fn| on every bracket [lo, hi] at once; scalars give a scalar."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    active = np.ones(lo.shape, dtype=bool)
    for _ in range(200):
        active &= hi - lo >= np.maximum(1e-13, 8.0 * np.finfo(float).eps * np.abs(lo))
        if not active.any():
            break
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        left = np.abs(fn(m1)) <= np.abs(fn(m2))
        hi = np.where(active & left, m2, hi)
        lo = np.where(active & ~left, m1, lo)
    return 0.5 * (lo + hi) if lo.ndim else float(0.5 * (lo + hi))


def _scan_roots(
    table: Callable[[np.ndarray], np.ndarray],
    k_lo: float,
    k_hi: float,
    points_per_unit: int,
    modes: Sequence[Optional[int]],
) -> list[OracleRoot]:
    """Roots of every row of ``table`` (row i belongs to mode ``modes[i]``)."""
    count = max(int(math.ceil((k_hi - k_lo) * points_per_unit)), 8) + 1
    ks = np.linspace(k_lo, k_hi, count)
    vals = np.empty((len(modes), count))
    for lo in range(0, count, _SCAN_BLOCK):
        vals[:, lo : lo + _SCAN_BLOCK] = table(ks[lo : lo + _SCAN_BLOCK])
    scale = np.maximum(np.median(np.abs(vals), axis=1), 1e-300)

    sign, mags = np.sign(vals), np.abs(vals)
    flips = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
    # even-order zeros: the determinant touches zero without crossing
    centre = mags[:, 1:-1]
    touch = np.nonzero(
        (centre <= mags[:, :-2])
        & (centre <= mags[:, 2:])
        & (centre < _TANGENT_DETECT * scale[:, None])
        & ~(sign[:, :-2] * sign[:, 2:] < 0)  # already handled as a sign change
    )

    roots: list[OracleRoot] = []
    for (row, first), width, kind, refine in (
        (flips, 1, "sign-change", _bisect),
        (touch, 2, "tangency", _ternary_min),
    ):
        lo, hi = ks[first], ks[first + width]

        def at(k: np.ndarray, row: np.ndarray = row) -> np.ndarray:
            return table(k)[row, np.arange(k.size)]

        k_star = refine(at, lo, hi)
        res = np.abs(at(k_star))
        for r, k, rk, a, b in zip(row, k_star, res, lo, hi):
            l, k = modes[r], float(k)
            seen = kind == "tangency" and any(
                q.l == l and abs(q.k - k) < 1e-9 * max(1.0, k) for q in roots
            )
            if rk < _RESIDUAL_TOL and k > 0 and not seen:
                roots.append(OracleRoot(k, k**2, l, float(rk), (float(a), float(b)), kind))
    roots.sort(key=lambda r: (r.k, r.l or 0))
    return roots


def oracle_1d(
    contrast: float,
    k_lo: float,
    k_hi: float,
    points_per_unit: int = DEFAULT_POINTS_PER_UNIT,
    require_roots: bool = False,
) -> list[OracleRoot]:
    """Real transmission wavenumbers on the unit interval for constant V.

    Raises:
        DegenerateContrast: V below 1e-6 (the two wave families coincide).
        NoSignChange: nothing found although the caller demanded roots.
    """
    if contrast < _MIN_CONTRAST:
        raise DegenerateContrast(f"contrast {contrast:g} below {_MIN_CONTRAST:g}")
    if k_lo <= 0 or k_hi <= k_lo:
        raise ValueError("need 0 < k_lo < k_hi")
    eta = math.sqrt(1.0 + contrast)
    roots = _scan_roots(
        lambda k: interval_determinant(k, eta)[None], k_lo, k_hi, points_per_unit, [None]
    )
    if require_roots and not roots:
        raise NoSignChange(f"no roots in ({k_lo:g}, {k_hi:g})")
    return roots


def oracle_disk(
    contrast: float,
    l_max: int,
    k_lo: float,
    k_hi: float,
    points_per_unit: int = DEFAULT_POINTS_PER_UNIT,
) -> list[OracleRoot]:
    """Real transmission wavenumbers on the unit disk, per angular mode.

    Roots are tagged with their mode index l; coincidences across modes are
    retained.  The Bessel evaluator's validated range bounds l_max and
    eta * k_hi.

    Raises:
        RangeExceeded: mode index above 40 or argument beyond the evaluator.
        DegenerateContrast: V below 1e-6.
    """
    if contrast < _MIN_CONTRAST:
        raise DegenerateContrast(f"contrast {contrast:g} below {_MIN_CONTRAST:g}")
    if l_max < 0 or l_max > 40:
        raise RangeExceeded("mode index limit is 40")
    eta = math.sqrt(1.0 + contrast)
    if eta * k_hi > _X_MAX:
        raise RangeExceeded(f"eta * k_hi = {eta * k_hi:g} beyond the Bessel range")
    if k_lo <= 0 or k_hi <= k_lo:
        raise ValueError("need 0 < k_lo < k_hi")
    return _scan_roots(
        lambda k: _disk_table(k, eta, l_max), k_lo, k_hi, points_per_unit, range(l_max + 1)
    )
