"""Independent closed-form references for constant-potential problems.

Matching determinants whose real roots are transmission wavenumbers of the
second-order preset with constant V (contrast eta = sqrt(1 + V)):

* interval: interior waves cos(kx)/sin(kx) against cos(eta k x)/sin(eta k x),
  matched in value and first derivative at both endpoints.  The reflection
  x -> 1 - x splits the matching into an even and an odd problem, one row
  each: with s, c = sin, cos(k/2) and S, C = sin, cos(eta k/2),
  e = sC - eta cS and o = cS - eta sC.  The 4x4 determinant is
  F = 2 eta (1 - cos k cos eta k) - (1 + eta^2) sin k sin eta k = -4 e o;
* unit disk: per angular mode l, the 2x2 radial matching of J_l(k r) against
  J_l(eta k r) at r = 1, d_l(k) = eta J_l(k) J_l'(eta k) - J_l'(k) J_l(eta k).

Bessel values come from the module's own evaluator, one normalized backward
recurrence over an array of arguments (stable for every x > 0: Gautschi, SIAM
Rev. 9 (1967) 24), so the reference side shares no code with the Galerkin
pipeline it validates.

Roots are located on a dense k-grid, evaluated for all rows in blocks of 2048
points (bounding the memory); every root is a sign change of some row.  Each
row is an entire function of exponential type tau, bounded by M on the real
line: tau = 1 + eta for the disk rows, where M = 1 + eta as |J_l|, |J_l'| <= 1,
and tau = (1 + eta) / 2 for the interval rows.  So every bracket, of
half-width h, is resolved from one sample: all brackets' rows are evaluated at m
Chebyshev-Lobatto points in a single table call, one solve with the m x m
Chebyshev-Vandermonde matrix gives each bracket's interpolant, and the
interpolants are bisected.  m is the smallest count with
(tau h)^m / (2^(m-2) m!) <= eps, which bounds the interpolation error by
eps * M (Bernstein's inequality |f^(m)| <= M tau^m, and the Lobatto node
polynomial is at most 2^(2-m) on [-1, 1]); m = 6 at the disk's 200 points per
unit for eta = 2.  Every refined root is then checked on the true table: a
candidate whose own row exceeds 1e-10 there is dropped.

Candidates from different rows of one mode in the same or adjacent grid cells
are one root, and the candidate with the smaller max |row| over that mode's
rows (on the true table) is kept.  This fires only where e and o vanish
together, at rational eta (2 pi j at eta = 2, j pi at eta = 3), where F has a
fourfold zero; one factor then always has a simple zero:
e' = (1 - eta^2) cC/2 where s = S = 0, and o' = (eta^2 - 1) sS/2 where
c = C = 0.  Two roots of the same row are never merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateContrast, RangeExceeded

_L_MAX = 60
_X_MAX = 200.0
_RESIDUAL_TOL = 1e-10
DEFAULT_POINTS_PER_UNIT = 2000
MIN_CONTRAST = 1e-6  # below it the matching determinants degenerate
L_MAX_DISK = 40  # highest angular mode of oracle_disk
_SCAN_BLOCK = 2048  # grid points per table evaluation
_SCAN_VALUES = 1 << 25  # rows x grid points one scan may hold (256 MB of doubles)


@dataclass(frozen=True)
class OracleRoot:
    """A located root of a reference matching determinant."""

    k: float
    lam: float
    l: Optional[int]  # angular index; None for the interval determinant
    residual: float
    bracket: tuple[float, float]


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


def interval_parity_determinants(k: float | np.ndarray, eta: float) -> np.ndarray:
    """Even and odd interval matching rows e, o; shape (2,) + shape(k).

    In y = x - 1/2 the even waves cos(k y), cos(eta k y) and the odd waves
    sin(k y), sin(eta k y) are matched in value and derivative at y = 1/2
    (the reflection carries the match to y = -1/2).
    """
    k = np.asarray(k, dtype=float)
    s, c = np.sin(0.5 * k), np.cos(0.5 * k)
    big_s, big_c = np.sin(0.5 * eta * k), np.cos(0.5 * eta * k)
    return np.stack([s * big_c - eta * c * big_s, c * big_s - eta * s * big_c])


def interval_determinant(k: float | np.ndarray, eta: float) -> float | np.ndarray:
    """The 4x4 endpoint matching determinant with unit-norm rows, -2 e o / (1 + eta^2)."""
    e, o = interval_parity_determinants(k, eta)
    return -2.0 * e * o / (1.0 + eta**2)


def _disk_table(k: float | np.ndarray, eta: float, lmax: int) -> np.ndarray:
    """d_l(k) for every l <= lmax, shape (lmax + 1,) + shape(k)."""
    k = np.asarray(k, dtype=float)
    row, row_eta = np.moveaxis(bessel_row(lmax + 1, np.stack([k, eta * k])), 1, 0)
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


def _proxy_points(tau: float, h: float) -> int:
    """Chebyshev-Lobatto samples m for a bracket of half-width h of a row of
    exponential type tau: the smallest m >= 2 with (tau h)^m / (2^(m-2) m!) <= eps,
    the interpolation error bound relative to the row's bound on the real line."""
    m = 2
    while (tau * h) ** m / (2.0 ** (m - 2) * math.factorial(m)) > np.finfo(float).eps:
        m += 1
    return m


def _chebyshev_sum(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n coef[n] T_n(x), column by column, by Clenshaw's recurrence."""
    b1 = b2 = np.zeros_like(x)
    for c in coef[:0:-1]:
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    return coef[0] + x * b1 - b2


def _scan_roots(
    table: Callable[[np.ndarray], np.ndarray],
    k_lo: float,
    k_hi: float,
    points_per_unit: int,
    modes: Sequence[Optional[int]],
    tau: float,
) -> list[OracleRoot]:
    """Roots of every row of ``table`` (row i belongs to mode ``modes[i]``);
    every row is an entire function of exponential type at most ``tau``."""
    count = max(int(math.ceil((k_hi - k_lo) * points_per_unit)), 8) + 1
    if len(modes) * count > _SCAN_VALUES:
        raise RangeExceeded(f"a k-grid of {count} points for {len(modes)} rows exceeds {_SCAN_VALUES} values")
    ks = np.linspace(k_lo, k_hi, count)
    vals = np.empty((len(modes), count))
    for lo in range(0, count, _SCAN_BLOCK):
        vals[:, lo : lo + _SCAN_BLOCK] = table(ks[lo : lo + _SCAN_BLOCK])
    sign = np.sign(vals)
    row, cell = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)

    # each bracket's row, interpolated at m Lobatto points, is bisected as a polynomial
    lo, hi = ks[cell], ks[cell + 1]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    m = _proxy_points(tau, 0.5 * (k_hi - k_lo) / (count - 1))
    nodes = np.cos(np.pi * np.arange(m) / (m - 1))
    samples = table(mid[:, None] + half[:, None] * nodes)[row, np.arange(row.size)]
    coef = np.linalg.solve(np.polynomial.chebyshev.chebvander(nodes, m - 1), samples.T)
    k_star = _bisect(lambda k: _chebyshev_sum(coef, (k - mid) / half), lo, hi)

    # a candidate's residual is its own row; a merge compares max |row| over the mode
    at_root = np.abs(table(k_star))
    res = at_root[row, np.arange(row.size)]
    mode_id = np.array([list(modes).index(mode) for mode in modes])  # first row of the mode
    group = mode_id[row]
    worst = np.array([at_root[mode_id == g, i].max() for i, g in enumerate(group)])
    clusters: list[list[int]] = []
    for i in np.lexsort((cell, group)):
        last = clusters[-1] if clusters else []
        joins = last and group[i] == group[last[0]] and cell[i] - cell[last[0]] <= 1
        if joins and row[i] not in row[last]:
            last.append(i)
        else:
            clusters.append([i])

    roots: list[OracleRoot] = []
    for members in clusters:
        i = min(members, key=lambda j: worst[j])
        k = float(k_star[i])
        if res[i] < _RESIDUAL_TOL and k > 0:
            bracket = (float(ks[cell[i]]), float(ks[cell[i] + 1]))
            roots.append(OracleRoot(k, k**2, modes[row[i]], float(res[i]), bracket))
    roots.sort(key=lambda r: (r.k, r.l or 0))
    return roots


def oracle_1d(
    contrast: float,
    k_lo: float,
    k_hi: float,
    points_per_unit: int = DEFAULT_POINTS_PER_UNIT,
) -> list[OracleRoot]:
    """Real transmission wavenumbers on the unit interval for constant V.

    Raises:
        DegenerateContrast: V below MIN_CONTRAST (the two wave families coincide).
        RangeExceeded: a k-grid of more than ``_SCAN_VALUES`` values.
    """
    if contrast < MIN_CONTRAST:
        raise DegenerateContrast(f"contrast {contrast:g} below {MIN_CONTRAST:g}")
    if k_lo <= 0 or k_hi <= k_lo:
        raise ValueError("need 0 < k_lo < k_hi")
    eta = math.sqrt(1.0 + contrast)
    return _scan_roots(
        lambda k: interval_parity_determinants(k, eta),
        k_lo,
        k_hi,
        points_per_unit,
        [None, None],
        tau=0.5 * (1.0 + eta),
    )


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
        RangeExceeded: mode index above L_MAX_DISK, argument beyond the
            evaluator, or a k-grid of more than ``_SCAN_VALUES`` values.
        DegenerateContrast: V below MIN_CONTRAST.
    """
    if contrast < MIN_CONTRAST:
        raise DegenerateContrast(f"contrast {contrast:g} below {MIN_CONTRAST:g}")
    if l_max < 0 or l_max > L_MAX_DISK:
        raise RangeExceeded(f"mode index limit is {L_MAX_DISK}")
    eta = math.sqrt(1.0 + contrast)
    if eta * k_hi > _X_MAX:
        raise RangeExceeded(f"eta * k_hi = {eta * k_hi:g} beyond the Bessel range")
    if k_lo <= 0 or k_hi <= k_lo:
        raise ValueError("need 0 < k_lo < k_hi")
    return _scan_roots(
        lambda k: _disk_table(k, eta, l_max),
        k_lo,
        k_hi,
        points_per_unit,
        range(l_max + 1),
        tau=1.0 + eta,
    )
