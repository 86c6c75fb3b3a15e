"""Small shared numeric helpers."""

from __future__ import annotations

import math

import numpy as np


def loglog_slope(values: np.ndarray) -> float | None:
    """Least-squares slope of log(values[j]) against log(j), j starting at 1.

    Only indices in [N/3, 2N/3] enter the fit, which keeps both the poorly
    resolved tail and the handful of lowest modes out of the regression.
    Fewer than 3 values give no fit: None.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 3:
        return None
    j = np.arange(1, n + 1, dtype=float)
    lo = max(int(math.floor(n / 3)), 1)
    hi = max(int(math.ceil(2 * n / 3)), lo + 2)
    sel = slice(lo - 1, min(hi, n))
    x = np.log(j[sel])
    y = np.log(np.abs(v[sel]))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def unit_scale(x: np.ndarray, axes=None) -> np.ndarray:
    """Powers of two taking max |x| over ``axes`` into [0.5, 1), as size-1 axes; 1 for a 0, inf or NaN peak.

    Exact: scaled norms neither overflow nor underflow, and keep the unscaled ratios bitwise in the normal range.
    """
    peak = np.maximum(np.max(x, axes, keepdims=True, initial=0.0), -np.min(x, axes, keepdims=True, initial=0.0))
    return np.ldexp(1.0, np.minimum(-np.frexp(peak)[1], 1023))


def wrap_angle(theta: np.ndarray | float):
    """Wrap angles into (-pi, pi]."""
    wrapped = np.mod(np.asarray(theta) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


def match_multisets(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy one-to-one matching of two complex multisets.

    Returns the largest relative pairing distance; raises if sizes differ.
    Pairing is done smallest-distance-first, which is robust for the
    well-separated-cluster spectra this package produces.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError(f"multiset sizes differ: {a.size} vs {b.size}")
    scale = np.maximum(np.abs(a)[:, None], np.abs(b)[None, :])
    scale = np.maximum(scale, 1e-300)
    dist = np.abs(a[:, None] - b[None, :]) / scale
    n = a.size
    used_a = np.zeros(n, dtype=bool)
    used_b = np.zeros(n, dtype=bool)
    worst = 0.0
    order = np.argsort(dist, axis=None)
    pairs = 0
    for flat in order:
        i, j = divmod(int(flat), n)
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = True
        used_b[j] = True
        worst = max(worst, float(dist[i, j]))
        pairs += 1
        if pairs == n:
            break
    return worst
