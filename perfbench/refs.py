"""Independent references for the benchmark's accuracy score.

Nothing here calls ``tespect.oracles``: the interval and disk roots come
from closed forms evaluated with numpy and scipy, and the trace functional
is a pinned high-precision value.  ``digits`` turns a relative error into
the ``ref_digits`` score.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

# tr(A^{-1} B) for -Laplacian, V = 1, basis n = 32 on the unit interval,
# evaluated with mpmath at 40 significant digits on the assembled matrices
# (the value is invariant under a change of basis within the same span).
TRACE_T0_VPOT1_N32 = 0.188968202465934829

# Sampling steps in k, far below the root spacing; the disk grid is twice as
# fine as the benchmarked oracle's 200 points per unit and Bessel calls cost.
_INTERVAL_PER_UNIT = 2000
_DISK_PER_UNIT = 400


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at 16 digits."""
    return min(16.0, -math.log10(max(float(rel_err), 1e-16)))


def interval_function(k: np.ndarray, eta: float) -> np.ndarray:
    """Interval matching determinant for -u'' = k^2 u against -v'' = (eta k)^2 v.

    Eliminating the x = 0 conditions from the 4x4 value/derivative matching
    leaves a 2x2 system whose determinant is

        F(k) = 2 eta (1 - cos k cos(eta k)) - (1 + eta^2) sin k sin(eta k).
    """
    ek = eta * k
    return 2.0 * eta * (1.0 - np.cos(k) * np.cos(ek)) - (1.0 + eta**2) * np.sin(k) * np.sin(ek)


def _sign_change_roots(fn, k_lo: float, k_hi: float, per_unit: int) -> np.ndarray:
    ks = np.linspace(k_lo, k_hi, int(math.ceil((k_hi - k_lo) * per_unit)) + 1)
    vals = fn(ks)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    return np.array(
        [optimize.brentq(fn, ks[i], ks[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps) for i in flips]
    )


def interval_roots(contrast: float, k_lo: float, k_hi: float) -> np.ndarray:
    """Real transmission wavenumbers k in (k_lo, k_hi) for constant V = contrast.

    For contrast 3 (eta = 2), F = 2 (cos k - 1)^2 (cos k + 2) never changes
    sign: the roots are exactly k = 2 pi j.  Otherwise the roots are the
    sign changes of F, refined with Brent's method.
    """
    eta = math.sqrt(1.0 + contrast)
    if eta == 2.0:
        j = np.arange(math.ceil(k_lo / (2 * math.pi)), math.floor(k_hi / (2 * math.pi)) + 1)
        return 2.0 * math.pi * j[j > 0]
    return _sign_change_roots(lambda k: interval_function(k, eta), k_lo, k_hi, _INTERVAL_PER_UNIT)


def disk_function(k: np.ndarray, eta: float, l: int) -> np.ndarray:
    """Radial matching of J_l(k r) against J_l(eta k r) at r = 1."""
    return eta * special.jv(l, k) * special.jvp(l, eta * k) - special.jvp(l, k) * special.jv(l, eta * k)


def disk_roots(contrast: float, l_max: int, k_lo: float, k_hi: float) -> list[tuple[int, float]]:
    """(l, k) pairs of real transmission wavenumbers on the unit disk, sorted by (k, l)."""
    eta = math.sqrt(1.0 + contrast)
    out = []
    for l in range(l_max + 1):
        roots = _sign_change_roots(lambda k, l=l: disk_function(k, eta, l), k_lo, k_hi, _DISK_PER_UNIT)
        for k in roots:
            out.append((l, float(k)))
    out.sort(key=lambda lk: (lk[1], lk[0]))
    return out


def worst_relative_error(values: np.ndarray, reference: np.ndarray) -> float:
    """Largest relative error after matching ``values`` one-to-one into ``reference``.

    ``reference`` may be longer, so a conjugate pair split at the cut of a
    "smallest |lambda|" list still finds its partner.
    """
    values = np.asarray(values, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if values.size == 0 or reference.size < values.size:
        return math.inf
    cost = np.abs(values[:, None] - reference[None, :]) / np.abs(reference)[None, :]
    rows, cols = optimize.linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))
