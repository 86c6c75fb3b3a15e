"""Dense linear-algebra kernels used by the spectral pipeline.

Thin, contract-enforcing wrappers over numpy's LAPACK: symmetric
eigendecomposition, the dense nonsymmetric eigensolver (balancing +
Hessenberg reduction + shifted QR, as LAPACK does it) and log-scale
complex determinants.  Everything here is deterministic for fixed input on
a fixed build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AsymmetryExceeded, NoConvergence

_SYM_TOL = 1e-10


@dataclass(frozen=True)
class SymEig:
    """Full symmetric eigendecomposition, eigenvalues ascending.

    For a stack the fields carry its leading axes: (..., n) and (..., n, n).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns


@dataclass(frozen=True)
class ComplexSpectrum:
    """Eigenvalues of a general real matrix, optionally with vectors."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None  # columns, when requested


@dataclass(frozen=True)
class LogDet:
    """Determinant carried as log-magnitude plus argument.

    Keeps contour evaluations alive where the linear-scale determinant
    overflows; ``value`` reconstructs the complex number when representable.
    The fields are floats for one determinant and arrays for a stack of
    them; ``value`` is a complex for one determinant and a complex array of
    the stack's shape for a stack, element by element.
    """

    log_abs: float | np.ndarray
    arg: float | np.ndarray

    @property
    def value(self) -> complex | np.ndarray:
        log_abs = np.asarray(self.log_abs)
        value = np.exp(np.minimum(log_abs, 700.0)) * np.exp(1j * np.asarray(self.arg))
        value = np.where(log_abs == -np.inf, 0j, value)
        # exp overflow; caller should stay in log scale
        value = np.where(log_abs > 700.0, complex(np.inf, np.inf), value)
        return complex(value) if value.ndim == 0 else value


def _check_symmetric(s: np.ndarray, tol: float = _SYM_TOL) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim < 2 or s.shape[-2] != s.shape[-1]:
        raise ValueError("expected a square matrix or a stack of them")
    st = np.swapaxes(s, -1, -2)
    scale = np.maximum(np.linalg.norm(s, axis=(-2, -1)), 1e-300)
    asym = np.max(np.linalg.norm(s - st, axis=(-2, -1)) / scale, initial=0.0)
    if asym > tol:
        raise AsymmetryExceeded(f"matrix asymmetry {asym:.3e} exceeds {tol:.1e}")
    return 0.5 * (s + st)


def sym_eig(s: np.ndarray) -> SymEig:
    """Eigendecomposition of a symmetric matrix, or of each of a stack, eigenvalues ascending."""
    sym = _check_symmetric(s)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return SymEig(vals, vecs)


def nonsym_eig(m: np.ndarray, want_vectors: bool = False) -> ComplexSpectrum:
    """All eigenvalues of a real square matrix.

    Routed through LAPACK's balanced Hessenberg/shifted-QR path.  With
    ``want_vectors`` the right eigenvectors come back column-wise.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    try:
        if want_vectors:
            vals, vecs = np.linalg.eig(m)
        else:
            vals = np.linalg.eigvals(m)
            vecs = None
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return ComplexSpectrum(vals, vecs)


def complex_det(m: np.ndarray) -> LogDet:
    """Determinant of a complex matrix via partially pivoted LU, in log scale.

    ``m`` is one matrix or a stack ``(..., n, n)``; the fields of a stack's
    result are arrays of its leading shape.  Singular input is not an
    error: it returns log-magnitude -inf.  A non-finite entry raises
    ``ValueError``, without a ``RuntimeWarning``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError("expected a square matrix or a stack of them")
    # slogdet gives sign 0 and -inf when singular, sign 1 and 0 when 0 x 0; a
    # non-finite entry gives a NaN sign, or sign 0 if a zero pivot ends the LU
    # first, so only singular results need their entries scanned
    with np.errstate(all="ignore"):
        sign, log_abs = np.linalg.slogdet(m)
    if not (np.all(np.isfinite(sign)) and np.all(np.isfinite(m[sign == 0]))):
        raise ValueError("matrix entries must be finite")
    arg = np.where(sign == -1, np.pi, np.angle(sign))  # -1 - 0j has angle -pi
    if m.ndim == 2:
        return LogDet(float(log_abs), float(arg))
    return LogDet(log_abs, arg)
