"""Continuous problem definition: operator, domain, potential.

The computational object everywhere downstream is a validated
:class:`ProblemSpec` bundling an operator, the unit interval or square, and
a strictly positive potential ``V``.  The operator is one of two presets,
-Laplacian (order 2, symbol |xi|^2) or bilaplacian (order 4, symbol |xi|^4):
these are the whole operator model, elliptic and formally selfadjoint by
construction, and assembly reads only their order.  The reciprocal
``q = 1/V`` is the coefficient the Galerkin assembly actually integrates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NonpositivePotential,
    OutOfDomain,
    SmoothnessWarning,
    UnsupportedDimension,
)

PRESET_ORDERS = {"laplacian": 2, "bilaplacian": 4}
_POSITIVITY_MARGIN = 1e-10
_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class OperatorSpec:
    """Preset operator on ``dimension`` = 1 or 2: -Laplacian or bilaplacian.

    ``order`` follows from ``preset`` through ``PRESET_ORDERS``.
    """

    preset: str
    dimension: int

    def __post_init__(self):
        if not isinstance(self.preset, str) or self.preset not in PRESET_ORDERS:
            raise ValueError(f"unknown operator preset {self.preset!r}")
        if self.dimension not in (1, 2):
            raise UnsupportedDimension(f"dimension {self.dimension} not supported")

    @property
    def order(self) -> int:
        return PRESET_ORDERS[self.preset]

    @classmethod
    def laplacian(cls, dimension: int) -> "OperatorSpec":
        """Negative Laplacian; symbol |xi|^2."""
        return cls("laplacian", dimension)

    @classmethod
    def bilaplacian(cls, dimension: int) -> "OperatorSpec":
        """Squared Laplacian; symbol |xi|^4."""
        return cls("bilaplacian", dimension)

    @classmethod
    def preset_by_name(cls, name: str, dimension: int) -> "OperatorSpec":
        return cls(name, dimension)


@dataclass(frozen=True)
class DomainSpec:
    """Computational domain: unit interval (n=1) or unit square (n=2)."""

    shape: str  # "interval" | "square"

    def __post_init__(self):
        if self.shape not in ("interval", "square"):
            raise UnsupportedDimension(f"unsupported domain shape {self.shape!r}")

    @property
    def dimension(self) -> int:
        return 1 if self.shape == "interval" else 2


@dataclass(frozen=True)
class PotentialSpec:
    """Potential V with pointwise evaluation and q = 1/V accessor.

    Representations:
      * ``constant`` -- data is a scalar.
      * ``polynomial`` -- 1D: coefficient array c[k] of sum c_k x^k;
        2D: matrix c[i, j] of sum c_ij x^i y^j.
      * ``grid`` -- samples on a uniform grid over the domain, evaluated by
        piecewise-linear (bilinear in 2D) interpolation.  Rough data is
        accepted for experimentation but flagged with a SmoothnessWarning.
      * ``affine`` -- base + scale * direction, used by potential-family
        scans; data is a (base, direction, scale) triple of specs.
    """

    kind: str
    data: object
    dimension: int = 1

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial", "grid", "affine"):
            raise ValueError(f"unknown potential representation {self.kind!r}")
        if self.kind == "grid":
            warnings.warn(
                "grid potentials are only piecewise linear; smoothness "
                "assumptions behind the method are not met",
                SmoothnessWarning,
                stacklevel=2,
            )

    @classmethod
    def constant(cls, value: float, dimension: int = 1) -> "PotentialSpec":
        return cls("constant", float(value), dimension)

    @classmethod
    def polynomial(cls, coeffs, dimension: int = 1) -> "PotentialSpec":
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if dimension == 2 and arr.ndim != 2:
            raise DimensionMismatch("2D polynomial potential needs a coefficient matrix")
        return cls("polynomial", arr, dimension)

    @classmethod
    def grid(cls, values, dimension: int = 1) -> "PotentialSpec":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != dimension:
            raise DimensionMismatch("grid rank must equal the domain dimension")
        if arr.shape[0] < 2 or (dimension == 2 and arr.shape[1] < 2):
            raise ValueError("grid potential needs at least two samples per axis")
        return cls("grid", arr, dimension)

    @classmethod
    def affine(cls, base: "PotentialSpec", direction: "PotentialSpec", scale: float) -> "PotentialSpec":
        if base.dimension != direction.dimension:
            raise DimensionMismatch("base and direction dimensions differ")
        return cls("affine", (base, direction, float(scale)), base.dimension)

    def reflection_invariant(self, axis: int) -> bool:
        """Whether V is exactly invariant under x_axis -> 1 - x_axis.

        Read from the representation, never sampled: a constant always is; a
        grid when its samples equal their flip along ``axis``; a polynomial
        only when no coefficient depends on that coordinate; an affine family
        when both of its parts are.
        """
        if self.kind == "constant":
            return True
        if self.kind == "affine":
            base, direction, _ = self.data
            return base.reflection_invariant(axis) and direction.reflection_invariant(axis)
        if self.kind == "grid":
            return bool(np.array_equal(self.data, np.flip(self.data, axis)))
        return not np.any(np.take(self.data, np.arange(1, self.data.shape[axis]), axis=axis))

    def swap_invariant(self) -> bool:
        """Whether V on the square is exactly invariant under the swap x <-> y.

        Read from the representation, never sampled: a constant always is; a
        polynomial when its coefficient matrix is square and equals its
        transpose; a grid when it equals its transpose; an affine family when
        both of its parts are.  A 1D potential has no swap.
        """
        if self.dimension != 2:
            return False
        if self.kind == "constant":
            return True
        if self.kind == "affine":
            base, direction, _ = self.data
            return base.swap_invariant() and direction.swap_invariant()
        return bool(np.array_equal(self.data, self.data.T))


@dataclass(frozen=True)
class ProblemSpec:
    """Validated bundle of operator, domain and potential.

    ``trace_class`` / ``hilbert_schmidt`` record whether the companion
    operator of the associated pencil is trace class (m > n) respectively
    Hilbert-Schmidt (m > n/2); ``p_min`` is the smallest integer p with
    p > n/m, the least power for which the trace criterion applies.
    """

    operator: OperatorSpec
    domain: DomainSpec
    potential: PotentialSpec
    trace_class: bool = field(init=False)
    hilbert_schmidt: bool = field(init=False)
    p_min: int = field(init=False)

    def __post_init__(self):
        m, n = self.operator.order, self.operator.dimension
        object.__setattr__(self, "trace_class", m > n)
        object.__setattr__(self, "hilbert_schmidt", 2 * m > n)
        object.__setattr__(self, "p_min", int(np.floor(n / m)) + 1)

    @property
    def order(self) -> int:
        return self.operator.order

    @property
    def dimension(self) -> int:
        return self.operator.dimension


def eval_potential(pot: PotentialSpec, x) -> float:
    """Evaluate V at a point (or an array of points) of the closed domain."""
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = (pts.ndim == 1 and pot.dimension == 1 and pts.size == 1) or (
        pts.ndim == 1 and pot.dimension == 2 and pts.size == 2
    )
    if pot.dimension == 1:
        flat = pts.reshape(-1)
    else:
        flat = pts.reshape(-1, 2)
    if np.any(flat < -_DOMAIN_SLACK) or np.any(flat > 1.0 + _DOMAIN_SLACK):
        raise OutOfDomain("point outside the closed unit domain")
    vals = _potential_values(pot, flat)
    if scalar:
        return float(vals.reshape(-1)[0])
    return vals


def _potential_values(pot: PotentialSpec, flat: np.ndarray) -> np.ndarray:
    """Vectorized V on points already known to be inside the domain."""
    if pot.kind == "constant":
        n = flat.shape[0] if flat.ndim > 0 else 1
        return np.full(n, float(pot.data))
    if pot.kind == "affine":
        base, direction, scale = pot.data
        return _potential_values(base, flat) + scale * _potential_values(direction, flat)
    if pot.dimension == 1:
        xs = flat.reshape(-1)
        if pot.kind == "polynomial":
            return np.polynomial.polynomial.polyval(xs, pot.data)
        knots = np.linspace(0.0, 1.0, pot.data.shape[0])
        return np.interp(xs, knots, pot.data)
    xs, ys = flat[:, 0], flat[:, 1]
    if pot.kind == "polynomial":
        return np.polynomial.polynomial.polyval2d(xs, ys, pot.data)
    return _bilinear(pot.data, xs, ys)


def _bilinear(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    nx, ny = values.shape
    fx = np.clip(xs, 0.0, 1.0) * (nx - 1)
    fy = np.clip(ys, 0.0, 1.0) * (ny - 1)
    ix = np.minimum(fx.astype(int), nx - 2)
    iy = np.minimum(fy.astype(int), ny - 2)
    tx = fx - ix
    ty = fy - iy
    v00 = values[ix, iy]
    v10 = values[ix + 1, iy]
    v01 = values[ix, iy + 1]
    v11 = values[ix + 1, iy + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


def _validation_points(dimension: int) -> np.ndarray:
    if dimension == 1:
        return np.linspace(0.0, 1.0, 1025)
    g = np.linspace(0.0, 1.0, 65)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def validate_problem(op: OperatorSpec, dom: DomainSpec, pot: PotentialSpec) -> ProblemSpec:
    """Check the standing hypotheses and return the validated bundle.

    The operator is elliptic by construction (see :class:`OperatorSpec`);
    strict positivity of V is checked on a dense fixed grid with margin 1e-10,
    deterministically.

    Raises:
        NonpositivePotential: V drops to the margin somewhere.
        DimensionMismatch: domain or potential dimension differs from the
            operator's.
    """
    if dom.dimension != op.dimension:
        raise DimensionMismatch(
            f"domain dimension {dom.dimension} != operator dimension {op.dimension}"
        )
    if pot.dimension != op.dimension:
        raise DimensionMismatch(
            f"potential dimension {pot.dimension} != operator dimension {op.dimension}"
        )

    values = _potential_values(pot, _validation_points(op.dimension))
    if not np.all(values > _POSITIVITY_MARGIN):  # a NaN fails the comparison too
        raise NonpositivePotential(
            f"potential minimum {np.min(values):.3e} is below the strict-positivity margin"
        )

    return ProblemSpec(op, dom, pot)
