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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonpositivePotential, SmoothnessWarning, UnsupportedDimension

PRESET_ORDERS = {"laplacian": 2, "bilaplacian": 4}
_POSITIVITY_MARGIN = 1e-10
_EPS = float(np.finfo(float).eps)
# the symmetries T of the square as (swap, flip_x, flip_y): x <-> y, then x -> 1 - x, y -> 1 - y, if set
SYMMETRIES = {
    "identity": (0, 0, 0), "flip_x": (0, 1, 0), "flip_y": (0, 0, 1), "rot180": (0, 1, 1),
    "swap": (1, 0, 0), "antiswap": (1, 1, 1), "rot90": (1, 1, 0), "rot270": (1, 0, 1),
}


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
    """Potential V, evaluated at points by ``values`` with its kinks named by ``knots``.

    Representations:
      * ``polynomial`` -- 1D: coefficient array c[k] of sum c_k x^k;
        2D: matrix c[i, j] of sum c_ij x^i y^j.  A constant is the
        polynomial of degree 0 (``PotentialSpec.constant``).
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
        if self.kind not in ("polynomial", "grid", "affine"):
            raise ValueError(f"unknown potential representation {self.kind!r}")

    @classmethod
    def constant(cls, value: float, dimension: int = 1) -> "PotentialSpec":
        """The polynomial of degree 0, data [value] (1D) or [[value]] (2D)."""
        return cls.polynomial(np.full((1,) * dimension, float(value)), dimension)

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
        warnings.warn(
            "grid potentials are only piecewise linear; smoothness "
            "assumptions behind the method are not met",
            SmoothnessWarning,
            stacklevel=2,
        )
        return cls("grid", arr, dimension)

    @classmethod
    def affine(cls, base: "PotentialSpec", direction: "PotentialSpec", scale: float) -> "PotentialSpec":
        if base.dimension != direction.dimension:
            raise DimensionMismatch("base and direction dimensions differ")
        return cls("affine", (base, direction, float(scale)), base.dimension)

    def values(self, flat: np.ndarray) -> np.ndarray:
        """V at points of the closed domain, ``flat`` of shape (P,) in 1D or (P, 2) in 2D."""
        if self.kind == "affine":
            base, direction, scale = self.data
            return base.values(flat) + scale * direction.values(flat)
        if self.dimension == 1:
            xs = flat.reshape(-1)
            if self.kind == "polynomial":
                return np.polynomial.polynomial.polyval(xs, self.data)
            knots = np.linspace(0.0, 1.0, self.data.shape[0])
            return np.interp(xs, knots, self.data)
        xs, ys = flat[:, 0], flat[:, 1]
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval2d(xs, ys, self.data)
        return _bilinear(self.data, xs, ys)

    def knots(self) -> list[np.ndarray]:
        """Kinks of V on [0, 1] per axis and part: grid knots, else just the ends."""
        if self.kind == "affine":
            return self.data[0].knots() + self.data[1].knots()
        shape = self.data.shape if self.kind == "grid" else (2,)
        return [np.linspace(0.0, 1.0, k) for k in shape]

    def stabilizer(self) -> tuple[str, ...]:
        """Names of the g in ``SYMMETRIES`` with V o T_g = V, in its order; in 1D of identity and flip_x.

        Read from the representation, never sampled: a grid when its samples
        equal their exact flips and transpose; a polynomial when its
        coefficients, binomially shifted for each flip (x -> 1 - x) and
        transposed after padding to square, equal themselves within the
        shift's rounding; an affine family, the elements both parts have.
        """
        candidates = SYMMETRIES if self.dimension == 2 else {g: SYMMETRIES[g] for g in ("identity", "flip_x")}
        return tuple(name for name, g in candidates.items() if self._fixed_by(*g))

    def _fixed_by(self, swap: int, *flips: int) -> bool:
        if self.kind == "affine":
            return all(part._fixed_by(swap, *flips) for part in self.data[:2])
        c, poly = self.data, self.kind == "polynomial"
        if poly and c.shape[0] != c.shape[-1]:  # zero coefficients up to a square
            c = np.pad(c, [(0, max(c.shape) - n) for n in c.shape])
        if swap and c.shape[0] != c.shape[-1]:
            return False
        image, bound = c, np.abs(c)
        for axis in np.flatnonzero(flips[: self.dimension]):
            n = c.shape[axis]  # (1 - x)^i = sum_k m[k, i] x^k, or a grid's flip
            m = np.array([[(-1.0) ** k * math.comb(i, k) for i in range(n)] for k in range(n)]) if poly else np.eye(n)[::-1]
            image, bound = (f @ a if axis == 0 else a @ f.T for f, a in ((m, image), (abs(m), bound)))
        if swap:
            image, bound = image.T, bound.T
        rounding = 4 * max(c.shape) * _EPS if poly and any(flips) else 0.0
        return bool(np.all(np.abs(image - c) <= rounding * bound))


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


def strictly_positive(values: np.ndarray) -> np.ndarray:
    """Whether V > ``_POSITIVITY_MARGIN`` all along the last axis; a NaN fails it too."""
    return np.all(values > _POSITIVITY_MARGIN, axis=-1)


def validation_points(dimension: int) -> np.ndarray:
    """The fixed grid on which V's strict positivity is checked: 1025 points, or 65 x 65."""
    if dimension == 1:
        return np.linspace(0.0, 1.0, 1025)
    g = np.linspace(0.0, 1.0, 65)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def validate_problem(op: OperatorSpec, dom: DomainSpec, pot: PotentialSpec) -> ProblemSpec:
    """Check the standing hypotheses and return the validated bundle.

    The operator is elliptic by construction (see :class:`OperatorSpec`);
    strict positivity of V (``strictly_positive``) is checked on a dense
    fixed grid, deterministically.

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

    values = pot.values(validation_points(op.dimension))
    if not strictly_positive(values):
        raise NonpositivePotential(
            f"potential minimum {np.min(values):.3e} is below the strict-positivity margin"
        )

    return ProblemSpec(op, dom, pot)
