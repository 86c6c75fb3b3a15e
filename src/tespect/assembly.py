"""Galerkin assembly of the quadratic pencil on a clamped basis.

The pencil coefficients are the weak forms, with q = 1/V,

    A_ij = int q (Pu_i)(Pu_j),
    B_ij = int q [(Pu_i) u_j + u_i (Pu_j)] + d(u_i, u_j),
    C_ij = int (1 + q) u_i u_j,

where P is the preset operator (second or fourth order) and d its symmetric
Dirichlet form (grad.grad respectively lap.lap).  Basis functions vanish at
the boundary together with derivatives through order m-1, so no boundary
terms appear when moving P onto the test function.

Two families are provided: clamped Jacobi functions (x(1-x))^m P_j^{(m,m)}(2x-1)
and a telescoped sine basis for the second-order case.  The m-th derivative of
the former is a Legendre polynomial (DLMF 18.9.16; Shen 1994), so their 1D
stiffness is a q-weighted Legendre mass, scaled-conditioned by max V / min V.
Two-dimensional problems use tensor products on the unit square, flattened
row-major in the construction order.

All integrals use one composite Gauss-Legendre rule with a cell between each
pair of consecutive kinks of V, exact by construction (see ``quadrature_rule``).

Both families have parity (-1)^j under x -> 1 - x and both presets commute
with that reflection, so along every axis where V is reflection-invariant the
pencil couples only indices of equal parity (Bossavit, CMAME 56 (1986) 167):
1, 2 or 4 parity classes, stored on the system as ``blocks``, between which
A, B and C vanish in exact arithmetic and are stored as exact zeros.
``whiten`` then reduces the pencil block by block, by one Cholesky factor
and one symmetric eigensolve each, to coordinates where the mass is the
identity and the stiffness is diagonal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Optional

import numpy as np
from numpy.polynomial import legendre as npleg

from . import densela
from .errors import (
    AsymmetryExceeded,
    BasisOrderMismatch,
    NonpositivePotential,
    NotPositiveDefinite,
    ParityViolation,
    QuadratureUnderflow,
    QuadratureWarning,
)
from .model import PotentialSpec, ProblemSpec, _potential_values

_ASYM_TOL = 1e-8
_GRAM_FLOOR = 1e-12
_SPD_FLOOR = 1e-13
_POSITIVITY_MARGIN = 1e-10
_EDGE_TOL = 1e-12
_TAIL_TOL = 1e-10

POLYNOMIAL = "clamped-polynomial"
TRIG = "clamped-trig"


def quadrature_rule(size: int, order: int, family: str) -> int:
    """Default Gauss-Legendre node count per cell.

    N = 2 size + 2 order + 8 nodes are exact through degree 4 size + 4 order
    + 15, which leaves 2 size + 17 >= 3N/4 degrees for q beyond a polynomial
    basis product; the trig family's sines take 8 more to reach 1e-13.
    """
    nodes = max(2 * size + 2 * order + 8, 32)
    return nodes + 8 if family == TRIG else nodes


def _knots(pot: PotentialSpec) -> list[np.ndarray]:
    """Kinks of V on [0, 1] per axis and part: grid knots, else just the ends."""
    if pot.kind == "affine":
        return _knots(pot.data[0]) + _knots(pot.data[1])
    shape = pot.data.shape if pot.kind == "grid" else (2,)
    return [np.linspace(0.0, 1.0, k) for k in shape]


def _composite_gauss(pot: PotentialSpec, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule, ``nodes`` points on each cell between the kinks of V."""
    edges = np.sort(np.concatenate(_knots(pot)))
    edges = edges[np.diff(edges, prepend=-1.0) > _EDGE_TOL]
    t, w = npleg.leggauss(nodes)
    h = np.diff(edges)[:, None]
    return (edges[:-1, None] + h * (0.5 * (t + 1.0))).ravel(), (h * (0.5 * w)).ravel()


@dataclass
class BasisSet:
    """Clamped basis with derivative evaluators and its Gram matrix.

    ``size`` counts functions per dimension; the full basis in 2D is the
    tensor product with ``size**2`` members.  Functions are scaled to unit
    discrete L2 norm, which the Gram diagonal reflects.
    """

    family: str
    order: int
    dimension: int
    size: int
    nodes: np.ndarray  # composite 1D rule on [0, 1]
    weights: np.ndarray
    cell_nodes: int  # Gauss points per cell of that rule
    norms: np.ndarray = field(repr=False)  # per-function 1D scale factors
    gram: np.ndarray = field(repr=False)

    # -- 1D factor evaluation -------------------------------------------------

    def deriv1d(self, k: int, x: np.ndarray) -> np.ndarray:
        """k-th derivatives of the normalized 1D factor functions, (N, len(x))."""
        x = np.asarray(x, dtype=float)
        if self.family == POLYNOMIAL:
            raw = _poly_deriv(self.order, self.size, k, x)
        else:
            raw = _trig_deriv(self.size, k, x)
        return raw * self.norms[:, None]

    # -- multi-dimensional helpers ---------------------------------------------

    def grid_points(self) -> np.ndarray:
        """Quadrature points as a flat array of domain points."""
        if self.dimension == 1:
            return self.nodes
        gx, gy = np.meshgrid(self.nodes, self.nodes, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    def grid_weights(self) -> np.ndarray:
        if self.dimension == 1:
            return self.weights
        return np.outer(self.weights, self.weights).ravel()

    def point_values(self, coeffs: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
        """Values of sum_J c_J d^orders phi_J at the quadrature points."""
        coeffs = np.asarray(coeffs)
        if self.dimension == 1:
            return coeffs @ self.deriv1d(orders[0], self.nodes)
        cx = self.deriv1d(orders[0], self.nodes)
        cy = self.deriv1d(orders[1], self.nodes)
        cm = coeffs.reshape(self.size, self.size)
        return (cx.T @ cm @ cy).ravel()

    def apply_terms(self, coeffs: np.ndarray, terms) -> np.ndarray:
        """Pointwise action of a differential-term list on a coefficient vector."""
        return sum(c * self.point_values(coeffs, orders) for c, orders in terms)

    def weighted_moments(self, values: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
        """Vector of int values * d^orders phi_j over basis functions."""
        w = self.grid_weights() * np.asarray(values)
        if self.dimension == 1:
            return self.deriv1d(orders[0], self.nodes) @ w
        vx = self.deriv1d(orders[0], self.nodes)
        vy = self.deriv1d(orders[1], self.nodes)
        wgrid = w.reshape(self.nodes.size, self.nodes.size)
        return (vx @ wgrid @ vy.T).ravel()

    def dual_moments(self, values: np.ndarray, terms) -> np.ndarray:
        """Vector of int values * (term-list acting on phi_j)."""
        return sum(c * self.weighted_moments(values, orders) for c, orders in terms)

    def project(self, values: np.ndarray) -> np.ndarray:
        """L2-projection of pointwise values onto the basis span."""
        rhs = self.weighted_moments(values, (0,) * self.dimension)
        return np.linalg.solve(self.gram, rhs)


# -- factor-function implementations -----------------------------------------


def _poly_deriv(order: int, size: int, k: int, x: np.ndarray) -> np.ndarray:
    """k-th derivatives of (x(1-x))^m P_j^{(m,m)}(2x-1), j < size, unnormalized.

    For k <= m they are (-1)^k (j+1)_k (x(1-x))^a P_{j+k}^{(a,a)}(2x-1), a = m - k
    (DLMF 18.9.16), with (n+1)(n+2a+1) P_{n+1} = (n+a+1) [(2n+2a+1) t P_n - (n+a) P_{n-1}].
    """
    if k > order:
        raise ValueError(f"derivative order {k} exceeds the clamping order {order}")
    a = order - k
    t = 2.0 * x - 1.0
    p = [np.ones_like(t), (a + 1) * t]
    for n in range(1, size + k - 1):
        c = (n + a + 1) / ((n + 1) * (n + 2 * a + 1))
        p.append(c * ((2 * n + 2 * a + 1) * t * p[n] - (n + a) * p[n - 1]))
    rising = np.prod(np.arange(1.0, size + 1)[:, None] + np.arange(k), axis=1)
    return (-1) ** k * rising[:, None] * (x * (1.0 - x)) ** a * np.array(p[k : k + size])


def _trig_deriv(size: int, k: int, x: np.ndarray) -> np.ndarray:
    """Derivatives of sin(j pi x) - (j/(j+2)) sin((j+2) pi x), unnormalized."""
    j = np.arange(1, size + 1, dtype=float)[:, None]
    a = j * np.pi
    b = (j + 2.0) * np.pi
    rho = j / (j + 2.0)
    phase = 0.5 * np.pi * k
    return (a**k) * np.sin(a * x[None, :] + phase) - rho * (b**k) * np.sin(
        b * x[None, :] + phase
    )


# -- operator term tables ------------------------------------------------------


def p0_terms(order: int, dimension: int):
    """Pointwise action of the preset of this order as (coeff, derivative-orders)."""
    if order == 2:
        if dimension == 1:
            return [(-1.0, (2,))]
        return [(-1.0, (2, 0)), (-1.0, (0, 2))]
    if dimension == 1:
        return [(1.0, (4,))]
    return [(1.0, (4, 0)), (2.0, (2, 2)), (1.0, (0, 4))]


def dirichlet_factors(order: int, dimension: int):
    """Symmetric Dirichlet form of the preset of this order as squared factors."""
    if order == 2:
        if dimension == 1:
            return [[(1.0, (1,))]]
        return [[(1.0, (1, 0))], [(1.0, (0, 1))]]
    if dimension == 1:
        return [[(1.0, (2,))]]
    return [[(1.0, (2, 0)), (1.0, (0, 2))]]


# -- construction ---------------------------------------------------------------


def build_basis(
    problem: ProblemSpec,
    size: int,
    family: str = POLYNOMIAL,
    quadrature_nodes: int = 0,
) -> BasisSet:
    """Construct the clamped basis, its quadrature rule and its Gram matrix.

    ``size`` is the per-dimension count of 1D factors, for the polynomial
    family (x(1-x))^m P_j^{(m,m)}(2x-1), j < size, m the operator order.  The
    1D rule, used on both axes, has a cell between each pair of consecutive
    kinks of V and ``quadrature_nodes`` Gauss points per cell; 0 keeps
    ``quadrature_rule``.  The Gram floor is checked on the 1D factor's
    eigenvalues, whose pairwise products are those of the 2D Gram matrix.

    Raises:
        BasisOrderMismatch: trig family requested for a fourth-order operator.
        QuadratureUnderflow: override too small for the basis polynomial degree.
        NotPositiveDefinite: Gram matrix fails its positivity floor.
    """
    if size < 1:
        raise ValueError("basis size must be at least 1")
    m, n = problem.order, problem.dimension
    if family == TRIG and m != 2:
        raise BasisOrderMismatch("clamped-trig realizes only second-order clamping")
    if family not in (POLYNOMIAL, TRIG):
        raise ValueError(f"unknown basis family {family!r}")

    nodes_count = quadrature_nodes or quadrature_rule(size, m, family)
    if family == POLYNOMIAL:
        required = size + 2 * m + 1
        if nodes_count < required:
            raise QuadratureUnderflow(
                f"{nodes_count} nodes cannot integrate degree {2 * (size - 1 + 2 * m)}"
            )
    nodes, weights = _composite_gauss(problem.potential, nodes_count)

    basis = BasisSet(
        family=family,
        order=m,
        dimension=n,
        size=size,
        nodes=nodes,
        weights=weights,
        cell_nodes=nodes_count,
        norms=np.ones(size),
        gram=np.empty(0),
    )
    raw = basis.deriv1d(0, nodes)
    gram1d = _factor_form(raw, raw, weights)
    basis.norms = 1.0 / np.sqrt(np.diag(gram1d))
    gram1d = basis.norms[:, None] * (0.5 * (gram1d + gram1d.T)) * basis.norms
    basis.gram = gram1d if n == 1 else np.kron(gram1d, gram1d)

    eigs = np.linalg.eigvalsh(gram1d)
    lowest = eigs[0] if n == 1 else np.outer(eigs, eigs).min()
    if lowest <= _GRAM_FLOOR:
        raise NotPositiveDefinite(
            f"normalized Gram minimum eigenvalue {lowest:.3e} below {_GRAM_FLOOR:.0e}"
        )
    return basis


def _factor_form(e1: np.ndarray, e2: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (e1 * w[None, :]) @ e2.T


@dataclass
class GalerkinSystem:
    """Assembled pencil matrices in basis coordinates.

    ``blocks`` are the parity classes, ascending basis indices each; A, B
    and C are exactly zero between two classes.  None means one class, as
    for a synthetic system.
    """

    gram: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    problem: Optional[ProblemSpec] = None
    basis: Optional[BasisSet] = None
    blocks: Optional[tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        if self.blocks is None:
            self.blocks = (np.arange(self.size),)

    @property
    def size(self) -> int:
        return self.a.shape[0]


@dataclass
class WhitenedSystem:
    """Pencil in mass-orthonormal coordinates with a diagonal stiffness.

    Whitened coordinates run block by block: ``blocks`` holds one slice per
    parity class of the source system, in its order.  ``mu`` holds the
    eigenvalues of C relative to A, descending within each block: the
    whitened stiffness is diag(1/mu), the mass is the identity and ``b`` is
    the transformed B, exactly zero off the blocks.  ``to_basis`` is the
    congruence X with X^T C X = I and X^T A X = diag(1/mu); it maps whitened
    coordinate vectors back to basis coefficients.

    Only the vector ``mu`` is stored: products with A_w = diag(1/mu),
    S = A_w^{-1/2} = diag(sqrt(mu)) and A_w^{-1} = diag(mu) are row or column
    scalings.  The small stiffness eigenvalues, which dominate every trace of
    D, are the largest mu and so carry full relative accuracy.
    """

    mu: np.ndarray
    b: np.ndarray
    to_basis: np.ndarray
    system: GalerkinSystem
    blocks: tuple[slice, ...]

    @property
    def size(self) -> int:
        return self.mu.size

    @classmethod
    def from_matrices(cls, a, b) -> "WhitenedSystem":
        """Whiten a synthetic pencil A - lam B + lam^2 I given by its matrices."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        eye = np.eye(a.shape[0])
        return whiten(GalerkinSystem(gram=eye, a=a, b=b, c=eye))

    @cached_property
    def comp_block(self) -> np.ndarray:
        root = np.sqrt(self.mu)
        return root[:, None] * self.b * root[None, :]


def _check_and_symmetrize(name: str, m: np.ndarray) -> np.ndarray:
    scale = max(float(np.linalg.norm(m)), 1e-300)
    asym = float(np.linalg.norm(m - m.T)) / scale
    if asym > _ASYM_TOL:
        raise AsymmetryExceeded(
            f"matrix {name} asymmetry {asym:.3e} exceeds {_ASYM_TOL:.0e}; "
            "quadrature is inconsistent"
        )
    return 0.5 * (m + m.T)


@cache
def _legendre_analysis(n: int) -> np.ndarray:
    """Map from values at n Gauss-Legendre nodes to Legendre coefficients."""
    t, w = npleg.leggauss(n)
    to_coeffs = (npleg.legvander(t, n - 1) * w[:, None] * (np.arange(n) + 0.5)).T
    to_coeffs.setflags(write=False)
    return to_coeffs


def _warn_if_unresolved(qvals: np.ndarray, basis: BasisSet) -> None:
    """Warn if q = 1/V has Legendre coefficients past 3N/4 on an N-node cell."""
    n = basis.cell_nodes
    to_coeffs = _legendre_analysis(n)
    coef = qvals.reshape((basis.nodes.size // n, n) * basis.dimension)
    for axis in range(1, coef.ndim, 2):
        coef = np.moveaxis(np.tensordot(to_coeffs, coef, axes=(1, axis)), 0, axis)
    coef, high = np.abs(coef), np.arange(n) >= 0.75 * n
    tail = max(coef[:, high].max(), coef[..., high].max()) / coef.max()
    if tail > _TAIL_TOL:
        msg = f"q = 1/V unresolved on {n}-node cells: Legendre tail {tail:.1e} past 3N/4"
        warnings.warn(msg, QuadratureWarning, stacklevel=4)


def _assemble(problem: ProblemSpec, basis: BasisSet) -> dict[str, np.ndarray]:
    n = problem.dimension
    nodes, weights = basis.nodes, basis.weights
    vvals = _potential_values(problem.potential, basis.grid_points())
    if np.min(vvals) <= _POSITIVITY_MARGIN:
        raise NonpositivePotential(
            f"potential minimum {np.min(vvals):.3e} at a quadrature node"
        )
    qvals = 1.0 / vvals
    _warn_if_unresolved(qvals, basis)

    pterms = p0_terms(problem.order, n)
    dfactors = dirichlet_factors(problem.order, n)
    ident = [(1.0, (0,) * n)]
    ev1 = cache(lambda k: basis.deriv1d(k, nodes))

    if n == 1:

        def form(termsI, termsJ, wvals):
            out = np.zeros((basis.size, basis.size))
            for ci, (ki,) in termsI:
                for cj, (kj,) in termsJ:
                    out += ci * cj * _factor_form(ev1(ki), ev1(kj), weights * wvals)
            return out

    else:
        w2 = np.outer(weights, weights)
        qn = nodes.size

        def form(termsI, termsJ, wvals):
            ns = basis.size
            wgrid = w2 * wvals.reshape(qn, qn)
            out = np.zeros((ns * ns, ns * ns))
            for ci, (kxi, kyi) in termsI:
                for cj, (kxj, kyj) in termsJ:
                    u = np.einsum("ia,ja->ija", ev1(kxi), ev1(kxj)).reshape(ns * ns, qn)
                    v = np.einsum("ib,jb->ijb", ev1(kyi), ev1(kyj)).reshape(ns * ns, qn)
                    r = (u @ wgrid @ v.T).reshape(ns, ns, ns, ns)
                    out += ci * cj * r.transpose(0, 2, 1, 3).reshape(ns * ns, ns * ns)
            return out

    ones = np.ones_like(qvals)
    mat_a = form(pterms, pterms, qvals)
    mat_bq = form(pterms, ident, qvals)
    mat_bd = sum(form(f, f, ones) for f in dfactors)
    mat_b = mat_bq + mat_bq.T + mat_bd
    mat_c = form(ident, ident, 1.0 + qvals)
    return {"A": mat_a, "B": mat_b, "C": mat_c}


def _parity_classes(problem: ProblemSpec, basis: BasisSet) -> tuple[np.ndarray, ...]:
    """Basis indices grouped by parity along the axes where V is reflection-invariant.

    A 1D factor j has parity (-1)^j in both families; a 2D index is
    i * size + j with x-factor i and y-factor j.  Gives 1, 2 or 4 classes,
    each ascending, in the order of their parity key.
    """
    parity = np.arange(basis.size) % 2
    keys = [
        parity if problem.potential.reflection_invariant(axis) else np.zeros_like(parity)
        for axis in range(problem.dimension)
    ]
    key = keys[0] if problem.dimension == 1 else (2 * keys[0][:, None] + keys[1]).ravel()
    return tuple(np.flatnonzero(key == k) for k in np.unique(key))


def assemble_system(problem: ProblemSpec, basis: BasisSet) -> GalerkinSystem:
    """Assemble A, B, C once, on the composite rule of ``basis``.

    The rule is exact for q = 1/V resolved on each cell; a QuadratureWarning
    reports a q whose Legendre tail says otherwise (V near zero, say).  The
    Gram matrix is the basis's own, checked by ``build_basis``.  Entries
    coupling two parity classes (``_parity_classes``) vanish in exact
    arithmetic and are set to zero.

    Raises:
        AsymmetryExceeded: pre-symmetrization asymmetry above 1e-8.
        ParityViolation: the dropped entries exceed 1e-8 of their matrix.
        NotPositiveDefinite: A or C fails factorization.
        NonpositivePotential: V not strictly positive at a quadrature node.
    """
    out = {k: _check_and_symmetrize(k, v) for k, v in _assemble(problem, basis).items()}
    blocks = _parity_classes(problem, basis)
    label = np.empty(basis.gram.shape[0], dtype=int)
    for cls, idx in enumerate(blocks):
        label[idx] = cls
    coupled = label[:, None] != label[None, :]
    for name, mat in out.items():
        leak = float(np.linalg.norm(mat[coupled])) / max(float(np.linalg.norm(mat)), 1e-300)
        if leak > _ASYM_TOL:
            raise ParityViolation(
                f"matrix {name} couples parity classes at {leak:.3e} of its norm, "
                f"above {_ASYM_TOL:.0e}"
            )
        mat[coupled] = 0.0
    for name in ("A", "C"):
        for idx in blocks:
            try:
                np.linalg.cholesky(out[name][np.ix_(idx, idx)])
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(f"matrix {name} is not positive definite") from exc

    return GalerkinSystem(
        gram=basis.gram,
        a=out["A"],
        b=out["B"],
        c=out["C"],
        problem=problem,
        basis=basis,
        blocks=blocks,
    )


def whiten(system: GalerkinSystem) -> WhitenedSystem:
    """Diagonalize the stiffness in mass-orthonormal coordinates, block by block.

    One congruence per parity block, taken on the inverse side: with
    L = chol(A_b), the eigendecomposition M = L^{-1} C_b L^{-T} = Q diag(mu) Q^T
    gives X_b = L^{-T} Q diag(mu)^{-1/2}, so that X^T C X = I and
    X^T A X = diag(1/mu).  The small stiffness eigenvalues 1/mu are the
    largest mu, which the symmetric eigensolver resolves to full relative
    accuracy.  The floor on mu is global, over all blocks, so a split pencil
    is refused exactly when the whole one is.

    Raises:
        NotPositiveDefinite: A or C has a non-finite entry, A has no Cholesky
            factor, or mu_min <= 1e-13 mu_max (this includes indefinite C).
    """
    if not (np.all(np.isfinite(system.a)) and np.all(np.isfinite(system.c))):
        raise NotPositiveDefinite("stiffness or mass has non-finite entries")
    factors = []
    for idx in system.blocks:
        sub = np.ix_(idx, idx)
        try:
            chol = np.linalg.cholesky(system.a[sub])
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("stiffness is not positive definite") from exc
        m = np.linalg.solve(chol, np.linalg.solve(chol, system.c[sub]).T)
        factors.append((idx, sub, chol, densela.sym_eig(0.5 * (m + m.T))))
    mu = np.concatenate([dec.eigenvalues[::-1] for *_, dec in factors])
    lo, hi = float(np.min(mu)), float(np.max(mu))
    if hi <= 0 or lo <= _SPD_FLOOR * hi:
        raise NotPositiveDefinite(
            f"mass-to-stiffness eigenvalue range [{lo:.3e}, {hi:.3e}] is not safely positive"
        )
    n = system.size
    stops = np.cumsum([idx.size for idx in system.blocks])
    blocks = tuple(slice(int(stop) - idx.size, int(stop)) for idx, stop in zip(system.blocks, stops))
    x, bw = np.zeros((n, n)), np.zeros((n, n))
    for (idx, sub, chol, dec), cols in zip(factors, blocks):
        xb = np.linalg.solve(chol.T, dec.eigenvectors[:, ::-1]) / np.sqrt(mu[cols])
        bb = xb.T @ system.b[sub] @ xb
        x[idx, cols] = xb
        bw[cols, cols] = 0.5 * (bb + bb.T)
    return WhitenedSystem(mu=mu, b=bw, to_basis=x, system=system, blocks=blocks)
