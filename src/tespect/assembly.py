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

Both families have parity (-1)^j under x -> 1 - x, so each symmetry of the
square (of the interval in 1D) acts on the basis as a signed permutation,
and both presets commute with it.  ``Symmetry`` reads the stabilizer H of V
and splits the pencil by it (Bossavit, CMAME 56 (1986) 167): H's flips and
180-degree rotation fix 1, 2 or 4 classes, between which A, B and C are
exact zeros, and H's signed swap g splits each class it maps onto itself
in halves and makes the second of two classes it exchanges a twin of the
first, with the same mu and B_w; a class on which g^2 = -1 (rot90 in C4)
stays whole.  ``whiten`` reduces each block that is not a twin by one
Cholesky factor and one symmetric eigensolve, to coordinates where the
mass is the identity and the stiffness is diagonal.

The numeric steps act on the last two axes with an optional leading stack
axis: ``assemble_stack`` forms and checks A, B, C for V given at the
quadrature points, ``whiten_stack`` whitens them block by block, and a
family of potentials on one basis (the potential scan) runs through them
as one stack, sharing the blocks and the Dirichlet form.  ``assemble_system``
and ``whiten`` are these kernels on one member.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Optional, Sequence

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
    refuse,
)
from .model import _EPS, SYMMETRIES, PotentialSpec, ProblemSpec, _potential_values, strictly_positive

_ASYM_TOL = 1e-8
_GRAM_FLOOR = 1e-12
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


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and values-to-Legendre-coefficients map of the n-point rule, read-only."""
    t, w = npleg.leggauss(n)
    to_coeffs = (npleg.legvander(t, n - 1) * w[:, None] * (np.arange(n) + 0.5)).T
    for array in (t, w, to_coeffs):
        array.setflags(write=False)
    return t, w, to_coeffs


def _composite_gauss(pot: PotentialSpec, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule, ``nodes`` points on each cell between the kinks of V."""
    edges = np.sort(np.concatenate(_knots(pot)))
    edges = edges[np.diff(edges, prepend=-1.0) > _EDGE_TOL]
    t, w, _ = _gauss_legendre(nodes)
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
    gram: np.ndarray = field(init=False, repr=False)  # set by ``build_basis``

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

    @cached_property
    def tables(self) -> list[np.ndarray]:
        """``deriv1d(k)`` at the quadrature nodes for k = 0 ... order, evaluated once."""
        return [self.deriv1d(k, self.nodes) for k in range(self.order + 1)]

    def point_values(self, coeffs: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
        """Values of sum_J c_J d^orders phi_J at the quadrature points, per stacked row of coeffs."""
        coeffs = np.asarray(coeffs)
        if self.dimension == 1:
            return coeffs @ self.tables[orders[0]]
        cm = coeffs.reshape(coeffs.shape[:-1] + (self.size, self.size))
        values = self.tables[orders[0]].T @ cm @ self.tables[orders[1]]
        return values.reshape(coeffs.shape[:-1] + (-1,))

    def apply_terms(self, coeffs: np.ndarray, terms) -> np.ndarray:
        """Pointwise action of a differential-term list on coefficient vectors."""
        return sum(c * self.point_values(coeffs, orders) for c, orders in terms)

    def weighted_moments(self, values: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
        """Vector of int values * d^orders phi_j over basis functions, per stacked row of values."""
        w = self.grid_weights() * np.asarray(values)
        if self.dimension == 1:
            return w @ self.tables[orders[0]].T
        wgrid = w.reshape(w.shape[:-1] + (self.nodes.size, self.nodes.size))
        moments = self.tables[orders[0]] @ wgrid @ self.tables[orders[1]].T
        return moments.reshape(w.shape[:-1] + (-1,))

    def dual_moments(self, values: np.ndarray, terms) -> np.ndarray:
        """Vector of int values * (term-list acting on phi_j), per stacked row of values."""
        return sum(c * self.weighted_moments(values, orders) for c, orders in terms)


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
    """int w e1_i e2_j on the rule, for weights w on the last axis (stacks allowed)."""
    return (e1 * w[..., None, :]) @ e2.T


@dataclass
class GalerkinSystem:
    """Assembled pencil matrices in basis coordinates.

    A, B and C are exactly zero between two classes of ``symmetry`` and exactly
    invariant under its signed swap; None means one class, as for a synthetic system.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    problem: Optional[ProblemSpec] = None
    basis: Optional[BasisSet] = None
    symmetry: Optional[Symmetry] = None

    def __post_init__(self):
        if self.symmetry is None:
            self.symmetry = Symmetry((np.arange(self.size),))

    @property
    def size(self) -> int:
        return self.a.shape[0]


@dataclass
class WhitenedSystem:
    """Pencil in mass-orthonormal coordinates with a diagonal stiffness.

    Whitened coordinates run block by block: ``blocks`` holds one slice per
    symmetry block (``Symmetry.blocks``), in its order.  ``twin_of[i]`` is
    the index of the earlier block that block i is an image of, or None:
    a twin has the source's mu bitwise and shares its B_w array, so every
    per-block result of the source serves it too (``per_block``).  ``mu``
    holds the eigenvalues of C relative to A, descending within each block:
    the whitened stiffness is diag(1/mu) and the mass is the identity.  The
    transformed B couples no two blocks, so ``b`` holds only its diagonal
    blocks, ``b[i]`` the n_i x n_i block B_w,i of block i; a twin's entry
    is its source's array.  ``to_basis`` is the congruence X with
    X^T C X = I and X^T A X = diag(1/mu); it maps whitened coordinate vectors
    back to basis coefficients.  ``deflated`` counts the coordinates dropped
    for a mu that rounding left at or just below zero, so X has that many
    fewer columns than rows.

    Only the vector ``mu`` is stored: products with A_w = diag(1/mu),
    S = A_w^{-1/2} = diag(sqrt(mu)) and A_w^{-1} = diag(mu) are row or column
    scalings.  The small stiffness eigenvalues, which dominate every trace of
    D, are the largest mu and so carry full relative accuracy.
    """

    mu: np.ndarray
    b: tuple[np.ndarray, ...]
    to_basis: np.ndarray
    system: GalerkinSystem
    blocks: tuple[slice, ...]
    twin_of: tuple[Optional[int], ...]
    deflated: int = 0

    @property
    def size(self) -> int:
        return self.mu.size

    def per_block(self, fn) -> list:
        """``fn(i)`` for each block i that is not a twin; a twin reuses its source's value."""
        return _reuse_twins(self.twin_of, fn)

    @classmethod
    def from_matrices(cls, a, b) -> "WhitenedSystem":
        """Whiten a synthetic pencil A - lam B + lam^2 I given by its matrices."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        eye = np.eye(a.shape[0])
        return whiten(GalerkinSystem(a=a, b=b, c=eye))

    def k_block(self, i: int) -> np.ndarray:
        """K_i = S_i B_w,i S_i, S_i = diag(sqrt(mu_i)), as an elementwise scaling."""
        root = np.sqrt(self.mu[self.blocks[i]])
        return root[:, None] * self.b[i] * root[None, :]


def _frobenius(x: np.ndarray, lead: int) -> np.ndarray:
    """Frobenius norm over the axes after the first ``lead``, one per stack member."""
    flat = x.reshape(x.shape[:lead] + (-1,))
    return np.sqrt(np.einsum("...k,...k->...", flat, flat))


def _pair_swapped(m: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """An ns^2 x ns^2 matrix as (..., ns, ns, ns, ns) and the view with each index pair swapped.

    Row (a, b) and column (c, d) become row (b, a) and column (d, c).  In
    the pair layout of ``_form`` that is the transpose; in basis order, the
    diagonal swap x <-> y.  Both stay in cache-friendly order, unlike a
    plain N x N transpose.
    """
    m4 = m.reshape(m.shape[:-2] + (size,) * 4)
    return m4, np.swapaxes(np.swapaxes(m4, -4, -3), -2, -1)


def _transposed(m: np.ndarray, basis: Optional[BasisSet]) -> tuple[np.ndarray, np.ndarray]:
    """M and M^T as views of one shape, for M in the layout of ``_form`` on ``basis``."""
    if basis is None or basis.dimension == 1:
        return m, np.swapaxes(m, -1, -2)
    return _pair_swapped(m, basis.size)


def _check_and_symmetrize(name: str, m: np.ndarray, basis: Optional[BasisSet] = None) -> np.ndarray:
    """(M + M^T) / 2 after checking ||M - M^T|| / ||M||, for M or each member of a stack.

    Given a 2D basis, M is in the pair layout of ``_form`` and the result
    in basis order.
    """
    lead = m.ndim - 2
    m, mt = _transposed(m, basis)
    out = m - mt
    asym = _frobenius(out, lead) / np.maximum(_frobenius(m, lead), 1e-300)
    refuse(
        AsymmetryExceeded,
        asym > _ASYM_TOL,
        lambda i: f"matrix {name} asymmetry {asym[i]:.3e} exceeds {_ASYM_TOL:.0e}; "
        "quadrature is inconsistent",
    )
    np.add(m, mt, out=out)
    out *= 0.5
    if out.ndim == lead + 2:
        return out
    # (i, j), (k, l) -> (i, k), (j, l): test index i*ns + k, trial index j*ns + l
    return out.swapaxes(-3, -2).reshape(out.shape[:lead] + (basis.size**2,) * 2)


def _warn_if_unresolved(qvals: np.ndarray, basis: BasisSet) -> None:
    """Warn, per stack member, if q = 1/V has Legendre coefficients past 3N/4 on an N-node cell."""
    n = basis.cell_nodes
    to_coeffs = _gauss_legendre(n)[2]
    lead = qvals.ndim - 1
    coef = qvals.reshape(qvals.shape[:-1] + (basis.nodes.size // n, n) * basis.dimension)
    node_axes = range(lead + 1, coef.ndim, 2)
    for axis in node_axes:
        coef = np.moveaxis(np.tensordot(to_coeffs, coef, axes=(1, axis)), 0, axis)
    coef, high = np.abs(coef), np.arange(n) >= 0.75 * n
    member = tuple(range(lead, coef.ndim))
    peaks = [np.compress(high, coef, axis=axis).max(axis=member) for axis in node_axes]
    tails = np.atleast_1d(np.maximum.reduce(peaks) / coef.max(axis=member))
    for tail in tails[tails > _TAIL_TOL]:
        msg = f"q = 1/V unresolved on {n}-node cells: Legendre tail {tail:.1e} past 3N/4"
        warnings.warn(msg, QuadratureWarning, stacklevel=4)


def _form(basis: BasisSet, terms_i, terms_j, wvals: np.ndarray) -> np.ndarray:
    """sum c_i c_j int w (d^i phi_I)(d^j phi_J) over two term lists, w on the last axis of ``wvals``.

    In 2D the result is in the pair layout: rows (i, j) pair the x-factors
    of test and trial function, columns (k, l) their y-factors, for test
    index i*ns + k and trial index j*ns + l; ``_check_and_symmetrize``
    returns it in basis order.
    """
    ev = basis.tables
    if basis.dimension == 1:
        w = basis.weights * wvals

        def term(ci, ki, cj, kj):
            return ci * cj * _factor_form(ev[ki[0]], ev[kj[0]], w)

    else:
        ns, qn = basis.size, basis.nodes.size
        wgrid = np.outer(basis.weights, basis.weights) * wvals.reshape(wvals.shape[:-1] + (qn, qn))

        def term(ci, ki, cj, kj):
            u = np.einsum("ia,ja->ija", ev[ki[0]], ev[kj[0]]).reshape(ns * ns, qn)
            v = np.einsum("ib,jb->ijb", ev[ki[1]], ev[kj[1]]).reshape(ns * ns, qn)
            r = u @ wgrid @ v.T
            if ci * cj != 1.0:
                r *= ci * cj
            return r

    out = None
    for ci, ki in terms_i:
        for cj, kj in terms_j:
            if out is None:
                out = term(ci, ki, cj, kj)
            else:
                out += term(ci, ki, cj, kj)
    return out


def dirichlet_form(basis: BasisSet) -> np.ndarray:
    """The Dirichlet form d(u_i, u_j) of the basis's preset order, in the layout of ``_form``.

    It does not involve V, so one serves every potential on the basis.
    """
    ones = np.ones(basis.grid_weights().size)
    factors = dirichlet_factors(basis.order, basis.dimension)
    return sum(_form(basis, f, f, ones) for f in factors)


def _raw_forms(basis: BasisSet, qvals: np.ndarray, dirichlet=None):
    """Yield ("A", A), ("B", B), ("C", C) before symmetrization, one at a time.

    q = 1/V at the quadrature points is on the last axis of ``qvals``, after
    an optional stack axis; ``dirichlet`` is ``dirichlet_form``, built here
    when not given.  The matrices are in the layout of ``_form``.  One is
    formed at a time, so a consumer that checks each as it comes holds one
    unchecked matrix at once.  B = Bq + Bq^T + d with Bq = int q (P u_i) u_j.
    """
    pterms, ident = p0_terms(basis.order, basis.dimension), [(1.0, (0,) * basis.dimension)]
    yield "A", _form(basis, pterms, pterms, qvals)
    bq = _form(basis, pterms, ident, qvals)
    b = np.add(*_transposed(bq, basis)).reshape(bq.shape)
    del bq
    b += dirichlet_form(basis) if dirichlet is None else dirichlet
    yield "B", b
    del b
    yield "C", _form(basis, ident, ident, 1.0 + qvals)


def _reuse_twins(twin_of: Sequence[Optional[int]], fn) -> list:
    """``fn(i)`` for each i with ``twin_of[i]`` None; a twin reuses its source's value."""
    out: list = []
    for i, source in enumerate(twin_of):
        out.append(fn(i) if source is None else out[source])
    return out


def _cholesky(m: np.ndarray, what: str) -> np.ndarray:
    """Cholesky factor of a matrix or of each member of a stack; NotPositiveDefinite names ``what``."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{what} is not positive definite") from None


def assemble_stack(
    basis: BasisSet,
    vvals: np.ndarray,
    symmetry: Symmetry,
    dirichlet: Optional[np.ndarray] = None,
) -> dict[str, np.ndarray]:
    """Checked A, B, C of one pencil, or of a stack of pencils on one basis.

    ``vvals`` holds V at ``basis.grid_points()`` on its last axis, after an
    optional leading stack axis that the matrices then share.  ``symmetry``
    is ``Symmetry.of`` the problem, which an affine family shares for every
    s; ``dirichlet`` is ``dirichlet_form``, built here when not given.
    Every check runs on every member: V > 0 at the nodes, the Legendre tail
    of q, the asymmetry, the leaks between classes and under the signed
    swap, and the Cholesky factor of C on each class; A is judged per
    whitening block in ``whiten_stack``.  A failed check refuses the whole
    stack, with the message of its first flagged member (``errors.refuse``).
    """
    vmin = np.min(vvals, axis=-1)
    refuse(
        NonpositivePotential,
        ~strictly_positive(vvals),
        lambda i: f"potential minimum {vmin[i]:.3e} at a quadrature node",
    )
    lead, qvals = vvals.ndim - 1, 1.0 / vvals
    _warn_if_unresolved(qvals, basis)
    out = {
        name: _check_and_symmetrize(name, mat, basis)
        for name, mat in _raw_forms(basis, qvals, dirichlet)
    }
    classes = symmetry.classes
    if len(classes) > 1:
        label = np.empty(out["A"].shape[-1], dtype=int)
        for cls, idx in enumerate(classes):
            label[idx] = cls
        coupled = label[:, None] != label[None, :]
        for name, mat in out.items():
            leak = _frobenius(mat * coupled, lead) / np.maximum(_frobenius(mat, lead), 1e-300)
            refuse(
                ParityViolation,
                leak > _ASYM_TOL,
                lambda i: f"matrix {name} couples symmetry classes at {leak[i]:.3e} of its norm, "
                f"above {_ASYM_TOL:.0e}",
            )
            mat *= ~coupled
    if symmetry.g is not None:
        sign = symmetry.sign.reshape(basis.size, basis.size)
        for name, mat in out.items():
            scale = np.maximum(_frobenius(mat, lead), 1e-300)
            m4, image = _pair_swapped(mat, basis.size)  # image[I, J] = M[pi(I), pi(J)]
            mean = image * sign[:, :, None, None]
            mean *= sign  # s(I) s(J) M[pi(I), pi(J)], the image P^T M P under g
            mean += m4
            mean *= 0.5  # the average (M + P^T M P) / 2
            m4 -= mean  # (M - P^T M P) / 2
            leak = 2.0 * _frobenius(mat, lead) / scale
            refuse(
                ParityViolation,
                leak > _ASYM_TOL,
                lambda i: f"matrix {name} changes under {symmetry.g} by {leak[i]:.3e} of "
                f"its norm, above {_ASYM_TOL:.0e}",
            )
            out[name] = mean.reshape(mat.shape)
    for idx in classes:
        _cholesky(out["C"][..., idx[:, None], idx], "matrix C")
    return out


def assemble_system(problem: ProblemSpec, basis: BasisSet) -> GalerkinSystem:
    """Assemble A, B, C once, on the composite rule of ``basis``: ``assemble_stack`` on one member.

    The rule is exact for q = 1/V resolved on each cell; a QuadratureWarning
    reports a q whose Legendre tail says otherwise (V near zero, say).  The
    Gram matrix is the basis's own, checked by ``build_basis``.  Entries
    between two classes of the problem's ``Symmetry`` vanish in exact
    arithmetic and are set to zero; given a signed swap P, each matrix M
    becomes (M + P^T M P) / 2, which moves it by at most the checked leak.

    Raises:
        AsymmetryExceeded: pre-symmetrization asymmetry above 1e-8.
        ParityViolation: the dropped entries, or the leak
            ||M - P^T M P|| / ||M||, exceed 1e-8.
        NotPositiveDefinite: C fails factorization on a class.  A is
            judged by ``whiten``, whose Cholesky factor per whitening block
            refuses it as "stiffness".
        NonpositivePotential: V not strictly positive at a quadrature node.
    """
    symmetry = Symmetry.of(problem, basis)
    vvals = _potential_values(problem.potential, basis.grid_points())
    out = assemble_stack(basis, vvals, symmetry)
    return GalerkinSystem(
        a=out["A"],
        b=out["B"],
        c=out["C"],
        problem=problem,
        basis=basis,
        symmetry=symmetry,
    )


@dataclass(frozen=True)
class _Block:
    """Orthonormal columns of one whitening block, in basis coordinates.

    Column c is e_{p_c} where ``q`` is None or q_c = p_c, else
    (e_{p_c} + sign_c e_{q_c}) / sqrt(2).  A twin lists in ``p`` the images
    pi(I) of its source's rows I.
    """

    p: np.ndarray
    q: Optional[np.ndarray] = None
    sign: Optional[np.ndarray] = None
    twin_of: Optional[int] = None

    def gather(self, m: np.ndarray) -> np.ndarray:
        """The sub-pencil matrix W^T M W of a g-invariant M (or of each member of a stack).

        With q = pi(p) and M exactly invariant, the four terms of W^T M W
        pair up: W^T M W = s s^T o (M[p, p] + M[p, q] diag(sign)), with
        s = 1/sqrt(2) on the g-fixed members (q_c = p_c) and 1 elsewhere.
        """
        if self.q is None and self.p.size == m.shape[-1]:
            return m  # the whole pencil in one block: p is every index, ascending
        rows = self.p[:, None]
        if self.q is None:
            return m[..., rows, self.p]
        scale = np.where(self.p == self.q, np.sqrt(0.5), 1.0)
        return (m[..., rows, self.p] + self.sign * m[..., rows, self.q]) * scale[:, None] * scale

    def scatter(self, x: np.ndarray, cols: slice, xb: np.ndarray) -> None:
        """Write W xb into the columns ``cols`` of X."""
        if self.q is None:
            x[self.p, cols] = xb
            return
        pair = self.p != self.q
        x[self.p, cols] = np.where(pair, np.sqrt(0.5), 1.0)[:, None] * xb
        x[self.q[pair], cols] = self.sign[pair, None] * x[self.p[pair], cols]


@dataclass(frozen=True)
class Symmetry:
    """The symmetry blocks of the pencil, from the stabilizer H of V (``PotentialSpec.stabilizer``).

    Each g = (swap, f_x, f_y) in H, named in ``names``, maps e_I, I = (i, j),
    to s(I) e_pi(I), s(I) = (-1)^(f_x i + f_y j) and pi the swap if set.
    H's diagonal elements fix the ``classes``: the ascending basis indices
    of equal sign under each, ordered by those signs (rot180 alone gives
    the (i + j)-parity classes).  ``g`` names H's signed swap, the plain
    swap if H has it, else None; ``perm`` and ``sign`` are its pi and s.
    """

    classes: tuple[np.ndarray, ...]
    names: tuple[str, ...] = ("identity",)
    g: Optional[str] = None
    perm: Optional[np.ndarray] = None
    sign: Optional[np.ndarray] = None

    @classmethod
    def of(cls, problem: ProblemSpec, basis: BasisSet) -> "Symmetry":
        names, d, n = problem.potential.stabilizer(), problem.dimension, basis.size
        factors = np.indices((n,) * d).reshape(d, -1)  # the 1D factor index per axis
        sign = {g: 1.0 - 2.0 * (np.dot(SYMMETRIES[g][1 : d + 1], factors) % 2) for g in names}
        diagonal = [g for g in names if not SYMMETRIES[g][0]][::-1]
        key = sum((2**k * (sign[g] < 0) for k, g in enumerate(diagonal)), np.zeros(n**d, int))
        classes = tuple(np.flatnonzero(key == k) for k in np.unique(key))
        g = next((g for g in names if SYMMETRIES[g][0]), None)
        swap = () if g is None else (g, np.arange(n * n).reshape(n, n).T.ravel(), sign[g])
        return cls(classes, names, *swap)

    @cached_property
    def blocks(self) -> list[_Block]:
        """The whitening blocks: the classes, split and paired by g.

        A class g maps onto itself with g^2 = 1 splits into halves +-1:
        columns (e_I +- s(I) e_pi(I)) / sqrt(2) for I < pi(I), e_I for I = pi(I)
        and s(I) = +-1, empty halves left out.  Of two classes g exchanges
        (only in D4, where g is the plain swap) the second becomes the first's
        twin.  A class with g^2 = -1 (rot90's (i + j)-odd class in C4, of
        complex type, with double eigenvalues) stays whole.
        """
        if self.g is None:
            return [_Block(idx) for idx in self.classes]
        out: list[_Block] = []
        sources: dict[int, int] = {}  # smallest index of a class's image -> the class's block
        for idx in self.classes:
            image, sign = self.perm[idx], self.sign[idx]
            source = sources.get(int(idx[0]))
            if source is not None:
                rows = out[source].p
                if not np.array_equal(np.sort(self.perm[rows]), idx):
                    raise ValueError(f"{self.g} does not map the classes onto each other")
                out.append(_Block(self.perm[rows], twin_of=source))
            elif np.array_equal(np.sort(image), idx) and np.all(sign == self.sign[image]):  # g^2 = 1
                for half_sign in (1.0, -1.0):
                    half = (idx < image) | ((idx == image) & (sign == half_sign))
                    if np.any(half):
                        out.append(_Block(idx[half], image[half], half_sign * sign[half]))
            else:  # a class that g maps elsewhere, or onto itself with g^2 = -1
                sources[int(image.min())] = len(out)
                out.append(_Block(idx))
        return out


def whiten_stack(
    blocks: list[_Block], a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The block whitening of one pencil, or of each member of a stack.

    For each block (``Symmetry.blocks``) that is not a twin, with W its
    columns and L = chol(W^T A W), the eigendecomposition
    M = L^{-1} (W^T C W) L^{-T} = Q diag(mu) Q^T gives X_b = L^{-T} Q
    diag(mu)^{-1/2} in the block's coordinates and B_w,b = X_b^T (W^T B W) X_b,
    symmetrized.  Returns (mu, X_b, B_w,b) per block, mu descending; a
    twin's entry is its source's tuple.  The mu cut is taken per member
    over all its blocks: with tau = eps max(mu), a mu in [-tau, 0] is
    rounding of an eigenvalue at infinity, whose column of X_b and row and
    column of B_w,b are zero, so a cut that differs between members is a
    mask.

    Raises:
        NotPositiveDefinite: A or C has a non-finite entry, a W^T A W has no
            Cholesky factor, no mu is positive, or some mu < -tau.
    """
    finite = np.isfinite(a).all(axis=(-2, -1)) & np.isfinite(c).all(axis=(-2, -1))
    refuse(NotPositiveDefinite, ~finite, lambda i: "stiffness or mass has non-finite entries")
    twin_of = [blk.twin_of for blk in blocks]

    def factor(i: int) -> tuple:
        chol = _cholesky(blocks[i].gather(a), "stiffness")
        m = np.linalg.solve(chol, np.swapaxes(np.linalg.solve(chol, blocks[i].gather(c)), -1, -2))
        dec = densela.sym_eig(m)  # checks the symmetry of m, then decomposes (m + m^T) / 2
        return chol, dec.eigenvalues[..., ::-1], dec.eigenvectors[..., ::-1]

    factors = _reuse_twins(twin_of, factor)
    sized = [mu for _, mu, _ in factors if mu.shape[-1]]
    top = np.max([mu[..., 0] for mu in sized], axis=0) if sized else np.zeros(a.shape[:-2])
    low = np.min([mu[..., -1] for mu in sized], axis=0) if sized else np.zeros(a.shape[:-2])
    tau = _EPS * top
    refuse(
        NotPositiveDefinite,
        (top <= 0) | (low < -tau),
        lambda i: "mass is not positive definite: smallest mass-to-stiffness eigenvalue "
        f"{low[i]:.3e}, largest {top[i]:.3e}, rounding level {tau[i]:.1e}",
    )

    def whitened(i: int) -> tuple:
        chol, mu, vecs = factors[i]
        root = np.sqrt(np.where(mu > 0, mu, np.inf))  # a cut column divides by inf
        xb = np.linalg.solve(np.swapaxes(chol, -1, -2), vecs) / root[..., None, :]
        bb = np.swapaxes(xb, -1, -2) @ blocks[i].gather(b) @ xb
        return mu, xb, 0.5 * (bb + np.swapaxes(bb, -1, -2))

    return _reuse_twins(twin_of, whitened)


def whiten(system: GalerkinSystem) -> WhitenedSystem:
    """Diagonalize the stiffness in mass-orthonormal coordinates, block by block.

    ``whiten_stack`` on one member: one congruence per symmetry block
    (``Symmetry.blocks``) that is not a twin, taken on the inverse side,
    X_b = W L^{-T} Q diag(mu)^{-1/2}, so that X^T C X = I and
    X^T A X = diag(1/mu).  A twin copies its source's mu, shares its B_w
    array, and its rows of X are the source's under g.  The small
    stiffness eigenvalues 1/mu are the largest mu, which the symmetric
    eigensolver resolves to full relative accuracy.  Tiny positive mu are
    the stiffest modes and are kept: they only feed the top of the
    spectrum.  A mu in [-tau, 0], tau = eps max(mu), is rounding of such a
    mode, an eigenvalue of the pencil at infinity: its coordinate is
    dropped (``deflated``).  The cut is global, over all blocks, so a split
    pencil is refused or deflated exactly as the whole one.

    Raises:
        NotPositiveDefinite: A or C has a non-finite entry, A has no Cholesky
            factor, no mu is positive, or some mu < -tau (C is not positive
            definite on the span).
    """
    blocks = system.symmetry.blocks
    parts = whiten_stack(blocks, system.a, system.b, system.c)
    kept = [int(np.count_nonzero(mu > 0)) for mu, _, _ in parts]  # mu descends: a prefix
    stops = np.cumsum(kept)
    slices = tuple(slice(int(stop) - k, int(stop)) for k, stop in zip(kept, stops))
    mu = np.concatenate([m[:k] for (m, _, _), k in zip(parts, kept)])
    x = np.zeros((system.size, mu.size))
    for blk, (_, xb, _), cols, k in zip(blocks, parts, slices, kept):
        blk.scatter(x, cols, xb[:, :k])  # a twin's p lists the images of its source's rows
    twin_of = tuple(blk.twin_of for blk in blocks)
    bw = _reuse_twins(twin_of, lambda i: np.ascontiguousarray(parts[i][2][: kept[i], : kept[i]]))
    return WhitenedSystem(
        mu=mu,
        b=tuple(bw),
        to_basis=x,
        system=system,
        blocks=slices,
        twin_of=twin_of,
        deflated=system.size - mu.size,
    )
