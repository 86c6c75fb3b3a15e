"""Companion linearization of the whitened quadratic pencil.

With S = diag(sqrt(mu)) the inverse square root of the diagonal whitened
stiffness and K = S B S, the block matrix

    D = [[K, -S],
         [S,  0]]

has exactly the reciprocals of the pencil roots as eigenvalues: lambda != 0
solves det(A - lambda B + lambda^2 I) = 0 if and only if 1/lambda is an
eigenvalue of D.  With T = diag(1/sqrt(mu), I) and the first-order form
F = [[0, I], [-A, B]], D = T F^{-1} T^{-1}; since F^{-1} - 1/lambda =
-F^{-1} (F - lambda) / lambda, ker (D - 1/lambda)^j = T ker (F - lambda)^j at
every depth j.  D inherits the symmetry blocks of the whitened system: block
b owns its whitened coordinates in both halves of D, and D couples no two
blocks, so every eigensolve runs on one diagonal block D_b at a time, and a
twin block's D_b, equal to its source's, reuses the source's eigenpairs.
This module builds D, extracts and clusters its spectrum,
recovers interior states (u, v, w) from eigenvectors, reads chains of
generalized eigenvectors from one flag of nested kernels of D, and validates
the resolvent block formula of the first-order form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import densela
from .assembly import WhitenedSystem, p0_terms
from .errors import (
    DegenerateState,
    EmptyChain,
    NearSpectrum,
    RankAmbiguous,
    ZeroEigenvalue,
)
from .model import _potential_values

DEFAULT_CLUSTER_TOL = 1e-6
DEFAULT_MU_FLOOR = 1e-12
_RANK_TRUNCATION = 1e-8
_RANK_GAP = 10.0


@dataclass
class CompanionSystem:
    """Companion matrix with its blocks and source system."""

    k: np.ndarray  # S B S, symmetric
    d: np.ndarray  # 2N x 2N companion matrix
    whitened: WhitenedSystem

    _spectrum: Optional[densela.ComplexSpectrum] = field(
        default=None, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return self.k.shape[0]

    @property
    def block_indices(self) -> list[np.ndarray]:
        """Rows (and columns) of D per symmetry block: its coordinates in both halves."""
        rows = np.arange(self.size)
        return [np.concatenate([rows[b], rows[b] + self.size]) for b in self.whitened.blocks]

    def diagonal_block(self, b: int) -> np.ndarray:
        """The diagonal block D_b of D; D vanishes off the blocks."""
        idx = self.block_indices[b]
        return self.d[np.ix_(idx, idx)]

    def eigen_data(self) -> densela.ComplexSpectrum:
        """Eigenpairs of D, computed once and cached, one block at a time.

        The eigenpairs of D_b take the columns ``block_indices[b]``, with each
        eigenvector scattered into those rows of a 2N-vector; a twin block
        takes its source's.
        """
        if self._spectrum is None:
            vals = np.empty(2 * self.size, dtype=complex)
            vecs = np.zeros((2 * self.size, 2 * self.size), dtype=complex)
            # a twin copies its source's entries of vecs, so no block's own
            # eigenvectors outlive their scatter
            rows = self.block_indices
            for b, (idx, source) in enumerate(zip(rows, self.whitened.twin_of)):
                if source is None:
                    spec = densela.nonsym_eig(self.diagonal_block(b), want_vectors=True)
                    vals[idx], vecs[np.ix_(idx, idx)] = spec.eigenvalues, spec.eigenvectors
                else:
                    src = rows[source]
                    vals[idx], vecs[np.ix_(idx, idx)] = vals[src], vecs[np.ix_(src, src)]
            self._spectrum = densela.ComplexSpectrum(vals, vecs)
        return self._spectrum


@dataclass(frozen=True)
class TransmissionEigenvalue:
    """One eigenvalue of the pencil, as recovered from the companion matrix."""

    lam: complex
    mu: complex
    qep_residual: float
    cluster_id: int
    multiplicity: int
    eigenvector_index: int  # column of CompanionSystem.eigen_data(), the blocked decomposition


@dataclass(frozen=True)
class Eigenstate:
    """Recovered interior states in basis coordinates.

    ``u`` is the clamped state with unit coefficient norm; ``v`` and ``w``
    are reconstructed so that v - w = -u holds exactly in coefficients.  For
    synthetic systems without basis metadata only ``u`` is available.
    """

    lam: complex
    u: np.ndarray
    v: Optional[np.ndarray]
    w: Optional[np.ndarray]
    r_pencil: float
    r_v: Optional[float]
    r_w: Optional[float]


@dataclass(frozen=True)
class JordanChain:
    """Chain of generalized states at one eigenvalue, whitened coordinates."""

    lam: complex
    vectors: tuple
    residuals: tuple


def build_companion(wh: WhitenedSystem) -> CompanionSystem:
    """Assemble the companion matrix from a whitened system.

    S = diag(sqrt(mu)) and K = S B S are diagonal scalings of the whitened
    system; the small stiffness eigenvalues, which dominate every trace of D,
    enter as the largest mu at full relative accuracy.
    """
    k = wh.comp_block
    n = wh.size
    root = np.sqrt(wh.mu)
    d = np.zeros((2 * n, 2 * n))
    d[:n, :n] = k
    np.fill_diagonal(d[:n, n:], -root)
    np.fill_diagonal(d[n:, :n], root)
    return CompanionSystem(k=k, d=d, whitened=wh)


def _cluster(mus: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage clusters under relative distance tol; returns labels."""
    m = mus.size
    labels = -np.ones(m, dtype=int)
    if m == 0:
        return labels
    scale = np.maximum(np.abs(mus)[:, None], np.abs(mus)[None, :])
    scale = np.maximum(scale, 1e-300)
    close = np.abs(mus[:, None] - mus[None, :]) / scale <= tol
    current = 0
    for i in range(m):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = current
        while stack:
            j = stack.pop()
            for k in np.nonzero(close[j] & (labels < 0))[0]:
                labels[k] = current
                stack.append(int(k))
        current += 1
    return labels


def extract_spectrum(
    comp: CompanionSystem,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    mu_floor: float = DEFAULT_MU_FLOOR,
) -> list[TransmissionEigenvalue]:
    """Eigenvalues of the companion matrix mapped to pencil roots.

    Entries come back one per companion eigenvalue (so algebraic multiplicity
    is preserved), sorted by |lambda|, clustered by relative distance in mu;
    each carries the residual of the whitened pencil at its recovered first
    component.
    """
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    spec = comp.eigen_data()
    keep = np.nonzero(np.abs(spec.eigenvalues) > mu_floor)[0]
    mus = spec.eigenvalues[keep]
    lams = 1.0 / mus

    # each eigenvector head lives in its block's coordinates: form the pencil
    # residual there, with B_bb; a twin's kept columns match its source's
    wh = comp.whitened
    places = [np.flatnonzero(np.isin(keep, idx)) for idx in comp.block_indices]

    def block_residuals(b: int) -> np.ndarray:
        blk, at = wh.blocks[b], places[b]
        lam = lams[at]
        # take() keeps u0 in C order; the column norms below round by memory order
        u0 = np.sqrt(wh.mu[blk])[:, None] * spec.eigenvectors[blk].take(keep[at], axis=1)
        res_vec = (1.0 / wh.mu[blk])[:, None] * u0 - (wh.b[blk, blk] @ u0) * lam + u0 * lam**2
        u0_norm = np.maximum(np.linalg.norm(u0, axis=0), 1e-300)
        denom = (1.0 + np.abs(lam) + np.abs(lam) ** 2) * u0_norm
        return np.linalg.norm(res_vec, axis=0) / denom

    residuals = np.empty(keep.size)
    for at, res in zip(places, wh.per_block(block_residuals)):
        residuals[at] = res

    order = np.lexsort((lams.imag, lams.real, np.abs(lams)))
    mus, lams, residuals = mus[order], lams[order], residuals[order]
    keep = keep[order]

    labels = _cluster(mus, cluster_tol)
    counts = np.bincount(labels)
    relabel: dict[int, int] = {}
    out = []
    for i in range(lams.size):
        cid = relabel.setdefault(int(labels[i]), len(relabel))
        out.append(
            TransmissionEigenvalue(
                lam=complex(lams[i]),
                mu=complex(mus[i]),
                qep_residual=float(residuals[i]),
                cluster_id=cid,
                multiplicity=int(counts[labels[i]]),
                eigenvector_index=int(keep[i]),
            )
        )
    return out


def pencil_eigenvalues(wh: WhitenedSystem) -> np.ndarray:
    """Pencil roots by direct first-order linearization [[0, I], [-A, B]].

    Independent route used to cross-check the reciprocal correspondence of
    the companion spectrum; one eigensolve per symmetry block, a twin
    reusing its source's.
    """

    def block_roots(b: int) -> np.ndarray:
        blk = wh.blocks[b]
        return densela.nonsym_eig(_first_order(wh.mu[blk], wh.b[blk, blk])).eigenvalues

    return np.concatenate(wh.per_block(block_roots))


def _first_order(mu: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First-order form [[0, I], [-A, B]] of a whitened pencil, A = diag(1/mu)."""
    n = mu.size
    m = np.zeros((2 * n, 2 * n))
    m[:n, n:] = np.eye(n)
    np.fill_diagonal(m[n:, :n], -1.0 / mu)
    m[n:, n:] = b
    return m


def recover_state(
    comp: CompanionSystem, mu: complex, y: np.ndarray, check_tol: float = 1e-6
) -> Eigenstate:
    """Interior states from a companion eigenpair.

    The first eigenvector block maps through S and the whitening congruence
    to the clamped state u (unit coefficient norm).  When basis metadata is
    present, w = q (P - lambda) u / lambda is sampled pointwise and projected,
    and v = w - u; their equations are checked weakly against the clamped
    test space, reported as dual-norm residuals scaled by (1 + |lambda|) ||.||.
    """
    y = np.asarray(y).reshape(-1)
    n = comp.size
    if abs(mu) < DEFAULT_MU_FLOOR:
        raise ZeroEigenvalue(f"companion eigenvalue {mu} below the floor")
    dresid = np.linalg.norm(comp.d @ y - mu * y)
    dscale = max(float(np.linalg.norm(comp.d)), 1e-300)
    if dresid > check_tol * dscale * max(np.linalg.norm(y), 1e-300):
        raise ValueError("supplied vector is not an eigenvector of the companion matrix")
    y1 = y[:n]
    if np.linalg.norm(y1) < 1e-12 * max(np.linalg.norm(y), 1e-300):
        raise DegenerateState("first component block vanishes; defective pairing")

    lam = 1.0 / mu
    wh = comp.whitened
    u_white = np.sqrt(wh.mu) * y1
    res = (1.0 / wh.mu) * u_white - lam * (wh.b @ u_white) + lam**2 * u_white
    r_pencil = float(
        np.linalg.norm(res)
        / ((1.0 + abs(lam) + abs(lam) ** 2) * max(np.linalg.norm(u_white), 1e-300))
    )

    u = wh.to_basis @ u_white
    u = u / np.linalg.norm(u)

    sys_ = wh.system
    if sys_.basis is None or sys_.problem is None:
        return Eigenstate(complex(lam), u, None, None, r_pencil, None, None)

    basis, problem = sys_.basis, sys_.problem
    pts = basis.grid_points()
    wq = basis.grid_weights()
    vvals = _potential_values(problem.potential, pts)
    qvals = 1.0 / vvals
    terms = p0_terms(problem.order, problem.dimension)

    u_pts = basis.point_values(u, (0,) * problem.dimension)
    pu_pts = basis.apply_terms(u, terms)
    w_pts = qvals * (pu_pts - lam * u_pts) / lam
    v_pts = w_pts - u_pts

    w_coef = basis.project(w_pts)
    v_coef = w_coef - u

    # ||L_G^{-1} r|| = ||G^{-1/2} r||, the dual norm, for G = L_G L_G^T
    chol_g = np.linalg.cholesky(sys_.gram)

    def dual_residual(values, lam_weight):
        rvec = basis.dual_moments(values, terms) - basis.weighted_moments(
            values * lam_weight, (0,) * problem.dimension
        )
        norm_h = float(np.sqrt(abs(np.sum(wq * np.abs(values) ** 2))))
        return float(
            np.linalg.norm(np.linalg.solve(chol_g, rvec))
            / ((1.0 + abs(lam)) * max(norm_h, 1e-300))
        )

    r_v = dual_residual(v_pts, lam)
    r_w = dual_residual(w_pts, lam * (1.0 + vvals))
    return Eigenstate(complex(lam), u, v_coef, w_coef, r_pencil, r_v, r_w)


def jordan_chain_residual(
    wh: WhitenedSystem, lam: complex, chain: Sequence[np.ndarray]
) -> np.ndarray:
    """Residuals of the chained pencil equations, one per chain link.

    For vectors u_0, ..., u_k the j-th residual is
    ||(A - lam B + lam^2) u_j + (-B + 2 lam) u_{j-1} + u_{j-2}|| / max_i ||u_i||
    with the convention u_{-1} = u_{-2} = 0.
    """
    if len(chain) == 0:
        raise EmptyChain("chain must contain at least one vector")
    vecs = [np.asarray(v).reshape(-1).astype(complex) for v in chain]
    scale = max(max(np.linalg.norm(v) for v in vecs), 1e-300)
    zero = np.zeros_like(vecs[0])
    inv_mu = 1.0 / wh.mu
    out = []
    for j, uj in enumerate(vecs):
        um1 = vecs[j - 1] if j >= 1 else zero
        um2 = vecs[j - 2] if j >= 2 else zero
        r = (
            inv_mu * uj
            - lam * (wh.b @ uj)
            + lam**2 * uj
            + (-(wh.b @ um1) + 2.0 * lam * um1)
            + um2
        )
        out.append(np.linalg.norm(r) / scale)
    return np.asarray(out)


def _nullity(svals: np.ndarray, threshold: float) -> int:
    """Count singular values below the truncation cut, enforcing a clean gap."""
    dropped = svals[svals < threshold]
    kept = svals[svals >= threshold]
    if dropped.size and kept.size and kept[-1] < _RANK_GAP * dropped[0]:
        raise RankAmbiguous(
            f"singular values {kept[-1]:.3e} / {dropped[0]:.3e} straddle the "
            f"truncation cut {threshold:.3e} without a factor-{_RANK_GAP:.0f} gap"
        )
    return int(dropped.size)


def jordan_chains(
    comp: CompanionSystem,
    cluster: Sequence[TransmissionEigenvalue],
    residual_tol: float = 1e-6,
) -> list[JordanChain]:
    """Chains of generalized states spanning one eigenvalue cluster.

    One kernel flag decides the Jordan structure: at each depth j a single
    SVD of (D - mu)^j gives the kernel dimension (``_nullity`` at the cut
    1e-8 sigma_max(D - mu)^j) and its basis, which T^{-1} maps onto
    ker (F - lambda)^j (see the module docstring).  Tops are completed from
    the deepest level down and pushed through F - lambda, so the whitened
    first components satisfy the pencil chain recursion.  Chains failing
    their residual check are discarded rather than repaired.
    """
    if not cluster:
        raise EmptyChain("cluster must contain at least one eigenvalue")
    mu = complex(np.mean([t.mu for t in cluster]))
    lam = 1.0 / mu
    size = len(cluster)
    n = comp.size
    wh = comp.whitened
    root = np.sqrt(wh.mu)[:, None]

    shifted = comp.d.astype(complex) - mu * np.eye(2 * n)
    power = np.eye(2 * n, dtype=complex)
    levels = [np.zeros((2 * n, 0), dtype=complex)]
    while levels[-1].shape[1] < size and len(levels) <= min(size, 2 * n):
        power = power @ shifted
        _, svals, vh = np.linalg.svd(power)
        # the cut for the j-th power is sigma_max(D - mu)^j, so that a
        # numerically nilpotent power (all noise) is still recognized as zero
        if len(levels) == 1:
            sigma = max(float(svals[0]), 1e-300)
        nullity = _nullity(svals, _RANK_TRUNCATION * sigma ** len(levels))
        if len(levels) >= 2 and nullity == levels[-1].shape[1]:
            break  # the flag is stationary: the root subspace is complete
        kernel = vh[2 * n - nullity :].conj().T
        levels.append(np.linalg.qr(np.vstack([root * kernel[:n], kernel[n:]]))[0])

    shifted_fo = _first_order(wh.mu, wh.b) - lam * np.eye(2 * n)
    out = []
    carried = np.zeros((2 * n, 0), dtype=complex)  # images of higher-level tops
    for depth in range(len(levels) - 1, 0, -1):
        # tops complete the level modulo the level below and the carried images
        known = np.linalg.qr(np.hstack([levels[depth - 1], carried]))[0]
        rest = levels[depth] - known @ (known.conj().T @ levels[depth])
        u, svals, _ = np.linalg.svd(rest, full_matrices=False)
        tops = u[:, svals > 1e-10]
        for top in tops.T:
            xs = [top]
            for _ in range(depth - 1):
                xs.append(shifted_fo @ xs[-1])
            us = [x[:n] for x in reversed(xs)]  # eigenvector first
            if np.linalg.norm(us[0]) < 1e-12:
                continue
            residuals = tuple(float(r) for r in jordan_chain_residual(wh, lam, us))
            if max(residuals) < residual_tol:
                out.append(JordanChain(complex(lam), tuple(us), residuals))
        # the new tops and the images carried from above drop one level
        carried = shifted_fo @ np.column_stack([tops, carried])
        carried = carried[:, np.linalg.norm(carried, axis=0) > 1e-12]
    return out


def resolvent_block_check(wh: WhitenedSystem, lam: complex) -> float:
    """Relative discrepancy of the first-order resolvent block formula.

    Compares the direct inverse of ([[0, I], [-A, B]] - lam) against the
    2x2 block expression built from the pencil inverse at lam.
    """
    lams = pencil_eigenvalues(wh)
    dist = np.abs(lams - lam) / np.maximum(np.abs(lams), 1e-300)
    if dist.size and float(np.min(dist)) < 1e-6:
        raise NearSpectrum(f"shift {lam} is within 1e-6 of a pencil eigenvalue")

    n = wh.size
    eye = np.eye(n)
    direct = np.linalg.inv(_first_order(wh.mu, wh.b) - lam * np.eye(2 * n, dtype=complex))

    inv_mu = 1.0 / wh.mu
    pencil = lam**2 * eye - lam * wh.b
    pencil.flat[:: n + 1] += inv_mu
    linv = np.linalg.inv(pencil.astype(complex))
    block = np.zeros_like(direct)
    block[:n, :n] = linv @ (wh.b - lam * eye)
    block[:n, n:] = -linv
    block[n:, :n] = linv * inv_mu[None, :]
    block[n:, n:] = -lam * linv
    return float(np.linalg.norm(direct - block) / max(np.linalg.norm(block), 1e-300))
