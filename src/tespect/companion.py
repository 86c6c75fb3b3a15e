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
blocks.  So D is stored as its diagonal blocks D_b = [[K_b, -S_b], [S_b, 0]],
each of size 2 n_b, and every eigensolve, state check and kernel flag runs
on one D_b; a twin block, whose D_b equals its source's, refers to the
source's block and eigenpairs.  No 2N x 2N matrix is formed.
This module builds the blocks, extracts and clusters their spectra,
recovers interior states (u, v, w) from eigenvectors in one batch, reads
chains of generalized eigenvectors from one flag of nested kernels per
block, and validates the resolvent block formula of the first-order form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
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

_CLUSTER_TOL = 1e-6  # relative distance in mu that links two eigenvalues into one cluster
_RANK_TRUNCATION = 1e-8
_RANK_GAP = 10.0
_CHAIN_RESIDUAL_TOL = 1e-6  # on the scale of qep_residual (``jordan_chain_residual``)
_STATE_CHUNK = 1 << 20  # point values per batch of states: bounds the transient memory


@dataclass
class CompanionSystem:
    """Companion matrix as its diagonal blocks, with its source system.

    ``blocks[b]`` is D_b, the 2 n_b x 2 n_b block of symmetry block b, with
    K_b in its leading n_b x n_b corner; a twin's entry is its source's array.
    """

    blocks: list[np.ndarray]
    whitened: WhitenedSystem

    _spectra: Optional[list[densela.ComplexSpectrum]] = field(
        default=None, repr=False, compare=False
    )

    def eigen_data(self) -> list[densela.ComplexSpectrum]:
        """Eigenpairs of each block D_b, computed once and cached.

        Entry b holds the eigenvalues of D_b and its eigenvectors as columns
        of length 2 n_b; a twin's entry is its source's.
        """
        if self._spectra is None:
            self._spectra = self.whitened.per_block(
                lambda b: densela.nonsym_eig(self.blocks[b], want_vectors=True)
            )
        return self._spectra


@dataclass(frozen=True)
class TransmissionEigenvalue:
    """One eigenvalue of the pencil, as recovered from the companion matrix."""

    lam: complex
    mu: complex
    qep_residual: float
    cluster_id: int
    multiplicity: int
    block: int  # symmetry block whose D_b has mu as an eigenvalue
    column: int  # its eigenvector's column in CompanionSystem.eigen_data()[block]


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
    """Assemble the companion blocks D_b from a whitened system.

    S_b = diag(sqrt(mu_b)) and K_b = S_b B_w,b S_b (``WhitenedSystem.k_block``)
    are diagonal scalings of the whitened block; the small stiffness
    eigenvalues, which dominate every trace of D, enter as the largest mu at
    full relative accuracy.  A twin block refers to its source's D_b.
    """

    def block(b: int) -> np.ndarray:
        root, k = np.sqrt(wh.mu[wh.blocks[b]]), wh.k_block(b)
        return np.block([[k, np.diag(-root)], [np.diag(root), np.zeros_like(k)]])

    return CompanionSystem(blocks=wh.per_block(block), whitened=wh)


def _cluster(mus: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage clusters under relative distance tol; returns labels.

    Two values are linked when |a - b| <= tol max(|a|, |b|).  Such a pair
    also has ||a| - |b|| <= tol max(|a|, |b|), so after sorting by modulus
    each value is compared only with the later ones up to that gap (with
    twice the tolerance, against rounding); comparing only neighbours would
    miss links, since conjugates and twins share a modulus.  Labels count
    the clusters in the order of their first member in ``mus``.
    """
    order = np.argsort(np.abs(mus), kind="stable")
    z = mus[order]
    r = np.abs(z)
    stop = np.searchsorted(r, r / (1.0 - 2.0 * tol) if tol < 0.5 else np.inf, side="right")
    idx = np.arange(mus.size)
    links = [np.empty((2, 0), dtype=int)]
    for shift in range(1, int(np.max(stop - idx, initial=1))):
        i = idx[idx + shift < stop]
        close = np.abs(z[i] - z[i + shift]) / np.maximum(np.maximum(r[i], r[i + shift]), 1e-300) <= tol
        links.append(np.vstack([i[close], i[close] + shift]))
    i, j = np.hstack(links)

    # each label points at a member of its cluster, at or below itself: lower
    # them along the links, then to their targets' labels, until links agree
    labels = idx.copy()
    while np.any(labels[i] != labels[j]):
        low = np.minimum(labels[i], labels[j])
        np.minimum.at(labels, i, low)
        np.minimum.at(labels, j, low)
        labels = labels[labels]
    _, first, inverse = np.unique(labels[np.argsort(order)], return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def extract_spectrum(comp: CompanionSystem) -> list[TransmissionEigenvalue]:
    """Eigenvalues of the companion matrix mapped to pencil roots.

    Entries come back one per eigenvalue of every block D_b, a twin's
    included, so 2 ``wh.size`` in all and algebraic multiplicity is
    preserved: after ``whiten``'s deflation det D_b = prod mu_b > 0, so no
    mu is zero and every root 1/mu exists.  They are sorted by |lambda| and
    clustered by relative distance in mu under ``_CLUSTER_TOL`` = 1e-6
    (``_cluster``); each carries the residual of the whitened pencil at its
    recovered first component, which says how good the root is.
    """
    spectra = comp.eigen_data()
    wh = comp.whitened

    # each eigenvector head lives in its block's coordinates: form the pencil
    # residual there, with B_w,b; a twin's columns match its source's
    def block_part(b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        blk, mu = wh.blocks[b], spectra[b].eigenvalues
        # u0 in C order: the column norms round by memory order
        u0 = np.sqrt(wh.mu[blk])[:, None] * np.ascontiguousarray(spectra[b].eigenvectors[: blk.stop - blk.start])
        return np.arange(mu.size), mu, _pencil_residuals(wh, b, 1.0 / mu, u0)

    parts = wh.per_block(block_part)
    columns, mus, residuals = (np.concatenate(part) for part in zip(*parts))
    blocks = np.repeat(np.arange(len(parts)), [cols.size for cols, _, _ in parts])
    lams = 1.0 / mus

    order = np.lexsort((lams.imag, lams.real, np.abs(lams)))
    mus, lams, residuals = mus[order], lams[order], residuals[order]
    blocks, columns = blocks[order], columns[order]

    labels = _cluster(mus, _CLUSTER_TOL)
    counts = np.bincount(labels)
    return [
        TransmissionEigenvalue(
            lam=complex(lams[i]),
            mu=complex(mus[i]),
            qep_residual=float(residuals[i]),
            cluster_id=int(labels[i]),
            multiplicity=int(counts[labels[i]]),
            block=int(blocks[i]),
            column=int(columns[i]),
        )
        for i in range(lams.size)
    ]


def block_eigenvalues(comp: CompanionSystem) -> list[np.ndarray]:
    """The pencil roots of each symmetry block, without eigenvectors.

    Entry b holds lambda = 1/mu for every eigenvalue mu of D_b, 2 n_b of
    them, in LAPACK's order; one eigenvalue-only solve per block, a twin's
    entry is its source's.  LAPACK's eigenvalue-only path may round
    differently from the one with vectors.
    """
    return comp.whitened.per_block(lambda b: 1.0 / densela.nonsym_eig(comp.blocks[b]).eigenvalues)


def _pencil_residuals(wh: WhitenedSystem, b: int, lam: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Relative residuals of the whitened pencil at columns u0 of block b, each at its lam."""
    res_vec = (1.0 / wh.mu[wh.blocks[b]])[:, None] * u0 - (wh.b[b] @ u0) * lam + u0 * lam**2
    u0_norm = np.maximum(np.linalg.norm(u0, axis=0), 1e-300)
    denom = (1.0 + np.abs(lam) + np.abs(lam) ** 2) * u0_norm
    return np.linalg.norm(res_vec, axis=0) / denom


def pencil_eigenvalues(wh: WhitenedSystem) -> np.ndarray:
    """Pencil roots by direct first-order linearization [[0, I], [-A, B]].

    Independent route used to cross-check the reciprocal correspondence of
    the companion spectrum; one eigensolve per symmetry block, a twin
    reusing its source's.
    """

    def block_roots(b: int) -> np.ndarray:
        return densela.nonsym_eig(_first_order(wh.mu[wh.blocks[b]], wh.b[b])).eigenvalues

    return np.concatenate(wh.per_block(block_roots))


def _first_order(mu: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First-order form [[0, I], [-A, B]] of a whitened pencil, A = diag(1/mu)."""
    n = mu.size
    return np.block([[np.zeros((n, n)), np.eye(n)], [np.diag(-1.0 / mu), b]])


def recover_states(
    comp: CompanionSystem,
    spec: Sequence[TransmissionEigenvalue],
    check_tol: float = 1e-6,
) -> list[Eigenstate]:
    """Interior states from companion eigenpairs, one per entry of ``spec``.

    Each entry's eigenvector is checked against its own block D_b, relative
    to ||D_b||_F.  Its first half maps through S_b and the block's columns of
    the whitening congruence to the clamped state u (unit coefficient norm).
    When basis metadata is present, w = q (P - lambda) u / lambda is sampled
    pointwise and projected, and v = w - u; their equations are checked
    weakly against the clamped test space, reported as dual-norm residuals
    scaled by (1 + |lambda|) ||.||.  The states are sampled in batches, and
    one solve with the Gram matrix G projects all of them, one with its
    Cholesky factor takes all their dual norms.
    """
    wh = comp.whitened
    mus = np.array([t.mu for t in spec], dtype=complex)
    if np.any(mus == 0):
        raise ZeroEigenvalue("companion eigenvalue 0 has no reciprocal")
    lams = 1.0 / mus
    blocks = np.array([t.block for t in spec], dtype=int)
    u = np.empty((mus.size, wh.to_basis.shape[0]), dtype=complex)
    r_pencil = np.empty(mus.size)
    for b in set(blocks.tolist()):
        blk, d = wh.blocks[b], comp.blocks[b]
        at = np.flatnonzero(blocks == b)
        y = comp.eigen_data()[b].eigenvectors[:, [spec[i].column for i in at]]
        y_norm = np.maximum(np.linalg.norm(y, axis=0), 1e-300)
        dresid = np.linalg.norm(d @ y - y * mus[at], axis=0)
        if np.any(dresid > check_tol * max(float(np.linalg.norm(d)), 1e-300) * y_norm):
            raise ValueError("supplied vector is not an eigenvector of its companion block")
        y1 = y[: blk.stop - blk.start]
        if np.any(np.linalg.norm(y1, axis=0) < 1e-12 * y_norm):
            raise DegenerateState("first component block vanishes; defective pairing")

        u_white = np.sqrt(wh.mu[blk])[:, None] * y1
        r_pencil[at] = _pencil_residuals(wh, b, lams[at], u_white)
        ub = wh.to_basis[:, blk] @ u_white
        u[at] = (ub / np.linalg.norm(ub, axis=0)).T

    sys_ = wh.system
    if sys_.basis is None or sys_.problem is None:
        return [
            Eigenstate(complex(lam), ui, None, None, float(r), None, None)
            for lam, ui, r in zip(lams, u, r_pencil)
        ]

    basis, problem = sys_.basis, sys_.problem
    zero = (0,) * problem.dimension
    wq = basis.grid_weights()
    vvals = _potential_values(problem.potential, basis.grid_points())
    terms = p0_terms(problem.order, problem.dimension)

    # moments of w against the basis, and the weak residuals of v and of w
    m, size = u.shape
    moments = np.empty_like(u)
    weak = np.empty((2, m, size), dtype=complex)
    norm_h = np.empty((2, m))
    step = max(1, _STATE_CHUNK // wq.size)
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        lam = lams[rows, None]
        u_pts = basis.point_values(u[rows], zero)
        w_pts = (basis.apply_terms(u[rows], terms) - lam * u_pts) / (lam * vvals)
        v_pts = w_pts - u_pts
        moments[rows] = basis.weighted_moments(w_pts, zero)
        for k, (values, weight) in enumerate(((v_pts, lam), (w_pts, lam * (1.0 + vvals)))):
            weak[k, rows] = basis.dual_moments(values, terms) - basis.weighted_moments(values * weight, zero)
            norm_h[k, rows] = np.sqrt(np.abs(np.sum(wq * np.abs(values) ** 2, axis=1)))

    w_coef = np.linalg.solve(basis.gram, moments.T).T
    v_coef = w_coef - u
    # ||L_G^{-1} r|| = ||G^{-1/2} r||, the dual norm, for G = L_G L_G^T
    chol_g = np.linalg.cholesky(basis.gram)
    dual = np.linalg.norm(np.linalg.solve(chol_g, weak.reshape(2 * m, size).T), axis=0)
    r_v, r_w = dual.reshape(2, m) / ((1.0 + np.abs(lams)) * np.maximum(norm_h, 1e-300))
    return [
        Eigenstate(complex(lam), *vecs, float(r), float(rv), float(rw))
        for lam, *vecs, r, rv, rw in zip(lams, u, v_coef, w_coef, r_pencil, r_v, r_w)
    ]


def jordan_chain_residual(
    wh: WhitenedSystem, lam: complex, chain: Sequence[np.ndarray]
) -> np.ndarray:
    """Residuals of the chained pencil equations, one per chain link.

    For vectors u_0, ..., u_k the j-th residual is
    ||(A - lam B + lam^2) u_j + (-B + 2 lam) u_{j-1} + u_{j-2}|| / ((1 + |lam| + |lam|^2) max_i ||u_i||)
    with u_{-1} = u_{-2} = 0, so a one-link chain's residual is its eigenpair's
    ``qep_residual``.  B_w is applied block by block.
    """
    if len(chain) == 0:
        raise EmptyChain("chain must contain at least one vector")
    u = np.array([np.asarray(v).reshape(-1) for v in chain], dtype=complex)
    # rows are the links; B_w is symmetric, so u_j B_w is (B_w u_j)^T
    ub = np.hstack([u[:, blk] @ bb for blk, bb in zip(wh.blocks, wh.b)])
    um1, ubm1 = (np.vstack([np.zeros_like(x[:1]), x[:-1]]) for x in (u, ub))
    um2 = np.vstack([np.zeros_like(u[:2]), u[:-2]])
    r = u / wh.mu - lam * ub + lam**2 * u + (-ubm1 + 2.0 * lam * um1) + um2
    scale = (1.0 + abs(lam) + abs(lam) ** 2) * max(float(np.max(np.linalg.norm(u, axis=1))), 1e-300)
    return np.linalg.norm(r, axis=1) / scale


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


def jordan_chains(comp: CompanionSystem, cluster: Sequence[TransmissionEigenvalue]) -> list[JordanChain]:
    """Chains of generalized states spanning one eigenvalue cluster.

    Each block holding members of the cluster gives its chains from its own
    D_b (``_block_chains``), a twin reusing its source's in its own slice, in
    whitened N-coordinates; a chain with a link residual at or above
    ``_CHAIN_RESIDUAL_TOL`` is discarded rather than repaired.
    """
    if not cluster:
        raise EmptyChain("cluster must contain at least one eigenvalue")
    mu = complex(np.mean([t.mu for t in cluster]))
    lam = 1.0 / mu
    wh = comp.whitened
    members = np.bincount([t.block for t in cluster])
    chains_of = cache(lambda source, size: _block_chains(comp, source, mu, size))
    out = []
    for b in np.flatnonzero(members):
        for heads in chains_of(b if wh.twin_of[b] is None else wh.twin_of[b], int(members[b])):
            us = np.zeros((len(heads), wh.size), dtype=complex)
            us[:, wh.blocks[b]] = heads
            residuals = tuple(float(r) for r in jordan_chain_residual(wh, lam, us))
            if max(residuals) < _CHAIN_RESIDUAL_TOL:
                out.append(JordanChain(complex(lam), tuple(us), residuals))
    return out


def _block_chains(comp: CompanionSystem, b: int, mu: complex, size: int) -> list[list[np.ndarray]]:
    """Candidate chains of D_b at mu, in block b's whitened coordinates, eigenvector first.

    One kernel flag decides the Jordan structure: at each depth j a single
    SVD of (D_b - mu)^j gives the kernel dimension (``_nullity`` at the cut
    1e-8 sigma_max(D_b - mu)^j) and its basis, which T^{-1} maps onto
    ker (F_b - lambda)^j (see the module docstring); ``size`` bounds the
    depth of the flag.  Tops are completed from the deepest level down and
    pushed through F_b - lambda, so the whitened first components satisfy
    the pencil chain recursion.
    """
    wh = comp.whitened
    blk = wh.blocks[b]
    n = blk.stop - blk.start
    root = np.sqrt(wh.mu[blk])[:, None]

    shifted = comp.blocks[b].astype(complex) - mu * np.eye(2 * n)
    power = np.eye(2 * n, dtype=complex)
    levels = [np.zeros((2 * n, 0), dtype=complex)]
    while levels[-1].shape[1] < size and len(levels) <= min(size, 2 * n):
        power = power @ shifted
        _, svals, vh = np.linalg.svd(power)
        # the cut for the j-th power is sigma_max(D_b - mu)^j, so that a
        # numerically nilpotent power (all noise) is still recognized as zero
        if len(levels) == 1:
            sigma = max(float(svals[0]), 1e-300)
        nullity = _nullity(svals, _RANK_TRUNCATION * sigma ** len(levels))
        if len(levels) >= 2 and nullity == levels[-1].shape[1]:
            break  # the flag is stationary: the root subspace is complete
        kernel = vh[2 * n - nullity :].conj().T
        levels.append(np.linalg.qr(np.vstack([root * kernel[:n], kernel[n:]]))[0])

    shifted_fo = _first_order(wh.mu[blk], wh.b[b]) - np.eye(2 * n) / mu
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
            if np.linalg.norm(us[0]) >= 1e-12:
                out.append(us)
        # the new tops and the images carried from above drop one level
        carried = shifted_fo @ np.column_stack([tops, carried])
        carried = carried[:, np.linalg.norm(carried, axis=0) > 1e-12]
    return out


def resolvent_block_check(wh: WhitenedSystem, lam: complex) -> float:
    """Relative discrepancy of the first-order resolvent block formula.

    Compares the direct inverse of ([[0, I], [-A, B]] - lam) against the
    2x2 block expression built from the pencil inverse at lam.  The form
    couples no two symmetry blocks, so both sides are taken block by block
    and their Frobenius norms summed in squares, a twin counting its
    source's again.
    """
    lams = pencil_eigenvalues(wh)
    dist = np.abs(lams - lam) / np.maximum(np.abs(lams), 1e-300)
    if dist.size and float(np.min(dist)) < 1e-6:
        raise NearSpectrum(f"shift {lam} is within 1e-6 of a pencil eigenvalue")

    def block_norms(b: int) -> tuple[float, float]:
        mu, bmat = wh.mu[wh.blocks[b]], wh.b[b]
        n = mu.size
        eye = np.eye(n)
        direct = np.linalg.inv(_first_order(mu, bmat) - lam * np.eye(2 * n, dtype=complex))

        inv_mu = 1.0 / mu
        pencil = lam**2 * eye - lam * bmat
        pencil.flat[:: n + 1] += inv_mu
        linv = np.linalg.inv(pencil.astype(complex))
        block = np.block([[linv @ (bmat - lam * eye), -linv], [linv * inv_mu[None, :], -lam * linv]])
        return np.linalg.norm(direct - block) ** 2, np.linalg.norm(block) ** 2

    gap, scale = np.sqrt(np.sum(wh.per_block(block_norms), axis=0))
    return float(gap / max(scale, 1e-300))
