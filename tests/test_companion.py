import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import cached_system, companion_eigenvalues, dense_bw, dense_d, random_spd_pencil, sorted_roots
from tespect import assembly, companion, densela, oracles
from tespect.errors import (
    DegenerateState,
    EmptyChain,
    NearSpectrum,
    RankAmbiguous,
    ZeroEigenvalue,
)
from tespect.model import _potential_values
from tespect.util import match_multisets


# -- companion construction ------------------------------------------------------


def test_build_companion_toy(toy_companion):
    d = dense_d(toy_companion)
    assert d[0, 0] == pytest.approx(1.25, abs=1e-14)
    assert np.sqrt(toy_companion.whitened.mu)[0] == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(d, [[1.25, -0.5], [0.5, 0.0]], atol=1e-14)


def test_build_companion_zero_b():
    wh = assembly.WhitenedSystem.from_matrices(np.eye(3), np.zeros((3, 3)))
    comp = companion.build_companion(wh)
    expected = np.block(
        [[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]]
    )
    assert np.allclose(dense_d(comp), expected, atol=1e-14)


def test_companion_blocks_symmetric():
    rng = np.random.default_rng(5)
    wh = random_spd_pencil(rng, 15)
    comp = companion.build_companion(wh)
    d, n = dense_d(comp), wh.size
    for block in (d[:n, :n], np.diag(np.sqrt(wh.mu))):
        assert np.linalg.norm(block - block.T) <= 1e-10 * np.linalg.norm(block)
    # the lower-left block is minus the transpose of the upper-right one
    assert np.allclose(d[n:, :n], -d[:n, n:].T, atol=1e-14)


# -- spectrum extraction -----------------------------------------------------------


def test_extract_spectrum_toy(toy_companion):
    spec = companion.extract_spectrum(toy_companion)
    lams = sorted(t.lam.real for t in spec)
    assert np.allclose(lams, [1.0, 4.0], atol=1e-12)
    assert all(t.qep_residual < 1e-12 for t in spec)
    assert all(abs(t.lam * t.mu - 1.0) < 1e-12 for t in spec)
    assert all(t.multiplicity == 1 for t in spec)


def test_extract_spectrum_finds_oracle_eigenvalue(helmholtz48):
    _, _, _, wh = helmholtz48
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    target = 4.0 * np.pi**2
    best = min(spec, key=lambda t: abs(t.lam - target))
    assert abs(best.lam - target) / target < 1e-4
    assert best.qep_residual < 1e-8


def test_lowest_real_eigenvalues_match_interval_oracle_n128():
    _, _, _, wh = cached_system(operator="laplacian", size=128, contrast=2.0)
    spec = companion.extract_spectrum(companion.build_companion(wh))
    lams = np.array([t.lam for t in spec])
    real = np.sort(lams[np.abs(lams.imag) <= 1e-8 * np.abs(lams)].real)
    roots = oracles.oracle_1d(2.0, 0.5, 20.0, 2000)
    ref = np.array([r.lam for r in roots[:4]])
    assert ref.size == 4
    assert np.max(np.abs(real[:4] - ref) / ref) < 1e-10


def block_eigenvalues(wh):
    """Pencil eigenvalues of each parity block, in block order."""
    sizes = [2 * (b.stop - b.start) for b in wh.blocks]
    return np.split(companion.pencil_eigenvalues(wh), np.cumsum(sizes)[:-1])


def test_parity_blocks_match_oracle_parity_rows():
    # block 0 holds the even basis functions, which the even row e matches;
    # scanned as modes 0 and 1, the rows' roots are tagged by parity
    _, _, _, wh = cached_system(operator="laplacian", size=32, contrast=2.0)
    eta = math.sqrt(3.0)
    rows = lambda k: oracles.interval_parity_determinants(k, eta)
    roots = oracles._scan_roots(rows, 0.5, 20.0, 2000, [0, 1], tau=0.5 * (1.0 + eta))
    expected = ([61.868403, 314.782514], [78.973723, 277.460857])
    for parity, (lams, approx) in enumerate(zip(block_eigenvalues(wh), expected)):
        real = np.sort(lams[np.abs(lams.imag) <= 1e-8 * np.abs(lams)].real)
        ref = np.array([r.lam for r in roots if r.l == parity][:2])
        assert np.allclose(ref, approx, rtol=0.0, atol=1e-6)
        assert np.max(np.abs(real[:2] - ref)) <= 1e-8


@pytest.mark.parametrize("size", [16, 32, 64])
def test_contrast_three_star_lives_in_the_odd_block(size):
    # the simple zero of e gives one accurate eigenvalue in the even block;
    # the triple zero of o gives a cube-root star in the odd block
    _, _, _, wh = cached_system(operator="laplacian", size=size, contrast=3.0)
    target = 4.0 * math.pi**2
    even, odd = (lams[np.abs(lams - target) < 1e-2] for lams in block_eigenvalues(wh))
    assert even.size == 1 and abs(even[0] - target) <= 1e-10
    assert odd.size == 3 and abs(odd.mean() - target) <= 1e-10


def test_spectrum_conjugate_pairs(helmholtz32):
    _, _, _, wh = helmholtz32
    comp = companion.build_companion(wh)
    lams = np.array([t.lam for t in companion.extract_spectrum(comp)])
    assert match_multisets(lams, lams.conj()) < 1e-8


def test_spectrum_never_reports_zero(helmholtz32):
    _, _, _, wh = helmholtz32
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    assert len(spec) == 2 * wh.size
    assert all(t.lam != 0 and np.isfinite(t.lam) for t in spec)


def test_lidskii_sum(helmholtz32):
    _, _, _, wh = helmholtz32
    comp = companion.build_companion(wh)
    mus = np.array([t.mu for t in companion.extract_spectrum(comp)])
    tr = np.trace(dense_d(comp)[: wh.size, : wh.size])
    assert abs(mus.sum() - tr) <= 1e-8 * max(abs(tr), 1e-300)


def test_reciprocal_correspondence_nonresonant():
    # generic contrast keeps the spectrum simple, so the two routes pair off
    for operator, size in (("laplacian", 32), ("bilaplacian", 24)):
        _, _, _, wh = cached_system(operator=operator, size=size, contrast=2.5)
        comp = companion.build_companion(wh)
        mus = companion_eigenvalues(comp)
        direct = companion.pencil_eigenvalues(wh)
        assert match_multisets(1.0 / mus, direct) < 1e-7


def test_reciprocal_correspondence_random_systems():
    rng = np.random.default_rng(404)
    for _ in range(10):
        wh = random_spd_pencil(rng, 12)
        comp = companion.build_companion(wh)
        mus = companion_eigenvalues(comp)
        direct = companion.pencil_eigenvalues(wh)
        assert match_multisets(1.0 / mus, direct) < 1e-7


def test_square_fourth_order_spectrum_well_formed():
    # 2D fourth-order path: conjugate pairing and the trace-sum identity
    _, _, _, wh = cached_system(
        operator="bilaplacian", dimension=2, size=6, contrast=2.0
    )
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    mus = np.array([t.mu for t in spec])
    lams = np.array([t.lam for t in spec])
    assert match_multisets(lams, lams.conj()) < 1e-8
    tr = np.trace(dense_d(comp))
    assert abs(mus.sum() - tr) <= 1e-8 * max(abs(tr), 1e-300)


def test_cluster_multiplicity_defective(defective_whitened):
    comp = companion.build_companion(defective_whitened)
    spec = companion.extract_spectrum(comp)
    assert all(t.multiplicity == 4 for t in spec)
    assert all(t.cluster_id == 0 for t in spec)


def brute_force_clusters(mus, tol):
    """Single linkage over the full pairwise relative-distance matrix."""
    scale = np.maximum(np.maximum.outer(np.abs(mus), np.abs(mus)), 1e-300)
    close = np.abs(mus[:, None] - mus[None, :]) / scale <= tol
    labels = -np.ones(mus.size, dtype=int)
    for i in range(mus.size):
        if labels[i] < 0:
            labels[i] = i
            stack = [i]
            while stack:
                for k in np.flatnonzero(close[stack.pop()] & (labels < 0)):
                    labels[k] = i
                    stack.append(k)
    return labels


@pytest.mark.parametrize("tol", [1e-6, 1e-2])
@pytest.mark.parametrize("seed", range(4))
def test_cluster_sweep_matches_pairwise_single_linkage(seed, tol):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.1, 2.0, 40) * np.exp(1j * rng.uniform(0.0, np.pi, 40))
    # same modulus, turned by a fraction of tol (links) or by about tol (borderline)
    ring = base[:10] * np.exp(1j * rng.choice([0.3, 0.5, 1.0, 3.0], 10) * tol)
    ladder = base[10] * (1.0 + 0.6 * tol * np.arange(1, 6))  # linked only transitively
    near_real = rng.uniform(0.1, 2.0, 5) * np.exp(0.3j * tol)  # linked to its conjugate
    mus = np.concatenate([base, ring, ladder, near_real, rng.uniform(0.1, 2.0, 5)])
    mus = np.concatenate([mus, mus.conj(), mus[:15]])  # conjugate pairs and bitwise twins
    rng.shuffle(mus)
    labels = companion._cluster(mus, tol)
    ref = brute_force_clusters(mus, tol)
    # the same partition: the label pairs match one to one
    assert len(set(zip(labels, ref))) == len(set(labels)) == len(set(ref)) < mus.size


# -- state recovery ------------------------------------------------------------------


def test_recover_state_toy(toy_companion):
    spec = companion.extract_spectrum(toy_companion)
    (state,) = companion.recover_states(toy_companion, [min(spec, key=lambda t: abs(t.mu - 1.0))])
    assert state.u.shape == (1,)
    assert abs(np.linalg.norm(state.u) - 1.0) < 1e-14
    assert state.r_pencil < 1e-12
    assert state.v is None and state.w is None  # synthetic system: no basis data


def test_recover_state_interval_problem(helmholtz48):
    _, _, _, wh = helmholtz48
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    target = 4.0 * np.pi**2
    best = min(spec, key=lambda t: abs(t.lam - target))
    (state,) = companion.recover_states(comp, [best])
    assert state.r_v < 1e-3 and state.r_w < 1e-3
    # v = w - u holds exactly in coefficients, by construction
    assert np.array_equal(state.v, state.w - state.u)


def test_recover_state_at_the_smallest_mu():
    # 1D bilaplacian at n=128: the root of smallest |mu| (|lambda| ~ 1e13) is
    # reported and its state recovers like any other
    comp = companion.build_companion(cached_system(operator="bilaplacian", size=128, contrast=3.0)[3])
    spec = companion.extract_spectrum(comp)
    assert len(spec) == 2 * comp.whitened.size
    smallest = min(spec, key=lambda t: abs(t.mu))
    assert abs(smallest.mu) < 1e-12
    (state,) = companion.recover_states(comp, [smallest])
    assert np.all(np.isfinite(state.u)) and state.r_pencil <= 1e-10


def test_recover_state_zero_eigenvalue(toy_companion):
    # only an exact zero has no reciprocal: |mu| = 1e-15 is a real root of D_b at 1D bilaplacian n=256
    entry = dataclasses.replace(companion.extract_spectrum(toy_companion)[0], mu=0.0)
    with pytest.raises(ZeroEigenvalue, match="has no reciprocal"):
        companion.recover_states(toy_companion, [entry])


def test_recover_state_degenerate_first_block(toy_companion):
    # column 0 of the supplied eigenpairs is y = (0, 1): no first component
    pairs = densela.ComplexSpectrum(np.array([0.5, 0.25]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    comp = companion.CompanionSystem(toy_companion.blocks, toy_companion.whitened, [pairs])
    entry = companion.TransmissionEigenvalue(2.0, 0.5, 0.0, 0, 1, block=0, column=0)
    with pytest.raises(DegenerateState):
        companion.recover_states(comp, [entry], check_tol=10.0)


def test_recover_state_rejects_non_eigenvector(toy_companion):
    # mu = 0.5 is no eigenvalue of D, so the column's vector does not belong to it
    entry = dataclasses.replace(companion.extract_spectrum(toy_companion)[0], mu=0.5)
    with pytest.raises(ValueError):
        companion.recover_states(toy_companion, [entry])


def reference_state(comp, t):
    """One state by the per-state route: the dense D, its own Cholesky and solves."""
    wh, n = comp.whitened, comp.whitened.size
    blk = wh.blocks[t.block]
    nb = blk.stop - blk.start
    vec = comp.eigen_data()[t.block].eigenvectors[:, t.column]
    y = np.zeros(2 * n, dtype=complex)
    y[blk], y[n + blk.start : n + blk.stop] = vec[:nb], vec[nb:]
    d = dense_d(comp)
    assert np.linalg.norm(d @ y - t.mu * y) <= 1e-6 * np.linalg.norm(d) * np.linalg.norm(y)
    lam = 1.0 / t.mu
    u_white = np.sqrt(wh.mu) * y[:n]
    res = (1.0 / wh.mu) * u_white - lam * (dense_bw(wh) @ u_white) + lam**2 * u_white
    r_pencil = np.linalg.norm(res) / ((1.0 + abs(lam) + abs(lam) ** 2) * np.linalg.norm(u_white))
    u = wh.to_basis @ u_white
    u = u / np.linalg.norm(u)

    basis, problem = wh.system.basis, wh.system.problem
    zero = (0,) * problem.dimension
    vvals = _potential_values(problem.potential, basis.grid_points())
    terms = assembly.p0_terms(problem.order, problem.dimension)
    u_pts = basis.point_values(u, zero)
    w_pts = (1.0 / vvals) * (basis.apply_terms(u, terms) - lam * u_pts) / lam
    v_pts = w_pts - u_pts
    w = np.linalg.solve(basis.gram, basis.weighted_moments(w_pts, zero))
    chol_g = np.linalg.cholesky(basis.gram)

    def dual_residual(values, weight):
        rvec = basis.dual_moments(values, terms) - basis.weighted_moments(values * weight, zero)
        norm_h = np.sqrt(np.sum(basis.grid_weights() * np.abs(values) ** 2))
        return np.linalg.norm(np.linalg.solve(chol_g, rvec)) / ((1.0 + abs(lam)) * norm_h)

    r_v = dual_residual(v_pts, lam)
    r_w = dual_residual(w_pts, lam * (1.0 + vvals))
    return (u, w - u, w), (r_pencil, r_v, r_w)


@pytest.mark.parametrize("dimension, size", [(2, 6), (1, 16)], ids=["2d-n6", "1d-n16"])
def test_recover_states_match_per_state_route(dimension, size):
    wh = cached_system(dimension=dimension, size=size, contrast=3.0)[3]
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    states = companion.recover_states(comp, spec)
    assert len(states) == len(spec) == 2 * wh.size
    for t, state in zip(spec, states):
        vectors, residuals = reference_state(comp, t)
        assert state.lam == t.lam
        for got, ref in zip((state.u, state.v, state.w), vectors):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        for got, ref in zip((state.r_pencil, state.r_v, state.r_w), residuals):
            assert abs(got - ref) <= 1e-12 * max(ref, 1.0)


# -- chains of generalized states ------------------------------------------------------


def test_chain_residual_matches_pencil_residual(toy_companion):
    spec = companion.extract_spectrum(toy_companion)
    t = spec[0]
    data = toy_companion.eigen_data()[t.block]
    s = np.diag(np.sqrt(toy_companion.whitened.mu))
    u0 = s @ data.eigenvectors[: toy_companion.whitened.size, t.column]
    rho = companion.jordan_chain_residual(toy_companion.whitened, t.lam, [u0])
    assert rho[0] < 1e-12
    # a one-link chain is scaled as the eigenpair residual: off an
    # eigenvector, above rounding, the two agree
    rng = np.random.default_rng(3)
    wh = cached_system(dimension=2, size=6, contrast=3.0)[3]
    comp = companion.build_companion(wh)
    for t in companion.extract_spectrum(comp)[::7]:
        blk = wh.blocks[t.block]
        head = comp.eigen_data()[t.block].eigenvectors[: blk.stop - blk.start, t.column]
        u_blk = np.sqrt(wh.mu[blk]) * head + 1e-6 * rng.standard_normal(head.size)
        u0 = np.zeros(wh.size, dtype=complex)
        u0[blk] = u_blk
        rho = companion.jordan_chain_residual(wh, t.lam, [u0])
        pencil = companion._pencil_residuals(wh, t.block, np.array([t.lam]), u_blk[:, None])
        assert rho[0] == pytest.approx(pencil[0], rel=1e-8)


def test_no_length_two_chain_for_simple_spectrum(toy_whitened):
    rng = np.random.default_rng(0)
    u0 = np.array([1.0])
    for _ in range(5):
        u1 = rng.standard_normal(1)
        rho = companion.jordan_chain_residual(toy_whitened, 1.0, [u0, u1])
        assert rho[1] >= 1e-6


def test_every_vector_chains_for_defective_pencil(defective_whitened):
    rng = np.random.default_rng(1)
    u0 = rng.standard_normal(2)
    u1 = rng.standard_normal(2)
    rho = companion.jordan_chain_residual(defective_whitened, 1.0, [u0, u1])
    assert np.max(rho) < 1e-12


def test_chain_residual_empty_chain(toy_whitened):
    with pytest.raises(EmptyChain):
        companion.jordan_chain_residual(toy_whitened, 1.0, [])


def test_jordan_chains_semisimple(toy_companion):
    spec = companion.extract_spectrum(toy_companion)
    for cid in sorted({t.cluster_id for t in spec}):
        cluster = [t for t in spec if t.cluster_id == cid]
        chains = companion.jordan_chains(toy_companion, cluster)
        assert len(chains) == 1
        assert len(chains[0].vectors) == 1


def test_jordan_chains_defective(defective_whitened):
    comp = companion.build_companion(defective_whitened)
    spec = companion.extract_spectrum(comp)
    chains = companion.jordan_chains(comp, spec)
    assert any(len(c.vectors) >= 2 for c in chains)
    for c in chains:
        assert max(c.residuals) < 1e-10
        assert abs(c.lam - 1.0) < 1e-8
        assert np.linalg.norm(c.vectors[0]) > 1e-12


def test_jordan_chains_twin_pair_cluster():
    # the swap pairs two parity classes as twin blocks, so each of their
    # eigenvalues is a cluster of multiplicity 2 over the two blocks
    wh = cached_system(dimension=2, size=6, contrast=3.0)[3]
    assert wh.twin_of[3] == 2
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    cluster = next(
        c for c in ([t for t in spec if t.cluster_id == cid] for cid in range(spec[-1].cluster_id + 1))
        if sorted(t.block for t in c) == [2, 3]
    )
    chains = companion.jordan_chains(comp, cluster)
    assert [len(c.vectors) for c in chains] == [1, 1]
    for chain, blk in zip(chains, (wh.blocks[2], wh.blocks[3])):
        assert max(chain.residuals) < 1e-6
        inside = np.zeros(wh.size, dtype=bool)
        inside[blk] = True
        vec = chain.vectors[0]
        assert np.linalg.norm(vec[inside]) > 0 and not np.any(vec[~inside])


def test_rank_decision_requires_a_clean_gap():
    # values straddling the cut without a factor-10 gap are surfaced, not guessed
    svals = np.array([1.0, 3e-8, 5e-9])
    with pytest.raises(RankAmbiguous):
        companion._nullity(svals, threshold=1e-8)
    # a clean gap on both sides is accepted
    assert companion._nullity(np.array([1.0, 1e-3, 1e-12]), threshold=1e-8) == 1


def test_jordan_chains_mixed_structure():
    # one defective mode ((1 - lam)^2) next to a regular mode ((lam-2)(lam-3)):
    # the defective cluster yields exactly one chain of length 2
    wh = assembly.WhitenedSystem.from_matrices(np.diag([1.0, 6.0]), np.diag([2.0, 5.0]))
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    by_cluster: dict = {}
    for t in spec:
        by_cluster.setdefault(t.cluster_id, []).append(t)
    lengths = {}
    for cid, cluster in by_cluster.items():
        chains = companion.jordan_chains(comp, cluster)
        lengths[round(cluster[0].lam.real)] = sorted(len(c.vectors) for c in chains)
        assert all(max(c.residuals) < 1e-10 for c in chains)
    assert lengths[1] == [2]
    assert lengths[2] == [1] and lengths[3] == [1]


@pytest.mark.parametrize("stiffness", [1e2, 1e6, 1e10, 1e12])
def test_jordan_chains_defective_next_to_stiff_mode(stiffness):
    # (1 - lam)^2 on the first mode, lam^2 + s on the second: the norm of D
    # and of the first-order form grows with s, as on every Galerkin pencil,
    # yet the defective root keeps exactly one chain of length 2
    wh = assembly.WhitenedSystem.from_matrices(
        np.diag([1.0, stiffness]), np.diag([2.0, 0.0])
    )
    comp = companion.build_companion(wh)
    cluster = [t for t in companion.extract_spectrum(comp) if abs(t.lam - 1.0) < 1e-3]
    chains = companion.jordan_chains(comp, cluster)
    assert [len(c.vectors) for c in chains] == [2]
    assert max(chains[0].residuals) < 1e-10


def test_recover_state_square_domain():
    _, _, _, wh = cached_system(
        operator="laplacian", dimension=2, size=12, contrast=3.0
    )
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    real = [
        t for t in spec if t.lam.real > 0 and abs(t.lam.imag) <= 1e-6 * t.lam.real
    ]
    first = min(real, key=lambda t: t.lam.real)
    (state,) = companion.recover_states(comp, [first])
    assert state.r_v < 1e-3 and state.r_w < 1e-3
    assert np.array_equal(state.v, state.w - state.u)


def test_trig_basis_finds_oracle_eigenvalue():
    # same physics through the other basis family
    _, _, _, wh = cached_system(
        operator="laplacian", size=32, contrast=3.0, family=assembly.TRIG
    )
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    target = 4.0 * np.pi**2
    best = min(spec, key=lambda t: abs(t.lam - target))
    assert abs(best.lam - target) / target < 1e-4


@pytest.mark.parametrize("dimension, size", [(1, 32), (2, 6)], ids=["1d-n32", "2d-n6"])
def test_extract_eigenvalues_match_extract_spectrum(dimension, size):
    comp = companion.build_companion(cached_system(dimension=dimension, size=size, contrast=3.0)[3])
    lams = sorted_roots(comp)
    full = np.array([t.lam for t in companion.extract_spectrum(comp)])
    assert lams.shape == full.shape
    # the eigenvalue-only solve rounds on its own, and at a defective star
    # (1D, n = 32) rounding moves the eigenvalues by about eps^(1/3)
    assert np.max(np.abs(lams - full) / np.abs(full)) <= 1e-4


def test_build_companion_rejects_nonfinite():
    from tespect.errors import NotPositiveDefinite

    with pytest.raises(NotPositiveDefinite):
        wh = assembly.WhitenedSystem.from_matrices([[np.inf]], [[1.0]])
        companion.build_companion(wh)


# -- resolvent block formula --------------------------------------------------------


def test_resolvent_block_toy(toy_whitened):
    assert companion.resolvent_block_check(toy_whitened, 2.0) < 1e-12
    assert companion.resolvent_block_check(toy_whitened, 0.0) < 1e-12


def test_resolvent_near_spectrum_rejected(toy_whitened):
    with pytest.raises(NearSpectrum):
        companion.resolvent_block_check(toy_whitened, 1.0 + 1e-9)


def test_resolvent_random_shifts(helmholtz32):
    _, _, _, wh = helmholtz32
    lams = companion.pencil_eigenvalues(wh)
    rng = np.random.default_rng(77)
    done = 0
    while done < 5:
        lam = complex(rng.uniform(-50.0, 200.0), rng.uniform(-50.0, 50.0))
        if np.min(np.abs(lams - lam) / np.maximum(np.abs(lams), 1e-300)) < 1e-5:
            continue
        assert companion.resolvent_block_check(wh, lam) < 1e-8
        done += 1


def test_extract_spectrum_memory_follows_the_blocks():
    # extract_spectrum runs the eigensolves: the blocks' eigenvectors it
    # caches take sum (2 n_b)^2 complex entries over the distinct blocks, and
    # an eigensolve's copies of one block and the residual temporaries stay
    # below that again; a 2N x 2N complex matrix, 4 N^2 entries, would not fit
    wh = cached_system(dimension=2, size=16, contrast=3.0)[3]
    comp = companion.build_companion(wh)
    distinct = [blk.stop - blk.start for blk, src in zip(wh.blocks, wh.twin_of) if src is None]
    bound = 4 * sum((2 * nb) ** 2 for nb in distinct) * 16
    assert (2 * wh.size) ** 2 * 16 > bound
    tracemalloc.start()
    try:
        companion.extract_spectrum(comp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
