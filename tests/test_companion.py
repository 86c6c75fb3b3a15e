import math

import numpy as np
import pytest

from conftest import cached_system, random_spd_pencil
from tespect import assembly, companion, oracles
from tespect.errors import (
    DegenerateState,
    EmptyChain,
    NearSpectrum,
    RankAmbiguous,
    ZeroEigenvalue,
)
from tespect.util import match_multisets


# -- companion construction ------------------------------------------------------


def test_build_companion_toy(toy_companion):
    assert toy_companion.k[0, 0] == pytest.approx(1.25, abs=1e-14)
    assert np.sqrt(toy_companion.whitened.mu)[0] == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(
        toy_companion.d, [[1.25, -0.5], [0.5, 0.0]], atol=1e-14
    )


def test_build_companion_zero_b():
    wh = assembly.WhitenedSystem.from_matrices(np.eye(3), np.zeros((3, 3)))
    comp = companion.build_companion(wh)
    expected = np.block(
        [[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]]
    )
    assert np.allclose(comp.d, expected, atol=1e-14)


def test_companion_blocks_symmetric():
    rng = np.random.default_rng(5)
    wh = random_spd_pencil(rng, 15)
    comp = companion.build_companion(wh)
    for block in (comp.k, np.diag(np.sqrt(wh.mu))):
        assert np.linalg.norm(block - block.T) <= 1e-10 * np.linalg.norm(block)
    # the lower-left block is minus the transpose of the upper-right one
    n = comp.size
    assert np.allclose(comp.d[n:, :n], -comp.d[:n, n:].T, atol=1e-14)


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
    roots = oracles._scan_roots(rows, 0.5, 20.0, 2000, [0, 1])
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
    tr = np.trace(comp.k)
    assert abs(mus.sum() - tr) <= 1e-8 * max(abs(tr), 1e-300)


def test_reciprocal_correspondence_nonresonant():
    # generic contrast keeps the spectrum simple, so the two routes pair off
    for operator, size in (("laplacian", 32), ("bilaplacian", 24)):
        _, _, _, wh = cached_system(operator=operator, size=size, contrast=2.5)
        comp = companion.build_companion(wh)
        mus = comp.eigen_data().eigenvalues
        direct = companion.pencil_eigenvalues(wh)
        assert match_multisets(1.0 / mus, direct) < 1e-7


def test_reciprocal_correspondence_random_systems():
    rng = np.random.default_rng(404)
    for _ in range(10):
        wh = random_spd_pencil(rng, 12)
        comp = companion.build_companion(wh)
        mus = comp.eigen_data().eigenvalues
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
    tr = np.trace(comp.d)
    assert abs(mus.sum() - tr) <= 1e-8 * max(abs(tr), 1e-300)


def test_cluster_multiplicity_defective(defective_whitened):
    comp = companion.build_companion(defective_whitened)
    spec = companion.extract_spectrum(comp)
    assert all(t.multiplicity == 4 for t in spec)
    assert all(t.cluster_id == 0 for t in spec)


# -- state recovery ------------------------------------------------------------------


def test_recover_state_toy(toy_companion):
    data = toy_companion.eigen_data()
    idx = int(np.argmin(np.abs(data.eigenvalues - 1.0)))
    state = companion.recover_state(
        toy_companion, data.eigenvalues[idx], data.eigenvectors[:, idx]
    )
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
    data = comp.eigen_data()
    state = companion.recover_state(
        comp, best.mu, data.eigenvectors[:, best.eigenvector_index]
    )
    assert state.r_v < 1e-3 and state.r_w < 1e-3
    # v = w - u holds exactly in coefficients, by construction
    assert np.array_equal(state.v, state.w - state.u)


def test_recover_state_zero_eigenvalue(toy_companion):
    y = np.array([1.0, 0.0])
    with pytest.raises(ZeroEigenvalue):
        companion.recover_state(toy_companion, 1e-15, y)


def test_recover_state_degenerate_first_block(toy_companion):
    y = np.array([0.0, 1.0])
    with pytest.raises(DegenerateState):
        companion.recover_state(toy_companion, 0.5, y, check_tol=10.0)


def test_recover_state_rejects_non_eigenvector(toy_companion):
    with pytest.raises(ValueError):
        companion.recover_state(toy_companion, 0.5, np.array([1.0, 1.0]))


# -- chains of generalized states ------------------------------------------------------


def test_chain_residual_matches_pencil_residual(toy_companion):
    spec = companion.extract_spectrum(toy_companion)
    data = toy_companion.eigen_data()
    t = spec[0]
    s = np.diag(np.sqrt(toy_companion.whitened.mu))
    u0 = s @ data.eigenvectors[: toy_companion.size, t.eigenvector_index]
    rho = companion.jordan_chain_residual(toy_companion.whitened, t.lam, [u0])
    assert rho[0] < 1e-12


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
    data = comp.eigen_data()
    state = companion.recover_state(
        comp, first.mu, data.eigenvectors[:, first.eigenvector_index]
    )
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


def test_extract_spectrum_mu_floor(toy_companion):
    spec = companion.extract_spectrum(toy_companion, mu_floor=0.5)
    assert [t.lam for t in spec] == [1.0 + 0.0j]


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
