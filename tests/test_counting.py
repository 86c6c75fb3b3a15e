import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import cached_system, dense_bw, random_spd_pencil, sorted_roots
from tespect import assembly, companion, counting, densela, model
from tespect.errors import (
    ContourNearZero,
    InsufficientResolvedRange,
    NotPositiveDefinite,
    PhaseUnresolved,
    RangeExceeded,
)
from tespect.util import wrap_angle


def toy_det(lam):
    return (1.0 - lam) * (1.0 - lam / 4.0)


# -- determinant evaluation ------------------------------------------------------


def test_det_is_one_at_zero(toy_whitened):
    det = counting.fredholm_det(toy_whitened, 0.0)
    assert det.log_abs == 0.0 and det.arg == 0.0
    assert det.value == 1.0


def test_det_toy_factorization(toy_whitened):
    for lam in (2.0, -1.0, 0.5 + 0.5j, 3.0 - 2.0j):
        det = counting.fredholm_det(toy_whitened, lam)
        assert det.value == pytest.approx(toy_det(lam), rel=1e-12)


def test_det_conjugate_symmetry():
    rng = np.random.default_rng(2)
    wh = random_spd_pencil(rng, 12)
    for lam in (1.0 + 2.0j, -3.0 + 0.7j):
        d1 = counting.fredholm_det(wh, lam)
        d2 = counting.fredholm_det(wh, np.conj(lam))
        assert d1.log_abs == pytest.approx(d2.log_abs, rel=1e-10)
        assert d1.arg == pytest.approx(-d2.arg, abs=1e-10)


def test_det_vanishes_at_computed_eigenvalues():
    rng = np.random.default_rng(8)
    wh = random_spd_pencil(rng, 6)
    comp = companion.build_companion(wh)
    for t in companion.extract_spectrum(comp):
        at_root = counting.fredholm_det(wh, t.lam)
        nearby = counting.fredholm_det(wh, t.lam * (1.0 + 1e-3))
        # the determinant collapses by many orders at the computed root
        assert at_root.log_abs < nearby.log_abs + np.log(1e-7)


# constant V: 2 parity blocks in 1D; in 2D the swap splits ee and oo into two
# halves each and makes oe the twin of eo, 6 blocks
WHITENED_BLOCKS = {1: 2, 2: 6}


@pytest.mark.parametrize("dimension,size", [(1, 24), (2, 8)])
def test_blocked_det_matches_one_block(dimension, size):
    _, _, system, wh = cached_system(dimension=dimension, size=size, contrast=2.0)
    assert len(wh.blocks) == WHITENED_BLOCKS[dimension]
    one_block = dataclasses.replace(system, symmetry=assembly.Symmetry((np.arange(system.size),)))
    whole = assembly.whiten(one_block)
    assert len(whole.blocks) == 1
    for lam in (3.0 + 2.0j, -10.0 + 5.0j, 20.0 - 1.0j, 0.5j):
        split, one = counting.fredholm_det(wh, lam), counting.fredholm_det(whole, lam)
        assert abs(split.log_abs - one.log_abs) < 1e-12
        assert abs(wrap_angle(split.arg - one.arg)) < 1e-12


@pytest.mark.parametrize("operator,size", [("laplacian", 8), ("bilaplacian", 12)])
def test_swap_split_det_matches_unsplit(operator, size):
    _, _, system, wh = cached_system(operator=operator, dimension=2, size=size, contrast=3.0)
    assert wh.twin_of.count(None) == 5
    whole = assembly.whiten(dataclasses.replace(system, symmetry=assembly.Symmetry((np.arange(system.size),))))
    lams = np.array([3.0 + 2.0j, -10.0 + 5.0j, 20.0 - 1.0j, 0.5j, 150.0 * np.exp(0.3j)])
    split, one = counting.fredholm_det(wh, lams), counting.fredholm_det(whole, lams)
    assert np.max(np.abs(split.log_abs - one.log_abs)) < 1e-10
    assert np.max(np.abs(wrap_angle(split.arg - one.arg))) < 1e-10


def per_point_det(wh, lam):
    # reference: one matrix per block and point, the same operations unstacked
    log_abs, arg = 0.0, 0.0
    root = np.sqrt(wh.mu)
    k = root[:, None] * dense_bw(wh) * root[None, :]
    for blk in wh.blocks:
        mat = np.eye(blk.stop - blk.start, dtype=complex) - lam * k[blk, blk]
        mat.flat[:: mat.shape[0] + 1] += lam**2 * wh.mu[blk]
        det = densela.complex_det(mat)
        log_abs, arg = log_abs + det.log_abs, arg + det.arg
    return log_abs, wrap_angle(arg)


@pytest.mark.parametrize("dimension,size", [(1, 24), (2, 8)])
def test_stacked_det_matches_scalar_and_per_point_bitwise(dimension, size):
    _, _, _, wh = cached_system(dimension=dimension, size=size, contrast=2.0)
    assert len(wh.blocks) == WHITENED_BLOCKS[dimension]
    spectrum = companion.extract_spectrum(companion.build_companion(wh))
    root = min((t.lam for t in spectrum), key=abs)
    # zero, the selftest's 2.0, a point near a root and an arc of complex points
    arc = 30.0 * np.exp(1j * np.linspace(0.1, 3.0, 16))
    lams = np.concatenate([[0.0, 2.0, root * (1.0 + 1e-6)], arc])
    stacked = counting.fredholm_det(wh, lams)
    assert stacked.log_abs.shape == stacked.arg.shape == lams.shape
    for i, lam in enumerate(lams):
        scalar = counting.fredholm_det(wh, lam)
        assert isinstance(scalar.log_abs, float) and isinstance(scalar.arg, float)
        assert (stacked.log_abs[i], stacked.arg[i]) == (scalar.log_abs, scalar.arg)
        assert (scalar.log_abs, scalar.arg) == per_point_det(wh, lam)
    assert (stacked.log_abs[0], stacked.arg[0]) == (0.0, 0.0)  # f(0) = 1 exactly


@pytest.mark.parametrize("budget", [1, 1 << 30])
def test_stacked_det_independent_of_stack_size(monkeypatch, budget):
    _, _, _, wh = cached_system(dimension=2, size=8, contrast=2.0)
    lams = 40.0 * np.exp(1j * np.linspace(0.0, np.pi, 37)).reshape(37, 1)
    default = counting.fredholm_det(wh, lams)
    monkeypatch.setattr(counting, "_DET_STACK_BYTES", budget)
    other = counting.fredholm_det(wh, lams)
    assert default.log_abs.shape == (37, 1)
    assert np.array_equal(other.log_abs, default.log_abs)
    assert np.array_equal(other.arg, default.arg)


def test_fredholm_det_memory_follows_the_blocks():
    # no N x N matrix: the first call holds a few complex copies of one block
    _, _, system, _ = cached_system(dimension=2, size=24, contrast=3.0)
    wh = assembly.whiten(system)  # fresh, so no earlier call has left anything cached
    bound = 6 * max(blk.stop - blk.start for blk in wh.blocks) ** 2 * 16
    assert bound < wh.size**2 * 8
    tracemalloc.start()
    try:
        counting.fredholm_det(wh, 3.0 + 2.0j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak} B, bound {bound} B"


@pytest.mark.parametrize("dimension,size", [(1, 24), (2, 8)])
def test_stacked_det_matches_the_explicit_construction_bitwise(dimension, size):
    # reference: each block's stack written out as eye - z K, then z^2 mu on
    # the diagonal; f_b alone with block=b, f as the sum over the blocks
    _, _, _, wh = cached_system(dimension=dimension, size=size, contrast=2.0)
    lams = 30.0 * np.exp(1j * np.linspace(0.0, np.pi, 33))
    z = lams.reshape(-1, 1, 1)
    z2 = (z.real**2 - z.imag**2) + 2j * (z.real * z.imag)
    log_abs, arg = np.zeros(lams.size), np.zeros(lams.size)
    for b in range(len(wh.blocks)):
        k, mu = wh.k_block(b), wh.mu[wh.blocks[b]]
        stack = np.eye(mu.size, dtype=complex) - z * k
        stack[:, np.arange(mu.size), np.arange(mu.size)] += z2[:, 0] * mu
        ref = densela.complex_det(stack)
        det = counting.fredholm_det(wh, lams, block=b)
        assert np.array_equal(det.log_abs, ref.log_abs)
        assert np.array_equal(det.arg, wrap_angle(ref.arg))
        log_abs, arg = log_abs + ref.log_abs, arg + ref.arg
    det = counting.fredholm_det(wh, lams)
    assert np.array_equal(det.log_abs, log_abs) and np.array_equal(det.arg, wrap_angle(arg))


def test_stacked_det_with_an_empty_block():
    eye = np.eye(2)
    system = assembly.GalerkinSystem(a=np.diag([4.0, 2.0]), b=eye, c=eye)
    padded = dataclasses.replace(system, symmetry=assembly.Symmetry((np.arange(2), np.array([], dtype=int))))
    lams = np.array([1.0 + 1.0j, -3.0])
    one, split = (counting.fredholm_det(assembly.whiten(s), lams) for s in (system, padded))
    assert np.array_equal(one.log_abs, split.log_abs) and np.array_equal(one.arg, split.arg)


@pytest.mark.parametrize(
    "mass,kept",
    [((1.0, -1.0), None), ((1.0, 1e-20), 2), ((1.0, -1e-17), 1)],
    ids=["indefinite", "ratio-1e-20", "rounding-negative"],
)
def test_whiten_positivity_is_global_across_blocks(mass, kept):
    # each block alone holds one mu; a mu below -eps max(mu) in either block
    # refuses the split pencil exactly as the whole one, a mu in
    # [-eps max(mu), 0] is deflated from both, and no ratio of mu is refused
    system = assembly.GalerkinSystem(a=np.eye(2), b=np.eye(2), c=np.diag(mass))
    split = dataclasses.replace(system, symmetry=assembly.Symmetry((np.array([0]), np.array([1]))))
    for candidate in (system, split):
        if kept is None:
            with pytest.raises(NotPositiveDefinite):
                assembly.whiten(candidate)
        else:
            wh = assembly.whiten(candidate)
            assert (wh.size, wh.deflated, wh.to_basis.shape) == (kept, 2 - kept, (2, kept))
            assert wh.mu[0] == 1.0


# -- winding ------------------------------------------------------------------------


def test_winding_toy(toy_whitened):
    assert counting.winding_count(toy_whitened, 2.0) == 1
    assert counting.winding_count(toy_whitened, 5.0) == 2
    assert counting.winding_count(toy_whitened, 0.5) == 0


def count_det_calls(monkeypatch):
    calls = []
    det = counting.fredholm_det

    def counted(wh, lam, block=None):
        calls.extend([block] * np.size(lam))  # one entry per evaluated point: its block
        return det(wh, lam, block)

    monkeypatch.setattr(counting, "fredholm_det", counted)
    return calls


def test_winding_sizes_grid_near_zero(toy_whitened, monkeypatch):
    # zero at lambda = 1 sits 0.5% inside the contour: the phase speed the
    # spectrum predicts there needs more than 256 points
    calls = count_det_calls(monkeypatch)
    assert counting.winding_count(toy_whitened, 1.005) == 1
    (roots,) = companion.block_eigenvalues(companion.build_companion(toy_whitened))
    points = counting._grid_size(1.005, roots)
    assert points > 256 and points % 8 == 0
    assert calls == [0] * (points // 2 + 1)  # the upper half circle, theta = 0 and pi included


def test_winding_contour_through_zero(toy_whitened, monkeypatch):
    calls = count_det_calls(monkeypatch)
    for radius in (1.0, 1.0 + 1e-7):
        with pytest.raises(ContourNearZero):
            counting.winding_count(toy_whitened, radius)
    assert calls == []  # refused before any determinant


def test_winding_phase_unresolved(toy_whitened):
    # a spectrum without the zero at 1 sizes the minimum grid, which cannot
    # follow the phase of f past a zero 5e-5 outside it
    wh = synthetic_double_root_system()  # N = 24: the window [3, 12] is not empty
    (roots,) = companion.block_eigenvalues(companion.build_companion(wh))
    with pytest.raises(PhaseUnresolved, match="in block 0"):
        counting.growth_profile(wh, [1.00005, 6.25, 12.25, 20.25], spectra=[roots[np.abs(roots) > 2.0]])
    # 0.5% outside, the rule's 16 points for the root at 4 alone still
    # catch it: a measured step reaches pi/2
    assert counting._grid_size(1.005, np.array([4.0])) == counting._MIN_CONTOUR_POINTS == 16
    with pytest.raises(PhaseUnresolved, match="on 16 points"):
        counting._contour_scan(toy_whitened, 1.005, [np.array([4.0])])


def test_grid_size_refuses_a_grid_above_the_largest():
    # 2000 roots 0.5% inside the contour: the speed of the phase, not the
    # gap, asks for more points than the largest grid
    with pytest.raises(ContourNearZero, match="needs 3200000 contour points"):
        counting._grid_size(1.0, np.full(2000, 0.995))


def test_missed_zero_is_counted_or_refused_at_any_distance(bilaplacian24):
    # drop a block's smallest real root from the spectrum that sizes its
    # grid: every scan near it either refuses a step of pi/2 or returns the
    # winding of the full spectrum, which counts the dropped root once it is inside
    wh = bilaplacian24[3]
    spectra = companion.block_eigenvalues(companion.build_companion(wh))
    outcomes = []
    for b, roots in enumerate(spectra):
        k = min(np.flatnonzero(roots.imag == 0), key=lambda i: abs(roots[i]))
        missing = [np.delete(s, k) if i == b else s for i, s in enumerate(spectra)]
        for distance in (1e-4, 1e-3, 1e-2, 0.1, 0.5, -1e-4, -1e-3, -1e-2, -0.1, -0.5):
            radius = abs(roots[k]) * (1.0 + distance)
            try:
                _, windings, _, _ = counting._contour_scan(wh, radius, missing)
            except PhaseUnresolved:
                outcomes.append("refused")
                continue
            assert windings[b] == int(np.sum(np.abs(roots) < radius)) == int(np.sum(np.abs(missing[b]) < radius)) + (distance > 0)
            outcomes.append("counted" if distance > 0 else "outside")
    assert {"refused", "counted", "outside"} <= set(outcomes)


def test_winding_matches_spectrum_split():
    rng = np.random.default_rng(14)
    wh = random_spd_pencil(rng, 8)
    comp = companion.build_companion(wh)
    lams = np.array([t.lam for t in companion.extract_spectrum(comp)])
    moduli = np.sort(np.abs(lams))
    mid = np.sqrt(moduli[7] * moduli[8])  # radius splitting the spectrum
    inner = int(np.sum(np.abs(lams) < mid))
    assert counting.winding_count(wh, float(mid)) == inner


def poly_square_system(size):
    # V = 3 + 0.3 y + x + 0.2 x y: no reflection or swap leaves it invariant, one block
    problem = model.validate_problem(
        model.OperatorSpec("laplacian", 2),
        model.DomainSpec("square"),
        model.PotentialSpec.polynomial([[3.0, 0.3], [1.0, 0.2]], 2),
    )
    basis = assembly.build_basis(problem, size, assembly.POLYNOMIAL)
    return assembly.whiten(assembly.assemble_system(problem, basis))


@pytest.mark.parametrize(
    "build,blocks",
    [
        (lambda: cached_system(operator="bilaplacian", size=24, contrast=3.0)[3], 2),
        (lambda: cached_system(dimension=2, size=8, contrast=3.0)[3], 6),
        (lambda: poly_square_system(8), 1),
    ],
    ids=["1d-constant", "2d-constant", "2d-poly"],
)
def test_block_windings_match_block_cross_counts(build, blocks, monkeypatch):
    wh = build()
    assert len(wh.blocks) == blocks
    spectra = companion.block_eigenvalues(companion.build_companion(wh))
    radii = counting.auto_radii(np.concatenate(spectra))
    calls = count_det_calls(monkeypatch)
    report = counting.growth_profile(wh, radii, spectra=spectra)
    assert report.block_windings.shape == report.grid_sizes.shape == (len(radii), blocks)
    assert np.array_equal(report.block_windings, report.block_cross_counts)
    assert np.array_equal(report.windings, report.block_windings.sum(axis=1))
    assert np.array_equal(report.windings, report.cross_counts)
    # each block winds once per radius on a grid sized from its own roots; a
    # twin repeats its source's columns without a determinant
    for b, source in enumerate(wh.twin_of):
        if source is None:
            assert report.grid_sizes[:, b].tolist() == [counting._grid_size(r, spectra[b]) for r in radii]
            assert calls.count(b) == int(np.sum(report.grid_sizes[:, b] // 2 + 1))
        else:
            assert calls.count(b) == 0
            assert np.array_equal(report.grid_sizes[:, b], report.grid_sizes[:, source])
            assert np.array_equal(report.block_windings[:, b], report.block_windings[:, source])


# -- half-radius bound -----------------------------------------------------------------


def test_jensen_bound_toy(toy_whitened):
    bound = counting.jensen_bound(toy_whitened, 3.0)
    assert bound >= counting.winding_count(toy_whitened, 1.5)
    # max |f| on |lam| = 3 is at lam = -3: 4 * 1.75 = 7
    assert bound == pytest.approx(np.log(7.0) / np.log(2.0), rel=1e-6)


def test_jensen_bound_small_radius(toy_whitened):
    bound = counting.jensen_bound(toy_whitened, 1e-3)
    assert 0.0 <= bound < 0.01
    assert counting.winding_count(toy_whitened, 5e-4) == 0


@pytest.mark.parametrize("dimension,size", [(1, 24), (2, 8)])
def test_jensen_block_bound_covers_the_pointwise_bound(dimension, size):
    # sum_b max log|f_b| against max log|f| on the common grid sized from
    # every root, and against the count in the half-radius disk
    _, _, _, wh = cached_system(dimension=dimension, size=size, contrast=3.0)
    spectra = companion.block_eigenvalues(companion.build_companion(wh))
    lams = np.concatenate(spectra)
    for radius in counting.auto_radii(lams):
        points = counting._grid_size(radius, lams)
        common = counting.fredholm_det(wh, radius * np.exp(2j * np.pi * np.arange(points // 2 + 1) / points))
        pointwise = float(np.max(common.log_abs)) / np.log(2.0)
        bound = counting.jensen_bound(wh, radius)
        assert bound >= pointwise
        assert bound >= int(np.sum(np.abs(lams) < radius / 2.0))


# -- growth profile ---------------------------------------------------------------------


def synthetic_double_root_system(n=24):
    # per-mode pencil lam^2 - 2 j^2 lam + j^4 = (lam - j^2)^2: double roots at j^2
    j = np.arange(1, n + 1, dtype=float)
    return assembly.WhitenedSystem.from_matrices(np.diag(j**4), np.diag(2.0 * j**2))


def test_growth_profile_synthetic_counts_and_slope():
    wh = synthetic_double_root_system()
    radii = [(j + 0.5) ** 2 for j in range(3, 8)]
    report = counting.growth_profile(wh, radii)
    exact = np.array([2 * int(np.sqrt(r)) for r in radii])
    assert np.array_equal(report.windings, exact)
    assert np.array_equal(report.cross_counts, exact)
    # finite-sample fit of the exact half-power law, compared against the
    # same fit recomputed from the exact counts
    ref_slope, _ = np.polyfit(
        np.log(report.radii[report.resolved]), np.log(exact[report.resolved]), 1
    )
    assert report.growth_exponent == pytest.approx(ref_slope, abs=1e-10)
    assert abs(report.growth_exponent - 0.5) <= 0.1


def test_growth_profile_grids_sized_once(monkeypatch):
    wh = synthetic_double_root_system()
    calls = count_det_calls(monkeypatch)
    radii = [(j + 0.5) ** 2 for j in range(3, 8)] + [64.65]
    report = counting.growth_profile(wh, radii)
    assert report.grid_sizes.shape == (len(radii), 1)  # one block
    (roots,) = companion.block_eigenvalues(companion.build_companion(wh))
    assert report.grid_sizes[:, 0].tolist() == [counting._grid_size(r, roots) for r in radii]
    assert np.all(report.grid_sizes >= counting._MIN_CONTOUR_POINTS) and np.all(report.grid_sizes % 8 == 0)
    assert report.grid_sizes[-1, 0] == report.grid_sizes.max()  # 64.65 lies 1% off the double root at 64
    assert calls == [0] * int(np.sum(report.grid_sizes // 2 + 1))


@pytest.mark.parametrize("operator,size", [("laplacian", 128), ("bilaplacian", 40)])
def test_grid_holds_eight_points_per_unit_of_the_dense_phase_speed(operator, size):
    # with no floor above it, the grid rests on the gap/4 probe alone:
    # against g on angles 64 times finer, P >= 8 max|g| at every auto radius
    _, _, _, wh = cached_system(operator=operator, size=size, contrast=3.0)
    spectra = companion.block_eigenvalues(companion.build_companion(wh))
    for radius in counting.auto_radii(np.concatenate(spectra)):
        for roots in spectra:
            points = counting._grid_size(radius, roots)
            gap = np.min(np.abs(radius - np.abs(roots))) / radius
            dense = 64 * int(np.ceil(8.0 * np.pi / gap))
            peak = 0.0
            for start in range(0, dense, 4096):
                z = radius * np.exp(2j * np.pi * np.arange(start, min(start + 4096, dense)) / dense)[:, None]
                peak = max(peak, float(np.max(np.abs(np.sum((z / (z - roots)).real, axis=1)))))
            assert points >= 8.0 * peak


def test_radius_that_overflows_is_refused_before_any_determinant(toy_whitened, monkeypatch):
    # toy roots 1 and 4: lambda^2 mu overflows at 1e300 but not at 1e150
    assert counting.winding_count(toy_whitened, 1e150) == 2
    calls = count_det_calls(monkeypatch)
    with pytest.raises(RangeExceeded, match="1e\\+300"):
        counting.growth_profile(toy_whitened, [2.0, 3.0, 1e300])
    with pytest.raises(RangeExceeded):
        counting.winding_count(toy_whitened, 1e300)
    assert calls == []


def test_growth_profile_checks_the_window_before_any_determinant(monkeypatch):
    # 1D n = 4: the window [3, N/2] is empty, whatever the radii
    _, _, _, wh = cached_system(operator="laplacian", size=4, contrast=3.0)
    calls = count_det_calls(monkeypatch)
    with pytest.raises(InsufficientResolvedRange, match="too few eigenvalues for the counting window"):
        counting.growth_profile(wh, [5.0, 50.0, 500.0])
    assert calls == []


def test_growth_profile_insufficient_range(toy_whitened):
    with pytest.raises(InsufficientResolvedRange):
        counting.growth_profile(toy_whitened, [0.5, 2.0, 5.0])


def star_spectrum():
    # 80 moduli 9% apart (window [3, 20], targets 3, 4.8, 7.7, 12.4, 20), a
    # 4-member star (moduli within 1e-5) holding counts 7-9 around the third
    # target, and exact conjugate pairs leaving no gap at counts 3, 12 and 20
    rng = np.random.default_rng(3)
    moduli = np.geomspace(10.0, 1e4, 80)
    moduli[6:10] = moduli[6] * (1.0 + 3e-6 * np.arange(4))
    spectrum = moduli * np.exp(1j * rng.uniform(-np.pi, np.pi, 80))
    for i in (2, 11, 19):
        spectrum[i + 1] = np.conj(spectrum[i])
    return spectrum


def test_radius_rule_clears_a_star_and_pairs():
    moduli = np.abs(star_spectrum())
    radii = counting.auto_radii(star_spectrum())
    assert len(radii) >= 3 and np.all(np.diff(radii) > 0)
    for r in radii:
        assert np.min(np.abs(moduli - r)) / r > 0.01
        assert 3 <= np.sum(moduli < r) <= moduli.size / 4


def test_radius_rule_resolves_the_default_potential():
    # 1D -Laplacian at V = 3: the 4 pi^2 and 16 pi^2 roots are stars
    _, _, _, wh = cached_system(operator="laplacian", size=24, contrast=3.0)
    spectra = companion.block_eigenvalues(companion.build_companion(wh))
    report = counting.growth_profile(wh, counting.auto_radii(np.concatenate(spectra)), spectra=spectra)
    assert np.count_nonzero(report.resolved) >= 3
    assert np.array_equal(report.windings, report.cross_counts)


def test_radius_rule_without_a_usable_gap():
    with pytest.raises(InsufficientResolvedRange, match="no usable gap"):
        counting.auto_radii(np.full(40, 5.0))


@pytest.mark.parametrize("size", [1, 2])
def test_radius_rule_on_a_spectrum_too_small_for_the_window(size):
    # 1D: 2 n eigenvalues, so the window [3, n/2] is empty
    _, _, _, wh = cached_system(operator="laplacian", size=size, contrast=3.0)
    lams = sorted_roots(companion.build_companion(wh))
    with pytest.raises(InsufficientResolvedRange, match="too few eigenvalues for the counting window"):
        counting.auto_radii(lams)
