import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import cached_system, dense_bw, dense_d, random_spd_pencil
from tespect import assembly, companion, densela, diagnostics, model
from tespect.errors import CrossCheckFailed, NoConvergence, PotentialLeavesCone

# frozen on the first verified run; deterministic for fixed seeds and sizes
GOLDEN_TRACE_LAPLACIAN_V1_N32 = 0.1889682023758138
# tr(A^{-1} B) for -Laplacian, V = 1, n = 32, computed with 40-digit mpmath on
# the assembled matrices; invariant under any change of basis within the span
REFERENCE_TRACE_LAPLACIAN_V1_N32 = 0.188968202465934829


def unit_problem(operator="laplacian", contrast=1.0):
    op = model.OperatorSpec.preset_by_name(operator, 1)
    return model.validate_problem(
        op, model.DomainSpec("interval"), model.PotentialSpec.constant(contrast, 1)
    )


# -- trace powers -----------------------------------------------------------------


def test_trace_power_toy(toy_companion):
    assert diagnostics.trace_power(toy_companion, 1) == pytest.approx(1.25, abs=1e-14)
    assert diagnostics.trace_power(toy_companion, 2) == pytest.approx(1.0625, abs=1e-14)


def test_trace_power_matches_eigenvalue_power_sums(helmholtz32):
    _, _, _, wh = helmholtz32
    comp = companion.build_companion(wh)
    mus = np.array([t.mu for t in companion.extract_spectrum(comp)])
    t1 = diagnostics.trace_power(comp, 1)
    assert abs(t1 - mus.sum()) <= 1e-8 * abs(t1)
    for p in (2, 3):
        tp = diagnostics.trace_power(comp, p)
        assert abs(tp - np.sum(mus**p)) <= 1e-7 * max(abs(tp), 1e-300)


def test_trace_power_golden_value():
    _, _, _, wh = cached_system(operator="laplacian", size=32, contrast=1.0)
    comp = companion.build_companion(wh)
    value = diagnostics.trace_power(comp, 1)
    assert value.real > 0
    assert value.real == pytest.approx(GOLDEN_TRACE_LAPLACIAN_V1_N32, rel=1e-9)


def test_trace_power_matches_high_precision_reference():
    _, _, _, wh = cached_system(operator="laplacian", size=32, contrast=1.0)
    comp = companion.build_companion(wh)
    value = diagnostics.trace_power(comp, 1)
    assert value.real == pytest.approx(REFERENCE_TRACE_LAPLACIAN_V1_N32, rel=1e-10)


def test_trace_power_warns_below_threshold():
    _, _, _, wh = cached_system(
        operator="laplacian", dimension=2, size=8, contrast=1.0
    )
    comp = companion.build_companion(wh)
    with pytest.warns(UserWarning, match="criterion"):
        diagnostics.trace_power(comp, 1)  # p = 1 does not exceed n/m = 1


def test_trace_power_nonempty_spectrum_consistency(helmholtz32):
    _, _, _, wh = helmholtz32
    comp = companion.build_companion(wh)
    if abs(diagnostics.trace_power(comp, 1)) > 0:
        assert len(companion.extract_spectrum(comp)) > 0


# -- trace identities ---------------------------------------------------------------


def test_trace_identities_toy(toy_whitened, toy_companion):
    r1, r2 = diagnostics.trace_identity_check(toy_companion)
    assert r1 < 1e-14 and r2 < 1e-14


def test_trace_identities_zero_b():
    n = 5
    wh = assembly.WhitenedSystem.from_matrices(np.eye(n), np.zeros((n, n)))
    comp = companion.build_companion(wh)
    d = dense_d(comp)
    assert np.trace(d) == 0.0
    assert np.trace(d @ d) == pytest.approx(-2.0 * n, abs=1e-12)
    r1, r2 = diagnostics.trace_identity_check(comp)
    assert r1 == 0.0 and r2 < 1e-14


def test_trace_identities_random_systems():
    rng = np.random.default_rng(12345)
    for _ in range(20):
        wh = random_spd_pencil(rng, 20)
        comp = companion.build_companion(wh)
        r1, r2 = diagnostics.trace_identity_check(comp)
        assert r1 < 1e-10 and r2 < 1e-10


def test_trace_identities_catch_perturbed_whitening(helmholtz32):
    _, _, _, wh = helmholtz32
    bad = dataclasses.replace(wh, b=tuple(bb + 1e-6 * np.eye(bb.shape[0]) for bb in wh.b))
    r1, r2 = diagnostics.trace_identity_check(companion.build_companion(bad))
    assert min(r1, r2) > 1e-10


def test_trace_report_norm_ordering(helmholtz32):
    _, _, _, wh = helmholtz32
    comp = companion.build_companion(wh)
    report = diagnostics.trace_report(comp, (1, 2))
    assert report.spectral_radius <= report.schatten_2 + 1e-12
    assert report.schatten_2 <= report.schatten_1 + 1e-12
    assert max(report.identity_residuals) < 1e-10


# -- Schatten profile ----------------------------------------------------------------


def test_schatten_profile_synthetic_power_law():
    j = np.arange(1, 41, dtype=float)
    wh = assembly.WhitenedSystem.from_matrices(np.diag(j**4), np.eye(40))
    profile = diagnostics.schatten_profile(wh)
    assert profile.decay_exponent == pytest.approx(-2.0, abs=1e-3)


def test_schatten_profile_interval(helmholtz32):
    _, _, _, wh = helmholtz32
    profile = diagnostics.schatten_profile(wh)
    assert profile.decay_theory == -2.0
    assert abs(profile.decay_exponent - (-2.0)) <= 0.15 * 2.0


@pytest.mark.parametrize("size", [1, 2, 3])
def test_schatten_profile_fits_from_three_values(size):
    wh = assembly.WhitenedSystem.from_matrices(np.diag(np.arange(1.0, size + 1) ** 4), np.eye(size))
    exponent = diagnostics.schatten_profile(wh).decay_exponent
    assert (exponent is None) is (size < 3)


# -- numerical range ----------------------------------------------------------------


def test_numerical_range_toy(toy_whitened):
    report = diagnostics.numerical_range(toy_whitened, 2000, seed=3, p=1)
    assert np.min(report.samples.real) >= -1e-10  # K = 1.25 > 0
    assert report.sector_opening <= np.pi + 1e-12
    assert report.within_angle  # opening pi fits in the p = 1 sector


def test_numerical_range_conjugation_closed(toy_whitened):
    report = diagnostics.numerical_range(toy_whitened, 500, seed=9)
    z = np.sort_complex(report.samples)
    assert np.allclose(z, np.sort_complex(report.samples.conj()), atol=1e-14)


def test_numerical_range_detects_negative_axis():
    wh = assembly.WhitenedSystem.from_matrices(np.eye(4), -np.eye(4))
    report = diagnostics.numerical_range(wh, 2000, seed=1, p=1)
    assert np.min(report.samples.real) < 0
    assert not report.within_angle


def test_numerical_range_positive_semidefinite_b(helmholtz32):
    _, _, _, wh = cached_system(operator="laplacian", size=32, contrast=1.0)
    report = diagnostics.numerical_range(wh, 10000, seed=2025)
    assert float(np.min(report.samples.real)) >= -1e-10


@pytest.mark.parametrize("dimension, size", [(1, 32), (2, 6)], ids=["1d-two-blocks", "2d-six-blocks"])
def test_numerical_range_chunks_match_dense_form(dimension, size):
    wh = cached_system(dimension=dimension, size=size, contrast=3.0)[3]
    # constant V: 2 parity blocks in 1D; in 2D 4 parity blocks, of which the
    # diagonal swap splits two in halves and pairs the other two as twins
    assert len(wh.blocks) == {1: 2, 2: 6}[dimension]
    assert wh.twin_of.count(None) == {1: 2, 2: 5}[dimension]
    comp = companion.build_companion(wh)
    report = diagnostics.numerical_range(wh, 10000, seed=2025)
    n, half = wh.size, 5000
    width = diagnostics._RANGE_DRAW_BYTES // (32 * n)
    assert width < half and half % width  # two or more chunks, the last one shorter
    rng = np.random.default_rng(2025)
    chunks = [rng.standard_normal((4, n, min(width, half - i))) for i in range(0, half, width)]
    a, b, c, d = np.concatenate(chunks, axis=-1)
    w = np.concatenate([a + 1j * b, c + 1j * d])  # (u0; v0), unnormalized
    dense = np.einsum("ij,ij->j", w.conj(), dense_d(comp) @ w) / np.einsum("ij,ij->j", w.conj(), w)
    expected = np.concatenate([dense, dense.conj()])
    assert np.max(np.abs(report.samples - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("count", [10**4, 10**5])
def test_numerical_range_memory_is_flat_in_the_count(count):
    # one chunk's draw of _RANGE_DRAW_BYTES, the products K_b (a_b; b_b) of
    # one block (2 n_b x w, at most two N x w arrays), the K_b and the samples
    wh = cached_system(dimension=2, size=8, contrast=3.0)[3]
    width = diagnostics._RANGE_DRAW_BYTES // (32 * wh.size)
    bound = diagnostics._RANGE_DRAW_BYTES + 2 * wh.size * width * 8 + 8 * wh.size**2
    tracemalloc.start()
    try:
        report = diagnostics.numerical_range(wh, count, seed=2025)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - report.samples.nbytes <= bound


@pytest.mark.parametrize(
    "operator, dimension, size, verdict",
    [("laplacian", 2, 6, False), ("laplacian", 1, 16, True), ("bilaplacian", 2, 6, True)],
    ids=["2d-laplacian", "1d-laplacian", "2d-bilaplacian"],
)
def test_numerical_range_exact_verdict(operator, dimension, size, verdict):
    problem, _, _, wh = cached_system(operator=operator, dimension=dimension, size=size, contrast=3.0)
    comp = companion.build_companion(wh)
    report = diagnostics.numerical_range(wh, 1000, seed=4, p=problem.p_min)
    assert report.within_angle is verdict
    assert report.exact_opening == np.pi  # every K_b is positive definite here
    assert len(report.lambda_min_k) == len(wh.blocks) and min(report.lambda_min_k) > 0
    # w = (t a, i S a / |S a|) has |arg <D w, w>| -> pi/2 as t -> 0
    a = np.linspace(1.0, 2.0, wh.size)
    s_a = np.sqrt(wh.mu) * a
    w = np.concatenate([1e-4 * a, 1j * s_a / np.linalg.norm(s_a)])
    angle = abs(np.angle(np.vdot(w, dense_d(comp) @ w)))
    assert angle > np.pi / 4 and angle > report.max_abs_arg
    assert bool(angle <= report.pi_over_p / 2) is verdict


def test_numerical_range_indefinite_k_opens_full_plane():
    # K = diag(1, -1): W(D) reaches both half-planes, so no sector short of 2 pi holds it
    wh = assembly.WhitenedSystem.from_matrices(np.eye(2), np.diag([1.0, -1.0]))
    report = diagnostics.numerical_range(wh, 500, seed=2, p=1)
    assert report.exact_opening == 2 * np.pi
    assert not report.within_angle
    assert sorted(report.lambda_min_k) == pytest.approx([-1.0])


def test_numerical_range_deterministic(toy_whitened):
    a = diagnostics.numerical_range(toy_whitened, 300, seed=5)
    b = diagnostics.numerical_range(toy_whitened, 300, seed=5)
    assert np.array_equal(a.samples, b.samples)


def test_numerical_range_needs_samples(toy_whitened):
    with pytest.raises(ValueError):
        diagnostics.numerical_range(toy_whitened, 50)


# -- trace functional and scans ---------------------------------------------------------


def test_trace_functional_positive_at_unit_potential():
    for operator in ("laplacian", "bilaplacian"):
        value = diagnostics.trace_functional(unit_problem(operator), 16)
        assert value > 0


def test_trace_functional_matches_high_precision_reference():
    value = diagnostics.trace_functional(unit_problem(), 32)
    assert value == pytest.approx(REFERENCE_TRACE_LAPLACIAN_V1_N32, rel=1e-13)


def test_trace_functional_scalar_identity(toy_whitened):
    # scalar system: tr(B A^{-1}) = 5/4 through the whitened matrices directly
    value = float(np.trace(np.linalg.solve(np.diag(1.0 / toy_whitened.mu), dense_bw(toy_whitened))))
    assert value == pytest.approx(1.25, abs=1e-14)


def test_trace_functional_cross_check_guard(monkeypatch):
    # the two routes agree to rounding, often bitwise, so the gap is injected
    monkeypatch.setattr(diagnostics, "trace_functional_routes", lambda *a: (1.0, 1.0 + 1e-6))
    with pytest.raises(CrossCheckFailed):
        diagnostics.trace_functional(unit_problem(), 16)


def test_potential_scan_constant_direction_is_flat():
    prob = unit_problem(contrast=2.0)
    zero_dir = model.PotentialSpec.constant(0.0, 1)
    report = diagnostics.potential_scan(prob, zero_dir, np.linspace(0, 1, 5), 10)
    assert np.max(np.abs(np.diff(report.t_values))) < 1e-12


def test_potential_scan_unit_family(helmholtz32):
    prob = unit_problem()
    direction = model.PotentialSpec.constant(1.0, 1)
    report = diagnostics.potential_scan(
        prob, direction, np.linspace(0.0, 2.0, 11), 12, refine_check=True
    )
    assert np.all(report.t_values > 0)
    assert report.near_zeros.size == 0
    assert report.sign_changes.shape[0] == 0
    ratio = report.refined_max_increment / report.max_increment
    assert abs(ratio - 0.5) <= 0.1


@pytest.mark.filterwarnings("ignore::tespect.errors.SmoothnessWarning")
def test_potential_scan_builds_one_basis(monkeypatch):
    # a grid direction cuts the rule into cells; the basis built at s = 0
    # must equal the one each s would build
    prob = unit_problem()
    direction = model.PotentialSpec.grid([1.0, 0.5, 2.0, 1.0], 1)
    s_grid = np.linspace(0.0, 1.0, 6)
    family = [model.PotentialSpec.affine(prob.potential, direction, s) for s in s_grid]
    expected = [
        diagnostics.trace_functional(model.ProblemSpec(prob.operator, prob.domain, pot), 10)
        for pot in family
    ]
    calls = {"build_basis": 0, "assemble_stack": 0}

    def counted(name):
        inner = getattr(diagnostics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(diagnostics, name, counted(name))
    report = diagnostics.potential_scan(prob, direction, s_grid, 10, refine_check=True)
    # the coarse points and the midpoints fit in one stack
    assert calls == {"build_basis": 1, "assemble_stack": 1}
    assert report.t_values.tolist() == expected


def test_potential_scan_positivity_guard():
    prob = unit_problem()
    direction = model.PotentialSpec.constant(-1.0, 1)
    with pytest.raises(PotentialLeavesCone, match="s="):
        diagnostics.potential_scan(prob, direction, np.linspace(0.0, 2.0, 5), 8)


@pytest.mark.parametrize("s_grid", [[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.5]])
def test_potential_scan_refuses_repeated_or_single_points(s_grid):
    prob = unit_problem()
    with pytest.raises(ValueError, match="distinct points"):
        diagnostics.potential_scan(prob, model.PotentialSpec.constant(1.0, 1), s_grid, 8)


def square_problem(potential, operator="laplacian"):
    op = model.OperatorSpec.preset_by_name(operator, 2)
    return model.validate_problem(op, model.DomainSpec("square"), potential)


@pytest.mark.parametrize(
    "operator, dimension, size",
    [("laplacian", 1, 16), ("laplacian", 1, 32), ("bilaplacian", 1, 16), ("bilaplacian", 1, 32),
     ("laplacian", 2, 8)],
)
def test_constant_family_trace_is_linear_in_v(operator, dimension, size):
    # for constant V, A = q L and B = (2q + 1) K with L, K free of q, so
    # t = tr(B A^{-1}) = (2 + V) tr(K L^{-1}); in 2D the stack carries a swap
    # split and a twin
    base = model.PotentialSpec.constant(1.0, dimension)
    if dimension == 1:
        prob = unit_problem(operator)
    else:
        prob = square_problem(base, operator)
    s = np.linspace(0.0, 2.0, 9)
    report = diagnostics.potential_scan(prob, base, s, size, refine_check=True)
    ratio = report.t_values / (3.0 + s)
    assert np.ptp(ratio) <= 1e-13 * np.max(np.abs(ratio))


def per_s_values(prob, direction, s_grid, size):
    family = [model.PotentialSpec.affine(prob.potential, direction, s) for s in s_grid]
    return np.array([
        diagnostics.trace_functional(model.ProblemSpec(prob.operator, prob.domain, pot), size)
        for pot in family
    ])


@pytest.mark.filterwarnings("ignore::tespect.errors.SmoothnessWarning")
def test_stacked_scan_matches_per_s_on_kinked_grid_family():
    prob = unit_problem("bilaplacian", contrast=2.0)
    direction = model.PotentialSpec.grid([1.0, -0.5, 2.0, 0.25, 1.0], 1)
    s_grid = np.linspace(0.0, 1.5, 7)
    report = diagnostics.potential_scan(prob, direction, s_grid, 14)
    expected = per_s_values(prob, direction, s_grid, 14)
    assert np.max(np.abs(report.t_values - expected) / np.abs(expected)) <= 1e-14


def test_stacked_scan_matches_per_s_on_asymmetric_square_family(monkeypatch):
    # no reflection or swap symmetry: one class, one whitening block; three
    # members per stack, so 9 + 8 points make six stacks
    prob = square_problem(model.PotentialSpec.polynomial([[2.4, 0.3], [1.1, -0.2], [0.3, 0.0]], 2))
    direction = model.PotentialSpec.polynomial([[0.0, 0.5], [0.2, 0.0]], 2)
    size = 6
    monkeypatch.setattr(diagnostics, "_SCAN_STACK_BYTES", 3 * diagnostics._MEMBER_ARRAYS * 8 * size**4)
    calls = []
    inner = diagnostics.assemble_stack

    def counted(basis, vvals, *args, **kwargs):
        calls.append(len(vvals))
        return inner(basis, vvals, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "assemble_stack", counted)
    s_grid = np.linspace(0.0, 2.0, 9)
    report = diagnostics.potential_scan(prob, direction, s_grid, size, refine_check=True)
    assert calls == [3, 3, 3, 3, 3, 2]
    assert len(diagnostics.parity_classes(prob, diagnostics.build_basis(prob, size))) == 1
    expected = per_s_values(prob, direction, s_grid, size)
    assert np.max(np.abs(report.t_values - expected) / np.abs(expected)) <= 1e-14


def gap_at(monkeypatch, v_values):
    """Make the raw route miss by 1e-6 wherever V at the first node is in ``v_values``."""
    routes = diagnostics._Pencils.routes

    def gapped(self, vvals):
        whitened, raw = routes(self, vvals)
        return whitened, raw + 1e-6 * np.isin(vvals[..., 0], v_values)

    monkeypatch.setattr(diagnostics._Pencils, "routes", gapped)


def test_stacked_scan_cross_check_names_first_failing_s(monkeypatch):
    prob = unit_problem()  # V = 1 + s
    gap_at(monkeypatch, [1.75, 1.25])
    with pytest.raises(CrossCheckFailed, match=r"s=0\.25$"):
        diagnostics.potential_scan(prob, prob.potential, np.linspace(0.0, 1.0, 5), 8)


def test_stacked_scan_cone_exit_names_first_failing_s():
    prob = unit_problem()
    direction = model.PotentialSpec.constant(-1.0, 1)  # V = 1 - s leaves the cone at s = 1
    with pytest.raises(PotentialLeavesCone, match=r"s=1$"):
        diagnostics.potential_scan(prob, direction, np.linspace(0.0, 2.0, 9), 8)


@pytest.mark.filterwarnings("ignore::tespect.errors.SmoothnessWarning")
def test_stacked_scan_cone_check_refuses_nan():
    prob = unit_problem()
    direction = model.PotentialSpec.grid([1.0, float("nan")], 1)
    with pytest.raises(PotentialLeavesCone, match=r"s=0$"):
        diagnostics.potential_scan(prob, direction, np.linspace(0.0, 1.0, 5), 8)


def test_stacked_scan_reports_earlier_s_of_a_later_check(monkeypatch):
    # in one stack the cone check flags s = 1 first; s = 0.5 passes it but
    # fails the later cross-check, and comes first in grid order
    prob = unit_problem()
    gap_at(monkeypatch, [0.5])
    direction = model.PotentialSpec.constant(-1.0, 1)
    with pytest.raises(CrossCheckFailed, match=r"s=0\.5$"):
        diagnostics.potential_scan(prob, direction, np.linspace(0.0, 2.0, 9), 8)


def fail_eigensolve_at(monkeypatch, v_values, stacked_only=False):
    """Make densela.sym_eig fail a whole stack holding V at the first node in ``v_values``.

    Like LAPACK, the failure names no member.  With ``stacked_only`` every
    member passes on its own.
    """
    routes, sym_eig = diagnostics._Pencils.routes, densela.sym_eig
    first_node = []

    def tracked(self, vvals):
        first_node[:] = [vvals[..., 0]]
        return routes(self, vvals)

    def failing(m):
        if np.isin(first_node[0], v_values).any() and (first_node[0].size > 1 or not stacked_only):
            raise NoConvergence("eigenvalues did not converge")
        return sym_eig(m)

    monkeypatch.setattr(diagnostics._Pencils, "routes", tracked)
    monkeypatch.setattr(densela, "sym_eig", failing)


def test_stacked_scan_names_the_s_of_an_error_raised_for_the_whole_stack(monkeypatch):
    prob = unit_problem()  # V = 1 + s, every s in one stack
    fail_eigensolve_at(monkeypatch, [1.75, 1.5])
    with pytest.raises(NoConvergence, match=r"^eigenvalues did not converge at family parameter s=0\.5$"):
        diagnostics.potential_scan(prob, prob.potential, np.linspace(0.0, 1.0, 5), 8)


def test_stacked_scan_error_stands_when_every_s_passes_alone(monkeypatch):
    prob = unit_problem()
    fail_eigensolve_at(monkeypatch, [1.5], stacked_only=True)
    with pytest.raises(NoConvergence, match=r"^eigenvalues did not converge$"):
        diagnostics.potential_scan(prob, prob.potential, np.linspace(0.0, 1.0, 5), 8)


def test_stacked_scan_memory_stays_within_budget(monkeypatch):
    # worst case: one class, so one whitening block spans the pencil
    prob = square_problem(model.PotentialSpec.polynomial([[2.4, 0.3], [1.1, -0.2], [0.3, 0.0]], 2))
    direction = model.PotentialSpec.polynomial([[0.0, 0.5], [0.2, 0.0]], 2)
    size = 12
    matrix = 8 * size**4
    budget = 3 * diagnostics._MEMBER_ARRAYS * matrix
    monkeypatch.setattr(diagnostics, "_SCAN_STACK_BYTES", budget)
    tracemalloc.start()
    try:
        diagnostics.potential_scan(prob, direction, np.linspace(0.0, 1.0, 5), size, refine_check=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the budget, plus the Gram matrix, the Dirichlet form and the basis tables
    assert peak <= budget + 3 * matrix
