import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from conftest import cached_system, companion_eigenvalues, dense_bw, dense_d, pencil_companion, random_spd_pencil
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


def test_trace_power_matches_eigenvalue_power_sums():
    # 1D, and 2D with a swap split: block 3 is the twin of block 2
    for dimension, size in ((1, 32), (2, 6)):
        wh = cached_system(dimension=dimension, size=size, contrast=3.0)[3]
        assert dimension == 1 or wh.twin_of[3] == 2
        comp = companion.build_companion(wh)
        # the split-power rule forms no product at p = 2
        assert diagnostics.trace_power(comp, 2) == sum(np.sum(d * d.T) for d in comp.blocks)
        mus = companion_eigenvalues(comp)
        t1 = diagnostics.trace_power(comp, 1)
        assert abs(t1 - mus.sum()) <= 1e-8 * abs(t1)
        for p in (2, 3, 4):
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
    assert value.real == pytest.approx(REFERENCE_TRACE_LAPLACIAN_V1_N32, rel=1e-13)


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
    assert diagnostics.schatten_profile(wh) == pytest.approx(-2.0, abs=1e-3)


def test_schatten_profile_interval(helmholtz32):
    _, _, _, wh = helmholtz32
    report = diagnostics.trace_report(companion.build_companion(wh))
    assert report.decay_theory == -2.0 and report.decay_exponent == diagnostics.schatten_profile(wh)
    assert abs(report.decay_exponent - (-2.0)) <= 0.15 * 2.0


@pytest.mark.parametrize("size", [1, 2, 3])
def test_schatten_profile_fits_from_three_values(size):
    wh = assembly.WhitenedSystem.from_matrices(np.diag(np.arange(1.0, size + 1) ** 4), np.eye(size))
    exponent = diagnostics.schatten_profile(wh)
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
        value = diagnostics.trace_power(pencil_companion(unit_problem(operator), 16), 1)
        assert value.real > 0 and value.imag == 0.0


def test_trace_functional_matches_high_precision_reference():
    # the functional tr(A^{-1} B) of the validated unit problem, built straight from
    # its ProblemSpec, against the 40-digit reference
    value = diagnostics.trace_power(pencil_companion(unit_problem(), 32), 1)
    assert value.imag == 0.0
    assert value.real == pytest.approx(REFERENCE_TRACE_LAPLACIAN_V1_N32, rel=1e-13)


def test_trace_functional_scalar_identity(toy_whitened):
    # scalar system: tr(B A^{-1}) = 5/4 through the whitened matrices directly
    value = float(np.trace(np.linalg.solve(np.diag(1.0 / toy_whitened.mu), dense_bw(toy_whitened))))
    assert value == pytest.approx(1.25, abs=1e-14)


def test_potential_scan_constant_direction_is_flat():
    prob = unit_problem(contrast=2.0)
    zero_dir = model.PotentialSpec.constant(0.0, 1)
    report = diagnostics.potential_scan(prob, zero_dir, 0.0, 1.0, 5, 10)
    assert np.max(np.abs(np.diff(report.t_values))) < 1e-12


def test_potential_scan_unit_family(helmholtz32):
    prob = unit_problem()
    direction = model.PotentialSpec.constant(1.0, 1)
    report = diagnostics.potential_scan(prob, direction, 0.0, 2.0, 11, 12)
    assert np.all(report.t_values > 0)
    assert report.near_zeros.size == 0
    assert report.sign_changes.shape[0] == 0
    # V = 1 + s: t is proportional to 3 + s, a line, resolved to rounding
    slope = report.t_values / (3.0 + report.s_values)
    assert np.max(np.abs(report.first_derivative - slope)) <= 1e-10 * np.max(slope)
    assert report.chebyshev_tail <= 1e-13


@pytest.mark.filterwarnings("ignore::tespect.errors.SmoothnessWarning")
def test_potential_scan_builds_one_basis(monkeypatch):
    # a grid direction cuts the rule into cells; the basis built at s = 0
    # must equal the one each s would build
    prob = unit_problem()
    direction = model.PotentialSpec.grid([1.0, 0.5, 2.0, 1.0], 1)
    calls = {"build_basis": 0, "assemble_stack": 0}

    def counted(name):
        inner = getattr(diagnostics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(diagnostics, name, counted(name))
    report = diagnostics.potential_scan(prob, direction, 0.0, 1.0, 6, 10)
    # every point fits in one stack
    assert calls == {"build_basis": 1, "assemble_stack": 1}
    monkeypatch.undo()
    # the scan's kernels on one s at a time, each on the basis built for it
    for s, t in zip(report.s_values, report.t_values):
        prob_s = model.ProblemSpec(prob.operator, prob.domain, model.PotentialSpec.affine(prob.potential, direction, s))
        basis = diagnostics.build_basis(prob_s, 10)
        vvals = model._potential_values(prob_s.potential, basis.grid_points())
        assert diagnostics._Pencils.of(prob_s, basis).routes(vvals)[0] == t


def test_potential_scan_positivity_guard():
    prob = unit_problem()
    direction = model.PotentialSpec.constant(-1.0, 1)
    with pytest.raises(PotentialLeavesCone, match="s="):
        diagnostics.potential_scan(prob, direction, 0.0, 2.0, 5, 8)


# (s_min, s_max, count): an empty interval repeats every point, and fewer
# than five points leave a Chebyshev tail that includes the linear term
@pytest.mark.parametrize("s_grid", [(1.0, 1.0, 5), (0.0, 0.0, 9), (0.5, 1.5, 4)])
def test_potential_scan_refuses_repeated_or_single_points(s_grid):
    prob = unit_problem()
    with pytest.raises(ValueError, match="5 or more points and s_min != s_max"):
        diagnostics.potential_scan(prob, model.PotentialSpec.constant(1.0, 1), *s_grid, 8)


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
    # split and a twin.  Along V = 1 + s, t is a line: its interpolant's
    # slope is t / (3 + s), its curvature and tail vanish to rounding
    base = model.PotentialSpec.constant(1.0, dimension)
    if dimension == 1:
        prob = unit_problem(operator)
    else:
        prob = square_problem(base, operator)
    report = diagnostics.potential_scan(prob, base, 0.0, 2.0, 9, size)
    t = report.t_values
    ratio = t / (3.0 + report.s_values)
    assert np.ptp(ratio) <= 1e-13 * np.max(np.abs(ratio))
    assert np.max(np.abs(report.first_derivative / ratio - 1.0)) <= 1e-10
    assert np.max(np.abs(report.second_derivative)) <= 1e-8 * np.max(np.abs(t))
    assert report.chebyshev_tail <= 1e-13


def test_scan_derivatives_match_a_finer_scan():
    # V = 3 + x + 2x^2 + s (x^3 - 1) is positive for s in [0, 2]; t is
    # analytic in s, so 21 points resolve both derivatives to near rounding
    base = model.PotentialSpec.polynomial([3.0, 1.0, 2.0], 1)
    prob = model.validate_problem(model.OperatorSpec("laplacian", 1), model.DomainSpec("interval"), base)
    direction = model.PotentialSpec.polynomial([-1.0, 0.0, 0.0, 1.0], 1)
    coarse, fine = (diagnostics.potential_scan(prob, direction, 0.0, 2.0, count, 32) for count in (21, 65))
    cheb = np.polynomial.chebyshev
    x_coarse, x_fine = (report.s_values - 1.0 for report in (coarse, fine))  # [0, 2] onto [-1, 1]
    for column, tol in (("first_derivative", 1e-9), ("second_derivative", 1e-6)):
        reference = cheb.chebval(x_coarse, cheb.chebfit(x_fine, getattr(fine, column), 64))
        got = getattr(coarse, column)
        assert np.max(np.abs(got - reference)) <= tol * np.max(np.abs(reference)), column
    assert coarse.chebyshev_tail <= 1e-12


def per_s_values(prob, direction, s_grid, size):
    family = [model.PotentialSpec.affine(prob.potential, direction, s) for s in s_grid]
    return np.array([
        diagnostics.trace_power(pencil_companion(model.ProblemSpec(prob.operator, prob.domain, pot), size), 1).real
        for pot in family
    ])


@pytest.mark.filterwarnings("ignore::tespect.errors.SmoothnessWarning")
def test_stacked_scan_matches_per_s_on_kinked_grid_family():
    prob = unit_problem("bilaplacian", contrast=2.0)
    direction = model.PotentialSpec.grid([1.0, -0.5, 2.0, 0.25, 1.0], 1)
    report = diagnostics.potential_scan(prob, direction, 0.0, 1.5, 7, 14)
    expected = per_s_values(prob, direction, report.s_values, 14)
    assert np.max(np.abs(report.t_values - expected) / np.abs(expected)) <= 1e-14


def test_stacked_scan_matches_per_s_on_asymmetric_square_family(monkeypatch):
    # no reflection or swap symmetry: one class, one whitening block; three
    # members per stack, so 9 points make three stacks
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
    report = diagnostics.potential_scan(prob, direction, 0.0, 2.0, 9, size)
    assert calls == [3, 3, 3]
    assert diagnostics.Symmetry.of(prob, diagnostics.build_basis(prob, size)).names == ("identity",)
    expected = per_s_values(prob, direction, report.s_values, size)
    assert np.max(np.abs(report.t_values - expected) / np.abs(expected)) <= 1e-14


def test_stacked_scan_of_d4_family_along_a_swap_direction():
    # V_0 = 1 + x(1 - x) + y(1 - y) has all of D4, the direction x + y only
    # the swap: the family keeps the elements both have
    prob = square_problem(model.PotentialSpec.polynomial([[1.0, 1.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], 2))
    direction = model.PotentialSpec.polynomial([[0.0, 1.0], [1.0, 0.0]], 2)
    size = 6
    family = model.ProblemSpec(prob.operator, prob.domain, model.PotentialSpec.affine(prob.potential, direction, 0.0))
    pencils = diagnostics._Pencils.of(family, diagnostics.build_basis(family, size))
    assert len(prob.potential.stabilizer()) == 8 and pencils.symmetry.names == ("identity", "swap")
    assert [blk.p.size for blk in pencils.symmetry.blocks] == [21, 15]
    report = diagnostics.potential_scan(prob, direction, 0.0, 1.0, 7, size)
    expected = per_s_values(prob, direction, report.s_values, size)
    assert np.max(np.abs(report.t_values - expected) / np.abs(expected)) <= 1e-14


def gap_at(monkeypatch, v_values):
    """Make the raw route miss by 1e-6 wherever V at the first node is in ``v_values``."""
    routes = diagnostics._Pencils.routes

    def gapped(self, vvals):
        whitened, raw = routes(self, vvals)
        return whitened, raw + 1e-6 * np.isin(vvals[..., 0], v_values)

    monkeypatch.setattr(diagnostics._Pencils, "routes", gapped)


def scan_nodes(s_min, s_max, count):
    """The s values of a passing scan: the Chebyshev-Lobatto points of [s_min, s_max]."""
    direction = model.PotentialSpec.constant(1.0, 1)
    return diagnostics.potential_scan(unit_problem(), direction, s_min, s_max, count, 4).s_values


def test_stacked_scan_cross_check_names_first_failing_s(monkeypatch):
    prob = unit_problem()  # V = 1 + s
    s = scan_nodes(0.0, 1.0, 5)
    gap_at(monkeypatch, [1.0 + s[3], 1.0 + s[1]])
    with pytest.raises(CrossCheckFailed, match=re.escape(f"s={s[1]:g}") + "$"):
        diagnostics.potential_scan(prob, prob.potential, 0.0, 1.0, 5, 8)


def test_stacked_scan_cone_exit_names_first_failing_s():
    prob = unit_problem()
    direction = model.PotentialSpec.constant(-1.0, 1)  # V = 1 - s leaves the cone at s = 1
    with pytest.raises(PotentialLeavesCone, match=r"s=1$"):  # the middle node
        diagnostics.potential_scan(prob, direction, 0.0, 2.0, 9, 8)


@pytest.mark.filterwarnings("ignore::tespect.errors.SmoothnessWarning")
def test_stacked_scan_cone_check_refuses_nan():
    prob = unit_problem()
    direction = model.PotentialSpec.grid([1.0, float("nan")], 1)
    with pytest.raises(PotentialLeavesCone, match=r"s=0$"):
        diagnostics.potential_scan(prob, direction, 0.0, 1.0, 5, 8)


def test_stacked_scan_reports_earlier_s_of_a_later_check(monkeypatch):
    # in one stack the cone check flags s = 1 first; s[2] < 1 passes it but
    # fails the later cross-check, and comes first in grid order
    prob = unit_problem()
    s = scan_nodes(0.0, 2.0, 9)
    gap_at(monkeypatch, [1.0 - s[2]])
    direction = model.PotentialSpec.constant(-1.0, 1)
    with pytest.raises(CrossCheckFailed, match=re.escape(f"s={s[2]:g}") + "$"):
        diagnostics.potential_scan(prob, direction, 0.0, 2.0, 9, 8)


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
    s = scan_nodes(0.0, 1.0, 5)
    fail_eigensolve_at(monkeypatch, [1.0 + s[3], 1.0 + s[2]])
    with pytest.raises(NoConvergence, match=r"^eigenvalues did not converge at family parameter s=0\.5$"):
        diagnostics.potential_scan(prob, prob.potential, 0.0, 1.0, 5, 8)


def test_stacked_scan_error_stands_when_every_s_passes_alone(monkeypatch):
    prob = unit_problem()
    fail_eigensolve_at(monkeypatch, [1.5], stacked_only=True)  # s = 0.5, the middle node
    with pytest.raises(NoConvergence, match=r"^eigenvalues did not converge$"):
        diagnostics.potential_scan(prob, prob.potential, 0.0, 1.0, 5, 8)


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
        diagnostics.potential_scan(prob, direction, 0.0, 1.0, 5, size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the budget, plus the Gram matrix, the Dirichlet form and the basis tables
    assert peak <= budget + 3 * matrix
