import numpy as np
import pytest

from conftest import cached_system, random_spd_pencil
from tespect import assembly, companion, diagnostics, model
from tespect.errors import CrossCheckFailed, PotentialLeavesCone

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
    r1, r2 = diagnostics.trace_identity_check(toy_whitened, toy_companion)
    assert r1 < 1e-14 and r2 < 1e-14


def test_trace_identities_zero_b():
    n = 5
    wh = assembly.WhitenedSystem.from_matrices(np.eye(n), np.zeros((n, n)))
    comp = companion.build_companion(wh)
    assert np.trace(comp.d) == 0.0
    assert np.trace(comp.d @ comp.d) == pytest.approx(-2.0 * n, abs=1e-12)
    r1, r2 = diagnostics.trace_identity_check(wh, comp)
    assert r1 == 0.0 and r2 < 1e-14


def test_trace_identities_random_systems():
    rng = np.random.default_rng(12345)
    for _ in range(20):
        wh = random_spd_pencil(rng, 20)
        comp = companion.build_companion(wh)
        r1, r2 = diagnostics.trace_identity_check(wh, comp)
        assert r1 < 1e-10 and r2 < 1e-10


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


# -- numerical range ----------------------------------------------------------------


def test_numerical_range_toy(toy_companion):
    report = diagnostics.numerical_range(toy_companion, 2000, seed=3, p=1)
    assert np.min(report.samples.real) >= -1e-10  # K = 1.25 > 0
    assert report.sector_opening <= np.pi + 1e-12
    assert report.within_angle  # opening pi fits in the p = 1 sector


def test_numerical_range_conjugation_closed(toy_companion):
    report = diagnostics.numerical_range(toy_companion, 500, seed=9)
    z = np.sort_complex(report.samples)
    assert np.allclose(z, np.sort_complex(report.samples.conj()), atol=1e-14)


def test_numerical_range_detects_negative_axis():
    wh = assembly.WhitenedSystem.from_matrices(np.eye(4), -np.eye(4))
    comp = companion.build_companion(wh)
    report = diagnostics.numerical_range(comp, 2000, seed=1, p=1)
    assert np.min(report.samples.real) < 0
    assert not report.within_angle


def test_numerical_range_positive_semidefinite_b(helmholtz32):
    _, _, _, wh = cached_system(operator="laplacian", size=32, contrast=1.0)
    comp = companion.build_companion(wh)
    report = diagnostics.numerical_range(comp, 10000, seed=2025)
    assert float(np.min(report.samples.real)) >= -1e-10


def test_numerical_range_blocks_match_one_shot_draws(helmholtz32):
    comp = companion.build_companion(helmholtz32[3])
    report = diagnostics.numerical_range(comp, 10000, seed=2025)
    n, shape = comp.size, (2 * comp.size, 5000)
    rng = np.random.default_rng(2025)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    raw /= np.linalg.norm(raw, axis=0, keepdims=True)
    u0, v0 = raw[:n], raw[n:]
    re = np.einsum("ij,ij->j", u0.conj(), comp.k @ u0).real
    im = -2.0 * np.einsum("ij,ij->j", u0.conj(), comp.s @ v0).imag
    z = re + 1j * im
    expected = np.concatenate([z, z.conj()])
    assert np.max(np.abs(report.samples - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_numerical_range_deterministic(toy_companion):
    a = diagnostics.numerical_range(toy_companion, 300, seed=5)
    b = diagnostics.numerical_range(toy_companion, 300, seed=5)
    assert np.array_equal(a.samples, b.samples)


def test_numerical_range_needs_samples(toy_companion):
    with pytest.raises(ValueError):
        diagnostics.numerical_range(toy_companion, 50)


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
    value = float(np.trace(np.linalg.solve(toy_whitened.a, toy_whitened.b)))
    assert value == pytest.approx(1.25, abs=1e-14)


def test_trace_functional_cross_check_guard():
    with pytest.raises(CrossCheckFailed):
        diagnostics.trace_functional(unit_problem(), 16, tol=1e-18)


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
    calls = {"build_basis": 0, "assemble_system": 0}

    def counted(name):
        inner = getattr(diagnostics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(diagnostics, name, counted(name))
    report = diagnostics.potential_scan(prob, direction, s_grid, 10, refine_check=True)
    assert calls == {"build_basis": 1, "assemble_system": 2 * s_grid.size - 1}
    assert report.t_values.tolist() == expected


def test_potential_scan_positivity_guard():
    prob = unit_problem()
    direction = model.PotentialSpec.constant(-1.0, 1)
    with pytest.raises(PotentialLeavesCone, match="s="):
        diagnostics.potential_scan(prob, direction, np.linspace(0.0, 2.0, 5), 8)
