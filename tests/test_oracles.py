import math

import numpy as np
import pytest

from tespect import oracles
from tespect.errors import DegenerateContrast, RangeExceeded

J0_FIRST_ZERO = 2.404825558  # classical value, good to 1e-9


# -- Bessel evaluator ---------------------------------------------------------


def test_bessel_at_origin():
    assert oracles.bessel_j(0, 0.0) == 1.0
    assert oracles.bessel_j(1, 0.0) == 0.0


def test_bessel_first_zero_of_j0():
    k = oracles._bisect(lambda x: oracles.bessel_j(0, x), 2.0, 3.0)
    assert abs(k - J0_FIRST_ZERO) <= 1e-8


@pytest.mark.parametrize("x", [1.0, 5.0, 20.0])
def test_bessel_normalization_identity(x):
    row = oracles.bessel_row(60, x)
    total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
    assert abs(total - 1.0) <= 1e-10


def test_bessel_three_term_recurrence():
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = float(rng.uniform(0.5, 50.0))
        l = int(rng.integers(1, 21))
        row = oracles.bessel_row(l + 1, x)
        lhs = row[l - 1] + row[l + 1]
        rhs = (2.0 * l / x) * row[l]
        scale = max(abs(row[l - 1]), abs(row[l + 1]), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-30)


def test_bessel_derivative_identities():
    x = 7.3
    assert oracles.bessel_j_derivative(0, x) == pytest.approx(
        -oracles.bessel_j(1, x), abs=1e-14
    )
    h = 1e-5
    for l in (1, 4, 11):
        fd = (oracles.bessel_j(l, x + h) - oracles.bessel_j(l, x - h)) / (2.0 * h)
        assert oracles.bessel_j_derivative(l, x) == pytest.approx(fd, abs=1e-7)


def test_bessel_row_matches_scipy_jv():
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([np.geomspace(1e-6, 1.0, 200), np.linspace(1.0, 200.0, 4000)])
    rows = oracles.bessel_row(60, x)
    reference = special.jv(np.arange(61)[:, None], x[None, :])
    assert np.max(np.abs(rows - reference)) <= 2e-14


def test_array_calls_match_scalar_calls():
    eta = 2.0
    ks = np.concatenate([[0.0], np.linspace(0.01, 19.0, 40)])
    rows = oracles.bessel_row(12, ks.reshape(1, -1))
    assert rows.shape == (13, 1, ks.size)
    for j, k in enumerate(ks):
        scalar = oracles.bessel_row(12, float(k))
        assert np.max(np.abs(rows[:, 0, j] - scalar)) <= 1e-15
    ks = ks[1:]
    det = oracles.interval_determinant(ks, eta)
    disk = [oracles.disk_determinant(ks, eta, l) for l in (0, 3, 7)]
    for j, k in enumerate(ks):
        assert abs(det[j] - oracles.interval_determinant(float(k), eta)) <= 1e-15
        for d, l in zip(disk, (0, 3, 7)):
            assert abs(d[j] - oracles.disk_determinant(float(k), eta, l)) <= 1e-15


def test_bessel_range_guard():
    with pytest.raises(RangeExceeded):
        oracles.bessel_j(61, 1.0)
    with pytest.raises(RangeExceeded):
        oracles.bessel_j(0, 201.0)


# -- interval determinant ----------------------------------------------------------


def closed_form_interval_det(k, eta):
    # independent reduction of the 4x4 determinant by cofactor expansion
    s, c = math.sin(k), math.cos(k)
    se, ce = math.sin(eta * k), math.cos(eta * k)
    raw = 2.0 * eta - (eta**2 + 1.0) * s * se - 2.0 * eta * c * ce
    return raw / (2.0 * (1.0 + eta**2))  # row-equilibration factors


@pytest.mark.parametrize("contrast", [0.5, 2.0, 3.0, 8.0])
def test_interval_determinant_against_closed_form(contrast):
    eta = math.sqrt(1.0 + contrast)
    for k in np.linspace(0.3, 19.0, 37):
        assert oracles.interval_determinant(float(k), eta) == pytest.approx(
            closed_form_interval_det(float(k), eta), abs=1e-12
        )


def test_interval_determinant_nonnegative_at_resonant_contrast():
    # eta = 2 collapses the determinant to 2 (cos k - 1)^2 (cos k + 2) >= 0:
    # the 2 pi j family are fourfold zeros, touching without a sign change
    for k in np.linspace(0.01, 19.0, 101):
        assert oracles.interval_determinant(float(k), 2.0) >= 0


@pytest.mark.parametrize("contrast", [0.5, 2.0, 3.0, 8.0])
def test_interval_determinant_factors_by_parity(contrast):
    eta = math.sqrt(1.0 + contrast)
    ks = np.linspace(0.3, 19.0, 37).reshape(1, -1)
    rows = oracles.interval_parity_determinants(ks, eta)
    assert rows.shape == (2, 1, 37)
    e, o = rows
    raw = [closed_form_interval_det(float(k), eta) * 2.0 * (1.0 + eta**2) for k in ks.ravel()]
    assert np.max(np.abs(-4.0 * e * o - raw)) <= 1e-12
    scalar = oracles.interval_parity_determinants(float(ks[0, 5]), eta)
    assert scalar.shape == (2,) and np.array_equal(scalar, rows[:, 0, 5])


def test_disk_small_k_sign_anchor():
    # mode zero behaves like (1 - eta^2) k / 2 < 0 near the origin; higher
    # modes keep a stable sign as k -> 0+, anchoring the bracketing grid
    eta = 2.0
    assert oracles.disk_determinant(0.01, eta, 0) < 0
    assert oracles.disk_determinant(0.02, eta, 0) < 0
    for l in (1, 2, 3):
        s1 = np.sign(oracles.disk_determinant(0.02, eta, l))
        s2 = np.sign(oracles.disk_determinant(0.01, eta, l))
        assert s1 == s2 != 0


def assert_resonant_family(contrast, step, count):
    # F has a fourfold zero at every multiple of ``step``; one parity factor
    # has a simple zero there, so its interpolant's root is resolved to rounding
    roots = oracles.oracle_1d(contrast, 0.5, 20.0)
    assert len(roots) == count  # the family and nothing else
    for j, root in enumerate(roots, start=1):
        assert abs(root.k - j * step) <= 1e-12 * j * step
        assert root.residual < 1e-10
        assert root.l is None
        assert root.lam == pytest.approx(root.k**2, rel=1e-15)


def test_oracle_interval_contrast_three_family():
    assert_resonant_family(3.0, 2.0 * math.pi, 3)  # eta = 2


def test_oracle_interval_contrast_eight_family():
    assert_resonant_family(8.0, math.pi, 6)  # eta = 3


def test_oracle_interval_generic_contrast_sign_changes():
    eta = math.sqrt(3.0)  # V = 2
    roots = oracles.oracle_1d(2.0, 0.5, 20.0)
    assert len(roots) == 4
    for root in roots:
        assert root.residual < 1e-10
        lo, hi = root.bracket
        flo = oracles.interval_determinant(lo, eta)
        fhi = oracles.interval_determinant(hi, eta)
        assert flo * fhi < 0  # verified bracket


def test_oracle_interval_degenerate_contrast():
    with pytest.raises(DegenerateContrast):
        oracles.oracle_1d(1e-7, 0.5, 5.0)


# -- disk determinant -----------------------------------------------------------------


def test_oracle_disk_smallest_mode_zero_root():
    roots = oracles.oracle_disk(3.0, 0, 1.0, 6.0, points_per_unit=500)
    assert roots, "the smallest radial root lives in (1, 6)"
    first = roots[0]
    assert 1.0 < first.k < 6.0
    # frozen from the first verified run of the bisection
    assert first.k == pytest.approx(3.384195, abs=1e-5)
    assert first.residual < 1e-10


def test_oracle_disk_roots_have_verified_brackets():
    eta = 2.0
    roots = oracles.oracle_disk(3.0, 2, 0.5, 12.0, points_per_unit=500)
    assert roots
    for root in roots:
        assert root.residual < 1e-10
        lo, hi = root.bracket
        flo = oracles.disk_determinant(lo, eta, root.l)
        fhi = oracles.disk_determinant(hi, eta, root.l)
        assert flo * fhi < 0


def test_disk_no_simultaneous_bessel_zeros_below_twenty():
    # simultaneous zeros J_l(k) = J_l(2k) = 0 would be oracle roots; none
    # exist below k = 20 for the doubled argument
    for l in range(6):
        f1 = lambda x: oracles.bessel_row(l, x)[l]
        f2 = lambda x: oracles.bessel_row(l, 2.0 * x)[l]
        grid = np.linspace(0.1, 20.0, 4001)
        v1, v2 = f1(grid), f2(grid)
        i1 = np.nonzero(np.sign(v1[:-1]) * np.sign(v1[1:]) < 0)[0]
        i2 = np.nonzero(np.sign(v2[:-1]) * np.sign(v2[1:]) < 0)[0]
        zeros1 = oracles._bisect(f1, grid[i1], grid[i1 + 1])
        zeros2 = oracles._bisect(f2, grid[i2], grid[i2 + 1])
        gaps = [abs(a - b) for a in zeros1 for b in zeros2]
        assert min(gaps) > 1e-3


def test_disk_table_is_two_bessel_rows_bitwise():
    eta = 2.0
    for k in (3.3, np.linspace(0.5, 20.0, 3901).reshape(47, 83)):
        row = oracles.bessel_row(9, k)
        row_eta = oracles.bessel_row(9, eta * np.asarray(k))
        two_calls = eta * row[:-1] * oracles._derivative_rows(row_eta)
        two_calls -= oracles._derivative_rows(row) * row_eta[:-1]
        assert np.array_equal(oracles._disk_table(k, eta, 8), two_calls)


def test_proxy_points_degree_rule():
    assert oracles._proxy_points(3.0, 2.5e-3) == 6  # the disk at 200 points per unit
    assert oracles._proxy_points(3.0, 0.1) == 11  # and at 5 points per unit
    for tau, h in ((3.0, 2.5e-3), (1.5, 2.5e-4), (21.0, 0.5)):
        m = oracles._proxy_points(tau, h)
        bound = lambda n: (tau * h) ** n / (2.0 ** (n - 2) * math.factorial(n))
        assert bound(m) <= np.finfo(float).eps < bound(m - 1)


def test_scan_roots_samples_each_bracket_once():
    eta, calls = 2.0, []

    def table(k):
        calls.append(np.size(k))
        return oracles._disk_table(k, eta, 8)

    count = 3901  # 200 points per unit on [0.5, 20]
    roots = oracles._scan_roots(table, 0.5, 20.0, 200, range(9), tau=1.0 + eta)
    assert len(roots) == 53
    assert len(calls) <= math.ceil(count / oracles._SCAN_BLOCK) + 2
    assert sum(calls) <= count + 53 * oracles._proxy_points(1.0 + eta, 2.5e-3) + 53


def test_disk_roots_independent_of_grid_density():
    fine = oracles.oracle_disk(3.0, 8, 0.5, 20.0, points_per_unit=200)
    coarse = oracles.oracle_disk(3.0, 8, 0.5, 20.0, points_per_unit=5)
    assert len(fine) == len(coarse) == 53
    assert [r.l for r in fine] == [r.l for r in coarse]
    for a, b in zip(fine, coarse):
        assert abs(a.k - b.k) <= 1e-13 * a.k


def test_disk_roots_match_scipy_roots():
    special = pytest.importorskip("scipy.special")
    optimize = pytest.importorskip("scipy.optimize")
    eta = 2.0

    def row(k, l):
        jv, jvp = special.jv, special.jvp
        return eta * jv(l, k) * jvp(l, eta * k) - jvp(l, k) * jv(l, eta * k)

    roots = oracles.oracle_disk(3.0, 8, 0.5, 20.0, points_per_unit=200)
    assert len(roots) == 53
    for root in roots:
        k = optimize.brentq(row, *root.bracket, args=(root.l,), xtol=1e-15, rtol=1e-15)
        assert abs(root.lam - k * k) <= 3e-14 * k * k


def test_oracle_disk_range_guards():
    with pytest.raises(RangeExceeded):
        oracles.oracle_disk(3.0, 41, 1.0, 5.0)
    with pytest.raises(RangeExceeded):
        oracles.oracle_disk(3.0, 2, 1.0, 150.0)  # eta * k_hi beyond the evaluator
