import math

import numpy as np
import pytest

from tespect import oracles
from tespect.errors import DegenerateContrast, NoSignChange, RangeExceeded

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
    # eta = 2 collapses the determinant to 2 (cos k - 1)^2 (cos k + 2) >= 0,
    # which is why the 2 pi j family consists of tangency roots
    for k in np.linspace(0.01, 19.0, 101):
        assert oracles.interval_determinant(float(k), 2.0) >= 0


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


def test_oracle_interval_contrast_three_family():
    roots = oracles.oracle_1d(3.0, 0.5, 20.0)
    expected = [2.0 * math.pi * j for j in (1, 2, 3)]
    assert len(roots) == 3  # the 2 pi j family and nothing else
    for root, ref in zip(roots, expected):
        assert abs(root.k - ref) <= 1e-8
        assert root.residual < 1e-10
        assert root.kind == "tangency"  # even-order zeros at eta = 2
        assert root.lam == pytest.approx(root.k**2, rel=1e-15)


def test_oracle_interval_generic_contrast_sign_changes():
    eta = math.sqrt(3.0)  # V = 2
    roots = oracles.oracle_1d(2.0, 0.5, 20.0)
    assert roots
    for root in roots:
        assert root.residual < 1e-10
        if root.kind == "sign-change":
            lo, hi = root.bracket
            flo = oracles.interval_determinant(lo, eta)
            fhi = oracles.interval_determinant(hi, eta)
            assert flo * fhi < 0  # verified bracket


def test_oracle_interval_degenerate_contrast():
    with pytest.raises(DegenerateContrast):
        oracles.oracle_1d(1e-7, 0.5, 5.0)


def test_oracle_interval_demands_roots():
    with pytest.raises(NoSignChange):
        oracles.oracle_1d(3.0, 0.5, 1.0, require_roots=True)


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
        assert root.kind == "sign-change"
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


def test_oracle_disk_range_guards():
    with pytest.raises(RangeExceeded):
        oracles.oracle_disk(3.0, 41, 1.0, 5.0)
    with pytest.raises(RangeExceeded):
        oracles.oracle_disk(3.0, 2, 1.0, 150.0)  # eta * k_hi beyond the evaluator
