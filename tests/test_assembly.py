import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import build_system, cached_system, dense_bw
from tespect import assembly, companion, model
from tespect.errors import (
    AsymmetryExceeded,
    BasisOrderMismatch,
    NonpositivePotential,
    NotPositiveDefinite,
    ParityViolation,
    QuadratureUnderflow,
    QuadratureWarning,
    SmoothnessWarning,
)
from tespect.util import loglog_slope, match_multisets


# -- exact-arithmetic polynomial oracle ----------------------------------------


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_der(p):
    return [k * c for k, c in enumerate(p)][1:] or [Fraction(0)]


def poly_int01(p):
    return sum(c / Fraction(k + 1) for k, c in enumerate(p))


W2 = poly_mul([Fraction(0), Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1), Fraction(-1)])


def test_unit_basis_matches_exact_integrals():
    # single clamped function c * x^2 (1-x)^2 with unit L2 norm
    gram_raw = poly_int01(poly_mul(W2, W2))
    assert gram_raw == Fraction(1, 630)

    prob = model.validate_problem(
        model.OperatorSpec("laplacian", 1),
        model.DomainSpec("interval"),
        model.PotentialSpec.constant(1.0, 1),
    )
    basis = assembly.build_basis(prob, 1)
    assert basis.norms[0] == pytest.approx(math.sqrt(630.0), rel=1e-13)

    system = assembly.assemble_system(prob, basis)
    w1 = poly_der(W2)
    w2 = poly_der(w1)
    a_exact = 630 * poly_int01(poly_mul(w2, w2))  # int (phi'')^2
    b_exact = 3 * 630 * poly_int01(poly_mul(w1, w1))  # 3 int (phi')^2
    assert a_exact == 504 and b_exact == 36
    assert basis.gram[0, 0] == pytest.approx(1.0, abs=1e-13)
    assert system.a[0, 0] == pytest.approx(504.0, rel=1e-12)
    assert system.b[0, 0] == pytest.approx(36.0, rel=1e-12)
    assert system.c[0, 0] == pytest.approx(2.0, rel=1e-13)


# -- clamping -------------------------------------------------------------------


def test_trig_family_clamps_value_and_slope():
    prob = model.validate_problem(
        model.OperatorSpec("laplacian", 1),
        model.DomainSpec("interval"),
        model.PotentialSpec.constant(1.0, 1),
    )
    basis = assembly.build_basis(prob, 2, assembly.TRIG)
    ends = np.array([0.0, 1.0])
    for order in (0, 1):
        vals = basis.deriv1d(order, ends)
        assert np.max(np.abs(vals)) < 1e-10


def test_polynomial_family_clamps_through_order_m_minus_1():
    prob = model.validate_problem(
        model.OperatorSpec("bilaplacian", 1),
        model.DomainSpec("interval"),
        model.PotentialSpec.constant(1.0, 1),
    )
    basis = assembly.build_basis(prob, 6)
    ends = np.array([0.0, 1.0])
    for order in range(4):  # u, u', u'', u''' all vanish
        assert np.max(np.abs(basis.deriv1d(order, ends))) < 1e-8


def interval_problem(operator, potential):
    return model.validate_problem(
        model.OperatorSpec.preset_by_name(operator, 1),
        model.DomainSpec("interval"),
        potential,
    )


@pytest.mark.parametrize("operator", ["laplacian", "bilaplacian"])
def test_polynomial_derivatives_match_legendre_series(operator):
    # deriv1d(0) is a polynomial of degree size - 1 + 2m: fit it exactly in
    # Legendre coefficients of t = 2x - 1, then d/dx = 2 d/dt
    prob = interval_problem(operator, model.PotentialSpec.constant(1.0, 1))
    basis = assembly.build_basis(prob, 8)
    m = prob.order
    t, w = np.polynomial.legendre.leggauss(8 + 2 * m)
    x = 0.5 * (t + 1.0)
    vander = np.polynomial.legendre.legvander(t, 7 + 2 * m)
    coef = (basis.deriv1d(0, x) * w) @ vander * (np.arange(8 + 2 * m) + 0.5)
    for k in range(m + 1):
        ref = 2.0**k * np.polynomial.legendre.legval(t, np.polynomial.legendre.legder(coef.T, k))
        got = basis.deriv1d(k, x)
        assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref)), k
    with pytest.raises(ValueError):
        basis.deriv1d(m + 1, x)


def test_constant_potential_stiffness_is_diagonal():
    prob = interval_problem("laplacian", model.PotentialSpec.constant(2.0, 1))
    a = assembly.assemble_system(prob, assembly.build_basis(prob, 128)).a
    assert np.max(np.abs(a - np.diag(np.diag(a)))) < 1e-11 * np.max(np.abs(a))


@pytest.mark.parametrize("operator,size", [("laplacian", 128), ("bilaplacian", 40)])
def test_scaled_stiffness_condition_bounded_by_potential_ratio(operator, size):
    # A is a q-weighted Legendre mass matrix, so its diagonally scaled
    # condition number is at most max q / min q = max V / min V = 2 for V = 1 + x
    prob = interval_problem(operator, model.PotentialSpec.polynomial([1.0, 1.0], 1))
    a = assembly.assemble_system(prob, assembly.build_basis(prob, size)).a
    d = 1.0 / np.sqrt(np.diag(a))
    assert np.linalg.cond(d[:, None] * a * d[None, :]) <= 2.0 * (1.0 + 1e-9)


@pytest.mark.parametrize("operator", ["laplacian", "bilaplacian"])
def test_square_pipeline_at_default_size(operator):
    *_, wh = cached_system(operator=operator, dimension=2, size=32, contrast=3.0)
    assert wh.size == 32 * 32


def test_trig_rejected_for_fourth_order():
    prob = model.validate_problem(
        model.OperatorSpec("bilaplacian", 1),
        model.DomainSpec("interval"),
        model.PotentialSpec.constant(1.0, 1),
    )
    with pytest.raises(BasisOrderMismatch):
        assembly.build_basis(prob, 8, assembly.TRIG)


def test_quadrature_underflow():
    prob = model.validate_problem(
        model.OperatorSpec("laplacian", 1),
        model.DomainSpec("interval"),
        model.PotentialSpec.constant(1.0, 1),
    )
    with pytest.raises(QuadratureUnderflow):
        assembly.build_basis(prob, 20, quadrature_nodes=4)


# -- assembled-system structure ---------------------------------------------------


def test_constant_unit_potential_collapse():
    prob, basis, system, _ = build_system(contrast=1.0, size=12)
    e1 = basis.deriv1d(1, basis.nodes)
    dirichlet = (e1 * basis.weights[None, :]) @ e1.T
    assert np.max(np.abs(system.b - 3.0 * dirichlet)) < 1e-11 * np.max(np.abs(system.b))
    assert np.max(np.abs(system.c - 2.0 * basis.gram)) < 1e-13


def test_contrast_three_mass_scaling():
    _, basis, system, _ = cached_system(operator="laplacian", size=32, contrast=3.0)
    assert np.max(np.abs(system.c - (4.0 / 3.0) * basis.gram)) < 1e-13


def assert_rule_matches_refined(prob, size, factor, family=assembly.POLYNOMIAL):
    """The default rule agrees to 1e-12 with ``factor`` x its nodes per cell."""
    basis = assembly.build_basis(prob, size, family)
    fine = assembly.build_basis(prob, size, family, quadrature_nodes=factor * basis.cell_nodes)
    assert fine.nodes.size == factor * basis.nodes.size  # same cells
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureWarning)
        system = assembly.assemble_system(prob, basis)
    ref = assembly.assemble_system(prob, fine)
    for mine, theirs in ((basis.gram, fine.gram), (system.a, ref.a), (system.b, ref.b), (system.c, ref.c)):
        assert np.max(np.abs(mine - theirs)) < 1e-12 * np.max(np.abs(theirs))


def test_quadrature_exactness_under_doubling():
    # polynomial potential, polynomial basis: doubling the rule is a no-op
    op = model.OperatorSpec("laplacian", 1)
    pot = model.PotentialSpec.polynomial([1.0, 1.0], 1)  # V = 1 + x
    prob = model.validate_problem(op, model.DomainSpec("interval"), pot)
    assert_rule_matches_refined(prob, 10, 2)


def test_grid_potential_rule_is_exact_1d():
    with pytest.warns(SmoothnessWarning):
        pot = model.PotentialSpec.grid([2.0, 1.0, 3.0, 2.5, 2.0], 1)
    op = model.OperatorSpec("laplacian", 1)
    prob = model.validate_problem(op, model.DomainSpec("interval"), pot)
    assert_rule_matches_refined(prob, 8, 4)


def test_grid_potential_rule_is_exact_2d():
    with pytest.warns(SmoothnessWarning):
        pot = model.PotentialSpec.grid([[2.0, 1.0, 3.0], [1.5, 2.5, 2.0], [3.0, 1.2, 2.2]], 2)
    op = model.OperatorSpec("laplacian", 2)
    prob = model.validate_problem(op, model.DomainSpec("square"), pot)
    assert_rule_matches_refined(prob, 8, 4)


def test_trig_rule_matches_doubled_rule():
    op = model.OperatorSpec("laplacian", 1)
    pot = model.PotentialSpec.constant(3.0, 1)
    prob = model.validate_problem(op, model.DomainSpec("interval"), pot)
    assert_rule_matches_refined(prob, 16, 2, assembly.TRIG)


def test_unresolved_potential_warns():
    op = model.OperatorSpec("laplacian", 1)
    pot = model.PotentialSpec.polynomial([0.25 + 1e-6, -1.0, 1.0], 1)  # (x - 1/2)^2 + 1e-6
    prob = model.validate_problem(op, model.DomainSpec("interval"), pot)
    with pytest.warns(QuadratureWarning):
        assembly.assemble_system(prob, assembly.build_basis(prob, 32))


def test_asymmetry_guard():
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(AsymmetryExceeded):
        assembly._check_and_symmetrize("X", np.eye(2) + 0.1 * skew)


def test_raw_assembly_asymmetry_is_rounding_level():
    op = model.OperatorSpec("laplacian", 1)
    pot = model.PotentialSpec.polynomial([1.0, 0.5], 1)
    prob = model.validate_problem(op, model.DomainSpec("interval"), pot)
    basis = assembly.build_basis(prob, 16)
    qvals = 1.0 / model.eval_potential(pot, basis.grid_points())
    for _, mat in assembly._raw_forms(basis, qvals):
        scale = max(np.linalg.norm(mat), 1e-300)
        assert np.linalg.norm(mat - mat.T) / scale < 1e-10


def test_gram_positive_and_well_conditioned():
    _, basis, _, _ = cached_system(operator="laplacian", size=48, contrast=3.0)
    eigs = np.linalg.eigvalsh(basis.gram)
    assert eigs[0] > 1e-12


# -- whitening ---------------------------------------------------------------------


def assert_whitening_congruence(system, wh, b_tol=1e-14):
    x = wh.to_basis
    n = wh.size
    a_w = np.diag(1.0 / wh.mu)
    assert np.linalg.norm(x.T @ system.c @ x - np.eye(n)) < 1e-10
    assert np.linalg.norm(x.T @ system.a @ x - a_w) < 1e-10 * np.linalg.norm(a_w)
    bw = x.T @ system.b @ x
    assert np.linalg.norm(bw - dense_bw(wh)) <= b_tol * np.linalg.norm(bw)


def test_whiten_scalar_mass():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    system = assembly.GalerkinSystem(a=a, b=b, c=2.0 * np.eye(2))
    wh = assembly.whiten(system)
    assert np.allclose(1.0 / wh.mu, np.linalg.eigvalsh(a) / 2.0, rtol=1e-14, atol=0)
    assert_whitening_congruence(system, wh)


@pytest.mark.parametrize("n", [3, 10, 30])
def test_whiten_congruence_identities(n):
    rng = np.random.default_rng(300 + n)

    def spd(lo, hi):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = (q * rng.uniform(lo, hi, n)) @ q.T
        return 0.5 * (m + m.T)

    b = rng.standard_normal((n, n))
    system = assembly.GalerkinSystem(a=spd(1.0, 1e4), b=0.5 * (b + b.T), c=spd(0.5, 3.0))
    wh = assembly.whiten(system)
    assert np.all(np.diff(wh.mu) <= 0)
    assert_whitening_congruence(system, wh)


def test_whiten_unit_toy():
    system = assembly.GalerkinSystem(
        a=np.array([[504.0]]),
        b=np.array([[36.0]]),
        c=np.array([[2.0]]),
    )
    wh = assembly.whiten(system)
    assert 1.0 / wh.mu[0] == pytest.approx(252.0, rel=1e-14)
    assert dense_bw(wh)[0, 0] == pytest.approx(18.0, rel=1e-14)


def test_whiten_random_spd_inputs():
    rng = np.random.default_rng(3)
    n = 12
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * rng.uniform(1.0, 9.0, n)) @ q.T
        b = rng.standard_normal((n, n))
        c = (q * rng.uniform(0.5, 3.0, n)) @ q.T
        system = assembly.GalerkinSystem(
            a=0.5 * (a + a.T),
            b=0.5 * (b + b.T),
            c=0.5 * (c + c.T),
        )
        assert_whitening_congruence(system, assembly.whiten(system))


def test_whiten_rejects_indefinite_mass():
    system = assembly.GalerkinSystem(
        a=np.eye(2),
        b=np.eye(2),
        c=np.diag([1.0, -1.0]),
    )
    with pytest.raises(NotPositiveDefinite):
        assembly.whiten(system)


def test_whiten_accepts_tiny_mass_to_stiffness_ratio():
    # mu = (1, 1e20): the stiffest mode is kept, not refused by a ratio floor
    system = assembly.GalerkinSystem(a=np.diag([1.0, 1e-20]), b=np.eye(2), c=np.eye(2))
    wh = assembly.whiten(system)
    assert np.array_equal(wh.mu, [1e20, 1.0])
    assert_whitening_congruence(system, wh)


def test_whiten_stack_masks_a_cut_that_differs_between_members():
    # member 0 keeps both mu, member 1 deflates a rounding-negative one;
    # each member of the stack whitens as it would alone
    a = np.stack([np.eye(2), np.eye(2)])
    b = np.stack([[[2.0, 0.5], [0.5, 3.0]]] * 2)
    c = np.stack([np.diag([1.0, 0.5]), np.diag([1.0, -1e-17])])
    blocks = assembly.Symmetry((np.arange(2),)).blocks
    ((mu, xb, bw),) = assembly.whiten_stack(blocks, a, b, c)
    for i, kept in enumerate((2, 1)):
        wh = assembly.whiten(assembly.GalerkinSystem(a=a[i], b=b[i], c=c[i]))
        assert wh.size == kept
        assert np.array_equal(mu[i, :kept], wh.mu) and np.array_equal(bw[i, :kept, :kept], wh.b[0])
        assert not np.any(xb[i, :, kept:]) and not np.any(bw[i, kept:]) and not np.any(bw[i, :, kept:])


def test_assemble_stack_refuses_a_nan_node_in_its_member():
    prob = model.validate_problem(
        model.OperatorSpec("laplacian", 1), model.DomainSpec("interval"), model.PotentialSpec.constant(2.0, 1)
    )
    basis = assembly.build_basis(prob, 8)
    vvals = np.full((3, basis.grid_points().shape[-1]), 2.0)
    vvals[1, 5] = np.nan
    with pytest.raises(NonpositivePotential, match="potential minimum nan"):
        assembly.assemble_stack(basis, vvals, assembly.Symmetry.of(prob, basis))


def test_stacked_cholesky_refuses_a_failing_member():
    stack = np.stack([np.eye(2), np.diag([1.0, -1.0]), -np.eye(2)])
    with pytest.raises(NotPositiveDefinite, match="^matrix X is not positive definite$"):
        assembly._cholesky(stack, "matrix X")
    assert np.array_equal(assembly._cholesky(stack[:1], "matrix X"), stack[:1])


# -- spectral growth ---------------------------------------------------------------


@pytest.mark.parametrize(
    "operator,size,dimension,family",
    [
        ("laplacian", 32, 1, assembly.POLYNOMIAL),
        ("bilaplacian", 24, 1, assembly.POLYNOMIAL),
        ("laplacian", 20, 2, assembly.TRIG),
    ],
)
def test_whitened_stiffness_growth(operator, size, dimension, family):
    prob, _, _, wh = cached_system(
        operator=operator, dimension=dimension, size=size, contrast=3.0, family=family
    )
    eigs = np.linalg.eigvalsh(np.diag(1.0 / wh.mu))
    slope = loglog_slope(eigs)
    expected = 2.0 * prob.order / prob.dimension
    assert abs(slope - expected) <= 0.15 * expected


def test_whitened_stiffness_positive():
    _, _, system, wh = cached_system(operator="laplacian", size=32, contrast=3.0)
    assert_whitening_congruence(system, wh)


def test_square_assembly_matches_kron_factor_oracle():
    # for constant V the square matrices factor into 1D pieces exactly:
    # an independent construction of the same forms from kron products
    prob, basis, system, _ = cached_system(
        operator="laplacian", dimension=2, size=6, contrast=1.0
    )
    e0 = basis.deriv1d(0, basis.nodes)
    e1 = basis.deriv1d(1, basis.nodes)
    e2 = basis.deriv1d(2, basis.nodes)
    w = basis.weights
    mass = (e0 * w) @ e0.T
    grad = (e1 * w) @ e1.T
    bend = (e2 * w) @ e2.T
    cross = (e2 * w) @ e0.T

    a_ref = (
        np.kron(bend, mass)
        + np.kron(cross, cross.T)
        + np.kron(cross.T, cross)
        + np.kron(mass, bend)
    )
    bq = -(np.kron(cross, mass) + np.kron(mass, cross))
    b_ref = bq + bq.T + np.kron(grad, mass) + np.kron(mass, grad)
    g_ref = np.kron(mass, mass)

    assert np.max(np.abs(system.a - a_ref)) < 1e-12 * np.max(np.abs(a_ref))
    assert np.max(np.abs(system.b - b_ref)) < 1e-12 * np.max(np.abs(b_ref))
    assert np.max(np.abs(basis.gram - g_ref)) < 1e-13
    assert np.max(np.abs(system.c - 2.0 * g_ref)) < 1e-13


def test_square_fourth_order_matches_kron_factor_oracle():
    # fourth-order symbol on the square: nine derivative-pair terms
    prob, basis, system, _ = cached_system(
        operator="bilaplacian", dimension=2, size=5, contrast=1.0
    )
    e = {k: basis.deriv1d(k, basis.nodes) for k in range(5)}
    w = basis.weights

    def f1d(a, b):
        return (e[a] * w) @ e[b].T

    terms = [(1.0, 4, 0), (2.0, 2, 2), (1.0, 0, 4)]
    a_ref = np.zeros_like(system.a)
    for ci, xi, yi in terms:
        for cj, xj, yj in terms:
            a_ref += ci * cj * np.kron(f1d(xi, xj), f1d(yi, yj))
    bq = sum(c * np.kron(f1d(x, 0), f1d(y, 0)) for c, x, y in terms)
    lap_pairs = [(1.0, 2, 0), (1.0, 0, 2)]
    d_ref = np.zeros_like(system.b)
    for ci, xi, yi in lap_pairs:
        for cj, xj, yj in lap_pairs:
            d_ref += ci * cj * np.kron(f1d(xi, xj), f1d(yi, yj))
    b_ref = bq + bq.T + d_ref
    assert np.max(np.abs(system.a - a_ref)) < 1e-12 * np.max(np.abs(a_ref))
    assert np.max(np.abs(system.b - b_ref)) < 1e-12 * np.max(np.abs(b_ref))


def test_grid_potential_assembles_with_warnings():
    with pytest.warns(SmoothnessWarning):
        pot = model.PotentialSpec.grid([2.0, 1.0, 3.0, 2.5, 2.0], 1)
    prob = model.validate_problem(
        model.OperatorSpec("laplacian", 1), model.DomainSpec("interval"), pot
    )
    basis = assembly.build_basis(prob, 8)
    system = assembly.assemble_system(prob, basis)
    assert_whitening_congruence(system, assembly.whiten(system))


# -- reflection-parity blocks --------------------------------------------------------


def grid(values, dimension):
    with pytest.warns(SmoothnessWarning):
        return model.PotentialSpec.grid(values, dimension)


def parity_system(potential, size=6):
    dimension = potential.dimension
    prob = model.validate_problem(
        model.OperatorSpec("laplacian", dimension),
        model.DomainSpec("interval" if dimension == 1 else "square"),
        potential,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureWarning)
        return assembly.assemble_system(prob, assembly.build_basis(prob, size))


def test_parity_of_constant_potential():
    # in 2D the swap then splits ee and oo into two halves each and makes oe
    # the twin of eo: 6 whitened blocks, 5 of them eigensolved
    twins = {1: (None, None), 2: (None, None, None, 2, None, None)}
    for dimension, count in ((1, 2), (2, 4)):
        pot = model.PotentialSpec.constant(3.0, dimension)
        system = parity_system(pot)
        assert system.symmetry.names == pot.stabilizer()
        assert len(system.symmetry.classes) == count
        assert sorted(np.concatenate(system.symmetry.classes)) == list(range(system.size))
        assert assembly.whiten(system).twin_of == twins[dimension]


def test_parity_of_grid_potentials_1d():
    assert len(parity_system(grid([2.0, 1.0, 3.0, 1.0, 2.0], 1)).symmetry.classes) == 2
    assert len(parity_system(grid([2.0, 1.0, 3.0, 2.5, 2.0], 1)).symmetry.classes) == 1


def test_parity_of_grid_potentials_2d():
    sym_x = np.array([[2.0, 1.0, 1.5], [3.0, 2.0, 2.5], [2.0, 1.0, 1.5]])  # rows run along x
    both = np.array([[2.0, 1.0, 2.0], [3.0, 2.0, 3.0], [2.0, 1.0, 2.0]])
    asym = np.array([[2.0, 1.0, 1.5], [3.0, 2.0, 2.5], [2.2, 1.0, 1.5]])
    pot = grid(sym_x, 2)
    assert pot.stabilizer() == ("identity", "flip_x")
    system = parity_system(pot)
    # classes by x-parity: the x-factor of index I is I // size
    assert [sorted({int(i) // 6 % 2 for i in blk}) for blk in system.symmetry.classes] == [[0], [1]]
    assert len(parity_system(grid(both, 2)).symmetry.classes) == 4
    assert len(parity_system(grid(asym, 2)).symmetry.classes) == 1


def test_parity_of_polynomial_constant_in_one_axis():
    pot = model.PotentialSpec.polynomial([[2.0, 0.5, -0.3]], 2)  # 2 + 0.5 y - 0.3 y^2
    assert pot.stabilizer() == ("identity", "flip_x")
    system = parity_system(pot)
    assert [len(blk) for blk in system.symmetry.classes] == [18, 18]
    # 2 + x - x^2 = 2 + (1 - x) - (1 - x)^2 is reflection-invariant: two classes
    system = parity_system(model.PotentialSpec.polynomial([2.0, 1.0, -1.0], 1))
    assert [len(blk) for blk in system.symmetry.classes] == [3, 3]


def test_parity_of_asymmetric_benchmark_polynomial():
    # V = sum c_ij x^i y^j with c10, c20 > 0, the form of the square-2d benchmark
    coeffs = [[2.4, 0.3], [1.1, -0.2], [0.3, 0.0]]
    system = parity_system(model.PotentialSpec.polynomial(coeffs, 2))
    assert len(system.symmetry.classes) == 1


def test_parity_of_affine_potential():
    base = model.PotentialSpec.constant(2.0, 1)
    sym = model.PotentialSpec.affine(base, grid([1.0, 0.0, 1.0], 1), 0.5)
    asym = model.PotentialSpec.affine(base, model.PotentialSpec.polynomial([0.0, 1.0], 1), 0.5)
    assert sym.stabilizer() == ("identity", "flip_x") and asym.stabilizer() == ("identity",)
    assert len(parity_system(sym).symmetry.classes) == 2
    assert len(parity_system(asym).symmetry.classes) == 1


def test_parity_blocks_decouple_exactly():
    system = parity_system(model.PotentialSpec.constant(3.0, 2))
    label = np.empty(system.size, dtype=int)
    for cls, idx in enumerate(system.symmetry.classes):
        label[idx] = cls
    coupled = label[:, None] != label[None, :]
    for mat in (system.a, system.b, system.c):
        assert np.all(mat[coupled] == 0.0)


def test_claimed_parity_of_asymmetric_potential_is_refused(monkeypatch):
    monkeypatch.setattr(model.PotentialSpec, "stabilizer", lambda self: ("identity", "flip_x"))
    with pytest.raises(ParityViolation, match="couples symmetry classes"):
        parity_system(model.PotentialSpec.polynomial([2.0, 1.0], 1))


def spectrum(system):
    wh = assembly.whiten(system)
    return np.array([t.lam for t in companion.extract_spectrum(companion.build_companion(wh))])


# -- diagonal-swap blocks ------------------------------------------------------------


def test_no_swap_split_without_swap_symmetry():
    benchmark = model.PotentialSpec.polynomial([[2.4, 0.3], [1.1, -0.2], [0.3, 0.0]], 2)
    transposed_differs = grid([[2.0, 1.0, 2.0], [3.0, 2.0, 3.0], [2.0, 1.0, 2.0]], 2)
    non_square = model.PotentialSpec.polynomial([[2.0, 0.5, 0.5]], 2)  # 2 + y / 2 + y^2 / 2
    for pot in (benchmark, transposed_differs, non_square):
        assert not any(model.SYMMETRIES[g][0] for g in pot.stabilizer())
        system = parity_system(pot)
        assert system.symmetry.g is None
        wh = assembly.whiten(system)
        assert len(wh.blocks) == len(system.symmetry.classes) and set(wh.twin_of) == {None}


@pytest.mark.parametrize("dimension,size", [(1, 12), (2, 8)])
def test_whitened_b_is_stored_per_block(dimension, size):
    _, _, _, wh = cached_system(dimension=dimension, size=size, contrast=3.0)
    assert isinstance(wh.b, tuple) and len(wh.b) == len(wh.blocks)
    for i, (blk, source) in enumerate(zip(wh.blocks, wh.twin_of)):
        assert wh.b[i].shape == (blk.stop - blk.start,) * 2
        assert source is None or wh.b[i] is wh.b[source]
    assert wh.twin_of.count(None) == (2 if dimension == 1 else 5)


def test_swap_split_of_polynomial_without_reflection_symmetry():
    # V = 2 + x + y: no reflection, so one parity class, split in swap halves
    pot = model.PotentialSpec.polynomial([[2.0, 1.0], [1.0, 0.0]], 2)
    system = parity_system(pot)
    assert len(system.symmetry.classes) == 1 and system.symmetry.g == "swap"
    wh = assembly.whiten(system)
    assert [blk.stop - blk.start for blk in wh.blocks] == [21, 15]
    assert_whitening_congruence(system, wh)


def test_claimed_swap_of_asymmetric_potential_is_refused(monkeypatch):
    monkeypatch.setattr(model.PotentialSpec, "stabilizer", lambda self: ("identity", "swap"))
    with pytest.raises(ParityViolation, match="swap"):
        parity_system(model.PotentialSpec.polynomial([[2.0, 1.0], [0.0, 0.0]], 2))


def test_claimed_rot90_of_potential_without_it_is_refused(monkeypatch):
    # 2 + (x - 1/2)(y - 1/2) has rot180, so its classes decouple, but not rot90
    pot = model.PotentialSpec.polynomial([[2.25, -0.5], [-0.5, 1.0]], 2)
    assert "rot180" in pot.stabilizer() and "rot90" not in pot.stabilizer()
    monkeypatch.setattr(model.PotentialSpec, "stabilizer", lambda self: ("identity", "rot180", "rot90", "rot270"))
    with pytest.raises(ParityViolation, match="rot90"):
        parity_system(pot)


def without_swap(system):
    return dataclasses.replace(system, symmetry=assembly.Symmetry(system.symmetry.classes))


@pytest.mark.parametrize("size", [8, 12])
@pytest.mark.parametrize("operator", ["laplacian", "bilaplacian"])
def test_swap_split_matches_parity_split(operator, size):
    _, _, system, wh = cached_system(operator=operator, dimension=2, size=size, contrast=3.0)
    swap = system.symmetry.perm
    assert system.symmetry.g == "swap" and np.array_equal(system.a, system.a[np.ix_(swap, swap)])
    # X^T B X multiplies the pairs (e_I +- e_swap(I)) / sqrt(2) out in another
    # order than B_w: at the bilaplacian's n=12 the two differ by 2e-14 of |B_w|
    assert_whitening_congruence(system, wh, b_tol=1e-13)
    # the twin oe repeats eo: mu bitwise, B_w shared, X rows permuted by the swap
    eo, oe = wh.blocks[2], wh.blocks[3]
    assert wh.twin_of[3] == 2 and wh.b[3] is wh.b[2]
    bw = dense_bw(wh)
    assert np.array_equal(wh.mu[eo], wh.mu[oe]) and np.array_equal(bw[eo, eo], bw[oe, oe])
    assert np.array_equal(wh.to_basis[swap][:, oe], wh.to_basis[:, eo])
    pairs = companion.pencil_eigenvalues(wh)
    sizes = np.cumsum([2 * (blk.stop - blk.start) for blk in wh.blocks])
    per_block = np.split(pairs, sizes[:-1])
    assert np.array_equal(per_block[2], per_block[3])
    comp = companion.build_companion(wh)
    eigen = comp.eigen_data()
    assert comp.blocks[3] is comp.blocks[2] and eigen[3] is eigen[2]
    assert np.array_equal(eigen[2].eigenvalues, eigen[3].eigenvalues)
    assert match_multisets(spectrum(system), spectrum(without_swap(system))) < 1e-11


# -- the stabilizer in D4 -------------------------------------------------------------

# subgroups of D4 that a drawn polynomial is averaged over, by their elements
SUBGROUPS = {
    "trivial": ("identity",),
    "flip_x": ("identity", "flip_x"),
    "swap": ("identity", "swap"),
    "diagonals": ("identity", "rot180", "swap", "antiswap"),
    "C4": ("identity", "rot180", "rot90", "rot270"),
    "D4": tuple(model.SYMMETRIES),
}


def centred_image(a, g):
    """Coefficients of p o T_g for p = sum a[k, l] u^k v^l, u = x - 1/2, v = y - 1/2.

    T_g is the swap (if set), then the flips of ``model.SYMMETRIES``; in
    (u, v) each flip negates a coordinate, so the monomials only change sign
    (and are transposed by the swap): exact arithmetic.
    """
    swap, fx, fy = model.SYMMETRIES[g]
    k, l = np.indices(a.shape)
    signed = (-1.0) ** (fx * k + fy * l) * a
    return signed.T if swap else signed


def in_xy(a):
    """The coefficients c[i, j] of x^i y^j of sum a[k, l] (x - 1/2)^k (y - 1/2)^l, exactly for dyadic a."""
    out = np.zeros(a.shape)
    for (k, l), coef in np.ndenumerate(a):
        u, v = (np.polynomial.polynomial.polypow([-0.5, 1.0], e) for e in (k, l))
        out[: k + 1, : l + 1] += coef * np.outer(u, v)
    return out


def drawn_potential(seed, group):
    """A polynomial invariant under the subgroup ``group``, with dyadic coefficients, V >= 1.

    Of degree <= 3, but for C4: every C4-invariant polynomial of degree <= 3
    is D4-invariant, so C4 adds uv(u^2 - v^2).
    """
    rng = np.random.default_rng(seed)
    k, l = np.indices((5, 5))
    a = np.where(k + l <= 3, rng.integers(-4, 5, (5, 5)) / 4.0, 0.0)
    a = sum(centred_image(a, g) for g in SUBGROUPS[group]) / len(SUBGROUPS[group])
    if group == "C4":
        a[3, 1], a[1, 3] = 0.5, -0.5
    a[0, 0] = 1.0 + np.abs(a).sum() - abs(a[0, 0])  # |u^k v^l| <= 1 on the square
    return a


@pytest.mark.parametrize("operator", ["laplacian", "bilaplacian"])
@pytest.mark.parametrize("group", list(SUBGROUPS))
def test_symmetry_of_v_maps_spectrum_and_blocks(operator, group):
    # V o T_g is the same problem seen through g: the pencil is P^T M P, so
    # the spectrum agrees and the stabilizer is conjugate, with the same
    # block sizes; V itself is read with the group it was drawn for
    a = drawn_potential(31 + len(group), group)
    results = []
    for g in model.SYMMETRIES:
        pot = model.PotentialSpec.polynomial(in_xy(centred_image(a, g)), 2)
        prob = model.validate_problem(model.OperatorSpec.preset_by_name(operator, 2), model.DomainSpec("square"), pot)
        wh = assembly.whiten(assembly.assemble_system(prob, assembly.build_basis(prob, 8)))
        lams = [t.lam for t in companion.extract_spectrum(companion.build_companion(wh))]
        results.append((len(prob.potential.stabilizer()), sorted(b.stop - b.start for b in wh.blocks), lams))
        if g == "identity":
            assert prob.potential.stabilizer() == SUBGROUPS[group]
    order, sizes, lams = results[0]
    for image_order, image_sizes, image_lams in results[1:]:
        assert (image_order, image_sizes) == (order, sizes)
        assert match_multisets(image_lams, lams) < 1e-10


@pytest.mark.parametrize(
    "coeffs, sizes, twins",
    [
        ([[1.0, 1.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [6, 3, 9, 9, 6, 3], [3]),  # D4
        ([[2.25, -0.5], [-0.5, 1.0]], [12, 6, 9, 9], []),  # 2 + (x - 1/2)(y - 1/2)
        ([[2.0, 1.0], [-1.0, 0.0]], [21, 15], []),  # 2 + x - y: the antiswap alone
    ],
)
def test_blocks_of_the_full_stabilizer(coeffs, sizes, twins):
    system = parity_system(model.PotentialSpec.polynomial(coeffs, 2))
    wh = assembly.whiten(system)
    assert [blk.stop - blk.start for blk in wh.blocks] == sizes
    assert [i for i, source in enumerate(wh.twin_of) if source is not None] == twins
    assert_whitening_congruence(system, wh, b_tol=1e-13)
    assert match_multisets(spectrum(system), spectrum(without_swap(system))) < 1e-10


def test_rot90_keeps_its_complex_class_whole():
    # 2 + uv(u^2 - v^2) has the rotations alone (C4): rot90 splits the
    # (i + j)-even class in halves, and on the (i + j)-odd class, where
    # rot90^2 = -1, the class stays whole with every eigenvalue double
    a = np.zeros((4, 4))
    a[0, 0], a[3, 1], a[1, 3] = 2.0, 1.0, -1.0
    pot = model.PotentialSpec.polynomial(in_xy(a), 2)
    assert pot.stabilizer() == SUBGROUPS["C4"]
    system = parity_system(pot, size=8)
    assert system.symmetry.g == "rot90"
    wh = assembly.whiten(system)
    assert [blk.stop - blk.start for blk in wh.blocks] == [16, 16, 32]
    assert_whitening_congruence(system, wh, b_tol=1e-13)
    lams = np.array([t.lam for t in companion.extract_spectrum(companion.build_companion(wh)) if t.block == 2])
    gaps = np.abs(lams[:, None] - lams)
    np.fill_diagonal(gaps, np.inf)
    assert lams.size == 64 and np.max(np.min(gaps, axis=1) / np.abs(lams)) < 1e-8
    assert match_multisets(spectrum(system), spectrum(without_swap(system))) < 1e-10


@pytest.mark.parametrize(
    "operator,dimension,size",
    [("laplacian", 1, 24), ("bilaplacian", 1, 16), ("laplacian", 2, 8), ("bilaplacian", 2, 6)],
)
def test_blocked_spectrum_matches_one_block(operator, dimension, size):
    # contrast 2: at contrast 3 the interval pencil has a fourfold defective
    # root at 4 pi^2 whose computed star moves by eps^(1/3) between any two
    # backward-stable routes
    _, _, system, _ = cached_system(
        operator=operator, dimension=dimension, size=size, contrast=2.0
    )
    assert len(system.symmetry.classes) == 2**dimension
    one_block = dataclasses.replace(system, symmetry=assembly.Symmetry((np.arange(system.size),)))
    assert match_multisets(spectrum(system), spectrum(one_block)) < 1e-10
