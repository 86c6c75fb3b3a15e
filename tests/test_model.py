import math

import numpy as np
import pytest

from tespect import assembly, diagnostics, model
from tespect.errors import (
    DimensionMismatch,
    NonpositivePotential,
    PotentialLeavesCone,
    SmoothnessWarning,
    UnsupportedDimension,
)


def test_validate_laplacian_interval():
    prob = model.validate_problem(
        model.OperatorSpec("laplacian", 1),
        model.DomainSpec("interval"),
        model.PotentialSpec.constant(3.0, 1),
    )
    assert prob.order == 2 and prob.dimension == 1
    assert prob.trace_class and prob.hilbert_schmidt
    assert prob.p_min == 1


def test_validate_bilaplacian_square():
    prob = model.validate_problem(
        model.OperatorSpec("bilaplacian", 2),
        model.DomainSpec("square"),
        model.PotentialSpec.constant(1.0, 2),
    )
    assert prob.trace_class  # 4 > 2
    assert prob.p_min == 1


def test_validate_laplacian_square_flags():
    prob = model.validate_problem(
        model.OperatorSpec("laplacian", 2),
        model.DomainSpec("square"),
        model.PotentialSpec.constant(1.0, 2),
    )
    assert not prob.trace_class  # m = n
    assert prob.hilbert_schmidt  # m > n/2 holds at m = n = 2
    assert prob.p_min == 2  # smallest integer above n/m = 1


def test_operator_is_a_preset_pair():
    op = model.OperatorSpec.preset_by_name("bilaplacian", 2)
    assert op == model.OperatorSpec("bilaplacian", 2)
    assert (op.preset, op.order, op.dimension) == ("bilaplacian", 4, 2)
    assert model.OperatorSpec("laplacian", 1).order == 2


def test_operator_rejects_anything_but_a_preset():
    # -5 Laplacian as a symbol dictionary, which assembly would solve as -Laplacian
    with pytest.raises(TypeError):
        model.OperatorSpec({(2,): 5.0}, order=2, dimension=1)
    with pytest.raises(ValueError):
        model.OperatorSpec({(2,): 5.0}, 1)
    with pytest.raises(ValueError):
        model.OperatorSpec.preset_by_name("custom", 1)


def test_nonpositive_potential():
    pot = model.PotentialSpec.polynomial([1.0, -1.0], 1)  # 1 - x, zero at x = 1
    with pytest.raises(NonpositivePotential):
        model.validate_problem(
            model.OperatorSpec("laplacian", 1), model.DomainSpec("interval"), pot
        )


@pytest.mark.filterwarnings("ignore::tespect.errors.SmoothnessWarning")
@pytest.mark.parametrize("kind, values", [("constant", float("nan")), ("grid", [2.0, float("nan"), 3.0])])
def test_nan_potential_is_refused(kind, values):
    # a NaN never compares below the margin, so positivity is asked, not its negation
    pot = getattr(model.PotentialSpec, kind)(values, 1)
    with pytest.raises(NonpositivePotential):
        model.validate_problem(model.OperatorSpec("laplacian", 1), model.DomainSpec("interval"), pot)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("value", [3.0, 1.0 / 3.0, math.e, 1e-9, math.nan])
def test_constant_is_the_degree_0_polynomial(dimension, value):
    const = model.PotentialSpec.constant(value, dimension)
    poly = model.PotentialSpec.polynomial(np.full((1,) * dimension, value), dimension)
    assert const.kind == "polynomial" and const.data.shape == (1,) * dimension
    # V at the quadrature and the validation points is bitwise a filled array
    size = 6 if dimension == 2 else 12
    op, dom = model.OperatorSpec("laplacian", dimension), model.DomainSpec(("interval", "square")[dimension - 1])
    basis = assembly.build_basis(model.ProblemSpec(op, dom, poly), size)
    for pts in (basis.grid_points(), model.validation_points(dimension)):
        filled = np.full(pts.shape[0], value)
        for pot in (const, poly):
            assert pot.values(pts).tobytes() == filled.tobytes()
    if math.isnan(value):
        with pytest.raises(NonpositivePotential):  # refused where it is given
            model.validate_problem(op, dom, const)
        return
    for pot in (const, poly):
        assert pot.stabilizer() == (tuple(model.SYMMETRIES) if dimension == 2 else ("identity", "flip_x"))
        knots = pot.knots()  # the ends only: one composite cell
        assert len(knots) == 1 and np.array_equal(knots[0], [0.0, 1.0])


def test_knots_name_every_kink():
    # a grid's sample knots, one array per axis; an affine family's of both parts
    with pytest.warns(SmoothnessWarning):
        line = model.PotentialSpec.grid([1.0, 3.0, 2.0, 4.0], 1)
        square = model.PotentialSpec.grid(np.ones((3, 5)), 2)
    ends = [0.0, 1.0]
    assert [k.tolist() for k in line.knots()] == [np.linspace(0.0, 1.0, 4).tolist()]
    assert [k.tolist() for k in square.knots()] == [[0.0, 0.5, 1.0], np.linspace(0.0, 1.0, 5).tolist()]
    family = model.PotentialSpec.affine(model.PotentialSpec.polynomial([2.0, 1.0]), line, 0.5)
    assert [k.tolist() for k in family.knots()] == [ends, np.linspace(0.0, 1.0, 4).tolist()]
    nested = model.PotentialSpec.affine(square, model.PotentialSpec.constant(1.0, 2), -1.0)
    assert [k.tolist() for k in nested.knots()] == [k.tolist() for k in square.knots()] + [ends]


def test_potential_at_the_margin_is_refused_everywhere():
    # V == the positivity margin fails the one rule in all three places it is asked
    margin = model._POSITIVITY_MARGIN
    op, dom = model.OperatorSpec("laplacian", 1), model.DomainSpec("interval")
    assert not model.strictly_positive(np.array([margin]))
    assert model.strictly_positive(np.array([np.nextafter(margin, 1.0)]))
    with pytest.raises(NonpositivePotential):
        model.validate_problem(op, dom, model.PotentialSpec.constant(margin))
    prob = model.ProblemSpec(op, dom, model.PotentialSpec.constant(1.0))
    basis = assembly.build_basis(prob, 8)
    vvals = np.full((2, basis.grid_points().shape[0]), margin)
    vvals[0] = 1.0
    with pytest.raises(NonpositivePotential, match="potential minimum 1.000e-10 "):
        assembly.assemble_stack(basis, vvals, assembly.Symmetry.of(prob, basis))
    # the scan's cone check: V = 2 margin - s margin is the margin itself at s = 1 only
    base = model.ProblemSpec(op, dom, model.PotentialSpec.constant(2.0 * margin))
    with pytest.raises(PotentialLeavesCone, match="s=1$"):
        diagnostics.potential_scan(base, model.PotentialSpec.constant(-margin), 0.0, 1.0, 5, 8)


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        model.OperatorSpec("laplacian", 3)


def test_dimension_consistency():
    with pytest.raises(DimensionMismatch):
        model.validate_problem(
            model.OperatorSpec("laplacian", 1),
            model.DomainSpec("square"),
            model.PotentialSpec.constant(1.0, 1),
        )


def test_validation_is_deterministic():
    args = (
        model.OperatorSpec("laplacian", 2),
        model.DomainSpec("square"),
        model.PotentialSpec.constant(2.0, 2),
    )
    p1 = model.validate_problem(*args)
    p2 = model.validate_problem(*args)
    assert (p1.trace_class, p1.hilbert_schmidt, p1.p_min) == (
        p2.trace_class,
        p2.hilbert_schmidt,
        p2.p_min,
    )


def test_eval_potential_constant():
    pot = model.PotentialSpec.constant(3.0, 1)
    assert pot.values(np.array([0.5])).tolist() == [3.0]


def test_eval_potential_polynomial():
    pot = model.PotentialSpec.polynomial([1.0, 0.0, 1.0], 1)  # 1 + x^2
    assert pot.values(np.array([1.0]))[0] == pytest.approx(2.0, abs=1e-15)


def test_eval_potential_grid_interpolates():
    with pytest.warns(SmoothnessWarning):
        pot = model.PotentialSpec.grid([1.0, 2.0], 1)
    assert pot.values(np.array([0.25]))[0] == pytest.approx(1.25, abs=1e-15)


def test_eval_potential_grid_2d_bilinear():
    with pytest.warns(SmoothnessWarning):
        pot = model.PotentialSpec.grid([[1.0, 2.0], [3.0, 4.0]], 2)
    assert pot.values(np.array([[0.5, 0.5], [0.0, 1.0]])) == pytest.approx([2.5, 2.0], abs=1e-15)


def test_smoothness_warning_names_the_caller():
    # not the __init__ that dataclass generates, which reads as "<string>"
    with pytest.warns(SmoothnessWarning) as record:
        model.PotentialSpec.grid([1.0, 2.0], 1)
    assert [w.filename for w in record] == [__file__]


def test_affine_potential():
    base = model.PotentialSpec.constant(1.0, 1)
    direction = model.PotentialSpec.polynomial([0.0, 1.0], 1)  # x
    pot = model.PotentialSpec.affine(base, direction, 2.0)
    assert pot.values(np.array([0.5]))[0] == pytest.approx(2.0, abs=1e-15)


def test_swap_invariant_is_read_from_the_representation():
    def swap_invariant(pot):
        return "swap" in pot.stabilizer()

    const = model.PotentialSpec.constant(2.0, 2)
    sym_poly = model.PotentialSpec.polynomial([[2.0, 1.0], [1.0, 0.5]], 2)
    asym_poly = model.PotentialSpec.polynomial([[2.0, 1.0], [0.0, 0.5]], 2)
    non_square = model.PotentialSpec.polynomial([[2.0, 1.0]], 2)
    with pytest.warns(SmoothnessWarning):
        sym_grid = model.PotentialSpec.grid([[1.0, 2.0], [2.0, 3.0]], 2)
    with pytest.warns(SmoothnessWarning):
        asym_grid = model.PotentialSpec.grid([[1.0, 2.0], [2.5, 3.0]], 2)
    assert swap_invariant(const) and swap_invariant(sym_poly) and swap_invariant(sym_grid)
    assert not (swap_invariant(asym_poly) or swap_invariant(non_square))
    assert not swap_invariant(asym_grid)
    assert swap_invariant(model.PotentialSpec.affine(const, sym_grid, 0.5))
    assert not swap_invariant(model.PotentialSpec.affine(const, asym_poly, 0.5))
    assert not swap_invariant(model.PotentialSpec.affine(asym_grid, const, 0.5))
    # a 1D potential has no second axis to swap with
    assert not swap_invariant(model.PotentialSpec.constant(2.0, 1))


def centred_polynomial(terms):
    """Coefficients c[i, j] of 2 + sum a (x - 1/2)^k (y - 1/2)^l over terms (a, k, l)."""
    out = np.zeros((4, 4))
    out[0, 0] = 2.0
    for a, k, l in terms:
        u, v = (np.polynomial.polynomial.polypow([-0.5, 1.0], e) for e in (k, l))
        out[: k + 1, : l + 1] += a * np.outer(u, v)
    return out


@pytest.mark.parametrize(
    "terms, stabilizer",
    [
        ([(-1.0, 2, 0), (-1.0, 0, 2)], model.SYMMETRIES),  # 1 + x(1 - x) + y(1 - y), shifted
        ([(1.0, 1, 1)], ("identity", "rot180", "swap", "antiswap")),
        ([(1.0, 3, 1), (-1.0, 1, 3)], ("identity", "rot180", "rot90", "rot270")),
        ([(1.0, 1, 0), (0.5, 0, 1)], ("identity",)),
        ([(1.0, 2, 1), (0.5, 0, 2)], ("identity", "flip_x")),
        ([(1.0, 1, 0), (-1.0, 0, 1)], ("identity", "antiswap")),
    ],
)
def test_stabilizer_is_read_from_the_representation(terms, stabilizer):
    # the polynomials are stored in x and y, so each flip is a binomial shift
    assert model.PotentialSpec.polynomial(centred_polynomial(terms), 2).stabilizer() == tuple(stabilizer)


def test_stabilizer_of_the_interval_and_of_an_affine_family():
    assert model.PotentialSpec.polynomial([1.0, 1.0, -1.0]).stabilizer() == ("identity", "flip_x")
    assert model.PotentialSpec.polynomial([1.0, 1.0, -0.5]).stabilizer() == ("identity",)
    d4 = model.PotentialSpec.polynomial([[1.0, 1.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], 2)
    uv = model.PotentialSpec.polynomial(centred_polynomial([(1.0, 1, 1)]), 2)
    assert model.PotentialSpec.affine(d4, uv, 0.0).stabilizer() == uv.stabilizer()
    with pytest.warns(SmoothnessWarning):
        grid = model.PotentialSpec.grid([[1.0, 2.0, 1.0], [2.0, 3.0, 2.0], [2.0, 3.0, 2.0], [1.0, 2.0, 1.0]], 2)
    assert grid.stabilizer() == ("identity", "flip_x", "flip_y", "rot180")
