import pytest

from tespect import model
from tespect.errors import (
    DimensionMismatch,
    NonpositivePotential,
    OutOfDomain,
    SmoothnessWarning,
    UnsupportedDimension,
)


def test_validate_laplacian_interval():
    prob = model.validate_problem(
        model.OperatorSpec.laplacian(1),
        model.DomainSpec("interval"),
        model.PotentialSpec.constant(3.0, 1),
    )
    assert prob.order == 2 and prob.dimension == 1
    assert prob.trace_class and prob.hilbert_schmidt
    assert prob.p_min == 1


def test_validate_bilaplacian_square():
    prob = model.validate_problem(
        model.OperatorSpec.bilaplacian(2),
        model.DomainSpec("square"),
        model.PotentialSpec.constant(1.0, 2),
    )
    assert prob.trace_class  # 4 > 2
    assert prob.p_min == 1


def test_validate_laplacian_square_flags():
    prob = model.validate_problem(
        model.OperatorSpec.laplacian(2),
        model.DomainSpec("square"),
        model.PotentialSpec.constant(1.0, 2),
    )
    assert not prob.trace_class  # m = n
    assert prob.hilbert_schmidt  # m > n/2 holds at m = n = 2
    assert prob.p_min == 2  # smallest integer above n/m = 1


def test_operator_is_a_preset_pair():
    op = model.OperatorSpec.preset_by_name("bilaplacian", 2)
    assert op == model.OperatorSpec("bilaplacian", 2) == model.OperatorSpec.bilaplacian(2)
    assert (op.preset, op.order, op.dimension) == ("bilaplacian", 4, 2)
    assert model.OperatorSpec.laplacian(1).order == 2


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
            model.OperatorSpec.laplacian(1), model.DomainSpec("interval"), pot
        )


@pytest.mark.filterwarnings("ignore::tespect.errors.SmoothnessWarning")
@pytest.mark.parametrize("kind, values", [("constant", float("nan")), ("grid", [2.0, float("nan"), 3.0])])
def test_nan_potential_is_refused(kind, values):
    # a NaN never compares below the margin, so positivity is asked, not its negation
    pot = getattr(model.PotentialSpec, kind)(values, 1)
    with pytest.raises(NonpositivePotential):
        model.validate_problem(model.OperatorSpec.laplacian(1), model.DomainSpec("interval"), pot)


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        model.OperatorSpec.laplacian(3)


def test_dimension_consistency():
    with pytest.raises(DimensionMismatch):
        model.validate_problem(
            model.OperatorSpec.laplacian(1),
            model.DomainSpec("square"),
            model.PotentialSpec.constant(1.0, 1),
        )


def test_validation_is_deterministic():
    args = (
        model.OperatorSpec.laplacian(2),
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
    assert model.eval_potential(pot, 0.5) == 3.0


def test_eval_potential_polynomial():
    pot = model.PotentialSpec.polynomial([1.0, 0.0, 1.0], 1)  # 1 + x^2
    assert model.eval_potential(pot, 1.0) == pytest.approx(2.0, abs=1e-15)


def test_eval_potential_grid_interpolates():
    with pytest.warns(SmoothnessWarning):
        pot = model.PotentialSpec.grid([1.0, 2.0], 1)
    assert model.eval_potential(pot, 0.25) == pytest.approx(1.25, abs=1e-15)


def test_eval_potential_grid_2d_bilinear():
    with pytest.warns(SmoothnessWarning):
        pot = model.PotentialSpec.grid([[1.0, 2.0], [3.0, 4.0]], 2)
    assert model.eval_potential(pot, [0.5, 0.5]) == pytest.approx(2.5, abs=1e-15)
    assert model.eval_potential(pot, [0.0, 1.0]) == pytest.approx(2.0, abs=1e-15)


def test_eval_potential_out_of_domain():
    pot = model.PotentialSpec.constant(1.0, 1)
    with pytest.raises(OutOfDomain):
        model.eval_potential(pot, 1.5)


def test_affine_potential():
    base = model.PotentialSpec.constant(1.0, 1)
    direction = model.PotentialSpec.polynomial([0.0, 1.0], 1)  # x
    pot = model.PotentialSpec.affine(base, direction, 2.0)
    assert model.eval_potential(pot, 0.5) == pytest.approx(2.0, abs=1e-15)


def test_swap_invariant_is_read_from_the_representation():
    const = model.PotentialSpec.constant(2.0, 2)
    sym_poly = model.PotentialSpec.polynomial([[2.0, 1.0], [1.0, 0.5]], 2)
    asym_poly = model.PotentialSpec.polynomial([[2.0, 1.0], [0.0, 0.5]], 2)
    non_square = model.PotentialSpec.polynomial([[2.0, 1.0]], 2)
    with pytest.warns(SmoothnessWarning):
        sym_grid = model.PotentialSpec.grid([[1.0, 2.0], [2.0, 3.0]], 2)
    with pytest.warns(SmoothnessWarning):
        asym_grid = model.PotentialSpec.grid([[1.0, 2.0], [2.5, 3.0]], 2)
    assert const.swap_invariant() and sym_poly.swap_invariant() and sym_grid.swap_invariant()
    assert not (asym_poly.swap_invariant() or non_square.swap_invariant())
    assert not asym_grid.swap_invariant()
    assert model.PotentialSpec.affine(const, sym_grid, 0.5).swap_invariant()
    assert not model.PotentialSpec.affine(const, asym_poly, 0.5).swap_invariant()
    assert not model.PotentialSpec.affine(asym_grid, const, 0.5).swap_invariant()
    # a 1D potential has no second axis to swap with
    assert not model.PotentialSpec.constant(2.0, 1).swap_invariant()
