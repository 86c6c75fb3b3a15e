import warnings

import numpy as np
import pytest

from tespect import densela
from tespect.assembly import WhitenedSystem
from tespect.errors import AsymmetryExceeded, NotPositiveDefinite


def rand_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


# -- symmetric eigendecomposition ---------------------------------------------


def test_sym_eig_diagonal():
    dec = densela.sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)


def test_sym_eig_identity():
    dec = densela.sym_eig(np.eye(4))
    assert np.allclose(dec.eigenvalues, 1.0, atol=1e-14)
    q = dec.eigenvectors
    assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-10


@pytest.mark.parametrize("n", [2, 7, 40])
def test_sym_eig_residuals(n):
    rng = np.random.default_rng(n)
    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T)
    dec = densela.sym_eig(s)
    q, lam = dec.eigenvectors, dec.eigenvalues
    assert np.linalg.norm(q.T @ q - np.eye(n)) < 1e-10
    assert np.linalg.norm(s @ q - q * lam) < 1e-9 * max(np.linalg.norm(s), 1.0)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(AsymmetryExceeded):
        densela.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


# -- SPD roots from the whitening congruence --------------------------------------
# With C = I the congruence X is orthogonal and X^T A X = diag(1/mu), so
# A^(1/2) = X diag(mu^(-1/2)) X^T and A^(-1/2) = X diag(mu^(1/2)) X^T.


def rand_spd(rng, n):
    q = rand_orthogonal(rng, n)
    s = (q * rng.uniform(0.5, 20.0, n)) @ q.T
    return 0.5 * (s + s.T)


def spd_roots(s):
    wh = WhitenedSystem.from_matrices(s, np.zeros_like(s))
    x, mu = wh.to_basis, wh.mu
    factor, inv_factor = x * mu**-0.25, x * mu**0.25
    return factor @ factor.T, inv_factor @ inv_factor.T


@pytest.mark.parametrize("n", [3, 10, 30])
def test_spd_roots_compose(n):
    rng = np.random.default_rng(100 + n)
    s = rand_spd(rng, n)
    root, inv_root = spd_roots(s)
    assert np.linalg.norm(root @ root - s) < 1e-9 * np.linalg.norm(s)
    assert np.linalg.norm(inv_root @ s @ inv_root - np.eye(n)) < 1e-9
    assert np.linalg.norm(inv_root @ root - np.eye(n)) < 1e-9


def test_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        WhitenedSystem.from_matrices(np.diag([1.0, -1.0]), np.eye(2))


@pytest.mark.parametrize("n", [3, 10, 30])
def test_spd_sqrt_of_inverse_matches_inv_sqrt(n):
    rng = np.random.default_rng(200 + n)
    s = rand_spd(rng, n)
    _, root = spd_roots(s)
    assert np.array_equal(root, root.T)
    lam, v = np.linalg.eigh(s)
    reference = (v * lam**-0.5) @ v.T
    assert np.linalg.norm(root - reference) < 1e-12 * np.linalg.norm(root)


# -- dense nonsymmetric eigensolver ------------------------------------------------


def test_nonsym_eig_rotation():
    spec = densela.nonsym_eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(sorted(spec.eigenvalues, key=lambda z: z.imag), [-1j, 1j], atol=1e-14)


def test_nonsym_eig_companion_toy():
    spec = densela.nonsym_eig(np.array([[1.25, -0.5], [0.5, 0.0]]))
    assert np.allclose(sorted(spec.eigenvalues.real), [0.25, 1.0], atol=1e-12)


def test_nonsym_eig_trace_identity():
    rng = np.random.default_rng(50)
    m = rng.standard_normal((50, 50))
    spec = densela.nonsym_eig(m)
    tr = np.trace(m)
    assert abs(spec.eigenvalues.sum() - tr) <= 1e-8 * (1.0 + abs(tr))


def test_nonsym_eig_conjugate_closure_and_lidskii():
    rng = np.random.default_rng(7)
    for i in range(200):
        n = int(rng.integers(2, 65))
        m = rng.standard_normal((n, n))
        vals = densela.nonsym_eig(m).eigenvalues
        scale = max(np.linalg.norm(m), 1e-300)
        # conjugate closure: the multiset matches its own conjugate
        diff = np.abs(np.sort_complex(vals) - np.sort_complex(vals.conj()))
        assert np.max(diff) <= 1e-8 * scale, f"matrix {i}"
        tr = np.trace(m)
        assert abs(vals.sum() - tr) <= 1e-8 * (1.0 + abs(tr))


def test_nonsym_eig_vector_residuals():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((40, 40))
    spec = densela.nonsym_eig(m, want_vectors=True)
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    assert vecs is not None
    residuals = np.linalg.norm(m @ vecs - vecs * vals, axis=0) / np.linalg.norm(m)
    assert np.max(residuals) < 1e-8


def test_nonsym_eig_rejects_nonfinite():
    with pytest.raises(ValueError):
        densela.nonsym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# -- determinants -------------------------------------------------------------------


def test_complex_det_identity():
    for n in (1, 4, 9):
        det = densela.complex_det(np.eye(n))
        assert det.value == pytest.approx(1.0, abs=1e-14)


def test_complex_det_diagonal():
    det = densela.complex_det(np.diag([2.0, 3.0j]))
    assert det.value == pytest.approx(6.0j, abs=1e-13)


def test_complex_det_matches_eigenvalue_product():
    rng = np.random.default_rng(20)
    m = rng.standard_normal((20, 20))
    det = densela.complex_det(m)
    vals = densela.nonsym_eig(m).eigenvalues
    log_ref = float(np.sum(np.log(np.abs(vals))))
    arg_ref = float(np.angle(np.prod(vals / np.abs(vals))))
    assert det.log_abs == pytest.approx(log_ref, rel=1e-8)
    assert np.cos(det.arg - arg_ref) == pytest.approx(1.0, abs=1e-8)


def test_complex_det_multiplicative():
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        b = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        dab = densela.complex_det(a @ b)
        da, db = densela.complex_det(a), densela.complex_det(b)
        assert dab.log_abs == pytest.approx(da.log_abs + db.log_abs, rel=1e-8)
        assert np.cos(dab.arg - da.arg - db.arg) == pytest.approx(1.0, abs=1e-8)


def test_complex_det_singular_sentinel():
    det = densela.complex_det(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert det.log_abs == -np.inf
    assert det.value == 0.0


def test_complex_det_contract_edges():
    assert densela.complex_det(np.zeros((0, 0))) == densela.LogDet(0.0, 0.0)
    assert densela.complex_det(np.array([[-2.0]])).arg == np.pi
    assert densela.complex_det(np.array([[complex(-2.0, -0.0)]])).arg == np.pi
    with pytest.raises(ValueError):
        densela.complex_det(np.ones((2, 3)))
    with pytest.raises(ValueError):
        densela.complex_det(np.array([[np.nan]]))


def test_complex_det_stack_matches_per_matrix_calls():
    rng = np.random.default_rng(22)
    stack = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    stack[0, 1, 3] = stack[0, 1, 0]  # singular member
    stack[1, 2] = np.diag([-2.0, 1.0, 1.0, 1.0])  # sign -1
    stack[1, 0] = np.diag([complex(-2.0, -0.0), 1.0, 1.0, 1.0])  # sign -1 - 0j
    det = densela.complex_det(stack)
    assert det.log_abs.shape == det.arg.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        one = densela.complex_det(stack[idx])
        assert (det.log_abs[idx], det.arg[idx]) == (one.log_abs, one.arg)
    assert det.log_abs[0, 1] == -np.inf
    assert det.arg[1, 2] == det.arg[1, 0] == np.pi


def test_complex_det_stack_contract_edges():
    empty = densela.complex_det(np.zeros((3, 0, 0)))
    assert np.array_equal(empty.log_abs, np.zeros(3)) and np.array_equal(empty.arg, np.zeros(3))
    with pytest.raises(ValueError):
        densela.complex_det(np.ones(3))
    with pytest.raises(ValueError):
        densela.complex_det(np.ones((2, 2, 3)))
    with pytest.raises(ValueError):
        densela.complex_det(np.stack([np.eye(2), np.full((2, 2), np.inf)]))


def test_logdet_overflow_guard():
    huge = densela.LogDet(800.0, 0.3)
    assert np.isinf(huge.value.real)
    zero = densela.LogDet(-np.inf, 0.0)
    assert zero.value == 0.0


def test_logdet_value_on_a_stack():
    stack = np.stack([np.diag([2.0, 3.0j]), [[1.0, 2.0], [2.0, 4.0]], -np.eye(2), 1e200 * np.eye(2)])
    det = densela.complex_det(stack)
    value = det.value
    assert isinstance(value, np.ndarray) and value.shape == (4,)
    for i, mat in enumerate(stack[:3]):
        assert value[i] == densela.complex_det(mat).value
        assert value[i] == pytest.approx(np.linalg.det(mat), abs=1e-13)
    assert value[1] == 0.0  # singular member
    assert value[3] == complex(np.inf, np.inf)  # overflow guard, element by element
    assert isinstance(densela.complex_det(stack[0]).value, complex)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (3, 1), (1, 3)])
def test_complex_det_refuses_a_nonfinite_entry_without_a_warning(value, where):
    # slogdet gives a NaN sign for such an entry of a generic matrix, but
    # sign 0 (a zero pivot ends the LU) for most of them in the identity,
    # e.g. a NaN at (0, 0) or an inf below the diagonal: both are refused
    rng = np.random.default_rng(23)
    for m in (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), np.eye(4, dtype=complex)):
        m[where] = value
        stack = np.stack([np.eye(4), m, np.ones((4, 4))])  # the last is singular
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (m, stack, stack[:, None]):
                with pytest.raises(ValueError, match="matrix entries must be finite"):
                    densela.complex_det(bad)
            assert densela.complex_det(stack[::2]).log_abs[1] == -np.inf  # finite and singular: no error
