"""Trace, Schatten, numerical-range, and potential-family diagnostics.

Three families of checks on an assembled system:

* trace criterion -- nonvanishing of tr(D^p) for an integer p above the
  Schatten threshold certifies a nonempty spectrum; the two closed-form
  trace identities for tr(D) and tr(D^2) are verified as residuals;
* completeness angle -- whether the numerical range W(D) lies in a closed
  sector of opening pi/p, decided exactly: the Hermitian part of D is
  diag(K, 0), so W(D) lies in the closed right half-plane exactly when every
  K_b is positive semidefinite (one symmetric eigensolve per block), and
  since S > 0 the supremum of |arg| over W(D) is pi/2; the opening is pi, or
  2 pi when some K_b is indefinite.  Random samples of the quadratic form
  are reported alongside as statistics, drawn and reduced in real
  arithmetic one chunk of columns at a time, at most ``_RANGE_DRAW_BYTES``
  = 4 MB of draws per chunk, so the sampler's memory does not grow with
  the sample count;
* generic-existence scan -- the trace functional tr(B_q A_q^{-1}) along a
  one-parameter potential family, with its cyclicity cross-check, derivative
  estimates, zero diagnostics and grid-refinement continuity data.  The
  family is evaluated in stacks over s through the kernels that evaluate
  one problem (``assembly.assemble_stack``, ``assembly.whiten_stack`` and
  the per-class raw route ``_class_solves``), at most ``_SCAN_STACK_BYTES``
  = 32 MB of N x N arrays per stack; every check of one evaluation runs
  for every s (``potential_scan``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import densela
from .assembly import (
    POLYNOMIAL,
    BasisSet,
    WhitenedSystem,
    assemble_stack,
    build_basis,
    dirichlet_form,
    parity_classes,
    swap_permutation,
    whiten_stack,
    whitening_blocks,
)
from .companion import CompanionSystem
from .errors import ComputationError, CrossCheckFailed, PotentialLeavesCone, refuse
from .model import PotentialSpec, ProblemSpec, _potential_values, _validation_points, strictly_positive
from .util import loglog_slope

_IDENTITY_TOL = 1e-10
_SCAN_STACK_BYTES = 1 << 25  # N x N array bytes per scan stack: bounds the transient memory
_MEMBER_ARRAYS = 10  # N x N arrays one member holds at once, at most (9 measured for 2D, one class)
_RANGE_DRAW_BYTES = 1 << 22  # bytes of one chunk of range samples' draws: bounds the transient memory
RANGE_NOTE = (
    "within_angle compares exact_opening, which follows from lambda_min_k and the "
    "closed-form supremum pi/2 of |arg| over the numerical range, with pi/p; "
    "max_abs_arg and sector_opening describe the random samples only, which "
    "under-approximate the range"
)


@dataclass(frozen=True)
class SchattenProfile:
    """Decay of the singular values of the stiffness inverse square root."""

    decay_exponent: Optional[float]  # None below three singular values
    decay_theory: Optional[float]


@dataclass(frozen=True)
class TraceReport:
    """Trace and Schatten diagnostics of a companion system."""

    p: int
    trace: complex
    powers: tuple  # ((p, trace), ...) for every requested power
    schatten_1: float
    schatten_2: float
    spectral_radius: float
    profile: SchattenProfile
    identity_residuals: tuple  # (tr D, tr D^2) identity residuals


@dataclass(frozen=True)
class RangeReport:
    """Numerical range of the companion operator: exact opening and samples."""

    seed: int
    samples: np.ndarray
    max_abs_arg: float
    lambda_min_k: tuple  # smallest eigenvalue of each K_b, a twin repeating its source's
    exact_opening: float  # full opening of the real-axis sector holding W(D)
    p: int
    note: str = RANGE_NOTE

    @property
    def sample_count(self) -> int:
        return self.samples.size

    @property
    def sector_opening(self) -> float:
        """Full opening of the real-axis sector holding all samples."""
        return 2.0 * self.max_abs_arg

    @property
    def pi_over_p(self) -> float:
        return np.pi / self.p

    @property
    def within_angle(self) -> bool:
        """exact_opening <= pi/p."""
        return bool(self.exact_opening <= np.pi / self.p + 1e-12)


@dataclass(frozen=True)
class ScanReport:
    """Trace functional along a one-parameter potential family."""

    s_values: np.ndarray
    t_values: np.ndarray
    first_derivative: np.ndarray
    second_derivative: np.ndarray
    near_zeros: np.ndarray  # s values where |t| < zero_tol * max|t|
    sign_changes: np.ndarray  # s pairs bracketing a sign change
    zero_tol: float
    max_increment: float
    refined_max_increment: Optional[float] = None


def trace_power(comp: CompanionSystem, p: int) -> complex:
    """Trace of the p-th power of the companion matrix.

    Computed from the p-th power of each block D_b (``matrix_power``, by
    repeated squaring), whose traces sum to tr(D^p), a twin block counting
    its source's trace again; intended envelope is p <= 8.  When
    the source problem is known and p is below its ``p_min``, the trace
    criterion hypothesis fails and a warning is emitted (the value is still
    returned).
    """
    if p < 1:
        raise ValueError("power must be a positive integer")
    prob = comp.whitened.system.problem
    if prob is not None and p < prob.p_min:
        warnings.warn(
            f"p={p} does not exceed n/m={prob.dimension}/{prob.order}; "
            "the trace criterion does not apply at this power",
            stacklevel=2,
        )
    return complex(sum(comp.whitened.per_block(lambda b: np.trace(np.linalg.matrix_power(comp.blocks[b], p)))))


def _class_solves(a: np.ndarray, classes, *rhs: np.ndarray):
    """Yield A_cc^{-1} [R_cc ...] for each parity class c, the raw route.

    A and every R couple no two classes, so A^{-1} R is block diagonal and
    these are its diagonal blocks, the columns of the R in turn.  Acts on
    the last two axes, so on one pencil or on each member of a stack.
    """
    for idx in classes:
        cut = (Ellipsis, idx[:, None], idx)
        yield np.linalg.solve(a[cut], np.concatenate([r[cut] for r in rhs], axis=-1))


def trace_identity_check(comp: CompanionSystem) -> tuple[float, float]:
    """Residuals of tr(D) and tr(D^2) against the raw route on the assembled matrices.

    With M = A^{-1} B on the assembled pencil A - lam B + lam^2 C,

    tr(D)   = tr(M) and
    tr(D^2) = sum(M o M^T) - 2 tr(A^{-1} C),

    both invariant under the whitening congruence.  The companion side sums
    tr D_b and sum(D_b o D_b^T) over the blocks, a twin counting again.  A,
    B and C are exact zeros between parity classes by construction, so M
    and A^{-1} C are block diagonal over them and the raw side sums the
    same traces class by class (``_class_solves``: one solve per class with
    the class's B and C as right-hand sides).  It never touches mu, B_w,
    the swap split or the twins, so a fault in the whitening, in the split,
    in a twin or in a D_b shows here.  Each residual is relative to the
    larger magnitude (floored at one, so exact-zero cases stay
    well-defined).
    """
    system = comp.whitened.system
    tr_m = tr_raw = 0.0
    for idx, solved in zip(system.blocks, _class_solves(system.a, system.blocks, system.b, system.c)):
        m, a_inv_c = solved[:, : idx.size], solved[:, idx.size :]
        tr_m += float(np.trace(m))
        tr_raw += float(np.sum(m * m.T) - 2.0 * np.trace(a_inv_c))
    tr_d = float(sum(np.trace(d) for d in comp.blocks))
    r1 = abs(tr_d - tr_m) / max(abs(tr_d), abs(tr_m), 1.0)

    tr_d2 = float(sum(np.sum(d * d.T) for d in comp.blocks))
    r2 = abs(tr_d2 - tr_raw) / max(abs(tr_d2), abs(tr_raw), 1.0)
    return r1, r2


def schatten_profile(wh: WhitenedSystem) -> SchattenProfile:
    """Decay profile of the singular values of the stiffness inverse root.

    S = diag(sqrt(mu)), so its singular values are sqrt(mu) sorted
    descending.  Fits log s_j against log j over the middle third of indices
    (``loglog_slope``; no fit below three values); the theoretical exponent
    -m/n is attached when problem metadata is present.
    """
    prob = wh.system.problem
    theory = None if prob is None else -prob.order / prob.dimension
    return SchattenProfile(loglog_slope(np.sort(np.sqrt(wh.mu))[::-1]), theory)


def trace_report(
    comp: CompanionSystem, p_list: Sequence[int] = (1, 2)
) -> TraceReport:
    """Full trace/Schatten report for a companion system.

    Singular values and the spectral radius come from the diagonal blocks
    D_b, one SVD and one eigensolve each, a twin reusing its source's; the
    trace identities from the assembled A, B, C.
    """
    wh = comp.whitened
    powers = tuple((int(p), trace_power(comp, int(p))) for p in p_list)

    def block_data(b: int) -> tuple[np.ndarray, float]:
        block = comp.blocks[b]
        moduli = np.abs(densela.nonsym_eig(block).eigenvalues)
        return densela.singular_values(block), float(np.max(moduli, initial=0.0))

    data = wh.per_block(block_data)
    svals_d = np.sort(np.concatenate([svals for svals, _ in data]))[::-1]
    radius = max(r for _, r in data)
    return TraceReport(
        p=int(p_list[0]),
        trace=powers[0][1],
        powers=powers,
        schatten_1=float(np.sum(svals_d)),
        schatten_2=float(np.sqrt(np.sum(svals_d**2))),
        spectral_radius=radius,
        profile=schatten_profile(wh),
        identity_residuals=trace_identity_check(comp),
    )


def _range_opening(wh: WhitenedSystem, ks: list) -> tuple[tuple, float]:
    """Smallest eigenvalue of each K_b and the exact opening of W(D).

    The Hermitian part of D is diag(K, 0), since its +-S blocks are skew, so
    Re W(D) >= 0 exactly when every K_b is positive semidefinite, judged as
    lambda_min(K_b) >= -n_b eps ||K_b||_2.  As S > 0, |arg| reaches
    pi/2 - O(t) at w = (t a, i S a / |S a|) for real a, so the supremum of
    |arg| over W(D) is pi/2: the opening is pi, or 2 pi when some K_b is
    indefinite.  ``ks`` holds K_b per block (``WhitenedSystem.k_block``);
    one ``eigvalsh`` per block, a twin repeating its source's.
    """

    def block_floor(b: int) -> tuple[float, bool]:
        vals = np.linalg.eigvalsh(ks[b])
        tol = vals.size * np.finfo(float).eps * float(np.max(np.abs(vals), initial=0.0))
        return float(vals[0]), bool(vals[0] >= -tol)

    floors = wh.per_block(block_floor)
    opening = np.pi if all(ok for _, ok in floors) else 2.0 * np.pi
    return tuple(lam for lam, _ in floors), opening


def numerical_range(wh: WhitenedSystem, sample_count: int, seed: int = 0, p: int = 1) -> RangeReport:
    """Exact opening of the numerical range of the companion D of ``wh``, with samples.

    ``within_angle`` compares the exact opening (``_range_opening``) with
    pi/p.  The samples are statistics only: they draw unit-norm complex
    pairs (u0, v0) (Gaussian components, then joint normalization) and
    evaluate

        z = <K u0, u0> - 2i Im <S v0, u0>.

    The arithmetic is real.  With w = (u0, v0) drawn unnormalized, a, b the
    real and imaginary parts of u0 and c, d those of v0, s = sqrt(mu):

        Re <K u0, u0> = sum over symmetry blocks of a_b' K_b a_b + b_b' K_b b_b,
        Im <S v0, u0> = sum_i s_i (a_i d_i - b_i c_i),
        z = (Re <K u0, u0> - 2i Im <S v0, u0>) / |w|^2,

    with |w|^2 the column sum of squares of all four parts; K vanishes off
    the symmetry blocks, so two real products per block give the first sum.
    The h = ceil(sample_count / 2) columns are drawn in chunks of
    w = max(1, ``_RANGE_DRAW_BYTES`` // (32 N)) columns, the last one
    shorter: each chunk is one standard-normal draw of shape (4, N, w),
    read as (a, b, c, d), and is reduced before the next is drawn, so the
    memory stays at one draw plus a few N x w arrays whatever the count.
    Draws are mirrored with their conjugates, so the sample set is closed
    under conjugation by construction; an odd count is rounded up.  The
    smallest real-axis-symmetric closed sector containing all samples has
    full opening 2 max|arg z|.
    """
    if sample_count < 100:
        raise ValueError("need at least 100 samples")
    half = (sample_count + 1) // 2
    ks, root = wh.per_block(wh.k_block), np.sqrt(wh.mu)
    rng = np.random.default_rng(seed)

    def chunk(cols: int) -> np.ndarray:  # its draw is freed on return, before the next one
        draw = rng.standard_normal((4, wh.size, cols))
        a, b, c, d = draw
        quad = sum(np.einsum("kij,kij->j", draw[:2, blk], k @ draw[:2, blk]) for blk, k in zip(wh.blocks, ks))
        cross = np.einsum("i,ij,ij->j", root, a, d) - np.einsum("i,ij,ij->j", root, b, c)
        return (quad - 2j * cross) / np.einsum("kij,kij->j", draw, draw)

    width = max(1, _RANGE_DRAW_BYTES // (32 * wh.size))
    z = np.concatenate([chunk(min(width, half - start)) for start in range(0, half, width)])
    samples = np.concatenate([z, z.conj()])
    floors, opening = _range_opening(wh, ks)
    return RangeReport(
        seed=seed,
        samples=samples,
        max_abs_arg=float(np.max(np.abs(np.angle(samples)))),
        lambda_min_k=floors,
        exact_opening=opening,
        p=p,
    )


@dataclass(frozen=True)
class _Pencils:
    """What the pencils of one basis share across a family of potentials.

    The parity classes, the swap and so the whitening blocks follow from the
    representation of V, and for an affine family V_0 + s d from both of
    its parts, never from s; the Dirichlet form does not involve V at all.
    So one instance serves every member of a scan.
    """

    basis: BasisSet
    classes: tuple
    swap: Optional[np.ndarray]
    blocks: list  # whitening_blocks(classes, swap)
    dirichlet: np.ndarray

    @classmethod
    def of(cls, problem: ProblemSpec, basis: BasisSet) -> "_Pencils":
        classes, swap = parity_classes(problem, basis), swap_permutation(problem, basis)
        return cls(basis, classes, swap, whitening_blocks(classes, swap), dirichlet_form(basis))

    def routes(self, vvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whitened and raw trace functional for V at the quadrature points, per stack member.

        ``vvals`` is one potential (last axis) or a stack of them.  The
        stiffness A is factored once per whitening block, for its positivity
        check and for the whitening; the mass C keeps its per-class check.
        """
        mats = assemble_stack(self.basis, vvals, self.classes, self.swap, self.dirichlet)
        parts = whiten_stack(self.blocks, mats["A"], mats["B"], mats["C"])
        mu = np.concatenate([m for m, _, _ in parts], axis=-1)
        diag = np.concatenate([np.diagonal(bb, axis1=-2, axis2=-1) for _, _, bb in parts], axis=-1)
        whitened = (mu[..., None, :] @ diag[..., :, None])[..., 0, 0]  # one BLAS dot per member
        raw = sum(np.trace(m, axis1=-2, axis2=-1) for m in _class_solves(mats["A"], self.classes, mats["B"]))
        return whitened, raw


def _cross_check(whitened, raw) -> None:
    whitened, raw = np.asarray(whitened), np.asarray(raw)
    residual = np.abs(whitened - raw) / np.maximum(np.maximum(np.abs(whitened), np.abs(raw)), 1.0)
    refuse(
        CrossCheckFailed,
        residual > _IDENTITY_TOL,
        lambda i: f"cyclicity cross-check residual {residual[i]:.3e} exceeds {_IDENTITY_TOL:.1e}",
    )


def trace_functional_routes(
    problem: ProblemSpec, size: int, family: str = POLYNOMIAL
) -> tuple[float, float]:
    """Trace functional through the whitened and the raw route.

    Whitened: tr(B_w A_w^{-1}) = sum_i mu_i (B_w)_ii after the whitening
    congruence.  Raw: the same trace evaluated directly on the assembled
    matrices, sum over parity classes c of tr(A_cc^{-1} B_cc), equal by
    cyclicity of the trace.  Both values are returned so callers can assert
    the residual.  The scan's kernels on one member.
    """
    basis = build_basis(problem, size, family)
    vvals = _potential_values(problem.potential, basis.grid_points())
    whitened, raw = _Pencils.of(problem, basis).routes(vvals)
    return float(whitened), float(raw)


def trace_functional(problem: ProblemSpec, size: int, family: str = POLYNOMIAL) -> float:
    """Trace functional tr(B_q A_q^{-1}) at basis size ``size``.

    Evaluated through the whitened route; the raw route is computed alongside
    as a built-in cyclicity cross-check.  Both routes resolve the small
    stiffness eigenvalues to full relative accuracy and agree to rounding.

    Raises:
        CrossCheckFailed: the two routes disagree beyond 1e-10 relative.
    """
    whitened, raw = trace_functional_routes(problem, size, family)
    _cross_check(whitened, raw)
    return whitened


def _scan_values(
    problem: ProblemSpec, direction: PotentialSpec, s_grid: np.ndarray, pencils: _Pencils
) -> np.ndarray:
    """t(s) on ``s_grid`` in stacks of at most ``_SCAN_STACK_BYTES`` of N x N arrays.

    Each stack runs every check of a single evaluation on every member.  A
    stack that fails is run again one s at a time, in grid order: the first
    s that fails on its own raises, its message ending "at family parameter
    s=...", so an earlier s failing a later check is named before the one
    flagged first.  If every s passes on its own, the stack's error stands.
    """
    # V_0 and d on the validation grid and at the quadrature nodes
    checks, nodes = (
        [_potential_values(pot, pts) for pot in (problem.potential, direction)]
        for pts in (_validation_points(problem.dimension), pencils.basis.grid_points())
    )

    def stack(s: np.ndarray) -> np.ndarray:
        try:
            values = checks[0] + s[:, None] * checks[1]
            floor, bad = np.min(values, axis=-1), ~strictly_positive(values)
            refuse(PotentialLeavesCone, bad, lambda i: f"potential floor {floor[i]:.3e}")
            whitened, raw = pencils.routes(nodes[0] + s[:, None] * nodes[1])
            _cross_check(whitened, raw)
            return whitened
        except ComputationError as exc:
            if s.size == 1:
                exc.args = (f"{exc} at family parameter s={s[0]:g}",)
            else:
                for i in range(s.size):
                    stack(s[i : i + 1])
            raise

    step = max(1, _SCAN_STACK_BYTES // (_MEMBER_ARRAYS * 8 * pencils.basis.gram.shape[0] ** 2))
    return np.concatenate([stack(s_grid[i : i + step]) for i in range(0, s_grid.size, step)])


def potential_scan(
    problem: ProblemSpec,
    direction: PotentialSpec,
    s_grid: Sequence[float],
    size: int,
    family: str = POLYNOMIAL,
    zero_tol: float = 1e-6,
    refine_check: bool = False,
) -> ScanReport:
    """Scan the trace functional along the family V_0 + s * direction.

    Derivatives are centered finite differences (one-sided second order at
    the ends).  ``refine_check=True`` additionally scans the midpoints of
    ``s_grid`` and records the maximal increment on the grid refined by them
    next to the coarse one, the continuity diagnostic.

    The family is evaluated in stacks over s, coarse points first and then
    midpoints, through the kernels that ``trace_functional`` runs on one
    member (``assemble_stack``, ``whiten_stack`` and the per-class raw
    route): the basis, the parity classes, the swap, the whitening blocks
    and the Dirichlet form are built once, and a stack holds at most
    ``_SCAN_STACK_BYTES`` (32 MB) of N x N arrays, all points in 1D and one
    or a few in 2D.  For every s the checks are those of one evaluation:
    the cone check on the validation grid, V > 0 at the quadrature nodes,
    the Legendre tail warning, asymmetry, parity and swap leaks, the
    Cholesky factor of C on each class and of A on each whitening block,
    the mu cut, and the cyclicity cross-check.

    Raises:
        ValueError: fewer than two points in ``s_grid``, or a repeated one.
        PotentialLeavesCone: the family loses positivity at some s.
        Any error of ``trace_functional``, naming the first failing s.
    """
    s = np.asarray(list(s_grid), dtype=float)
    if s.size < 2 or np.unique(s).size < s.size:
        raise ValueError("scan grid needs two or more distinct points")
    affine = PotentialSpec.affine(problem.potential, direction, 0.0)
    base = ProblemSpec(problem.operator, problem.domain, affine)
    pencils = _Pencils.of(base, build_basis(base, size, family))
    mid = 0.5 * (s[:-1] + s[1:]) if refine_check else s[:0]
    values = _scan_values(problem, direction, np.concatenate([s, mid]), pencils)
    t = values[: s.size]

    dt = np.gradient(t, s)
    d2t = np.gradient(dt, s)

    scale = max(float(np.max(np.abs(t))), 1e-300)
    near = s[np.abs(t) < zero_tol * scale]
    flips = np.nonzero(np.sign(t[:-1]) * np.sign(t[1:]) < 0)[0]
    sign_changes = np.column_stack([s[flips], s[flips + 1]]) if flips.size else np.empty((0, 2))

    max_inc = float(np.max(np.abs(np.diff(t))))
    refined_inc = None
    if refine_check:
        t_fine = np.empty(2 * s.size - 1)
        t_fine[0::2] = t
        t_fine[1::2] = values[s.size :]
        refined_inc = float(np.max(np.abs(np.diff(t_fine))))

    return ScanReport(
        s_values=s,
        t_values=t,
        first_derivative=dt,
        second_derivative=d2t,
        near_zeros=near,
        sign_changes=sign_changes,
        zero_tol=zero_tol,
        max_increment=max_inc,
        refined_max_increment=refined_inc,
    )
