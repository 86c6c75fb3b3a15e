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
  are reported alongside as statistics: their real parts are drawn whole,
  their imaginary parts one symmetry block at a time in the stream order of
  a single draw, and each block is reduced in real arithmetic as it
  arrives, so the sampler holds 2N h doubles plus a few n_b x h arrays
  (h = half the sample count); the draws equal one whole draw bitwise, so
  a seed keeps its samples up to rounding in the order of the sums;
* generic-existence scan -- the trace functional tr(B_q A_q^{-1}) along a
  one-parameter potential family, with its cyclicity cross-check, derivative
  estimates, zero diagnostics and grid-refinement continuity data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import densela
from .assembly import BasisSet, WhitenedSystem, assemble_system, build_basis, whiten
from .companion import CompanionSystem
from .errors import CrossCheckFailed, PotentialLeavesCone
from .model import PotentialSpec, ProblemSpec, _potential_values, _validation_points
from .util import loglog_slope

_IDENTITY_TOL = 1e-10
RANGE_NOTE = (
    "within_angle compares exact_opening, which follows from lambda_min_k and the "
    "closed-form supremum pi/2 of |arg| over the numerical range, with pi/p; "
    "max_abs_arg and sector_opening describe the random samples only, which "
    "under-approximate the range"
)


@dataclass(frozen=True)
class SchattenProfile:
    """Singular values of the stiffness inverse square root and their decay."""

    singular_values: np.ndarray
    decay_exponent: float
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

    sample_count: int
    seed: int
    samples: np.ndarray
    max_abs_arg: float
    sector_opening: float  # full opening of the real-axis sector holding all samples
    lambda_min_k: tuple  # smallest eigenvalue of each K_b, a twin repeating its source's
    exact_opening: float  # full opening of the real-axis sector holding W(D)
    p: int
    pi_over_p: float
    within_angle: bool  # exact_opening <= pi/p
    note: str = RANGE_NOTE


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
    the source problem is known and p is not above n/m, the trace criterion
    hypothesis fails and a warning is emitted (the value is still returned).
    """
    if p < 1:
        raise ValueError("power must be a positive integer")
    wh = comp.whitened
    if wh.system.problem is not None:
        prob = wh.system.problem
        if p * prob.order <= prob.dimension:
            warnings.warn(
                f"p={p} does not exceed n/m={prob.dimension}/{prob.order}; "
                "the trace criterion does not apply at this power",
                stacklevel=2,
            )

    return complex(sum(wh.per_block(lambda b: np.trace(np.linalg.matrix_power(comp.blocks[b], p)))))


def trace_identity_check(wh: WhitenedSystem, comp: CompanionSystem) -> tuple[float, float]:
    """Residuals of tr(D) and tr(D^2) against the raw route on the assembled matrices.

    With M = A^{-1} B on the assembled pencil A - lam B + lam^2 C,

    tr(D)   = tr(M) and
    tr(D^2) = sum(M o M^T) - 2 tr(A^{-1} C),

    both invariant under the whitening congruence.  The companion side sums
    tr D_b and sum(D_b o D_b^T) over the blocks, a twin counting again.  The
    raw route never touches mu, B_w or the symmetry blocks, so a fault in the
    whitening, in the split, in a twin or in a D_b shows here.  Each
    residual is relative to the larger magnitude (floored at one, so
    exact-zero cases stay well-defined).
    """
    system = wh.system
    n = system.size
    solved = np.linalg.solve(system.a, np.hstack([system.b, system.c]))
    m, a_inv_c = solved[:, :n], solved[:, n:]
    tr_d = float(sum(np.trace(d) for d in comp.blocks))
    tr_m = float(np.trace(m))
    r1 = abs(tr_d - tr_m) / max(abs(tr_d), abs(tr_m), 1.0)

    tr_d2 = float(sum(np.sum(d * d.T) for d in comp.blocks))
    tr_raw = float(np.sum(m * m.T) - 2.0 * np.trace(a_inv_c))
    r2 = abs(tr_d2 - tr_raw) / max(abs(tr_d2), abs(tr_raw), 1.0)
    return r1, r2


def schatten_profile(wh: WhitenedSystem) -> SchattenProfile:
    """Decay profile of the singular values of the stiffness inverse root.

    S = diag(sqrt(mu)), so its singular values are sqrt(mu) sorted
    descending.  Fits log s_j against log j over the middle third of indices;
    the theoretical exponent -m/n is attached when problem metadata is present.
    """
    svals = np.sort(np.sqrt(wh.mu))[::-1]
    exponent = loglog_slope(svals)
    theory = None
    if wh.system.problem is not None:
        prob = wh.system.problem
        theory = -prob.order / prob.dimension
    return SchattenProfile(svals, exponent, theory)


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
    profile = schatten_profile(wh)
    return TraceReport(
        p=int(p_list[0]),
        trace=powers[0][1],
        powers=powers,
        schatten_1=float(np.sum(svals_d)),
        schatten_2=float(np.sqrt(np.sum(svals_d**2))),
        spectral_radius=radius,
        profile=profile,
        identity_residuals=trace_identity_check(wh, comp),
    )


def _column_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", x, y)


def _range_opening(wh: WhitenedSystem) -> tuple[tuple, float]:
    """Smallest eigenvalue of each K_b and the exact opening of W(D).

    The Hermitian part of D is diag(K, 0), since its +-S blocks are skew, so
    Re W(D) >= 0 exactly when every K_b is positive semidefinite, judged as
    lambda_min(K_b) >= -n_b eps ||K_b||_2.  As S > 0, |arg| reaches
    pi/2 - O(t) at w = (t a, i S a / |S a|) for real a, so the supremum of
    |arg| over W(D) is pi/2: the opening is pi, or 2 pi when some K_b is
    indefinite.  One ``eigvalsh`` per block, a twin repeating its source's.
    """

    def block_floor(b: int) -> tuple[float, bool]:
        vals = np.linalg.eigvalsh(wh.k_block(b))
        tol = vals.size * np.finfo(float).eps * float(np.max(np.abs(vals), initial=0.0))
        return float(vals[0]), bool(vals[0] >= -tol)

    floors = wh.per_block(block_floor)
    opening = np.pi if all(ok for _, ok in floors) else 2.0 * np.pi
    return tuple(lam for lam, _ in floors), opening


def numerical_range(
    comp: CompanionSystem, sample_count: int, seed: int = 0, p: int = 1
) -> RangeReport:
    """Exact opening of the companion operator's numerical range, with samples.

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
    the symmetry blocks, so two real products per block give the first sum,
    with K_b from ``WhitenedSystem.k_block``.  The real parts (a; c) are
    drawn whole as one 2N x h array, h = ceil(sample_count / 2); the
    imaginary parts follow from the same generator one block at a time, the
    rows b_b in block order and then the rows d_b, so together they are the
    draw of one 2N x h array, and each block's share is added to the three
    sums as it arrives.  Memory therefore stays at 2N h doubles plus a few
    n_b x h arrays of the block at hand.  A seed gives the samples of one
    whole draw, the same rows as before, whose values move only at rounding
    with the order of the sums.
    Draws are mirrored with their conjugates, so the sample set is closed
    under conjugation by construction; an odd count is rounded up.  The
    smallest real-axis-symmetric closed sector containing all samples has
    full opening 2 max|arg z|.
    """
    if sample_count < 100:
        raise ValueError("need at least 100 samples")
    half = (sample_count + 1) // 2
    wh = comp.whitened
    n = wh.size
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((2 * n, half))
    a, c = re[:n], re[n:]
    norm2 = _column_dots(re, re)
    quad = np.zeros(half)
    cross = np.zeros(half)
    # the imaginary parts in the stream order of one (2N, h) draw: the rows
    # b_b block by block, then the rows d_b, so no block split moves a sample
    for i, blk in enumerate(wh.blocks):
        k, im = wh.k_block(i), rng.standard_normal((blk.stop - blk.start, half))
        norm2 += _column_dots(im, im)
        quad += _column_dots(a[blk], k @ a[blk]) + _column_dots(im, k @ im)
        cross -= _column_dots(np.sqrt(wh.mu[blk])[:, None] * im, c[blk])
    for blk in wh.blocks:
        im = rng.standard_normal((blk.stop - blk.start, half))
        norm2 += _column_dots(im, im)
        cross += _column_dots(np.sqrt(wh.mu[blk])[:, None] * a[blk], im)
    z = np.empty(half, dtype=complex)
    z.real, z.imag = quad / norm2, -2.0 * cross / norm2
    samples = np.concatenate([z, z.conj()])

    max_arg = float(np.max(np.abs(np.angle(samples))))
    floors, opening = _range_opening(wh)
    return RangeReport(
        sample_count=samples.size,
        seed=seed,
        samples=samples,
        max_abs_arg=max_arg,
        sector_opening=2.0 * max_arg,
        lambda_min_k=floors,
        exact_opening=opening,
        p=p,
        pi_over_p=np.pi / p,
        within_angle=bool(opening <= np.pi / p + 1e-12),
    )


def trace_functional_routes(
    problem: ProblemSpec,
    size: int,
    family: str = "clamped-polynomial",
    basis: Optional[BasisSet] = None,
) -> tuple[float, float]:
    """Trace functional through the whitened and the raw route.

    Whitened: tr(B_w A_w^{-1}) = sum_i mu_i (B_w)_ii after the whitening
    congruence.  Raw: the same trace evaluated directly on the assembled
    matrices, equal by cyclicity of the trace.  Both values are returned so
    callers can assert the residual.
    """
    if basis is None:
        basis = build_basis(problem, size, family)
    system = assemble_system(problem, basis)
    wh = whiten(system)
    whitened = float(wh.mu @ np.concatenate([np.diag(bb) for bb in wh.b]))
    raw = float(np.trace(np.linalg.solve(system.a, system.b)))
    return whitened, raw


def trace_functional(
    problem: ProblemSpec,
    size: int,
    family: str = "clamped-polynomial",
    tol: float = _IDENTITY_TOL,
    basis: Optional[BasisSet] = None,
) -> float:
    """Trace functional tr(B_q A_q^{-1}) at basis size ``size``.

    Evaluated through the whitened route; the raw route is computed alongside
    as a built-in cyclicity cross-check.  Both routes resolve the small
    stiffness eigenvalues to full relative accuracy and agree to rounding.

    Raises:
        CrossCheckFailed: the two routes disagree beyond ``tol`` relative.
    """
    whitened, raw = trace_functional_routes(problem, size, family, basis)
    residual = abs(whitened - raw) / max(abs(whitened), abs(raw), 1.0)
    if residual > tol:
        raise CrossCheckFailed(
            f"cyclicity cross-check residual {residual:.3e} exceeds {tol:.1e}"
        )
    return whitened


def _scan_values(
    problem: ProblemSpec,
    direction: PotentialSpec,
    s_grid: np.ndarray,
    basis: BasisSet,
    tol: float,
) -> np.ndarray:
    check_pts = _validation_points(problem.dimension)

    def one(s: float) -> float:
        pot_s = PotentialSpec.affine(problem.potential, direction, float(s))
        floor = np.min(_potential_values(pot_s, check_pts))
        if floor <= 1e-10:
            raise PotentialLeavesCone(
                f"potential floor {floor:.3e} at family parameter s={s:g}"
            )
        prob_s = ProblemSpec(problem.operator, problem.domain, pot_s)
        return trace_functional(prob_s, basis.size, basis.family, tol, basis)

    return np.array([one(float(s)) for s in s_grid])


def potential_scan(
    problem: ProblemSpec,
    direction: PotentialSpec,
    s_grid: Sequence[float],
    size: int,
    family: str = "clamped-polynomial",
    zero_tol: float = 1e-6,
    cross_check_tol: float = _IDENTITY_TOL,
    refine_check: bool = False,
) -> ScanReport:
    """Scan the trace functional along the family V_0 + s * direction.

    Derivatives are centered finite differences (one-sided second order at
    the ends).  ``refine_check=True`` additionally scans the midpoints of
    ``s_grid`` and records the maximal increment on the grid refined by them
    next to the coarse one, the continuity diagnostic.  The basis depends only
    on the kinks of V_0 and of the direction, so it is built once for all s.

    Raises:
        PotentialLeavesCone: the family loses positivity at some s.
    """
    s = np.asarray(list(s_grid), dtype=float)
    if s.size < 2:
        raise ValueError("scan grid needs at least two points")
    base = PotentialSpec.affine(problem.potential, direction, 0.0)
    basis = build_basis(ProblemSpec(problem.operator, problem.domain, base), size, family)
    t = _scan_values(problem, direction, s, basis, cross_check_tol)

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
        mid = 0.5 * (s[:-1] + s[1:])
        t_fine[1::2] = _scan_values(problem, direction, mid, basis, cross_check_tol)
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
