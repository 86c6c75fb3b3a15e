"""Trace, Schatten, numerical-range, and potential-family diagnostics.

Three families of checks on an assembled system:

* trace criterion -- nonvanishing of tr(D^p) for an integer p above the
  Schatten threshold certifies a nonempty spectrum; the two closed-form
  trace identities for tr(D) and tr(D^2) are verified as residuals;
* completeness angle -- random samples of the companion quadratic form are
  tested against a closed sector of opening pi/p (sampling under-approximates
  the true set, so a violation is conclusive while satisfaction is evidence
  only);
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
_RANGE_BLOCK = 1024  # sample columns per block: bounds the transient memory
RANGE_NOTE = (
    "random sampling under-approximates the quadratic-form range: a violation "
    "of the angle condition is conclusive, satisfaction is evidence only"
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
    schatten_pmin: float
    spectral_radius: float
    profile: SchattenProfile
    identity_residuals: tuple  # (tr D, tr D^2) identity residuals


@dataclass(frozen=True)
class RangeReport:
    """Sampled numerical range of the companion operator."""

    sample_count: int
    seed: int
    samples: np.ndarray
    max_abs_arg: float
    sector_opening: float  # full opening of the real-axis sector holding all samples
    p: int
    pi_over_p: float
    within_angle: bool
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

    Computed by repeated multiplication; intended envelope is p <= 8.  When
    the source problem is known and p is not above n/m, the trace criterion
    hypothesis fails and a warning is emitted (the value is still returned).
    """
    if p < 1:
        raise ValueError("power must be a positive integer")
    wh = comp.whitened
    if wh.system is not None and wh.system.problem is not None:
        prob = wh.system.problem
        if p * prob.order <= prob.dimension:
            warnings.warn(
                f"p={p} does not exceed n/m={prob.dimension}/{prob.order}; "
                "the trace criterion does not apply at this power",
                stacklevel=2,
            )
    power = comp.d
    for _ in range(p - 1):
        power = power @ comp.d
    return complex(np.trace(power))


def trace_identity_check(wh: WhitenedSystem, comp: CompanionSystem) -> tuple[float, float]:
    """Residuals of the closed-form identities for tr(D) and tr(D^2).

    tr(D)  = tr(B A^{-1}) and
    tr(D^2) = tr(A^{-1/2} (B A^{-1} B - 2) A^{-1/2}),
    both relative to the larger magnitude (floored at one, so exact-zero
    cases stay well-defined).  A^{-1} = diag(mu) and A^{-1/2} = diag(sqrt(mu))
    are the whitened system's own scalings, so the residuals measure the
    identities themselves rather than solver conditioning.
    """
    inv_a = wh.inv_a
    tr_d = float(np.trace(comp.d))
    tr_ba = float(np.trace(wh.b @ inv_a))
    r1 = abs(tr_d - tr_ba) / max(abs(tr_d), abs(tr_ba), 1.0)

    tr_d2 = float(np.trace(comp.d @ comp.d))
    s = wh.inv_sqrt_a
    inner = wh.b @ inv_a @ wh.b - 2.0 * np.eye(wh.size)
    tr_formula = float(np.trace(s @ inner @ s))
    r2 = abs(tr_d2 - tr_formula) / max(abs(tr_d2), abs(tr_formula), 1.0)
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
    if wh.system is not None and wh.system.problem is not None:
        prob = wh.system.problem
        theory = -prob.order / prob.dimension
    return SchattenProfile(svals, exponent, theory)


def trace_report(
    comp: CompanionSystem, p_list: Sequence[int] = (1, 2)
) -> TraceReport:
    """Full trace/Schatten report for a companion system."""
    wh = comp.whitened
    p_min = 1
    if wh.system is not None and wh.system.problem is not None:
        p_min = wh.system.problem.p_min
    powers = tuple((int(p), trace_power(comp, int(p))) for p in p_list)
    svals_d = densela.singular_values(comp.d)
    mus = comp.eigen_data().eigenvalues
    profile = schatten_profile(wh)
    return TraceReport(
        p=int(p_list[0]),
        trace=powers[0][1],
        powers=powers,
        schatten_1=float(np.sum(svals_d)),
        schatten_2=float(np.sqrt(np.sum(svals_d**2))),
        schatten_pmin=float(np.sum(svals_d**p_min) ** (1.0 / p_min)),
        spectral_radius=float(np.max(np.abs(mus))),
        profile=profile,
        identity_residuals=trace_identity_check(wh, comp),
    )


def numerical_range(
    comp: CompanionSystem, sample_count: int, seed: int = 0, p: int = 1
) -> RangeReport:
    """Sampled quadratic-form range of the companion operator.

    Draws unit-norm complex pairs (u0, v0) (Gaussian components, then joint
    normalization) and evaluates

        z = <K u0, u0> - 2i Im <S v0, u0>.

    Draws are mirrored with their conjugates, so the sample set is closed
    under conjugation by construction; an odd count is rounded up.  The
    smallest real-axis-symmetric closed sector containing all samples has
    full opening 2 max|arg z|, reported against pi/p.
    """
    if sample_count < 100:
        raise ValueError("need at least 100 samples")
    half = (sample_count + 1) // 2
    n = comp.size
    rng = np.random.default_rng(seed)
    # drawn whole and in a fixed order, so the samples do not depend on the block
    raw = np.empty((2 * n, half), dtype=complex)
    raw.real = rng.standard_normal(raw.shape)
    raw.imag = rng.standard_normal(raw.shape)
    z = np.empty(half, dtype=complex)
    for cols in (slice(lo, lo + _RANGE_BLOCK) for lo in range(0, half, _RANGE_BLOCK)):
        blk = raw[:, cols]
        blk /= np.linalg.norm(blk, axis=0, keepdims=True)
        u0, v0 = blk[:n], blk[n:]
        z.real[cols] = np.einsum("ij,ij->j", u0.conj(), comp.k @ u0).real
        z.imag[cols] = -2.0 * np.einsum("ij,ij->j", u0.conj(), comp.s @ v0).imag
    samples = np.concatenate([z, z.conj()])

    max_arg = float(np.max(np.abs(np.angle(samples))))
    opening = 2.0 * max_arg
    return RangeReport(
        sample_count=samples.size,
        seed=seed,
        samples=samples,
        max_abs_arg=max_arg,
        sector_opening=opening,
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
    whitened = float(wh.mu @ np.diag(wh.b))
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
