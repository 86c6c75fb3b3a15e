"""Exception and warning types shared across the package.

Every error carries a stable machine-readable code equal to its class name;
the CLI serializes that code into its JSON error records.
"""


import numpy as np


class ComputationError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


def refuse(error: type, bad, message) -> None:
    """Raise ``error`` for the first flagged member of a check, if any.

    ``bad`` holds one flag per stack member, or is a single flag when the
    check ran on one problem; ``message(i)`` builds the text from the index
    ``i`` of that member into the check's per-member values (``()`` for a
    single flag).  The error does not record which member failed; a caller
    that must name it runs the members one at a time.
    """
    bad = np.asarray(bad)
    flagged = np.flatnonzero(bad)
    if flagged.size:
        raise error(message(int(flagged[0]) if bad.ndim else ()))


# --- problem definition ---------------------------------------------------

class NonpositivePotential(ComputationError):
    """Potential is not strictly positive on the sampled domain."""


class UnsupportedDimension(ComputationError):
    """Only one- and two-dimensional problems are supported."""


class DimensionMismatch(ComputationError):
    """Vector length does not match the operator's spatial dimension."""


class OutOfDomain(ComputationError):
    """Evaluation point lies outside the closed domain."""


class SmoothnessWarning(UserWarning):
    """Potential data is rougher than the theory behind the method assumes."""


class QuadratureWarning(UserWarning):
    """q = 1/V is not resolved on the quadrature cells, so assembly is inexact."""


# --- assembly -------------------------------------------------------------

class BasisOrderMismatch(ComputationError):
    """Basis family cannot realize the clamping order the operator needs."""


class QuadratureUnderflow(ComputationError):
    """Requested quadrature rule cannot integrate the basis degree exactly."""


class AsymmetryExceeded(ComputationError):
    """A matrix expected to be symmetric is too far from symmetric."""


class NotPositiveDefinite(ComputationError):
    """A matrix expected to be positive definite fails its factorization."""


class ParityViolation(ComputationError):
    """A claimed symmetry of V does not hold for the assembled pencil.

    Entries coupling two symmetry classes are too large to drop, or a matrix
    changes under the signed swap by too much to average it out.
    """


# --- dense linear algebra -------------------------------------------------

class NoConvergence(ComputationError):
    """Iterative eigenvalue computation failed to converge."""


# --- companion / spectra ---------------------------------------------------

class ZeroEigenvalue(ComputationError):
    """Companion eigenvalue exactly zero; it has no reciprocal."""


class DegenerateState(ComputationError):
    """Eigenvector has a numerically vanishing first component block."""


class RankAmbiguous(ComputationError):
    """Singular values straddle the rank-truncation threshold."""


class EmptyChain(ComputationError):
    """A chain of generalized eigenvectors must contain at least one vector."""


class NearSpectrum(ComputationError):
    """Requested shift is too close to a computed eigenvalue."""


class CrossCheckFailed(ComputationError):
    """Two independent evaluation routes disagree beyond tolerance."""


# --- counting ---------------------------------------------------------------

class ContourNearZero(ComputationError):
    """Contour runs so close to the computed spectrum that 8192 points cannot resolve it."""


class PhaseUnresolved(ComputationError):
    """A measured phase step reaches pi/2 on the grid the spectrum sized: a zero is missing."""


class InsufficientResolvedRange(ComputationError):
    """The discretization resolves too few radii of the counting window, or no real eigenvalue."""


# --- scans ------------------------------------------------------------------

class PotentialLeavesCone(ComputationError):
    """A potential family member loses strict positivity."""


# --- oracles ----------------------------------------------------------------

class RangeExceeded(ComputationError):
    """Argument outside a validated range: the special functions', an oracle k-grid's size, a contour radius."""


class DegenerateContrast(ComputationError):
    """Contrast too small; the matching determinant degenerates."""
