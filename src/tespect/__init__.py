"""Transmission eigenvalues of multiplicatively perturbed elliptic operators.

Pipeline: define the problem (:mod:`tespect.model`), assemble and whiten the
Galerkin pencil (:mod:`tespect.assembly`), linearize to the companion matrix
and extract the spectrum (:mod:`tespect.companion`), then run trace/range
diagnostics (:mod:`tespect.diagnostics`), determinant counting
(:mod:`tespect.counting`), and closed-form cross-checks
(:mod:`tespect.oracles`).  The ``te-spect`` CLI orchestrates all of it.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    DomainSpec,
    OperatorSpec,
    PotentialSpec,
    ProblemSpec,
    validate_problem,
)
from .assembly import (  # noqa: F401
    BasisSet,
    GalerkinSystem,
    WhitenedSystem,
    assemble_system,
    build_basis,
    whiten,
)
from .companion import (  # noqa: F401
    CompanionSystem,
    Eigenstate,
    JordanChain,
    TransmissionEigenvalue,
    build_companion,
    extract_spectrum,
    jordan_chain_residual,
    jordan_chains,
    pencil_eigenvalues,
    recover_states,
    resolvent_block_check,
)
from .diagnostics import (  # noqa: F401
    RangeReport,
    ScanReport,
    TraceReport,
    numerical_range,
    potential_scan,
    schatten_profile,
    trace_identity_check,
    trace_power,
)
from .counting import (  # noqa: F401
    CountReport,
    auto_radii,
    fredholm_det,
    growth_profile,
    jensen_bound,
    winding_count,
)
from .oracles import (  # noqa: F401
    OracleRoot,
    bessel_row,
    oracle_1d,
    oracle_disk,
)
