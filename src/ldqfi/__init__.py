"""Logarithmic-derivative operators and quantum information values for
smooth families of full-rank density matrices.

The package constructs four logarithmic-derivative operators of a
parametrized state family — defined by dividing the eigenbasis matrix of
the state derivative by the logarithmic, harmonic, geometric or arithmetic
mean of eigenvalue pairs — and evaluates the associated information
quantities, Cramér–Rao bounds and closed-form references on a zoo of
finite and truncated infinite-dimensional models.  The verification suites
live in ldqfi.verify, which this package does not import.
"""

from __future__ import annotations

from .errors import (
    DegenerateCrossing,
    DegenerateInformation,
    DomainError,
    InvalidInput,
    QfiError,
    ResourceLimit,
    SingularState,
    TruncationError,
)
from .family import (
    Analytic,
    CentralDifference,
    DensityMatrix,
    NonsmoothProjectionState,
    ProjectionAuditReport,
    SpectralBranches,
    StateFamily,
    branches_at,
    nonsmooth_projection_state,
    projection_audit,
    projection_curvature_residual,
    random_analytic_family,
    spectral_branches,
)
from .ldops import (
    MODELS,
    LdOperator,
    kernel_matrix,
    kmb_residual,
    ld_operator,
)
from .linalg import (
    expm,
    logmean_kernel,
    random_hermitian,
    schatten_norm,
    trace_product,
)
from .qfi import (
    CrCheck,
    QfiReport,
    breve_variance,
    classical_information,
    compute_report,
    compute_reports,
    local_cr_check,
    local_cr_terms,
    maximality_check,
    ncopy_qfi,
    qfi_bvn,
    qfi_split,
    qfi_value,
    qfi_variance,
    relative_entropy,
    relent_limit,
)
from .zoo import (
    FAMILIES,
    CoherentFamily,
    Ld2Verdict,
    TraceRow,
    TwoLevelFamily1,
    TwoLevelFamily2,
    TwoLevelForms,
    coherent_branches,
    coherent_family,
    coherent_projection_prime,
    coherent_qfi_bvn,
    coherent_qfi_ld2,
    coherent_trace_table,
    coherent_trunc_dim,
    counterexample_family,
    default_two_level_1,
    displacement_closed_form,
    geometric_family,
    geometric_information,
    geometric_qfi,
    geometric_trunc_dim,
    grid_domain,
    sweep_family,
    two_level_closed_forms,
)

__version__ = "0.1.0"
