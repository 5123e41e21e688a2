"""Logarithmic-derivative operators and quantum information values for
smooth families of full-rank density matrices.

The package constructs four logarithmic-derivative operators of a
parametrized state family — defined by dividing the eigenbasis matrix of
the state derivative by the logarithmic, harmonic, geometric or arithmetic
mean of eigenvalue pairs — and evaluates the associated information
quantities on a zoo of finite and truncated infinite-dimensional models.
The verification suites and the closed forms they check against live in
ldqfi.verify, and the audits of the paper's identities that the suites
run (Cramér–Rao bounds among them) in ldqfi.audits; this package imports
neither.
"""

from __future__ import annotations

from .errors import (
    DegenerateCrossing,
    DegenerateInformation,
    DomainError,
    InvalidInput,
    QfiError,
    SingularState,
    TruncationError,
)
from .family import (
    Analytic,
    CentralDifference,
    DensityMatrix,
    SpectralBranches,
    StateFamily,
    UnitaryPath,
    branches_at,
    spectral_branches,
)
from .ldops import (
    MODELS,
    commuting_part,
    kernel_matrix,
    ld_operator,
)
from .linalg import (
    random_hermitian,
    trace_product,
)
from .qfi import (
    LdReport,
    QfiReport,
    classical_information,
    compute_report,
    compute_reports,
    ld_report,
    qfi_bvn,
    qfi_value,
    second_moment,
)
from .zoo import (
    FAMILIES,
    CoherentFamily,
    NonsmoothProjectionState,
    TwoLevelFamily1,
    TwoLevelFamily2,
    coherent_family,
    coherent_trunc_dim,
    counterexample_family,
    default_two_level_1,
    displacement_closed_form,
    geometric_family,
    geometric_trunc_dim,
    grid_domain,
    nonsmooth_projection_state,
    random_analytic_family,
)

__version__ = "0.1.0"
