"""Quantum Fisher information functionals and the checks built on them.

The information value attached to each LD model:

  bvn   the KMB-weighted second moment sum_ij |H_ij|^2 logmean(l_i, l_j),
        equal to Tr(rho' H) and to the KMB-weighted variance of H
  ld1, ld2, sld   the ordinary second moment Tr(rho H^2)

All models share the classical part I1 = sum_k m_k lambda'_k^2 / lambda_k
coming from the eigenvalue branches alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInformation, InvalidInput
from .family import (
    Analytic,
    DensityMatrix,
    SpectralBranches,
    StateFamily,
    _check_theta,
    branches_at,
    default_step,
    eval_rho,
    eval_rho_prime,
    spectral_branches,
)
from .ldops import (
    MODELS,
    LdOperator,
    expectation,
    kernel_entries,
    kernel_table,
    kmb_residual,
    ld_operator,
)
from .linalg import (
    _one_blas_thread,
    require_hermitian,
    trace_product,
)

# compute_reports evaluates the diagnostics of a hook family's points in
# blocks whose stacked (K, N, N) arrays hold at most this many entries: 5
# points at N = 57, one at a time from N = 91 on.  A block's stacks are a
# few of them, so its memory stays of the order of one point's, while a
# block still shares the Python work per call among its points.
REPORT_BLOCK_ENTRIES = 2**14

# local_cr_check holds when the slack Var - u^2/QFI is at least -CR_SLACK_TOL.
CR_SLACK_TOL = 1e-10

# Steps eps of the relative-entropy ratios that relent_limit extrapolates.
RELENT_EPS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def qfi_bvn(br: SpectralBranches) -> float:
    """Fisher information of the KMB pairing,
    sum_ij |rho'_ij|^2 / logmean(lambda_i, lambda_j) in the eigenbasis.

    This is sum_ij |H_ij|^2 logmean(lambda_i, lambda_j) for the bvn
    operator H, without building H; a banded point sums its O(dim) entries.
    """
    # kernel_entries builds the table before |rho'|^2 adds one more N^2
    # array to the peak.
    _, rp, kern = kernel_entries(br, "bvn")
    return float(np.sum(np.abs(rp) ** 2 / kern))


def qfi_variance(rho: DensityMatrix | np.ndarray, ld: LdOperator | np.ndarray) -> float:
    """Ordinary second moment Tr(rho H^2) for the variance-based models.

    Valid as an information value only when Tr(rho H) = 0, which holds for
    every LD operator of a normalized family; a grossly violated mean means
    the operator does not belong to the state and is rejected.  Accepts a
    bare Hermitian matrix as well, acting as a plain centered second moment.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if isinstance(ld, LdOperator):
        if ld.model not in MODELS:
            raise InvalidInput(f"unknown model {ld.model!r}")
        h = ld.matrix
    else:
        h = require_hermitian(np.asarray(ld), "observable")
    mean = trace_product(mat, h)
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    if abs(mean) > 1e-6 * scale:
        raise InvalidInput(f"Tr(rho H) = {mean:.3e} is not numerically zero")
    return trace_product(mat @ h, h)


def breve_variance(br: SpectralBranches, obs: np.ndarray) -> float:
    """KMB-weighted variance of an observable:
    sum_ij |Z_ij|^2 logmean(lambda_i, lambda_j) with Z = Y - Tr(rho Y) I.

    Coincides with the ordinary variance when [rho, Y] = 0 and dominates it
    never (the logarithmic mean is below the arithmetic mean).  Applied to
    the bvn LD operator it returns qfi_bvn.
    """
    y = require_hermitian(np.asarray(obs), "observable")
    if y.shape != (br.dim, br.dim):
        raise InvalidInput("observable dimension does not match the state")
    return float(_breve_variances(br, y[None])[0])


def _breve_variances(br: SpectralBranches, ys: np.ndarray) -> np.ndarray:
    """breve_variance of each matrix of a checked Hermitian stack (k, d, d)."""
    v = br.basis
    y_eig = v.conj().T @ ys @ v
    means = np.sum(br.eigenvalues * np.diagonal(y_eig, axis1=-2, axis2=-1).real, axis=-1)
    z = y_eig - means[:, None, None] * np.eye(br.dim)
    return np.sum(np.abs(z) ** 2 * kernel_table(br, "bvn"), axis=(-2, -1))


def classical_information(br: SpectralBranches) -> float:
    """Eigenvalue-branch part I1 = sum_k m_k lambda'_k^2 / lambda_k,
    shared by all four models."""
    mults = br.cluster_mults
    return float(np.sum(mults * br.cluster_value_primes**2 / br.cluster_values))


def qfi_value(br: SpectralBranches, model: str) -> float:
    """Information value of a model from branch data.

    bvn is qfi_bvn; the other models' Tr(rho H^2) is assembled in the
    eigenbasis as sum_i lambda_i sum_j |rho'_ij / kernel_ij|^2 without
    materializing H, over the stored entries of rho' (see kernel_entries).
    The mean Tr(rho H) then equals Tr(rho') and needs no separate check.
    """
    if model == "bvn":
        return qfi_bvn(br)
    w, rp, kern = kernel_entries(br, model)
    return float(np.sum(w * np.abs(rp / kern) ** 2))


@dataclass(frozen=True)
class CrCheck:
    """One local Cramer-Rao comparison: variance against u^2/QFI."""

    model: str
    u: float
    lhs: float
    rhs: float
    holds: bool

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs


def local_cr_terms(br: SpectralBranches, obs: np.ndarray,
                   model: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, lhs, rhs) of the local Cramer-Rao bound Var(Theta) >= u^2 / QFI
    for each observable of a stack of shape (k, d, d), as arrays of length k,
    with u = Tr(rho' Theta) and rhs = u^2 / QFI.

    The bvn model uses the KMB-weighted variance on the left (its bound is
    stated in that metric); the others use the ordinary variance.  The
    information value, rho and rho' are formed once for the whole stack.  A
    stack of the wrong shape, with a non-finite entry or a non-Hermitian
    slice raises InvalidInput; a zero information value makes the bound
    vacuous and raises DegenerateInformation.
    """
    ys = np.asarray(obs)
    if ys.ndim != 3 or ys.shape[1:] != (br.dim, br.dim):
        raise InvalidInput(f"observables must have shape (k, {br.dim}, {br.dim}), got {ys.shape}")
    ys = require_hermitian(ys, "observables")
    if model not in MODELS:
        raise InvalidInput(f"unknown model {model!r}")
    info = qfi_value(br, model)
    if info <= 1e-14:
        raise DegenerateInformation(f"information value {info:.3e} is numerically zero")
    ys_t = ys.swapaxes(-1, -2)
    u = np.sum(br.rho_prime() * ys_t, axis=(-2, -1)).real
    if model == "bvn":
        lhs = _breve_variances(br, ys)
    else:
        rho = br.rho()
        mean = np.sum(rho * ys_t, axis=(-2, -1)).real
        lhs = np.sum((rho @ ys) * ys_t, axis=(-2, -1)).real - mean**2
    return u, lhs, u**2 / info


def local_cr_check(br: SpectralBranches, obs: np.ndarray, model: str) -> CrCheck:
    """Check Var(Theta) >= u^2 / QFI with u = Tr(rho' Theta) for one
    observable: local_cr_terms of a stack of one, holding when the slack
    is at least -CR_SLACK_TOL."""
    y = np.asarray(obs)
    if y.ndim != 2:
        raise InvalidInput(f"observable must be a square matrix, got shape {y.shape}")
    u, lhs, rhs = local_cr_terms(br, y[None], model)
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return CrCheck(model=model, u=float(u[0]), lhs=lhs, rhs=rhs, holds=lhs >= rhs - CR_SLACK_TOL)


def _log_state(state: DensityMatrix) -> np.ndarray:
    v = state.eigenvectors
    return (v * np.log(state.eigenvalues)) @ v.conj().T


def relative_entropy(sigma: DensityMatrix, rho: DensityMatrix) -> float:
    """Umegaki relative entropy Tr sigma (ln sigma - ln rho) of full-rank
    states, with both logarithms taken on the states' eigendecompositions."""
    if sigma.dim != rho.dim:
        raise InvalidInput(f"states of dimensions {sigma.dim} and {rho.dim} cannot be compared")
    return trace_product(sigma.matrix, _log_state(sigma) - _log_state(rho))


def relent_limit(fam: StateFamily, theta: float) -> float:
    """Quadratic coefficient of the relative entropy along the family:
    the limit of 2 S(rho_{theta+eps} || rho_theta)/eps^2 as eps -> 0.

    The ratios 2 S/eps^2 at the steps RELENT_EPS expand as
    value + c1*eps + c2*eps^2 + ..., so they are fit with a quadratic in
    eps and the intercept is returned; it converges to the KMB information
    value qfi_bvn(theta).
    """
    eps = np.asarray(RELENT_EPS)
    base = eval_rho(fam, theta)
    ys = []
    for e in eps:
        shifted = eval_rho(fam, theta + e)
        ys.append(2.0 * relative_entropy(shifted, base) / e**2)
    coeffs = np.polyfit(eps, np.asarray(ys), 2)
    return float(coeffs[-1])


def maximality_check(fam: StateFamily, theta: float) -> tuple[float, float]:
    """Expectation of the derivative of the KMB LD operator against -QFI.

    Returns (Tr(rho H'), -qfi_bvn); the two agree because differentiating
    Tr(rho H) = 0 gives Tr(rho' H) + Tr(rho H') = 0 and Tr(rho' H) is the
    information value.  H' is a symmetric difference of the operator field
    with step default_step(theta).
    """
    h = default_step(theta)
    plus = ld_operator(branches_at(fam, theta + h), "bvn", split=False).matrix
    minus = ld_operator(branches_at(fam, theta - h), "bvn", split=False).matrix
    h_prime = (plus - minus) / (2.0 * h)
    br = branches_at(fam, theta)
    e_prime = trace_product(br.rho(), h_prime)
    return e_prime, -qfi_bvn(br)


@dataclass(frozen=True)
class QfiReport:
    """All information quantities of one family point.

    i1 is model-independent; i2 pairs with qfi per model.  kmb_residual is
    the trace-norm defect of the KMB equation for the bvn operator, and
    max_zero_expectation the worst |Tr(rho H)| over the computed models.
    """

    theta: float
    qfi: dict[str, float]
    i1: float
    i2: dict[str, float]
    kmb_residual: float
    max_zero_expectation: float


def compute_report(fam: StateFamily, theta: float,
                   models: Sequence[str] = MODELS) -> QfiReport:
    """Evaluate the family at theta and assemble every requested information
    value: compute_reports of the one point."""
    return compute_reports(fam, [theta], models)[0]


def compute_reports(fam: StateFamily, thetas: Iterable[float],
                    models: Sequence[str] = MODELS) -> list[QfiReport]:
    """The report of every theta, in order.

    A family without a branches_of hook, or with a derivative mode other
    than Analytic, evaluates each point on its own: state, rho' and one
    eigensolve.  A hook family takes each point's branches from the hook
    and no state at all.  Its hook describes a unitary path (see
    StateFamily), so the information values are computed once, from the
    first point, and every later point is checked to have the same
    spectrum and rho' in its basis, else InvalidInput.  The two
    diagnostics of each point still read its own basis; they are evaluated
    for blocks of points as (K, N, N) stacks, with at most
    REPORT_BLOCK_ENTRIES entries per stacked array.  A block calls the
    hook for its points in order, and a stacked diagnostic fails with the
    message that its point alone would give.

    The call runs with numpy's OpenBLAS pinned to one thread
    (linalg._one_blas_thread), since blocked products and eigensolvers
    round differently with the thread count; so the reports' bytes do not
    depend on it.  Models or thetas that are not iterables, and a theta
    that is not a real number, raise InvalidInput.
    """
    try:
        models, thetas = list(models), list(thetas)
    except TypeError:
        raise InvalidInput(f"models and thetas must be iterables, got {models!r} and {thetas!r}") from None
    for m in models:
        if m not in MODELS:
            raise InvalidInput(f"unknown model {m!r}")
    if not models:
        raise InvalidInput("at least one model is required")
    return _one_blas_thread(_reports, fam, thetas, models)


def _reports(fam: StateFamily, thetas: list[float], models: list[str]) -> list[QfiReport]:
    if fam.branches_of is None or not isinstance(fam.derivative_mode, Analytic):
        return [_eigensolver_report(fam, theta, models) for theta in thetas]
    path = _UnitaryPath(fam, models)
    size = max(1, REPORT_BLOCK_ENTRIES // fam.dim**2)
    blocks = (thetas[start:start + size] for start in range(0, len(thetas), size))
    return [rep for block in blocks for rep in path.reports(block)]


def _values(br: SpectralBranches, models: list[str]) -> tuple[float, dict[str, float], dict[str, float]]:
    """(i1, qfi, i2) of a point."""
    i1 = classical_information(br)
    qfi = {m: qfi_value(br, m) for m in models}
    return i1, qfi, {m: qfi[m] - i1 for m in models}


def _report(theta: float, values: tuple[float, dict[str, float], dict[str, float]],
            worst_expect: float, residual: float) -> QfiReport:
    if not math.isfinite(residual):
        raise InvalidInput("KMB residual is not finite")
    i1, qfi, i2 = values
    return QfiReport(
        theta=float(theta),
        qfi=dict(qfi),
        i1=i1,
        i2=dict(i2),
        kmb_residual=residual,
        max_zero_expectation=worst_expect,
    )


def _eigensolver_report(fam: StateFamily, theta: float, models: list[str]) -> QfiReport:
    rho = eval_rho(fam, theta)
    br = spectral_branches(rho, eval_rho_prime(fam, theta))
    # The state's own matrix in the eigenbasis, so that Tr(rho H) also
    # sees how well the basis diagonalizes rho.
    v = br.basis
    rho_eig = v.conj().T @ rho.matrix @ v
    values = _values(br, models)
    # Tr(rho H) of every model is taken in the eigenbasis; only the bvn
    # operator is assembled, for the KMB equation.
    worst_expect = max(abs(expectation(br, rho_eig, m)) for m in models)
    residual = kmb_residual(br, ld_operator(br, "bvn", split=False))
    return _report(theta, values, worst_expect, residual)


class _UnitaryPath:
    """The reports of a hook family: the information values of its first
    point, shared by every later point of the call, and the data every
    point is checked against."""

    def __init__(self, fam: StateFamily, models: list[str]):
        self.fam = fam
        self.models = models
        self.first: tuple[float, tuple[np.ndarray, ...]] | None = None
        self.values: tuple[float, dict[str, float], dict[str, float]] | None = None

    def _branches(self, theta: float) -> SpectralBranches:
        _check_theta(self.fam, theta)
        br = self.fam.branches_of(theta)
        spectrum = _spectrum(br)
        if self.first is None:
            self.first = (theta, spectrum)
            self.values = _values(br, self.models)
        elif len(spectrum) != len(self.first[1]) or not all(map(np.array_equal, spectrum, self.first[1])):
            raise InvalidInput(
                f"branches_of at theta={theta!r} changes the spectrum or rho' of "
                f"theta={self.first[0]!r}; a hook must describe a unitary path"
            )
        return br

    def reports(self, thetas: list[float]) -> list[QfiReport]:
        """The reports of a block of points, the diagnostics as stacks."""
        brs = [self._branches(theta) for theta in thetas]
        block = brs[0].over(_stack([br.basis for br in brs]))
        # The state is basis diag(lambda) basis^dagger; seen through the
        # basis' own Gram matrix it carries the basis' orthogonality defect.
        gram = block.basis.conj().swapaxes(-1, -2) @ block.basis
        rho_eig = (gram * block.eigenvalues) @ gram
        expects = [expectation(block, rho_eig, m) for m in self.models]
        residuals = kmb_residual(block, ld_operator(block, "bvn", split=False))
        return [
            _report(theta, self.values, max(abs(float(e[k])) for e in expects), float(residuals[k]))
            for k, theta in enumerate(thetas)
        ]


def _spectrum(br: SpectralBranches) -> tuple[np.ndarray, ...]:
    """Every datum of a point that its information values read: the
    eigenvalues, the clusters and rho' in the eigenbasis."""
    rho_prime = (br.rho_prime_eig,) if br.band is None else (br.band.diag, br.band.upper)
    return (br.eigenvalues, br.cluster_values, br.cluster_value_primes, *rho_prime)


def _stack(mats: list[np.ndarray]) -> np.ndarray:
    """The matrices as one (K, N, N) stack whose slices keep the stride
    signs of the first matrix.  numpy's matmul hands BLAS only operands
    with positive strides and multiplies the others in its own loop, which
    rounds differently; a hook basis in ascending order is typically a
    column-reversed view, so a contiguous copy would change the bytes.  A
    single matrix is stacked as a view, without a copy."""
    if len(mats) == 1:
        return mats[0][None]
    flip = tuple(i for i, stride in enumerate(mats[0].strides) if stride < 0)
    return np.flip(np.stack([np.flip(m, flip) for m in mats]), tuple(i + 1 for i in flip))
