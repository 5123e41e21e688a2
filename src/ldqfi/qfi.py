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
from typing import Sequence

import numpy as np

from .errors import DegenerateInformation, InvalidInput, ResourceLimit
from .family import (
    Analytic,
    DensityMatrix,
    SpectralBranches,
    StateFamily,
    _check_step,
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
    kernel_matrix,
    kernel_table,
    kmb_residual,
    ld_operator,
)
from .linalg import (
    _one_blas_thread,
    _positive_int,
    require_hermitian,
    trace_product,
)

# Explicit tensor construction of n-copy states is capped at this dimension.
NCOPY_DIM_CAP = 4096


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


def qfi_split(br: SpectralBranches, model: str) -> tuple[float, float]:
    """(I1, I2): classical eigenvalue part and model-dependent remainder."""
    if model not in MODELS:
        raise InvalidInput(f"unknown model {model!r}")
    i1 = classical_information(br)
    total = qfi_value(br, model)
    return i1, total - i1


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


def local_cr_check(br: SpectralBranches, obs: np.ndarray, model: str,
                   slack_tol: float = 1e-10) -> CrCheck:
    """Check Var(Theta) >= u^2 / QFI with u = Tr(rho' Theta) for one
    observable: local_cr_terms of a stack of one, holding when the slack
    is at least -slack_tol.  A slack_tol that is not finite raises
    InvalidInput."""
    if not math.isfinite(slack_tol):
        raise InvalidInput(f"slack_tol must be finite, got {slack_tol!r}")
    y = np.asarray(obs)
    if y.ndim != 2:
        raise InvalidInput(f"observable must be a square matrix, got shape {y.shape}")
    u, lhs, rhs = local_cr_terms(br, y[None], model)
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return CrCheck(model=model, u=float(u[0]), lhs=lhs, rhs=rhs, holds=lhs >= rhs - slack_tol)


def _embed(h: np.ndarray, slot: int, n: int) -> np.ndarray:
    dim = h.shape[0]
    out = np.array([[1.0 + 0.0j]])
    for j in range(n):
        out = np.kron(out, h if j == slot else np.eye(dim))
    return out


def ncopy_qfi(br: SpectralBranches, model: str, n: int) -> float:
    """Information of n independent copies.

    For n <= 3 the n-copy state and the summed LD operator are built
    explicitly and the information recomputed from scratch; the result is
    checked against additivity (n times the single-copy value) before being
    returned.  Larger n returns the additivity formula directly.
    """
    _positive_int(n, "n")
    single = qfi_value(br, model)
    if n == 1:
        return single
    if n > 3:
        return n * single
    if br.dim**n > NCOPY_DIM_CAP:
        raise ResourceLimit(
            f"n-copy dimension {br.dim**n} exceeds cap {NCOPY_DIM_CAP}; use the additivity formula"
        )
    rho = br.rho()
    h = ld_operator(br, model, split=False).matrix
    rho_n = np.array([[1.0 + 0.0j]])
    for _ in range(n):
        rho_n = np.kron(rho_n, rho)
    h_n = sum(_embed(h, j, n) for j in range(n))

    if model == "bvn":
        w, v = np.linalg.eigh(rho_n)
        h_eig = v.conj().T @ h_n @ v
        value = float(np.sum(np.abs(h_eig) ** 2 * kernel_matrix(w, "bvn")).real)
    else:
        value = trace_product(rho_n @ h_n, h_n)
    expect = n * single
    if abs(value - expect) > 1e-8 * max(1.0, abs(expect)):
        raise InvalidInput(
            f"n-copy information {value!r} violates additivity against {expect!r}"
        )
    return value


def _log_state(state: DensityMatrix) -> np.ndarray:
    v = state.eigenvectors
    return (v * np.log(state.eigenvalues)) @ v.conj().T


def relative_entropy(sigma: DensityMatrix, rho: DensityMatrix) -> float:
    """Umegaki relative entropy Tr sigma (ln sigma - ln rho) of full-rank
    states, with both logarithms taken on the states' eigendecompositions."""
    if sigma.dim != rho.dim:
        raise InvalidInput(f"states of dimensions {sigma.dim} and {rho.dim} cannot be compared")
    return trace_product(sigma.matrix, _log_state(sigma) - _log_state(rho))


def relent_limit(fam: StateFamily, theta: float,
                 eps_seq: Sequence[float] = (1e-2, 5e-3, 2.5e-3, 1.25e-3)) -> float:
    """Quadratic coefficient of the relative entropy along the family:
    the limit of 2 S(rho_{theta+eps} || rho_theta)/eps^2 as eps -> 0.

    The ratios 2 S/eps^2 expand as value + c1*eps + c2*eps^2 + ..., so the
    sequence is fit with a quadratic in eps (linear when only two entries
    are given) and the intercept is returned; it converges to the KMB
    information value qfi_bvn(theta).  eps_seq needs at least two entries,
    all finite, positive and distinct, else InvalidInput: a repeated step
    leaves the fit singular.
    """
    eps = np.asarray(list(eps_seq), dtype=float)
    if eps.ndim != 1 or eps.size < 2 or not np.all(np.isfinite(eps) & (eps > 0)):
        raise InvalidInput(f"eps_seq needs at least two finite positive entries, got {list(eps_seq)!r}")
    if np.unique(eps).size != eps.size:
        raise InvalidInput(f"eps_seq entries must be distinct, got {list(eps_seq)!r}")
    base = eval_rho(fam, theta)
    ys = []
    for e in eps:
        shifted = eval_rho(fam, theta + e)
        ys.append(2.0 * relative_entropy(shifted, base) / e**2)
    degree = min(2, eps.size - 1)
    coeffs = np.polyfit(eps, np.asarray(ys), degree)
    return float(coeffs[-1])


def maximality_check(fam: StateFamily, theta: float, step: float | None = None) -> tuple[float, float]:
    """Expectation of the derivative of the KMB LD operator against -QFI.

    Returns (Tr(rho H'), -qfi_bvn); the two agree because differentiating
    Tr(rho H) = 0 gives Tr(rho' H) + Tr(rho H') = 0 and Tr(rho' H) is the
    information value.  H' is a symmetric difference of the operator field;
    a step that is not positive and finite raises InvalidInput.
    """
    h = _check_step(step if step is not None else default_step(theta))
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
    """Evaluate the family at theta and assemble every requested information value.

    A family with a branches_of hook and an analytic derivative takes its
    branches from the hook: no state, no rho' and no eigensolve.  The point
    runs with numpy's OpenBLAS pinned to one thread (linalg._one_blas_thread),
    since blocked products and eigensolvers round differently with the thread
    count; so the report's bytes do not depend on it.
    """
    models = list(models)
    for m in models:
        if m not in MODELS:
            raise InvalidInput(f"unknown model {m!r}")
    if not models:
        raise InvalidInput("at least one model is required")
    return _one_blas_thread(_report, fam, theta, models)


def _report(fam: StateFamily, theta: float, models: list[str]) -> QfiReport:
    if fam.branches_of is not None and isinstance(fam.derivative_mode, Analytic):
        _check_theta(fam, theta)
        br = fam.branches_of(theta)
        # The state is basis diag(lambda) basis^dagger; seen through the
        # basis' own Gram matrix it carries the basis' orthogonality defect.
        gram = br.basis.conj().T @ br.basis
        rho_eig = (gram * br.eigenvalues) @ gram
    else:
        rho = eval_rho(fam, theta)
        br = spectral_branches(rho, eval_rho_prime(fam, theta))
        # The state's own matrix in the eigenbasis, so that Tr(rho H) also
        # sees how well the basis diagonalizes rho.
        v = br.basis
        rho_eig = v.conj().T @ rho.matrix @ v
    i1 = classical_information(br)
    qfi = {m: qfi_value(br, m) for m in models}
    i2 = {m: qfi[m] - i1 for m in models}
    # Tr(rho H) of every model is taken in the eigenbasis; only the bvn
    # operator is assembled, for the KMB equation.
    worst_expect = max(abs(expectation(br, rho_eig, m)) for m in models)
    residual = kmb_residual(br, ld_operator(br, "bvn", split=False))
    if not math.isfinite(residual):
        raise InvalidInput("KMB residual is not finite")
    return QfiReport(
        theta=float(theta),
        qfi=qfi,
        i1=i1,
        i2=i2,
        kmb_residual=residual,
        max_zero_expectation=worst_expect,
    )
