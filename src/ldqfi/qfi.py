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
from .family import DensityMatrix, SpectralBranches, StateFamily, branches_at, default_step, eval_rho
from .ldops import (
    MODELS,
    LdOperator,
    bvn_ld,
    kernel_matrix,
    kmb_residual,
    ld_operator,
    zero_expectation_check,
)
from .linalg import logmean_matrix, require_hermitian

# Explicit tensor construction of n-copy states is capped at this dimension.
NCOPY_DIM_CAP = 4096


def qfi_bvn(br: SpectralBranches) -> float:
    """Fisher information of the KMB pairing,
    sum_ij |rho'_ij|^2 / logmean(lambda_i, lambda_j) in the eigenbasis.

    This is sum_ij |H_ij|^2 logmean(lambda_i, lambda_j) for the bvn
    operator H, without building H.
    """
    # Kernel first, so that |rho'|^2 does not add one more N^2 array to its peak.
    kern = logmean_matrix(br.eigenvalues)
    return float(np.sum(np.abs(br.rho_prime_eig) ** 2 / kern))


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
    mean = float(np.trace(mat @ h).real)
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    if abs(mean) > 1e-6 * scale:
        raise InvalidInput(f"Tr(rho H) = {mean:.3e} is not numerically zero")
    return float(np.trace(mat @ h @ h).real)


def breve_variance(br: SpectralBranches, obs: np.ndarray) -> float:
    """KMB-weighted variance of an observable:
    sum_ij |Z_ij|^2 logmean(lambda_i, lambda_j) with Z = Y - Tr(rho Y) I.

    Coincides with the ordinary variance when [rho, Y] = 0 and dominates it
    never (the logarithmic mean is below the arithmetic mean).  Applied to
    the bvn LD operator it returns qfi_bvn.
    """
    y = require_hermitian(np.asarray(obs), "observable")
    if y.shape[0] != br.dim:
        raise InvalidInput("observable dimension does not match the state")
    y_eig = br.basis.conj().T @ y @ br.basis
    mean = float(np.sum(br.eigenvalues * np.diag(y_eig).real))
    z = y_eig - mean * np.eye(br.dim)
    kern = logmean_matrix(br.eigenvalues)
    return float(np.sum(np.abs(z) ** 2 * kern).real)


def classical_information(br: SpectralBranches) -> float:
    """Eigenvalue-branch part I1 = sum_k m_k lambda'_k^2 / lambda_k,
    shared by all four models."""
    mults = br.cluster_mults
    return float(np.sum(mults * br.cluster_value_primes**2 / br.cluster_values))


def qfi_value(br: SpectralBranches, model: str) -> float:
    """Information value of a model from branch data.

    bvn is qfi_bvn; the other models' Tr(rho H^2) is assembled in the
    eigenbasis as sum_i lambda_i sum_j |rho'_ij / kernel_ij|^2 without
    materializing H.  The mean Tr(rho H) then equals Tr(rho') and needs no
    separate check.
    """
    if model == "bvn":
        return qfi_bvn(br)
    if model not in MODELS:
        raise InvalidInput(f"unknown model {model!r}; expected one of {MODELS}")
    h_eig = br.rho_prime_eig / kernel_matrix(br.eigenvalues, model)
    return float(np.sum(br.eigenvalues[:, None] * np.abs(h_eig) ** 2))


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


def local_cr_check(br: SpectralBranches, obs: np.ndarray, model: str,
                   slack_tol: float = 1e-10) -> CrCheck:
    """Check Var(Theta) >= u^2 / QFI with u = Tr(rho' Theta).

    The bvn model uses the KMB-weighted variance on the left (its bound is
    stated in that metric); the others use the ordinary variance.  A zero
    information value makes the bound vacuous and raises
    DegenerateInformation.
    """
    y = require_hermitian(np.asarray(obs), "observable")
    if model not in MODELS:
        raise InvalidInput(f"unknown model {model!r}")
    info = qfi_value(br, model)
    if info <= 1e-14:
        raise DegenerateInformation(f"information value {info:.3e} is numerically zero")
    u = float(np.trace(br.rho_prime() @ y).real)
    if model == "bvn":
        lhs = breve_variance(br, y)
    else:
        rho = br.rho()
        mean = float(np.trace(rho @ y).real)
        lhs = float(np.trace(rho @ y @ y).real) - mean**2
    rhs = u**2 / info
    return CrCheck(model=model, u=u, lhs=lhs, rhs=rhs, holds=lhs >= rhs - slack_tol)


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
    if n < 1:
        raise InvalidInput("n must be a positive integer")
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
        value = float(np.sum(np.abs(h_eig) ** 2 * logmean_matrix(w)).real)
    else:
        value = float(np.trace(rho_n @ h_n @ h_n).real)
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
    return float(np.trace(sigma.matrix @ (_log_state(sigma) - _log_state(rho))).real)


def relent_limit(fam: StateFamily, theta: float,
                 eps_seq: Sequence[float] = (1e-2, 5e-3, 2.5e-3, 1.25e-3)) -> float:
    """Quadratic coefficient of the relative entropy along the family:
    the limit of 2 S(rho_{theta+eps} || rho_theta)/eps^2 as eps -> 0.

    The ratios 2 S/eps^2 expand as value + c1*eps + c2*eps^2 + ..., so the
    sequence is fit with a quadratic in eps (linear when only two entries
    are given) and the intercept is returned; it converges to the KMB
    information value qfi_bvn(theta).
    """
    eps = np.asarray(list(eps_seq), dtype=float)
    if eps.size < 2 or np.any(eps <= 0):
        raise InvalidInput("eps_seq needs at least two positive entries")
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
    information value.  H' is a symmetric difference of the operator field.
    """
    h = step if step is not None else default_step(theta)
    plus = bvn_ld(branches_at(fam, theta + h), split=False).matrix
    minus = bvn_ld(branches_at(fam, theta - h), split=False).matrix
    h_prime = (plus - minus) / (2.0 * h)
    br = branches_at(fam, theta)
    e_prime = float(np.trace(br.rho() @ h_prime).real)
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
    """Evaluate the family at theta and assemble every requested information value."""
    models = list(models)
    for m in models:
        if m not in MODELS:
            raise InvalidInput(f"unknown model {m!r}")
    if not models:
        raise InvalidInput("at least one model is required")
    br = branches_at(fam, theta)
    rho = br.rho()
    i1 = classical_information(br)
    qfi = {m: qfi_value(br, m) for m in models}
    i2 = {m: qfi[m] - i1 for m in models}
    # The values come from the eigenbasis formulas; the assembled operators
    # are still built to check Tr(rho H) = 0 and the KMB equation.
    bvn_op = bvn_ld(br, split=False)
    worst_expect = 0.0
    for m in models:
        op = bvn_op if m == "bvn" else ld_operator(br, m, split=False)
        worst_expect = max(worst_expect, abs(zero_expectation_check(rho, op)))
    residual = kmb_residual(br, bvn_op)
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
