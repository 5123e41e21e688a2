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
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateInformation, InvalidInput
from .family import (
    Analytic,
    DensityMatrix,
    SpectralBranches,
    StateFamily,
    _check_theta,
    _state_branches,
    branches_at,
    default_step,
    eval_rho,
    eval_rho_prime,
)
from .ldops import (
    MODELS,
    expectations,
    kernel_entries,
    kernel_table,
    ld_operator,
)
from .linalg import (
    _one_blas_thread,
    require_hermitian,
    trace_norms,
    trace_product,
)

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
    return float((np.abs(rp) ** 2 / kern).sum())


def breve_variance(br: SpectralBranches, obs: np.ndarray) -> float:
    """KMB-weighted variance of an observable:
    sum_ij |Z_ij|^2 logmean(lambda_i, lambda_j) with Z = Y - Tr(rho Y) I.

    Coincides with the ordinary variance when [rho, Y] = 0 and dominates it
    never (the logarithmic mean is below the arithmetic mean).  Applied to
    the bvn LD operator it returns qfi_bvn.
    """
    y = np.asarray(obs)
    if y.shape != (br.dim, br.dim):
        raise InvalidInput("observable dimension does not match the state")
    return float(_moments(br, y[None], "bvn")[1][0])


def _moments(br: SpectralBranches, ys: np.ndarray, model: str) -> tuple[np.ndarray, np.ndarray]:
    """(u, var) of each matrix Y of a stack (k, d, d), from its Hermitian
    part (require_hermitian) in the eigenbasis, Y_eig = V^dagger Y V:
    u = Tr(rho' Y) = sum rho'_eig o Y_eig^T and var = sum_ij |Z_ij|^2 W_ij
    with Z = Y_eig - Tr(rho Y) I.  W is the bvn kernel table for bvn (the
    KMB-weighted variance) and lambda_i for the other models, since
    Tr(rho Z^2) = sum_ij lambda_i |Z_ij|^2 is the ordinary variance."""
    v = br.basis
    # about 2.5 stacks above the input at the peak (require_hermitian's
    # conjugate copy and check temporaries, then the products), so the
    # caller bounds the memory by the stack it passes
    y_eig = v.conj().T @ require_hermitian(ys, "observable") @ v
    u = np.sum(br.rho_prime_eig * y_eig.swapaxes(-1, -2), axis=(-2, -1)).real
    diag = np.arange(br.dim)
    y_eig[:, diag, diag] -= np.sum(br.eigenvalues * y_eig[:, diag, diag].real, axis=-1)[:, None]
    weight = kernel_table(br, "bvn") if model == "bvn" else br.eigenvalues[:, None]
    return u, np.sum(np.abs(y_eig) ** 2 * weight, axis=(-2, -1))


def classical_information(br: SpectralBranches) -> float:
    """Eigenvalue-branch part I1 = sum_k m_k lambda'_k^2 / lambda_k,
    shared by all four models."""
    mults = br.cluster_mults
    return float((mults * br.cluster_value_primes**2 / br.cluster_values).sum())


def second_moment(br: SpectralBranches, model: str) -> float:
    """Ordinary second moment Tr(rho H^2) of the model's operator H, the
    information value of ld1, ld2 and sld, assembled in the eigenbasis as
    sum_i lambda_i sum_j |rho'_ij / kernel_ij|^2 without materializing H,
    over the stored entries of rho' (see kernel_entries).  The mean
    Tr(rho H) equals Tr(rho') and needs no separate check."""
    w, rp, kern = kernel_entries(br, model)
    return float((w * np.abs(rp / kern) ** 2).sum())


def qfi_value(br: SpectralBranches, model: str) -> float:
    """Information value of a model from branch data: qfi_bvn for bvn,
    second_moment for the others."""
    return qfi_bvn(br) if model == "bvn" else second_moment(br, model)


def local_cr_terms(br: SpectralBranches, obs: np.ndarray,
                   model: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, lhs, rhs) of the local Cramer-Rao bound Var(Theta) >= u^2 / QFI
    for each observable of a stack of shape (k, d, d), as arrays of length k,
    with u = Tr(rho' Theta) and rhs = u^2 / QFI.

    The bvn model uses the KMB-weighted variance on the left (its bound is
    stated in that metric); the others use the ordinary variance.  The
    information value is formed once for the whole stack, and every model
    reads u and its variance from the stack in the eigenbasis (_moments).  A
    stack of the wrong shape, with a non-finite entry or a non-Hermitian
    slice raises InvalidInput; a zero information value makes the bound
    vacuous and raises DegenerateInformation.
    """
    ys = np.asarray(obs)
    if ys.ndim != 3 or ys.shape[1:] != (br.dim, br.dim):
        raise InvalidInput(f"observables must have shape (k, {br.dim}, {br.dim}), got {ys.shape}")
    if model not in MODELS:
        raise InvalidInput(f"unknown model {model!r}")
    u, lhs = _moments(br, ys, model)
    info = qfi_value(br, model)
    if info <= 1e-14:
        raise DegenerateInformation(f"information value {info:.3e} is numerically zero")
    return u, lhs, u**2 / info


def _log_state(state: DensityMatrix) -> np.ndarray:
    v = state.eigenvectors
    return (v * np.log(state.eigenvalues)) @ v.conj().T


def relative_entropy(sigma: DensityMatrix, rho: DensityMatrix) -> float:
    """Umegaki relative entropy Tr sigma (ln sigma - ln rho) of full-rank
    states, with both logarithms taken on the states' eigendecompositions.
    Arguments that are not DensityMatrix instances raise InvalidInput."""
    if not (isinstance(sigma, DensityMatrix) and isinstance(rho, DensityMatrix)):
        raise InvalidInput(
            f"relative_entropy takes two DensityMatrix states, got "
            f"{type(sigma).__name__} and {type(rho).__name__}"
        )
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
    theta = _check_theta(fam, theta)
    h = default_step(theta)
    plus = ld_operator(branches_at(fam, theta + h), "bvn")
    minus = ld_operator(branches_at(fam, theta - h), "bvn")
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

    A family without a unitary_path, or with a derivative mode other than
    Analytic, evaluates each point through its state, rho' and one
    eigensolve.  A family with one takes each point's branches from the
    path and no state at all; as only the basis moves, the information
    values and kernel tables of the first point serve every point, and
    the call builds each table, and each model's kernel over a band, once.
    Its grid is cut into blocks of consecutive points that hold at most
    _BLOCK_BYTES of N x N float arrays, two a point (its basis and
    its KMB residual): 20 points at M = 2, one from M = 8 on.  A block is
    taken in two stages.  First each point's theta is checked and its
    basis read, in order (UnitaryPath.branches_over of the block, whose
    bases_of may share work between its points, such as the coherent
    family's closed forms); then the block's diagnostics are formed, their
    trace norms by one stacked eigvalsh.  An error of the first stage is
    raised after the diagnostics of the points before it, so a failing
    point raises what it raises alone.

    Both diagnostics of a point read its own basis V through the Gram
    matrix G = V^dagger V, and no operator is assembled: max_zero_expectation
    is the worst Tr(rho H) against rho in the basis (ldops.expectations,
    one call a point), and kmb_residual is
    || herm(K o (G (X / K) G) - X) ||_1 with X = rho' in the basis and K the
    bvn kernel table, which is kmb_residual of the assembled bvn operator
    in exact arithmetic; the trace norm of that exactly Hermitian matrix
    is the sum of its |eigvalsh| (linalg.trace_norms, one call a block,
    of a point alone on the eigensolver route).  For an orthonormal V it
    vanishes up to rounding, so it measures the basis' orthogonality
    defect.

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


# A unitary path is swept in blocks of consecutive points that hold at most
# this many bytes of N x N float arrays, two a point (its basis and its KMB
# residual): 20 points at M = 2 (N = 57) and one point from M = 8 on, so
# large truncations keep the memory of one point.
_BLOCK_BYTES = 1 << 20


def _reports(fam: StateFamily, thetas: list[float], models: list[str]) -> list[QfiReport]:
    path = fam.unitary_path
    if path is None or not isinstance(fam.derivative_mode, Analytic):
        return [_eigensolver_report(fam, theta, models) for theta in thetas]
    size = max(1, _BLOCK_BYTES // (16 * path.eigenvalues.size**2))
    reports = []
    first = values = None
    for start in range(0, len(thetas), size):
        # Stage 1: each point's theta check and basis, in order.  An error
        # waits for the diagnostics of the points before it, which raise
        # first if they fail, as they would point by point.
        block, checked, bases, error = thetas[start:start + size], [], [], None
        try:
            for theta, br in zip(block, path.branches_over(block)):
                theta = _check_theta(fam, theta)
                v = br.basis
                if first is None:
                    first, values = br, _values(br, models)
                checked.append(theta)
                bases.append(v)
        except Exception as exc:
            error = exc
        # Stage 2: the block's diagnostics, read against the first point's
        # branches: the path's eigenvalues and rho', and the kernel tables
        # they have already built.  The state is basis diag(lambda)
        # basis^dagger; seen through the basis' own Gram matrix it carries
        # the basis' orthogonality defect.
        if bases:
            diagnostics = _diagnostics(first, bases, lambda v, gram: (gram * first.eigenvalues) @ gram, models)
            reports += [_report(theta, values, *d) for theta, d in zip(checked, diagnostics)]
        if error is not None:
            raise error
    return reports


def _values(br: SpectralBranches, models: list[str]) -> tuple[float, dict[str, float], dict[str, float]]:
    """(i1, qfi, i2) of a point."""
    i1 = classical_information(br)
    qfi = {m: qfi_value(br, m) for m in models}
    return i1, qfi, {m: qfi[m] - i1 for m in models}


def _diagnostics(br: SpectralBranches, bases: list[np.ndarray],
                 rho_in: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 models: list[str]) -> list[tuple[float, float]]:
    """(max_zero_expectation, kmb_residual) of each basis V of a block, in
    order, with G = V^dagger V its Gram matrix and rho_in(V, G) the state
    in that basis; br gives the eigenvalues, rho' in the basis and the
    kernel tables.  The residuals are formed in place in one (k, N, N)
    buffer, and their trace norms come from one stacked eigvalsh
    (linalg.trace_norms), which also checks them finite."""
    table = kernel_table(br, "bvn")
    x = br.rho_prime_eig
    x_k = x / table
    res = np.empty((len(bases), br.dim, br.dim), np.result_type(x_k, *bases))
    worst = []
    for v, r in zip(bases, res):
        gram = v.conj().T @ v
        worst.append(max(abs(e) for e in expectations(br, rho_in(v, gram), models)))
        # herm(K o (G (X / K) G) - X), the bytes of hermitize
        np.matmul(gram @ x_k, gram, out=r)
        r *= table
        r -= x
        r += r.conj().T
        r *= 0.5
    norms = trace_norms(res).tolist()
    for residual in norms:
        if not math.isfinite(residual):
            raise InvalidInput("KMB residual is not finite")
    return list(zip(worst, norms))


def _report(theta: float, values: tuple[float, dict[str, float], dict[str, float]],
            worst_expect: float, residual: float) -> QfiReport:
    """The report of a point from its values and diagnostics."""
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
    # the state and rho' are each checked once, by eval_rho and eval_rho_prime
    rho = eval_rho(fam, theta)
    br = _state_branches(rho, eval_rho_prime(fam, theta))
    # The state's own matrix in the eigenbasis, so that Tr(rho H) also
    # sees how well the basis diagonalizes rho.
    values = _values(br, models)
    [diagnostics] = _diagnostics(br, [br.basis], lambda v, gram: v.conj().T @ rho.matrix @ v, models)
    return _report(theta, values, *diagnostics)
