"""Quantum Fisher information functionals.

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

from .errors import InvalidInput
from .family import Analytic, SpectralBranches, StateFamily, UnitaryPath, _check_theta, _state_point
from .ldops import MODELS, commuting_part, expectations, kernel_entries, kernel_table, ld_operator
from .linalg import _one_blas_thread, trace_norms


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
    is the worst |Tr(rho H)| against rho in the basis (ldops.expectations,
    one call a point), and kmb_residual is
    || herm(K o (G (X / K) G) - X) ||_1 with X = rho' in the basis and K the
    bvn kernel table, which is the trace-norm defect of the assembled bvn
    operator in the KMB equation in exact arithmetic (tests/dense_oracles.py
    has that route); the trace norm of that exactly Hermitian matrix
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


def _path_of(fam: StateFamily) -> UnitaryPath | None:
    """The unitary path a family's points are taken from: its own, when its
    derivative mode is Analytic.  None sends each point through its state,
    rho' and one eigensolve."""
    return fam.unitary_path if isinstance(fam.derivative_mode, Analytic) else None


def _reports(fam: StateFamily, thetas: list[float], models: list[str]) -> list[QfiReport]:
    path = _path_of(fam)
    if path is None:
        return [_eigensolver_report(fam, theta, models) for theta in thetas]
    size = max(1, _BLOCK_BYTES // (16 * path.eigenvalues.size**2))
    reports = []
    first = values = table = None
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
        # branches: the path's eigenvalues and rho', the kernels they have
        # already built, and the bvn table, which a banded point does not
        # keep, so the call builds it once.
        if bases:
            if table is None:
                table = kernel_table(first, "bvn")
            diagnostics = _diagnostics(first, table, bases, models)
            reports += [_report(theta, values, *d) for theta, d in zip(checked, diagnostics)]
        if error is not None:
            raise error
    return reports


def _values(br: SpectralBranches, models: list[str]) -> tuple[float, dict[str, float], dict[str, float]]:
    """(i1, qfi, i2) of a point."""
    i1 = classical_information(br)
    qfi = {m: qfi_value(br, m) for m in models}
    return i1, qfi, {m: qfi[m] - i1 for m in models}


def _diagnostics(br: SpectralBranches, table: np.ndarray, bases: list[np.ndarray], models: list[str],
                 rho: np.ndarray | None = None, model: str = "bvn") -> list[tuple[list[float], float]]:
    """(means, residual) of each basis V of a block, in order, with
    G = V^dagger V its Gram matrix; br gives the eigenvalues, rho' in the
    basis and the kernels, and table is its bvn kernel table.  means is
    Tr(rho H) of each of models, in order (ldops.expectations), against
    the state in the basis: V^dagger rho V of the state's own matrix rho
    when given (an eigensolver point), so that it also sees how well the
    basis diagonalizes rho, else G diag(lambda) G, the state
    V diag(lambda) V^dagger of a unitary path's point seen through G, so
    that it carries the basis' orthogonality defect.  residual is the KMB
    residual of model's operator, || herm(K o (G (X / K_model) G) - X) ||_1
    with X = rho' in the basis and K the bvn table.  The residuals are
    formed in place in one (k, N, N) buffer, and their trace norms come
    from one stacked eigvalsh (linalg.trace_norms), which also checks them
    finite."""
    x = br.rho_prime_eig
    x_k = x / (table if model == "bvn" else kernel_table(br, model))
    res = np.empty((len(bases), br.dim, br.dim), np.result_type(x_k, *bases))
    means = []
    for v, r in zip(bases, res):
        gram = v.conj().T @ v
        rho_eig = (gram * br.eigenvalues) @ gram if rho is None else v.conj().T @ rho @ v
        means.append(expectations(br, rho_eig, models))
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
    return list(zip(means, norms))


def _report(theta: float, values: tuple[float, dict[str, float], dict[str, float]],
            means: list[float], residual: float) -> QfiReport:
    """The report of a point from its values and diagnostics."""
    i1, qfi, i2 = values
    return QfiReport(
        theta=float(theta),
        qfi=dict(qfi),
        i1=i1,
        i2=dict(i2),
        kmb_residual=residual,
        max_zero_expectation=max(abs(e) for e in means),
    )


def _eigensolver_report(fam: StateFamily, theta: float, models: list[str]) -> QfiReport:
    br, rho = _state_point(fam, theta)
    values = _values(br, models)
    [diagnostics] = _diagnostics(br, kernel_table(br, "bvn"), [br.basis], models, rho)
    return _report(theta, values, *diagnostics)


@dataclass(frozen=True)
class LdReport:
    """One model's LD operator H at a family point, with its diagnostics:
    mean is Tr(rho H) and kmb_residual the trace-norm defect of H in the
    KMB equation, both formed as compute_reports forms a point's (the
    bvn residual and each model's mean of a report), h1_norm and h2_norm
    the Frobenius norms of its commuting part H1 and of the remainder H2,
    and merged whether the point's eigenvalues fell into fewer clusters
    than the dimension."""

    operator: np.ndarray
    mean: float
    kmb_residual: float
    h1_norm: float
    h2_norm: float
    merged: bool


def ld_report(fam: StateFamily, theta: float, model: str) -> LdReport:
    """The model's LD operator at theta and its diagnostics, from the
    branches compute_reports takes for the point: the family's unitary path
    when it has one and an Analytic derivative, else one eigensolve.  Runs
    with numpy's OpenBLAS pinned to one thread, as compute_reports does.
    An unknown model raises InvalidInput (from ldops.kernel_pairs)."""
    return _one_blas_thread(_ld_report, fam, theta, model)


def _ld_report(fam: StateFamily, theta: float, model: str) -> LdReport:
    path = _path_of(fam)
    br, rho = _state_point(fam, theta) if path is None else (path.branches(_check_theta(fam, theta)), None)
    h = ld_operator(br, model)
    h1 = commuting_part(br)
    [([mean], residual)] = _diagnostics(br, kernel_table(br, "bvn"), [br.basis], [model], rho, model)
    return LdReport(
        operator=h,
        mean=mean,
        kmb_residual=residual,
        h1_norm=float(np.linalg.norm(h1)),
        h2_norm=float(np.linalg.norm(h - h1)),
        merged=br.n_clusters < br.dim,
    )
