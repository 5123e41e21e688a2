"""Dense reference operators for the eigenbasis path: ld1 and ld2 from
their defining matrix equations, and the spectral matrix function that ld2
needs.  The library builds every operator as rho'_eig divided by a kernel
table; these build them without it, so the tests can compare the two.

Also the per-item oracles of the stacked checks: the local Cramer-Rao
terms of one observable at a time, the projection audit as a loop over
cluster pairs with each projection derivative assembled block by block,
and the report of one hook point with its diagnostics formed from its own
basis alone."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ldqfi.errors import DomainError, InvalidInput
from ldqfi.family import DensityMatrix, ProjectionAuditReport, SpectralBranches, StateFamily
from ldqfi.ldops import MODELS, LdOperator, kernel_entries, kernel_table
from ldqfi.linalg import _one_blas_thread, hermitize, require_hermitian, trace_product
from ldqfi.qfi import QfiReport, classical_information, qfi_value


def matrix_function(a: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    f must accept an ndarray of eigenvalues.  Any eigenvalue that f maps to
    a non-finite number is outside the function's domain and raises
    DomainError carrying the offending eigenvalue.
    """
    values, vectors = np.linalg.eigh(require_hermitian(a))
    with np.errstate(all="ignore"):
        fw = np.asarray(f(values), dtype=float)
    if fw.shape != values.shape:
        raise InvalidInput("f must map eigenvalues elementwise")
    bad = ~np.isfinite(fw)
    if np.any(bad):
        offending = float(values[bad][0])
        raise DomainError(
            f"eigenvalue {offending:.6g} outside the domain of the matrix function",
            value=offending,
        )
    return (vectors * fw) @ vectors.conj().T


def ld1(rho: DensityMatrix, rho_prime: np.ndarray) -> LdOperator:
    """Symmetrized one-sided derivative, (rho^-1 rho' + rho' rho^-1)/2.

    Direct matrix form without spectral data; the split is not computed.
    """
    rho_prime = require_hermitian(np.asarray(rho_prime), "rho_prime")
    x = np.linalg.solve(rho.matrix, rho_prime)
    return LdOperator(model="ld1", matrix=hermitize(x))


def ld2(rho: DensityMatrix, rho_prime: np.ndarray) -> LdOperator:
    """Symmetric sandwich derivative, rho^-1/2 rho' rho^-1/2.

    Direct matrix form without spectral data; the split is not computed.
    """
    rho_prime = require_hermitian(np.asarray(rho_prime), "rho_prime")
    inv_sqrt = matrix_function(rho.matrix, lambda w: w**-0.5)
    return LdOperator(model="ld2", matrix=hermitize(inv_sqrt @ rho_prime @ inv_sqrt))


def cr_terms(br: SpectralBranches, obs: np.ndarray, model: str) -> tuple[float, float, float]:
    """(u, lhs, rhs) of the local Cramer-Rao bound for one observable,
    through trace_product and the KMB-weighted variance, with the
    information value, rho and rho' formed for this observable alone."""
    y = require_hermitian(np.asarray(obs), "observable")
    info = qfi_value(br, model)
    u = trace_product(br.rho_prime(), y)
    if model == "bvn":
        y_eig = br.basis.conj().T @ y @ br.basis
        mean = float(np.sum(br.eigenvalues * np.diag(y_eig).real))
        z = y_eig - mean * np.eye(br.dim)
        lhs = float(np.sum(np.abs(z) ** 2 * kernel_table(br, "bvn")).real)
    else:
        rho = br.rho()
        mean = trace_product(rho, y)
        lhs = trace_product(rho @ y, y) - mean**2
    return u, lhs, u**2 / info


def projection_prime(br: SpectralBranches, k: int) -> np.ndarray:
    """dP_k/dtheta, its eigenbasis blocks filled cluster by cluster."""
    sk = br.cluster_slices[k]
    block = np.zeros((br.dim, br.dim), dtype=complex)
    for j in range(br.n_clusters):
        if j == k:
            continue
        sj = br.cluster_slices[j]
        gap = br.cluster_values[k] - br.cluster_values[j]
        block[sj, sk] = br.rho_prime_eig[sj, sk] / gap
        block[sk, sj] = br.rho_prime_eig[sk, sj] / gap
    return br.basis @ block @ br.basis.conj().T


def projection_audit(br: SpectralBranches) -> ProjectionAuditReport:
    """The projection-derivative identities, one cluster pair at a time."""
    proj = [br.projection(k) for k in range(br.n_clusters)]
    prime = [projection_prime(br, k) for k in range(br.n_clusters)]
    eye = np.eye(br.dim)
    off = 0.0
    comp = 0.0
    adj = 0.0
    for j, (pj, dpj) in enumerate(zip(proj, prime)):
        off = max(off, float(np.linalg.norm(dpj @ pj - (eye - pj) @ dpj)))
        off = max(off, float(np.linalg.norm(dpj @ (eye - pj) - pj @ dpj)))
        for k, (pk, dpk) in enumerate(zip(proj, prime)):
            if k != j:
                off = max(off, float(np.linalg.norm(dpj @ pk + pj @ dpk)))
            comp = max(comp, float(np.linalg.norm(pk @ dpj @ pk)))
            prod = dpj @ dpk
            adj = max(adj, float(np.linalg.norm(prod @ pj - pj @ prod.conj().T)))
    weighted = sum(value * dp for value, dp in zip(br.cluster_values, prime))
    rho = br.rho()
    rho_prime = br.rho_prime()
    comm = rho @ rho_prime - rho_prime @ rho
    return ProjectionAuditReport(
        offdiag_exchange=off,
        compression=comp,
        adjoint_exchange=adj,
        weighted_prime_sum=float(np.linalg.norm(weighted)),
        commutator=float(np.linalg.norm(comm)),
    )


def hook_report(fam: StateFamily, theta: float) -> QfiReport:
    """A hook point's report from that point alone: its branches, its
    values, and each product of the two diagnostics with its own basis,
    on one BLAS thread as compute_report runs."""
    return _one_blas_thread(_hook_report, fam, theta)


def _hook_report(fam: StateFamily, theta: float) -> QfiReport:
    br = fam.branches_of(theta)
    v = br.basis
    i1 = classical_information(br)
    qfi = {m: qfi_value(br, m) for m in MODELS}
    gram = v.conj().T @ v
    rho_eig = (gram * br.eigenvalues) @ gram
    rows, cols, _ = br.band.entries
    worst = 0.0
    for m in MODELS:
        _, rp, kern = kernel_entries(br, m)
        worst = max(worst, abs(float(np.sum(rho_eig[cols, rows] * (rp / kern)).real)))
    table = kernel_table(br, "bvn")
    h = hermitize(v @ (br.rho_prime_eig / table) @ v.conj().T)
    defect = (v.conj().T @ h @ v) * table - br.rho_prime_eig
    residual = float(np.linalg.svd(defect, compute_uv=False).sum())
    return QfiReport(
        theta=float(theta),
        qfi=qfi,
        i1=i1,
        i2={m: qfi[m] - i1 for m in MODELS},
        kmb_residual=residual,
        max_zero_expectation=worst,
    )
