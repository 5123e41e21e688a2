"""The four logarithmic-derivative operators of a state family.

Every model solves a different operator equation linking rho' to rho:

  bvn   rho' = integral_0^1 rho^t H rho^(1-t) dt        (KMB pairing)
  ld1   H = (rho^-1 rho' + rho' rho^-1)/2               (symmetrized right/left)
  ld2   H = rho^-1/2 rho' rho^-1/2                      (symmetric sandwich)
  sld   rho' = (H rho + rho H)/2                        (anticommutator)

In the eigenbasis of rho each equation becomes entrywise division of rho'
by a symmetric positive kernel of the eigenvalue pair: the logarithmic,
harmonic, geometric and arithmetic means respectively.  kernel_table builds
that kernel once per model and point and keeps it on the point's
SpectralBranches; every reader of the point divides by the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .family import SpectralBranches
from .linalg import hermitize, logmean_pairs, positive_spectrum, schatten_norm, trace_product

MODELS = ("bvn", "ld1", "ld2", "sld")


def kernel_pairs(a: np.ndarray, b: np.ndarray, model: str) -> np.ndarray:
    """The model's mean of positive arrays broadcast together: logarithmic
    (bvn), harmonic (ld1), geometric (ld2) or arithmetic (sld)."""
    if model == "bvn":
        return logmean_pairs(a, b)
    if model == "ld1":
        return 2.0 * a * b / (a + b)
    if model == "ld2":
        return np.sqrt(a * b)
    if model == "sld":
        return 0.5 * (a + b)
    raise InvalidInput(f"unknown model {model!r}; expected one of {MODELS}")


def kernel_matrix(w: np.ndarray, model: str) -> np.ndarray:
    """Pairwise mean kernel of a positive spectrum for the given model.

    A spectrum with a non-positive or non-finite eigenvalue raises
    DomainError, one that is not 1-d InvalidInput."""
    w = positive_spectrum(w, "kernel_matrix")
    return kernel_pairs(w[:, None], w[None, :], model)


def kernel_table(br: SpectralBranches, model: str) -> np.ndarray:
    """The model's mean over every eigenvalue pair of the point, built by
    kernel_matrix on first use and kept in br.kernels for later readers."""
    table = br.kernels.get(model)
    if table is None:
        table = br.kernels[model] = kernel_matrix(br.eigenvalues, model)
    return table


@dataclass(frozen=True)
class LdOperator:
    """A logarithmic-derivative operator with its optional commuting split.

    h1 is the part diagonal in the eigenbasis of rho (it always commutes
    with rho); h2 = matrix - h1 carries the non-commuting remainder.  For
    the bvn model h2 is built independently of matrix, making
    h1 + h2 = matrix a genuine identity check rather than a tautology.
    """

    model: str
    matrix: np.ndarray
    h1: np.ndarray | None = None
    h2: np.ndarray | None = None


def kernel_entries(br: SpectralBranches, model: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda_i, rho'_ij, K_ij) over the stored entries of rho' in the
    eigenbasis, with K the model's mean of (lambda_i, lambda_j), ready for
    elementwise sums.  A dense point gives whole matrices (lambda_i as a
    column, the point's kernel_table); a banded point gives flat arrays
    over its O(dim) entries and builds no table."""
    if br.band is None:
        return br.eigenvalues[:, None], br.rho_prime_eig, kernel_table(br, model)
    rows, cols, vals = br.band.entries
    w = br.eigenvalues
    return w[rows], vals, kernel_pairs(w[rows], w[cols], model)


def expectation(br: SpectralBranches, rho_eig: np.ndarray, model: str) -> float:
    """Tr(rho H) for the model's operator H_eig = rho'_eig / K, with rho
    given in the eigenbasis, summed over the stored entries of rho' (see
    kernel_entries) and read against rho_eig at the transposed positions."""
    _, rp, kern = kernel_entries(br, model)
    h = rp / kern
    if br.band is None:
        return trace_product(rho_eig, h)
    rows, cols, _ = br.band.entries
    return float(np.sum(rho_eig[cols, rows] * h).real)


def ld_operator(br: SpectralBranches, model: str, split: bool = True) -> LdOperator:
    """Construct the LD operator of a model from spectral branches.

    With split=True also returns h1 = sum_k (lambda'_k/lambda_k) P_k and h2:
    for bvn, h2 = sum_k ln(lambda_k) P'_k assembled from the branch data;
    for the other models h2 = matrix - h1.
    """
    v = br.basis
    matrix = hermitize(v @ (br.rho_prime_eig / kernel_table(br, model)) @ v.conj().T)
    if not split:
        return LdOperator(model=model, matrix=matrix)

    idx = br.cluster_index
    ratios = (br.cluster_value_primes / br.cluster_values)[idx]
    h1 = hermitize((v * ratios) @ v.conj().T)
    if model == "bvn":
        # sum_k ln(lambda_k) P'_k collapses, pair by pair of clusters, to
        # division of rho' by the logarithmic mean of the cluster values,
        # with vanishing blocks inside each cluster.
        same = idx[:, None] == idx[None, :]
        kern_c = kernel_matrix(br.cluster_values[idx], "bvn")
        h2_eig = np.where(same, 0.0, br.rho_prime_eig / kern_c)
        h2 = hermitize(v @ h2_eig @ v.conj().T)
    else:
        h2 = matrix - h1
    return LdOperator(model=model, matrix=matrix, h1=h1, h2=h2)


def kmb_residual(br: SpectralBranches, ld: LdOperator | np.ndarray) -> float:
    """Trace-norm defect of H as a solution of the KMB equation,
    || integral_0^1 rho^t H rho^(1-t) dt - rho' ||_1.

    Zero (to rounding) exactly for the bvn operator; for the other models a
    non-trivial residual measures how far their defining equation is from
    the KMB one on a non-commuting family.
    """
    h = ld.matrix if isinstance(ld, LdOperator) else np.asarray(ld)
    h_eig = br.basis.conj().T @ h @ br.basis
    recon = h_eig * kernel_table(br, "bvn")
    return schatten_norm(recon - br.rho_prime_eig, 1)
