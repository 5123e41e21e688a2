"""The four logarithmic-derivative operators of a state family.

Every model solves a different operator equation linking rho' to rho:

  bvn   rho' = integral_0^1 rho^t H rho^(1-t) dt        (KMB pairing)
  ld1   H = (rho^-1 rho' + rho' rho^-1)/2               (symmetrized right/left)
  ld2   H = rho^-1/2 rho' rho^-1/2                      (symmetric sandwich)
  sld   rho' = (H rho + rho H)/2                        (anticommutator)

In the eigenbasis of rho each equation becomes entrywise division of rho'
by a symmetric positive kernel of the eigenvalue pair: the logarithmic,
harmonic, geometric and arithmetic means respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .family import DensityMatrix, SpectralBranches
from .linalg import (
    hermitize,
    logmean_matrix,
    matrix_function,
    require_hermitian,
    schatten_norm,
)

MODELS = ("bvn", "ld1", "ld2", "sld")


def kernel_matrix(w: np.ndarray, model: str) -> np.ndarray:
    """Pairwise mean kernel of a positive spectrum for the given model."""
    w = np.asarray(w, dtype=float)
    a = w[:, None]
    b = w[None, :]
    if model == "bvn":
        return logmean_matrix(w)
    if model == "ld1":
        return 2.0 * a * b / (a + b)
    if model == "ld2":
        return np.sqrt(a * b)
    if model == "sld":
        return 0.5 * (a + b)
    raise InvalidInput(f"unknown model {model!r}; expected one of {MODELS}")


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


def ld_operator(br: SpectralBranches, model: str, split: bool = True) -> LdOperator:
    """Construct the LD operator of a model from spectral branches.

    With split=True also returns h1 = sum_k (lambda'_k/lambda_k) P_k and h2:
    for bvn, h2 = sum_k ln(lambda_k) P'_k assembled from the branch data;
    for the other models h2 = matrix - h1.
    """
    if model not in MODELS:
        raise InvalidInput(f"unknown model {model!r}; expected one of {MODELS}")
    v = br.basis
    kern = kernel_matrix(br.eigenvalues, model)
    h_eig = br.rho_prime_eig / kern
    matrix = hermitize(v @ h_eig @ v.conj().T)
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
        kern_c = logmean_matrix(br.cluster_values[idx])
        h2_eig = np.where(same, 0.0, br.rho_prime_eig / kern_c)
        h2 = hermitize(v @ h2_eig @ v.conj().T)
    else:
        h2 = matrix - h1
    return LdOperator(model=model, matrix=matrix, h1=h1, h2=h2)


def bvn_ld(br: SpectralBranches, split: bool = True) -> LdOperator:
    """LD operator of the KMB pairing, H = d/dtheta ln rho along the family."""
    return ld_operator(br, "bvn", split=split)


def sld(br: SpectralBranches, split: bool = True) -> LdOperator:
    """Symmetric logarithmic derivative, 2 rho'_ij / (lambda_i + lambda_j)."""
    return ld_operator(br, "sld", split=split)


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


def kmb_residual(br: SpectralBranches, ld: LdOperator | np.ndarray) -> float:
    """Trace-norm defect of H as a solution of the KMB equation,
    || integral_0^1 rho^t H rho^(1-t) dt - rho' ||_1.

    Zero (to rounding) exactly for the bvn operator; for the other models a
    non-trivial residual measures how far their defining equation is from
    the KMB one on a non-commuting family.
    """
    h = ld.matrix if isinstance(ld, LdOperator) else np.asarray(ld)
    h_eig = br.basis.conj().T @ h @ br.basis
    recon = h_eig * logmean_matrix(br.eigenvalues)
    return schatten_norm(recon - br.rho_prime_eig, 1)


def zero_expectation_check(rho: DensityMatrix | np.ndarray, ld: LdOperator | np.ndarray) -> float:
    """Tr(rho H).  Every LD operator of a trace-preserving family has
    vanishing expectation; callers assert the magnitude."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    h = ld.matrix if isinstance(ld, LdOperator) else np.asarray(ld)
    return float(np.trace(mat @ h).real)
