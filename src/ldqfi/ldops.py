"""The four logarithmic-derivative operators of a state family.

Every model solves a different operator equation linking rho' to rho:

  bvn   rho' = integral_0^1 rho^t H rho^(1-t) dt        (KMB pairing)
  ld1   H = (rho^-1 rho' + rho' rho^-1)/2               (symmetrized right/left)
  ld2   H = rho^-1/2 rho' rho^-1/2                      (symmetric sandwich)
  sld   rho' = (H rho + rho H)/2                        (anticommutator)

In the eigenbasis of rho each equation becomes entrywise division of rho'
by a symmetric positive kernel of the eigenvalue pair: the logarithmic,
harmonic, geometric and arithmetic means respectively.  A point keeps one
kernel per model on its SpectralBranches, over its stored entries of rho'
(kernel_entries): the whole table of a dense point, the band's entries of
a banded one; every reader of the point divides by the same array.

Every operator splits as H = H1 + H2.  H1 = sum_k (lambda'_k/lambda_k) P_k
(commuting_part) is the same for all four models and commutes with rho;
H2 = H - H1 has vanishing blocks inside each eigenvalue cluster and is the
part that vanishes when [rho, rho'] = 0.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidInput
from .family import SpectralBranches
from .linalg import (
    hermitize,
    logmean_pairs,
    require_positive,
)

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
    w = require_positive(w, "kernel_matrix")
    return kernel_pairs(w[:, None], w[None, :], model)


def kernel_table(br: SpectralBranches, model: str) -> np.ndarray:
    """The model's mean over every eigenvalue pair of the point, built by
    kernel_matrix.  A dense point keeps it in br.kernels for later readers;
    a banded point, whose entry there is the kernel over the band
    (kernel_entries), builds it on each call, so its caller keeps it."""
    if br.band is not None:
        return kernel_matrix(br.eigenvalues, model)
    table = br.kernels.get(model)
    if table is None:
        table = br.kernels[model] = kernel_matrix(br.eigenvalues, model)
    return table


def kernel_entries(br: SpectralBranches, model: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda_i, rho'_ij, K_ij) over the stored entries of rho' in the
    eigenbasis, with K the model's mean of (lambda_i, lambda_j), ready for
    elementwise sums.  A dense point gives whole matrices (lambda_i as a
    column, the point's kernel_table); a banded point gives flat arrays
    over its O(dim) entries and builds no table, and keeps the kernel in
    br.kernels under the model's name, so that every later reader of the
    point divides by the same array."""
    if br.band is None:
        return br.eigenvalues[:, None], br.rho_prime_eig, kernel_table(br, model)
    rows, cols, vals = br.band.entries
    w = br.eigenvalues
    kern = br.kernels.get(model)
    if kern is None:
        kern = br.kernels[model] = kernel_pairs(w[rows], w[cols], model)
    return w[rows], vals, kern


def expectations(br: SpectralBranches, rho_eig: np.ndarray, models: Sequence[str]) -> list[float]:
    """Tr(rho H) of each model's operator H_eig = rho'_eig / K, in the
    order of models, with rho given in the eigenbasis, summed over the
    stored entries of rho' (see kernel_entries) and read against rho_eig at
    the transposed positions; a banded point gathers those positions of
    rho_eig once for all models.  A rho_eig that is not a numeric matrix of
    the state's dimension raises InvalidInput.  A dense point sums
    rho_eig o (rho'/K)^T, the sum that linalg.trace_product forms, with the
    shapes checked here once."""
    rho_eig = np.asarray(rho_eig)
    if rho_eig.shape != (br.dim, br.dim) or rho_eig.dtype.kind not in "biufc":
        raise InvalidInput(f"rho_eig of shape {rho_eig.shape} is not a numeric matrix of dimension {br.dim}")
    if br.band is not None:
        rows, cols, _ = br.band.entries
        rho_eig = rho_eig[cols, rows]
    # the transpose of a band's flat array is the array itself
    entries = (kernel_entries(br, m) for m in models)
    return [float((rho_eig * (rp / kern).T).sum().real) for _, rp, kern in entries]


def ld_operator(br: SpectralBranches, model: str) -> np.ndarray:
    """The model's LD operator H as a Hermitian matrix: rho' in the
    eigenbasis divided by the point's kernel_table, rotated back."""
    v = br.basis
    return hermitize(v @ (br.rho_prime_eig / kernel_table(br, model)) @ v.conj().T)


def commuting_part(br: SpectralBranches) -> np.ndarray:
    """H1 = sum_k (lambda'_k/lambda_k) P_k, the part of every model's LD
    operator that commutes with rho; H - H1 is the remainder H2."""
    v = br.basis
    ratios = (br.cluster_value_primes / br.cluster_values)[br.cluster_index]
    return hermitize((v * ratios) @ v.conj().T)

