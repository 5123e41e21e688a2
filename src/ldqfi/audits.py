"""Audits of the paper's identities on the pipeline's branch data.

Lemma 3.3's projection-derivative identities and their second-order form
(projection_audit, projection_curvature_residual), the KMB-weighted
variance and the local Cramer-Rao bound (breve_variance, local_cr_terms),
and the relative-entropy limit and maximality of the KMB information
(relent_limit, maximality_check).  The verification suites (ldqfi.verify)
run them, and are the only module of the package that imports this one;
``import ldqfi`` does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCrossing, DegenerateInformation, DomainError, InvalidInput
from .family import (
    DensityMatrix,
    SpectralBranches,
    StateFamily,
    _check_finite,
    _check_theta,
    branches_at,
    default_step,
    eval_rho,
)
from .ldops import MODELS, kernel_table, ld_operator
from .linalg import require_hermitian, trace_product
from .qfi import qfi_bvn, qfi_value

# Step of the second difference in projection_curvature_residual.
CURVATURE_STEP = 1e-3

# Steps eps of the relative-entropy ratios that relent_limit extrapolates.
RELENT_EPS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def projection(br: SpectralBranches, k: int) -> np.ndarray:
    """The projection P_k onto the eigenvectors of cluster k."""
    cols = br.basis[:, br.cluster_slices[k]]
    return cols @ cols.conj().T


def projections(br: SpectralBranches) -> np.ndarray:
    """Every cluster projection P_k as a stack of shape (K, dim, dim)."""
    return np.stack([projection(br, k) for k in range(br.n_clusters)])


def projection_primes(br: SpectralBranches) -> np.ndarray:
    """Every dP_k/dtheta, from first-order perturbation of the other
    clusters, as a stack of shape (K, dim, dim).

    In the eigenbasis dP_k/dtheta carries rho'_ab / (value_k - value_j)
    at every entry coupling cluster k with another cluster j, in either
    order, and zero elsewhere.
    """
    k = np.arange(br.n_clusters)[:, None, None]
    idx = br.cluster_index
    in_row = idx[:, None] == k
    in_col = idx[None, :] == k
    coupling = in_row != in_col
    other = np.where(in_col, idx[:, None], idx[None, :])
    gap = np.where(coupling, br.cluster_values[k] - br.cluster_values[other], 1.0)
    block = np.where(coupling, br.rho_prime_eig / gap, 0j)
    return br.basis @ block @ br.basis.conj().T


@dataclass(frozen=True)
class ProjectionAuditReport:
    """Largest residuals of the projection-derivative identities.

    The identities follow from differentiating P_j P_k = delta_jk P_j and
    sum_k P_k = I:
      offdiag_exchange   P'_j P_j = (I - P_j) P'_j  and  P'_j P_k = -P_j P'_k
      compression        P_k P'_j P_k = 0
      adjoint_exchange   (P'_j P'_k) P_j = P_j (P'_j P'_k)†
    weighted_prime_sum is ||sum_k lambda_k P'_k||_2 and commutator is
    ||[rho, rho']||_2, taken in the eigenbasis, where [rho, rho']_ij is
    (lambda_i - lambda_j) rho'_ij; they vanish together exactly when the
    family commutes at every parameter value.
    """

    offdiag_exchange: float
    compression: float
    adjoint_exchange: float
    weighted_prime_sum: float
    commutator: float

    def max_identity_residual(self) -> float:
        return max(self.offdiag_exchange, self.compression, self.adjoint_exchange)


def projection_audit(br: SpectralBranches) -> ProjectionAuditReport:
    """Evaluate the projection-derivative identities on dense cluster data.

    The K projections and their derivatives are stacks of shape (K, d, d);
    each cluster j meets all K clusters k in one broadcast product, so
    memory stays of the order of the stacks.
    """
    proj = projections(br)
    prime = projection_primes(br)
    rest = np.eye(br.dim) - proj

    def norms(a: np.ndarray) -> np.ndarray:
        # np.linalg.norm(a, axis=(-2, -1)) of these complex stacks, the
        # same sum, without its argument handling at every call
        return np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))

    off = max(
        float(norms(prime @ proj - rest @ prime).max()),
        float(norms(prime @ rest - proj @ prime).max()),
    )
    comp = 0.0
    adj = 0.0
    for j, (pj, dpj) in enumerate(zip(proj, prime)):
        # axis 0 of each product indexes k
        exchange = norms(dpj @ proj + pj @ prime)
        exchange[j] = 0.0  # only k != j
        off = max(off, float(exchange.max()))
        comp = max(comp, float(norms(proj @ dpj @ proj).max()))
        prod = dpj @ prime
        adj = max(adj, float(norms(prod @ pj - pj @ prod.conj().swapaxes(-1, -2)).max()))
    weighted = np.sum(br.cluster_values[:, None, None] * prime, axis=0)
    w = br.eigenvalues
    comm = (w[:, None] - w[None, :]) * br.rho_prime_eig
    return ProjectionAuditReport(
        offdiag_exchange=off,
        compression=comp,
        adjoint_exchange=adj,
        weighted_prime_sum=float(np.linalg.norm(weighted)),
        commutator=float(np.linalg.norm(comm)),
    )


def projection_curvature_residual(fam: StateFamily, theta: float) -> float:
    """Residual of the second-derivative identity
    P_j P''_k + P''_j P_k + 2 P'_j P'_k = delta_jk P''_j,
    with P'' from a Richardson-extrapolated symmetric second difference
    (step h = CURVATURE_STEP combined with step h/2, cancelling the h^2
    truncation term).

    Clusters are matched across the stencil by ascending order, so the
    family must keep a constant cluster count on [theta - h, theta + h],
    which must lie in the family's open domain.
    """
    h = CURVATURE_STEP
    theta = _check_theta(fam, theta, pad=h)
    brs = [
        branches_at(fam, t)
        for t in (theta - h, theta - h / 2, theta, theta + h / 2, theta + h)
    ]
    counts = {b.n_clusters for b in brs}
    if len(counts) != 1:
        raise DegenerateCrossing(
            "cluster count changes across the finite-difference stencil; choose another theta"
        )
    mid = brs[2]
    proj = projections(mid)
    prime = projection_primes(mid)

    def second_diff(lo: SpectralBranches, hi: SpectralBranches, step: float, k: int) -> np.ndarray:
        return (projection(hi, k) - 2.0 * projection(mid, k) + projection(lo, k)) / step**2

    second = [
        (4.0 * second_diff(brs[1], brs[3], h / 2, k) - second_diff(brs[0], brs[4], h, k)) / 3.0
        for k in range(mid.n_clusters)
    ]
    worst = 0.0
    for j in range(mid.n_clusters):
        for k in range(mid.n_clusters):
            lhs = proj[j] @ second[k] + second[j] @ proj[k] + 2.0 * prime[j] @ prime[k]
            rhs = second[j] if j == k else np.zeros_like(lhs)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


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
    value qfi_bvn(theta).  theta + max(RELENT_EPS) must lie in the family's
    open domain.
    """
    theta = _check_theta(fam, theta)
    lo, hi = fam.theta_domain
    if not theta + RELENT_EPS[0] < hi:
        raise DomainError(
            f"theta={theta!r} (stencil step {RELENT_EPS[0]:g}) outside open domain ({lo!r}, {hi!r})",
            value=theta,
        )
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
    with step default_step(theta), whose stencil must lie in the family's
    open domain.
    """
    h = default_step(_check_finite(theta))
    theta = _check_theta(fam, theta, pad=h)
    plus = ld_operator(branches_at(fam, theta + h), "bvn")
    minus = ld_operator(branches_at(fam, theta - h), "bvn")
    h_prime = (plus - minus) / (2.0 * h)
    br = branches_at(fam, theta)
    e_prime = trace_product(br.rho(), h_prime)
    return e_prime, -qfi_bvn(br)
