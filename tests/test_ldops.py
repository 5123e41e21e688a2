"""The four logarithmic-derivative operators, each validated against an
independent second route:

- logarithmic-mean model: resolvent integral d(log rho)[rho'] =
  int_0^inf (rho+s)^-1 rho' (rho+s)^-1 ds, plus the defining forward
  integral int_0^1 rho^t H rho^(1-t) dt = rho';
- arithmetic-mean model: semigroup integral 2 int_0^inf e^(-t rho) rho'
  e^(-t rho) dt solving the Jordan equation;
- harmonic-mean model: direct formula (rho^-1 rho' + rho' rho^-1)/2;
- geometric-mean model: sandwich rho^(-1/2) rho' rho^(-1/2).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import fractional_matrix_power, sqrtm

from dense_oracles import ld1, ld2
from ldqfi import (
    MODELS,
    branches_at,
    kernel_matrix,
    kmb_residual,
    ld_operator,
    random_analytic_family,
    trace_product,
)
from ldqfi.errors import DomainError, InvalidInput


# ---------------------------------------------------------------------------
# independent oracle routes


def oracle_bvn(rho: np.ndarray, rho_prime: np.ndarray) -> np.ndarray:
    dim = rho.shape[0]

    def integrand(t: float) -> np.ndarray:
        s = t / (1.0 - t)
        r = np.linalg.inv(rho + s * np.eye(dim))
        return (r @ rho_prime @ r) / (1.0 - t) ** 2

    val, _ = quad_vec(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return val


def oracle_sld(rho: np.ndarray, rho_prime: np.ndarray) -> np.ndarray:
    from scipy.linalg import expm

    def integrand(t: float) -> np.ndarray:
        e = expm(-t * rho)
        return 2.0 * e @ rho_prime @ e

    # exponential decay: integrate far past the smallest eigenvalue scale
    val, _ = quad_vec(integrand, 0.0, 2000.0, epsabs=1e-12, epsrel=1e-12)
    return val


def oracle_ld1(rho: np.ndarray, rho_prime: np.ndarray) -> np.ndarray:
    inv = np.linalg.inv(rho)
    return 0.5 * (inv @ rho_prime + rho_prime @ inv)


def oracle_ld2(rho: np.ndarray, rho_prime: np.ndarray) -> np.ndarray:
    root_inv = np.linalg.inv(sqrtm(rho))
    return root_inv @ rho_prime @ root_inv


def kmb_forward(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    def integrand(t: float) -> np.ndarray:
        return fractional_matrix_power(rho, t) @ h @ fractional_matrix_power(rho, 1.0 - t)

    val, _ = quad_vec(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    return val


ORACLES = {"bvn": oracle_bvn, "ld1": oracle_ld1, "ld2": oracle_ld2, "sld": oracle_sld}


# ---------------------------------------------------------------------------
# kernel facts


def test_kernel_ordering() -> None:
    w = np.array([0.5, 0.3, 0.15, 0.05])
    hm = kernel_matrix(w, "ld1")
    gm = kernel_matrix(w, "ld2")
    lm = kernel_matrix(w, "bvn")
    am = kernel_matrix(w, "sld")
    assert np.all(hm <= gm + 1e-15)
    assert np.all(gm <= lm + 1e-15)
    assert np.all(lm <= am + 1e-15)
    # strict off the diagonal
    off = ~np.eye(4, dtype=bool)
    assert np.all(hm[off] < gm[off])
    assert np.all(gm[off] < lm[off])
    assert np.all(lm[off] < am[off])


def test_kernel_values() -> None:
    w = np.array([0.8, 0.2])
    assert kernel_matrix(w, "ld1")[0, 1] == pytest.approx(2 * 0.8 * 0.2 / 1.0, rel=1e-14)
    assert kernel_matrix(w, "ld2")[0, 1] == pytest.approx(np.sqrt(0.16), rel=1e-14)
    assert kernel_matrix(w, "sld")[0, 1] == pytest.approx(0.5, rel=1e-14)
    assert kernel_matrix(w, "bvn")[0, 1] == pytest.approx(0.6 / np.log(4.0), rel=1e-14)


def test_kernel_rejects_unknown_model() -> None:
    with pytest.raises(InvalidInput):
        kernel_matrix(np.array([0.5, 0.5]), "xxx")


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("bad", [-0.1, 0.0, np.nan, np.inf])
def test_kernel_rejects_spectrum_outside_domain(model: str, bad: float) -> None:
    with pytest.raises(DomainError) as err:
        kernel_matrix(np.array([0.5, bad]), model)
    assert err.value.value == bad or (math.isnan(bad) and math.isnan(err.value.value))


def test_kernel_rejects_non_vector_spectrum() -> None:
    with pytest.raises(InvalidInput):
        kernel_matrix(np.eye(2), "ld2")


# ---------------------------------------------------------------------------
# operators against the oracles


@pytest.mark.parametrize("model", MODELS)
def test_operator_matches_independent_route(model: str, random_branches) -> None:
    br = random_branches
    op = ld_operator(br, model)
    ref = ORACLES[model](br.rho(), br.rho_prime())
    scale = max(1.0, float(np.linalg.norm(ref)))
    assert np.linalg.norm(op.matrix - ref) <= 1e-8 * scale


def test_bvn_solves_forward_integral(random_branches) -> None:
    br = random_branches
    op = ld_operator(br, "bvn")
    back = kmb_forward(br.rho(), op.matrix)
    assert np.linalg.norm(back - br.rho_prime()) <= 1e-9


@pytest.mark.parametrize("model", MODELS)
def test_operator_is_hermitian_and_centered(model: str, random_branches) -> None:
    br = random_branches
    op = ld_operator(br, model)
    assert np.linalg.norm(op.matrix - op.matrix.conj().T) <= 1e-12
    assert abs(trace_product(br.rho(), op.matrix)) <= 1e-12


def test_sld_jordan_equation(random_branches) -> None:
    br = random_branches
    op = ld_operator(br, "sld")
    rho = br.rho()
    jordan = 0.5 * (rho @ op.matrix + op.matrix @ rho)
    assert np.linalg.norm(jordan - br.rho_prime()) <= 1e-11


def test_ld1_direct_solver_matches_eigen_route(random_branches) -> None:
    from ldqfi import DensityMatrix

    br = random_branches
    via_eig = ld_operator(br, "ld1").matrix
    via_solve = ld1(DensityMatrix(br.rho()), br.rho_prime()).matrix
    assert np.linalg.norm(via_eig - via_solve) <= 1e-10


def test_ld2_direct_solver_matches_eigen_route(random_branches) -> None:
    from ldqfi import DensityMatrix

    br = random_branches
    via_eig = ld_operator(br, "ld2").matrix
    via_sandwich = ld2(DensityMatrix(br.rho()), br.rho_prime()).matrix
    assert np.linalg.norm(via_eig - via_sandwich) <= 1e-10


def test_kmb_residual_small_for_bvn_only(random_branches) -> None:
    br = random_branches
    assert kmb_residual(br, ld_operator(br, "bvn")) <= 1e-12
    # the other kernels do not satisfy the logarithmic-mean equation on a
    # non-commuting state
    for model in ("ld1", "ld2", "sld"):
        assert kmb_residual(br, ld_operator(br, model)) > 1e-6


def test_split_reassembles_operator(random_branches) -> None:
    br = random_branches
    for model in MODELS:
        op = ld_operator(br, model, split=True)
        assert op.h1 is not None and op.h2 is not None
        assert np.linalg.norm(op.h1 + op.h2 - op.matrix) <= 1e-10
        # h1 is diagonal in the eigenbasis: it commutes with rho
        rho = br.rho()
        assert np.linalg.norm(rho @ op.h1 - op.h1 @ rho) <= 1e-12


def test_split_h2_has_zero_diagonal_blocks(random_branches) -> None:
    br = random_branches
    v = br.basis
    for model in MODELS:
        op = ld_operator(br, model, split=True)
        h2_eig = v.conj().T @ op.h2 @ v
        for k in range(br.n_clusters):
            s = br.cluster_slices[k]
            assert np.linalg.norm(h2_eig[s, s]) <= 1e-10


def test_commuting_family_collapses_all_models(rng) -> None:
    fam = random_analytic_family(4, rng, commuting=True)
    br = branches_at(fam, 0.25)
    mats = [ld_operator(br, m).matrix for m in MODELS]
    for a in mats:
        for b in mats:
            assert np.linalg.norm(a - b) <= 1e-9


def test_operators_on_degenerate_cluster(rng) -> None:
    # a true multiplicity-2 eigenvalue: kernels act blockwise; the operator
    # must still be hermitian, centered, and reproduce rho' through its own
    # kernel equation
    rho = np.diag([0.35, 0.35, 0.3]).astype(complex)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = h[2, 0] = 0.04
    h[1, 2] = h[2, 1] = 0.02j * 1j  # real entry, keeps hermiticity
    h = 0.5 * (h + h.conj().T)
    from ldqfi import spectral_branches

    br = spectral_branches(rho, h)
    assert br.n_clusters == 2
    for model in MODELS:
        op = ld_operator(br, model)
        assert np.linalg.norm(op.matrix - op.matrix.conj().T) <= 1e-12
        assert abs(trace_product(br.rho(), op.matrix)) <= 1e-12
    assert kmb_residual(br, ld_operator(br, "bvn")) <= 1e-12
