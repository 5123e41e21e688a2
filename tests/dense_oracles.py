"""Dense reference operators for the eigenbasis path: ld1 and ld2 from
their defining matrix equations, and the spectral matrix function that ld2
needs.  The library builds every operator as rho'_eig divided by a kernel
table; these build them without it, so the tests can compare the two.
The dense matrix exponential of a general square matrix (expm), against
which the coherent displacement's banded one is tested, and the dense
generator a+ - a of that displacement (coherent_generator), whose one band
the displaced thermal family keeps.

Also the lab-basis forms of what the library takes in the eigenbasis:
rho' rotated back (rho_prime), and the ordinary second moment Tr(rho H^2)
(qfi_variance) and the KMB residual (kmb_residual) of an assembled
operator.  Then the per-item oracles of
the stacked checks: the local Cramer-Rao terms of one observable at a
time, the projection audit as a loop over cluster pairs with each
projection derivative assembled block by block, and the report of one
unitary-path point with its KMB residual taken from the assembled
operator.  The random Hermitian draw through hermitize (random_hermitian),
whose bytes the library's in-place draw keeps.

And four references that only the tests use: the geometric family's
closed-form information with the check that all four models reach it on
the truncation, the displaced thermal family's closed-form information of
each model on its truncation, the information of n copies from the
explicit tensor product state, and the qubit family on a quadratic Bloch
curve with its closed-form information parts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ldqfi import audits
from ldqfi.audits import ProjectionAuditReport
from ldqfi.errors import DomainError, InvalidInput, TruncationError
from ldqfi.family import (
    DensityMatrix,
    SpectralBranches,
    StateFamily,
    branches_at,
)
from ldqfi.ldops import MODELS, kernel_entries, kernel_matrix, kernel_table, ld_operator
from ldqfi.linalg import (
    _PADE_13_B,
    _THETA_13,
    _as_square_matrix,
    _one_blas_thread,
    _positive_int,
    hermitize,
    require_hermitian,
    trace_norms,
    trace_product,
)
from ldqfi.qfi import QfiReport, classical_information, qfi_value
from ldqfi.zoo import geometric_family

# Explicit tensor construction of n-copy states is capped at this dimension.
NCOPY_DIM_CAP = 4096


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


# The degree-13 Pade coefficients as rows over the stacked even powers I,
# A^2, A^4, A^6, splitting each sum at A^6: U = A (A^6 row 0 + row 2) and
# V = A^6 row 1 + row 3.
_PADE_13 = np.array([
    (0.0,) + _PADE_13_B[9::2],
    (0.0,) + _PADE_13_B[8::2],
    _PADE_13_B[1:8:2],
    _PADE_13_B[0:8:2],
])


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a general square matrix by Pade scaling and
    squaring, with dense powers: the degree-13 approximant at every norm,
    above theta_13 of A scaled by 2^-s and squared s times (Higham 2005).
    The oracle of linalg.TridiagonalExponential, which forms the same
    approximant from a tridiagonal generator's band powers.  A matrix that
    is not square or has non-numeric or non-finite entries raises
    InvalidInput, one whose 1-norm overflows double precision DomainError.
    """
    a = _as_square_matrix(a)
    a = a.astype(np.result_type(a, float), copy=False)
    with np.errstate(over="ignore"):
        norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if norm == math.inf:
        raise DomainError("the 1-norm of the matrix overflows double precision", value=norm)
    # scale before forming any power, so a huge norm cannot overflow A^2
    s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    if s:
        a = a / 2.0**s
    a2 = a @ a
    powers = np.empty((4,) + a.shape, dtype=a.dtype)
    powers[0] = np.eye(len(a))
    powers[1] = a2
    for j in (2, 3):
        np.matmul(powers[j - 1], a2, out=powers[j])
    a6 = powers[3]
    n = len(a)
    odd_hi, v_hi, odd_lo, v_lo = (_PADE_13 @ powers.reshape(4, n * n)).reshape(4, n, n)
    u = a @ (a6 @ odd_hi + odd_lo)
    v = a6 @ v_hi + v_lo
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def coherent_generator(n: int) -> np.ndarray:
    """a+ - a on n number levels as a dense real antisymmetric matrix, with
    entries sqrt(k + 1) at (k + 1, k) and -sqrt(k + 1) at (k, k + 1)."""
    ad = np.diag(np.sqrt(np.arange(1.0, n)), -1)
    return ad - ad.T


def ld1(rho: DensityMatrix, rho_prime: np.ndarray) -> np.ndarray:
    """Symmetrized one-sided derivative, (rho^-1 rho' + rho' rho^-1)/2,
    in direct matrix form without spectral data."""
    rho_prime = require_hermitian(np.asarray(rho_prime), "rho_prime")
    x = np.linalg.solve(rho.matrix, rho_prime)
    return hermitize(x)


def ld2(rho: DensityMatrix, rho_prime: np.ndarray) -> np.ndarray:
    """Symmetric sandwich derivative, rho^-1/2 rho' rho^-1/2, in direct
    matrix form without spectral data."""
    rho_prime = require_hermitian(np.asarray(rho_prime), "rho_prime")
    inv_sqrt = matrix_function(rho.matrix, lambda w: w**-0.5)
    return hermitize(inv_sqrt @ rho_prime @ inv_sqrt)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0,
                     count: int | None = None) -> np.ndarray:
    """ldqfi.random_hermitian through hermitize: the complex stack filled
    from the real and imaginary draws, then (Z + Z^dagger)/2 with its
    conjugate copy, times scale.  Valid arguments only."""
    k = 1 if count is None else count
    z = rng.standard_normal((k, 2, dim, dim))
    x = np.empty((k, dim, dim), dtype=complex)
    x.real, x.imag = z[:, 0], z[:, 1]
    x = hermitize(x)
    x *= scale
    return x[0] if count is None else x


def rho_prime(br: SpectralBranches) -> np.ndarray:
    """rho' in the lab basis, V rho'_eig V^dagger."""
    return br.basis @ br.rho_prime_eig @ br.basis.conj().T


def qfi_variance(rho: DensityMatrix | np.ndarray, ld: np.ndarray) -> float:
    """Ordinary second moment Tr(rho H^2) of a Hermitian matrix H, as one
    dense product: the information value of the variance-based models for
    their ld_operator.

    Valid as an information value only when Tr(rho H) = 0, which holds for
    every LD operator of a normalized family; a grossly violated mean means
    the operator does not belong to the state and is rejected, as is a
    matrix that is not Hermitian.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    h = require_hermitian(ld, "observable")
    mean = trace_product(mat, h)
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    if abs(mean) > 1e-6 * scale:
        raise InvalidInput(f"Tr(rho H) = {mean:.3e} is not numerically zero")
    return trace_product(mat @ h, h)


def kmb_residual(br: SpectralBranches, ld: np.ndarray) -> float:
    """Trace-norm defect of a matrix H, such as ld_operator returns, as a
    solution of the KMB equation,
    || integral_0^1 rho^t H rho^(1-t) dt - rho' ||_1,
    taken of the defect's Hermitian part, which it is in exact arithmetic
    and whose trace norm never exceeds the defect's.

    Zero (to rounding) exactly for the bvn operator; for the other models a
    non-trivial residual measures how far their defining equation is from
    the KMB one on a non-commuting family.  An operator that is not a
    Hermitian matrix of the state's dimension raises InvalidInput.
    """
    h = require_hermitian(ld, "LD operator")
    if h.shape != (br.dim, br.dim):
        raise InvalidInput(f"LD operator of shape {h.shape} does not match dimension {br.dim}")
    h_eig = br.basis.conj().T @ h @ br.basis
    recon = h_eig * kernel_table(br, "bvn")
    return float(trace_norms(hermitize(recon - br.rho_prime_eig)[None])[0])


def cr_terms(br: SpectralBranches, obs: np.ndarray, model: str) -> tuple[float, float, float]:
    """(u, lhs, rhs) of the local Cramer-Rao bound for one observable,
    through trace_product and the KMB-weighted variance, with the
    information value, rho and rho' formed for this observable alone."""
    y = require_hermitian(np.asarray(obs), "observable")
    info = qfi_value(br, model)
    u = trace_product(rho_prime(br), y)
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
    proj = [audits.projection(br, k) for k in range(br.n_clusters)]
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
    rp = rho_prime(br)
    comm = rho @ rp - rp @ rho
    return ProjectionAuditReport(
        offdiag_exchange=off,
        compression=comp,
        adjoint_exchange=adj,
        weighted_prime_sum=float(np.linalg.norm(weighted)),
        commutator=float(np.linalg.norm(comm)),
    )


def hook_report(fam: StateFamily, theta: float) -> QfiReport:
    """A unitary-path point's report from that point alone: its branches, its
    values, Tr(rho H) against rho seen through its basis' Gram matrix,
    and the KMB residual of the assembled bvn operator H = V Y V^dagger
    round-tripped through V^dagger H V, on one BLAS thread as
    compute_report runs."""
    return _one_blas_thread(_hook_report, fam, theta)


def _hook_report(fam: StateFamily, theta: float) -> QfiReport:
    br = fam.unitary_path.branches(theta)
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


def geometric_information(theta: float) -> float:
    """Information of the untruncated geometric family, e^theta/(e^theta-1)^2,
    shared by all four models because the family commutes with its derivative."""
    if not (theta > 0.0 and math.isfinite(theta)):
        raise DomainError("theta must be positive", value=theta)
    return math.exp(theta) / math.expm1(theta) ** 2


def geometric_qfi(theta: float, trunc_dim: int | None = None) -> float:
    """Common information value of the truncated geometric family at theta.

    All four models are computed on the truncation and asserted to agree
    pairwise and with the closed form within 1e-8; a violation means the
    truncation is too coarse and raises TruncationError.
    """
    fam = geometric_family(theta, trunc_dim)
    br = branches_at(fam, theta)
    vals = [qfi_value(br, m) for m in MODELS]
    closed = geometric_information(theta)
    spread = max(vals) - min(vals)
    worst = max(abs(v - closed) for v in vals)
    if spread > 1e-8 or worst > 1e-8:
        raise TruncationError(
            f"model values spread {spread:.3e}, worst closed-form deviation {worst:.3e} "
            f"exceed 1e-8 at dimension {fam.dim}; enlarge trunc_dim"
        )
    return vals[0]


# The displaced thermal family's information of each model at mean
# occupation M, untruncated.
COHERENT_CLOSED_FORMS: dict[str, Callable[[float], float]] = {
    "sld": lambda m: 4.0 / (2.0 * m + 1.0),
    "bvn": lambda m: 2.0 * math.log1p(1.0 / m),
    "ld2": lambda m: (2.0 * m + 1.0) / (m * (m + 1.0)),
    "ld1": lambda m: (2.0 * m + 1.0) ** 3 / (4.0 * m**2 * (m + 1.0) ** 2),
}


def coherent_information(mean_occupation: float, model: str, eigenvalues: np.ndarray) -> float:
    """The model's information of the displaced thermal family truncated to
    the renormalized weights eigenvalues (lambda_0 .. lambda_(N-1), in
    level order): the closed form times 1 - N lambda_(N-1).  Every model's
    value is a fixed multiple of (1 - q) sum_n (n + 1) lambda_n over the
    bands n, n + 1 that the truncation keeps (n < N - 1), a sum that is 1
    untruncated and 1 - N lambda_(N-1) on N levels."""
    n = len(eigenvalues)
    return COHERENT_CLOSED_FORMS[model](mean_occupation) * (1.0 - n * float(eigenvalues[-1]))


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
        raise InvalidInput(
            f"n-copy dimension {br.dim**n} exceeds cap {NCOPY_DIM_CAP}; use the additivity formula"
        )
    rho = br.rho()
    h = ld_operator(br, model)
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


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True)
class BlochCurve:
    """The qubit family rho(theta) = (I + r(theta).sigma)/2 on the quadratic
    Bloch curve r(theta) = a + b theta + c theta^2, theta in (-1, 1), with
    rho' = r'(theta).sigma/2.  a, b and c are real 3-vectors."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def r(self, theta: float) -> np.ndarray:
        return self.a + self.b * theta + self.c * theta**2

    def r_prime(self, theta: float) -> np.ndarray:
        return self.b + 2.0 * self.c * theta

    def family(self) -> StateFamily:
        return StateFamily(
            dim=2,
            theta_domain=(-1.0, 1.0),
            rho_of=lambda theta: 0.5 * (np.eye(2) + np.tensordot(self.r(theta), PAULI, axes=1)),
            rho_prime_of=lambda theta: 0.5 * np.tensordot(self.r_prime(theta), PAULI, axes=1),
            name="bloch",
        )


@dataclass(frozen=True)
class BlochForms:
    """Closed-form information parts of a qubit point: i1 and each model's i2."""

    i1: float
    i2: dict[str, float]


def bloch_closed_forms(r: np.ndarray, r_prime: np.ndarray) -> BlochForms:
    """Information parts of (I + r.sigma)/2 moving with velocity r', for
    0 < |r| < 1.

    With n = r/|r| the eigenvalues (1 +- |r|)/2 move at +-(r'.n)/2, so
    i1 = (r'.n)^2 / (1 - |r|^2).  In the eigenbasis rho' couples the two
    levels by |r'_perp|/2, r'_perp = r' - (r'.n) n, so each second part
    is |r'_perp|^2 / (4 K^2) for the model's mean K of the eigenvalue pair,
    and |r'_perp|^2 / (2 K) for the logarithmic mean of bvn:

      sld  |r'_perp|^2                  ld2  |r'_perp|^2 / (1 - |r|^2)
      ld1  |r'_perp|^2 / (1 - |r|^2)^2  bvn  |r'_perp|^2 artanh(|r|) / |r|
    """
    norm = float(np.linalg.norm(r))
    if not 0.0 < norm < 1.0:
        raise DomainError("the Bloch vector must have a length in (0, 1)", value=norm)
    n = r / norm
    along = float(r_prime @ n)
    perp = float(np.sum((r_prime - along * n) ** 2))
    det = 1.0 - norm**2
    return BlochForms(
        i1=along**2 / det,
        i2={
            "bvn": perp * math.atanh(norm) / norm,
            "ld1": perp / det**2,
            "ld2": perp / det,
            "sld": perp,
        },
    )
