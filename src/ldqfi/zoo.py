"""Reference state families with closed-form information values.

Four families exercise the spectral pipeline from different angles: a
two-level family with a moving weight and a rotating eigenbasis, a
two-level family whose weight is frozen so only the basis moves, a
truncated geometric family that commutes with its derivative, and a
displaced thermal family on a truncated number basis whose eigenbasis
rotates rigidly.  A fifth, pathological two-level family has a smooth
spectrum but eigenprojections that oscillate without a limit at the
origin.

Each family carries the closed forms used to cross-check the generic
eigendecomposition route, plus the truncation bookkeeping (tail mass,
rank floor, displacement accuracy) that makes the finite-dimensional
surrogates trustworthy.  FAMILIES is the table of families a sweep can
name: their parameters, sweep coordinates and admissible intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import scipy.linalg
from scipy.special import gammaln

from .errors import DomainError, InvalidInput, SingularState, TruncationError
from .family import (
    RANK_TOL,
    CentralDifference,
    SpectralBranches,
    StateFamily,
    branches_at,
    nonsmooth_projection_state,
)
from .ldops import MODELS
from .qfi import qfi_bvn, qfi_value

# Geometric truncation: discarded tail target at the slow edge of the
# parameter window, clamped so the smallest kept eigenvalue clears the
# rank floor at the fast edge.
GEOMETRIC_TAIL = 1e-12
GEOMETRIC_HALF_WIDTH = 0.015

# Thermal truncation: tail target, clamped to keep the smallest retained
# eigenvalue at or above COHERENT_MIN_EIG; a caller-chosen dimension is
# accepted only while the tail stays below the hard cap.
COHERENT_TAIL_TARGET = 1e-10
COHERENT_TAIL_HARD = 1e-6
COHERENT_MIN_EIG = 1e-11

# Truncated displacements must match the closed-form matrix elements on
# the bulk to this accuracy.  The excluded top margin grows with
# theta sqrt(N), the distance the displacement propagates truncation
# corruption down from the edge.
DISPLACEMENT_TOL = 1e-8
BULK_MARGIN = 10


def _bulk_margin(theta: float, dim: int) -> int:
    return max(BULK_MARGIN, math.ceil(3.5 * abs(theta) * math.sqrt(dim)) + 8)


# ---------------------------------------------------------------------------
# two-level rotating families


def rotating_projection(theta: float) -> np.ndarray:
    """Rank-one projection onto (cos theta, sin theta)."""
    c = math.cos(theta)
    s = math.sin(theta)
    return np.array([[c * c, c * s], [c * s, s * s]])


def rotating_projection_prime(theta: float) -> np.ndarray:
    """Derivative of rotating_projection; squares to the identity."""
    c2 = math.cos(2.0 * theta)
    s2 = math.sin(2.0 * theta)
    return np.array([[-s2, c2], [c2, s2]])


@dataclass(frozen=True)
class TwoLevelFamily1:
    """rho = lambda(theta) P(theta) + (1-lambda(theta)) (I - P(theta)).

    Both the weight and the eigenbasis move; lambda_fn must map the domain
    into (0, 1) and lambda_prime_fn must be its derivative.
    """

    lambda_fn: Callable[[float], float]
    lambda_prime_fn: Callable[[float], float]
    theta_domain: tuple[float, float] = (-1.5, 1.5)

    def weight(self, theta: float) -> tuple[float, float]:
        return float(self.lambda_fn(theta)), float(self.lambda_prime_fn(theta))

    def family(self) -> StateFamily:
        def rho_of(theta: float) -> np.ndarray:
            lam = self.lambda_fn(theta)
            p = rotating_projection(theta)
            return lam * p + (1.0 - lam) * (np.eye(2) - p)

        def rho_prime_of(theta: float) -> np.ndarray:
            lam = self.lambda_fn(theta)
            dlam = self.lambda_prime_fn(theta)
            p = rotating_projection(theta)
            return dlam * (2.0 * p - np.eye(2)) + (2.0 * lam - 1.0) * rotating_projection_prime(theta)

        return StateFamily(
            dim=2,
            theta_domain=self.theta_domain,
            rho_of=rho_of,
            rho_prime_of=rho_prime_of,
            name="two_level_1",
        )


def tanh_weight(theta: float) -> float:
    return 0.5 * (1.0 + math.tanh(theta))


def tanh_weight_prime(theta: float) -> float:
    return 0.5 / math.cosh(theta) ** 2


def default_two_level_1(theta_domain: tuple[float, float] = (-1.5, 1.5)) -> TwoLevelFamily1:
    """The standard choice lambda = (1 + tanh theta)/2."""
    return TwoLevelFamily1(
        lambda_fn=tanh_weight,
        lambda_prime_fn=tanh_weight_prime,
        theta_domain=theta_domain,
    )


@dataclass(frozen=True)
class TwoLevelFamily2:
    """Frozen weight (1+r)/2 on the rotating projection: rho' = r P'(theta).

    r = 0 is the maximally mixed point (the family is then constant) and
    r -> 1 degenerates to a pure state, rejected as rank deficient.
    """

    r: float
    theta_domain: tuple[float, float] = (-1.5, 1.5)

    def __post_init__(self):
        if not (math.isfinite(self.r) and 0.0 <= self.r <= 1.0):
            raise InvalidInput(f"radius r={self.r!r} must lie in [0, 1]")
        if 1.0 - self.r <= 2.0 * RANK_TOL:
            raise SingularState(f"r={self.r!r} leaves no spectral gap above the rank floor")

    def weight(self, theta: float) -> tuple[float, float]:
        return 0.5 * (1.0 + self.r), 0.0

    def family(self) -> StateFamily:
        lam = 0.5 * (1.0 + self.r)

        def rho_of(theta: float) -> np.ndarray:
            p = rotating_projection(theta)
            return lam * p + (1.0 - lam) * (np.eye(2) - p)

        def rho_prime_of(theta: float) -> np.ndarray:
            return self.r * rotating_projection_prime(theta)

        return StateFamily(
            dim=2,
            theta_domain=self.theta_domain,
            rho_of=rho_of,
            rho_prime_of=rho_prime_of,
            name="two_level_2",
        )


@dataclass(frozen=True)
class TwoLevelForms:
    """Closed-form information parts of a two-level point with weight lam.

    i1 is the common classical part lam'^2/(lam(1-lam)).  The second parts
    come in three conventions:

      i2           the tabulated reference values.  For bvn and sld these
                   are ordinary second moments Tr(rho H2^2); for ld1 and
                   ld2 they are the unweighted moments Tr(H2^2), which at
                   dimension two equal exactly twice the weighted ones.
      i2_variance  Tr(rho H2^2) for every model, i.e. what qfi_split
                   reports for the variance-based models.
      i2_bvn_breve the KMB-weighted second part of the bvn model, the
                   piece that added to i1 gives qfi_bvn.
    """

    i1: float
    i2: dict[str, float]
    i2_variance: dict[str, float]
    i2_bvn_breve: float


def two_level_closed_forms(lam: float, lam_prime: float) -> TwoLevelForms:
    """All two-level closed forms at weight lam with derivative lam_prime.

    In the eigenbasis the derivative has diagonal (lam', -lam') and
    off-diagonal 2 lam - 1, so each second part is |2 lam - 1|^2 divided by
    the squared pair kernel and weighted by the trace convention above.
    """
    if not (0.0 < lam < 1.0):
        raise SingularState(f"weight {lam!r} leaves the open interval (0, 1)")
    g = 2.0 * lam - 1.0
    log_ratio = math.log(lam / (1.0 - lam))
    prod = lam * (1.0 - lam)
    i1 = lam_prime**2 / prod
    i2 = {
        "bvn": log_ratio**2,
        "ld1": g**2 / (2.0 * prod**2),
        "ld2": 2.0 * g**2 / prod,
        "sld": 4.0 * g**2,
    }
    i2_variance = {
        "bvn": log_ratio**2,
        "ld1": g**2 / (4.0 * prod**2),
        "ld2": g**2 / prod,
        "sld": 4.0 * g**2,
    }
    return TwoLevelForms(
        i1=i1,
        i2=i2,
        i2_variance=i2_variance,
        i2_bvn_breve=2.0 * g * log_ratio,
    )


def two_level_qfi_oracle(
    fam: TwoLevelFamily1 | TwoLevelFamily2, theta: float, model: str
) -> tuple[float, float]:
    """Reference (i1, i2) of a two-level family point, tabulated convention.

    See TwoLevelForms: for ld1 and ld2 the reference second part is the
    unweighted moment Tr(H2^2), twice the weighted Tr(rho H2^2) that the
    pipeline's qfi_split returns at dimension two.
    """
    if model not in MODELS:
        raise InvalidInput(f"unknown model {model!r}; expected one of {MODELS}")
    lam, lam_prime = fam.weight(theta)
    forms = two_level_closed_forms(lam, lam_prime)
    return forms.i1, forms.i2[model]


# ---------------------------------------------------------------------------
# truncated geometric family


def geometric_trunc_dim(theta_lo: float, theta_hi: float) -> int:
    """Truncation dimension for the geometric family on [theta_lo, theta_hi].

    Keeps the discarded tail e^{-N theta} below GEOMETRIC_TAIL at the
    slow edge when possible, clamped so the smallest retained eigenvalue
    stays a factor 1.5 above the rank floor at the fast edge.  Near the
    rank clamp the realized tail can exceed the target; renormalization
    over the kept levels keeps the family exactly normalized either way.
    """
    if not (0.0 < theta_lo <= theta_hi):
        raise DomainError("parameter window must be positive", value=theta_lo)
    n_tail = math.ceil(math.log(1.0 / GEOMETRIC_TAIL) / theta_lo)
    n_rank = math.floor(math.log(math.expm1(theta_hi) / (1.5 * RANK_TOL)) / theta_hi)
    return max(2, min(n_tail, n_rank))


def geometric_family(
    theta_center: float,
    trunc_dim: int | None = None,
    half_width: float = GEOMETRIC_HALF_WIDTH,
) -> StateFamily:
    """Truncated geometric family lambda_j(theta) ~ e^{-j theta}, j < N,
    renormalized over the kept levels, on (theta_center +- half_width).

    The family is diagonal for every theta, so it commutes with its
    derivative and all four models carry the same information.  The
    derivative is analytic:
      lambda'_j = lambda_j (1/(e^theta - 1) - j - N/(e^{N theta} - 1)).
    """
    if not (half_width > 0.0 and math.isfinite(half_width)):
        raise InvalidInput(f"half_width {half_width!r} must be positive")
    if not (math.isfinite(theta_center) and theta_center > half_width):
        raise DomainError(
            f"theta_center {theta_center!r} must exceed half_width {half_width:g} to keep the window positive",
            value=theta_center,
        )
    lo = theta_center - half_width
    hi = theta_center + half_width
    n = geometric_trunc_dim(lo, hi) if trunc_dim is None else int(trunc_dim)
    if n < 2:
        raise InvalidInput(f"trunc_dim {n} must be at least 2")
    lam_min_edge = math.exp(-(n - 1) * hi) * math.expm1(-hi) / math.expm1(-n * hi)
    if lam_min_edge <= RANK_TOL:
        raise SingularState(
            f"smallest eigenvalue {lam_min_edge:.3e} at the window edge sits at or below the "
            f"rank floor {RANK_TOL:g}; reduce trunc_dim or the window"
        )
    levels = np.arange(n)

    def eigenvalues(theta: float) -> np.ndarray:
        w = np.exp(-levels * theta)
        return w * (-math.expm1(-theta) / -math.expm1(-n * theta))

    def rho_of(theta: float) -> np.ndarray:
        return np.diag(eigenvalues(theta))

    def rho_prime_of(theta: float) -> np.ndarray:
        shift = 1.0 / math.expm1(theta) - n / math.expm1(n * theta)
        return np.diag(eigenvalues(theta) * (shift - levels))

    return StateFamily(
        dim=n,
        theta_domain=(lo, hi),
        rho_of=rho_of,
        rho_prime_of=rho_prime_of,
        name="geometric",
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


# ---------------------------------------------------------------------------
# displaced thermal family on a truncated number basis


def coherent_trunc_dim(mean_occupation: float) -> int:
    """Truncation dimension for a thermal state of the given mean occupation.

    Smallest N with tail q^N <= COHERENT_TAIL_TARGET (q = M/(M+1)), clamped
    so the smallest retained eigenvalue (1-q) q^{N-1} stays at or above
    COHERENT_MIN_EIG.  On the clamped branch the tail exceeds the target;
    the constructor still enforces the hard cap.
    """
    if not (mean_occupation > 0.0 and math.isfinite(mean_occupation)):
        raise InvalidInput(f"mean occupation {mean_occupation!r} must be positive")
    log_inv_q = math.log1p(1.0 / mean_occupation)
    n_tail = math.ceil(math.log(1.0 / COHERENT_TAIL_TARGET) / log_inv_q)
    frac = 1.0 / (mean_occupation + 1.0)
    n_rank = math.floor(math.log(frac / COHERENT_MIN_EIG) / log_inv_q) + 1
    return max(2, min(n_tail, n_rank))


def displacement_closed_form(theta: float, dim: int) -> np.ndarray:
    """Matrix elements <m| e^{theta (a+ - a)} |n> of the untruncated
    displacement with real amplitude theta, on the first dim levels.

    Below the diagonal, with m = n + d, the element is
    e_n(d) = e^{-x/2} theta^d sqrt(n!/(n+d)!) L_n^(d)(x), x = theta^2; above
    it the transpose picks up (-1)^d.  The Laguerre three-term recurrence in
    n, rescaled by sqrt(n!/(n+d)!), gives
      e_{n+1} = ((2n+1+d-x) e_n - sqrt(n (n+d)) e_{n-1}) / sqrt((n+1)(n+1+d))
    starting from e_0(d) = e^{-x/2} theta^d / sqrt(d!).  Every term stays
    bounded, so large dimensions cannot form the 0 * inf of a separately
    evaluated factorial ratio and Laguerre value; a starting value that
    underflows only loses elements far below double precision.
    """
    if dim < 1:
        raise InvalidInput("dim must be positive")
    if theta == 0.0:
        return np.eye(dim)
    x = theta * theta
    d = np.arange(dim, dtype=float)
    odd = d % 2 == 1
    parity = np.where(odd, -1.0, 1.0)
    cur = np.exp(d * math.log(abs(theta)) - 0.5 * x - 0.5 * gammaln(d + 1.0))
    cur[odd] *= math.copysign(1.0, theta)
    prev = np.zeros(dim)
    out = np.empty((dim, dim))
    for n in range(dim):
        k = dim - n
        out[n:, n] = cur[:k]
        out[n, n:] = parity[:k] * cur[:k]
        dd = d[: k - 1]
        nxt = (2 * n + 1 + dd - x) * cur[: k - 1] - math.sqrt(n) * np.sqrt(n + dd) * prev[: k - 1]
        prev, cur = cur, nxt / np.sqrt((n + 1) * (n + 1 + dd))
    return out


@dataclass(frozen=True)
class CoherentFamily:
    """Thermal state of a given mean occupation, displaced along a
    real-amplitude path, truncated to trunc_dim number levels and
    renormalized over the kept levels.

    Use coherent_family to construct one with the tail and rank guards
    applied.
    """

    mean_occupation: float
    trunc_dim: int
    theta_domain: tuple[float, float] = (-0.3, 0.3)

    @property
    def q(self) -> float:
        return self.mean_occupation / (self.mean_occupation + 1.0)

    def eigenvalues(self) -> np.ndarray:
        """Thermal weights (1-q) q^k, renormalized, in level order."""
        w = (1.0 - self.q) * self.q ** np.arange(self.trunc_dim)
        return w / w.sum()

    def rho0(self) -> np.ndarray:
        return np.diag(self.eigenvalues())

    def generator(self) -> np.ndarray:
        """a+ - a on the truncation, real antisymmetric."""
        off = np.sqrt(np.arange(1.0, self.trunc_dim))
        ad = np.diag(off, -1)
        return ad - ad.T

    def checked_displacement(self, theta: float) -> np.ndarray:
        """e^{theta (a+ - a)} of the truncated generator, validated on the
        bulk against the closed-form matrix elements and for unitarity.

        Truncation corrupts the top levels over a depth growing with
        theta sqrt(N); the check excludes that margin and demands the rest
        match within DISPLACEMENT_TOL, else the truncation is unusable at
        this amplitude and TruncationError is raised.
        """
        n = self.trunc_dim
        if theta == 0.0:
            return np.eye(n)
        bulk = n - _bulk_margin(theta, n)
        if bulk < 2:
            raise TruncationError(
                f"dimension {n} leaves no bulk to validate at amplitude {theta!r}; enlarge trunc_dim"
            )
        w = scipy.linalg.expm(theta * self.generator())
        exact = displacement_closed_form(theta, bulk)
        dev = float(np.abs(w[:bulk, :bulk] - exact).max())
        gram = w.T @ w - np.eye(n)
        unit = float(np.linalg.norm(gram[:bulk, :bulk], 2))
        # Negated test: a non-finite closed-form entry makes dev NaN, which
        # must fail the check rather than pass it.
        if not (dev <= DISPLACEMENT_TOL and unit <= DISPLACEMENT_TOL):
            raise TruncationError(
                f"bulk displacement deviates from the closed form by {dev:.3e} "
                f"(bulk unitarity defect {unit:.3e}) at dimension {n}; enlarge trunc_dim"
            )
        return w

    def family(self) -> StateFamily:
        rho0 = self.rho0()
        gen = self.generator()
        memo: dict[float, np.ndarray] = {}

        def disp(theta: float) -> np.ndarray:
            w = memo.get(theta)
            if w is None:
                if len(memo) > 64:
                    memo.clear()
                w = memo.setdefault(theta, self.checked_displacement(theta))
            return w

        def rho_of(theta: float) -> np.ndarray:
            w = disp(theta)
            return w @ rho0 @ w.T

        def rho_prime_of(theta: float) -> np.ndarray:
            rho = rho_of(theta)
            return gen @ rho - rho @ gen

        return StateFamily(
            dim=self.trunc_dim,
            theta_domain=self.theta_domain,
            rho_of=rho_of,
            rho_prime_of=rho_prime_of,
            name="coherent",
        )


def coherent_family(
    mean_occupation: float,
    trunc_dim: int | None = None,
    theta_domain: tuple[float, float] = (-0.3, 0.3),
) -> CoherentFamily:
    """Construct a displaced thermal family with truncation guards.

    A caller-chosen trunc_dim is accepted only while the discarded tail
    q^N stays at or below 1e-6 (TruncationError otherwise) and the
    smallest kept eigenvalue clears the rank floor (SingularState).
    """
    if not (mean_occupation > 0.0 and math.isfinite(mean_occupation)):
        raise InvalidInput(f"mean occupation {mean_occupation!r} must be positive")
    n = coherent_trunc_dim(mean_occupation) if trunc_dim is None else int(trunc_dim)
    if n < 2:
        raise InvalidInput(f"trunc_dim {n} must be at least 2")
    q = mean_occupation / (mean_occupation + 1.0)
    tail = q**n
    if tail > COHERENT_TAIL_HARD:
        raise TruncationError(
            f"thermal tail {tail:.3e} above {COHERENT_TAIL_HARD:g} at dimension {n}; enlarge trunc_dim"
        )
    lam_min = (1.0 - q) * q ** (n - 1)
    if lam_min <= RANK_TOL:
        raise SingularState(
            f"smallest retained eigenvalue {lam_min:.3e} at or below the rank floor; reduce trunc_dim"
        )
    return CoherentFamily(
        mean_occupation=float(mean_occupation),
        trunc_dim=n,
        theta_domain=theta_domain,
    )


def coherent_branches(fam: CoherentFamily, theta: float = 0.0) -> SpectralBranches:
    """Spectral branches of the displaced thermal family in closed form.

    The displacement commutes with its own generator, so the eigenbasis at
    any theta is the displaced number basis, every eigenvalue is constant
    in theta, and rho' expressed in the moving basis is the fixed
    commutator [a+ - a, rho_0].  Branch data therefore needs no
    eigensolve: the basis columns are the displacement columns in
    ascending-eigenvalue (reversed level) order.
    """
    n = fam.trunc_dim
    lam = fam.eigenvalues()
    gen = fam.generator()
    rho0 = np.diag(lam)
    comm = gen @ rho0 - rho0 @ gen
    w = fam.checked_displacement(theta)
    return SpectralBranches(
        basis=w[:, ::-1],
        eigenvalues=lam[::-1].copy(),
        rho_prime_eig=comm[::-1, ::-1].copy(),
        cluster_slices=[slice(k, k + 1) for k in range(n)],
        cluster_values=lam[::-1].copy(),
        cluster_value_primes=np.zeros(n),
    )


def coherent_projection_prime(n: int, trunc_dim: int) -> np.ndarray:
    """Derivative at theta = 0 of the displaced number projection |n><n|:
    sqrt(n+1)(|n+1><n| + |n><n+1|) - sqrt(n)(|n><n-1| + |n-1><n|)."""
    if n < 0:
        raise InvalidInput(f"level {n} must be non-negative")
    if n + 1 >= trunc_dim:
        raise TruncationError(
            f"projection derivative of level {n} needs dimension at least {n + 2}, got {trunc_dim}"
        )
    out = np.zeros((trunc_dim, trunc_dim))
    up = math.sqrt(n + 1.0)
    out[n + 1, n] = out[n, n + 1] = up
    if n > 0:
        down = math.sqrt(float(n))
        out[n, n - 1] = out[n - 1, n] = -down
    return out


@dataclass(frozen=True)
class TraceRow:
    """One quartic projection trace with its exact integer value."""

    label: str
    value: float
    expected: int


def coherent_trace_table(k: int, trunc_dim: int) -> tuple[TraceRow, ...]:
    """The eight quartic traces in the number projections P_j and their
    derivatives P'_j at theta = 0 that assemble the pair sums of the
    displaced thermal family.  Every value is an exact integer; levels
    below zero contribute the zero operator.
    """
    if k < 0:
        raise InvalidInput(f"level {k} must be non-negative")
    if trunc_dim < k + 3:
        raise TruncationError(
            f"trace table at level {k} needs dimension at least {k + 3}, got {trunc_dim}"
        )

    def proj(j: int) -> np.ndarray:
        out = np.zeros((trunc_dim, trunc_dim))
        if j >= 0:
            out[j, j] = 1.0
        return out

    def dproj(j: int) -> np.ndarray:
        if j < 0:
            return np.zeros((trunc_dim, trunc_dim))
        return coherent_projection_prime(j, trunc_dim)

    pk, pu, pd = proj(k), proj(k + 1), proj(k - 1)
    dk, du, dd = dproj(k), dproj(k + 1), dproj(k - 1)

    def tr(*mats: np.ndarray) -> float:
        prod = mats[0]
        for m in mats[1:]:
            prod = prod @ m
        return float(np.trace(prod))

    rows = (
        TraceRow("Tr(P_k P'_k P_k+1 P'_k)", tr(pk, dk, pu, dk), k + 1),
        TraceRow("Tr(P_k P'_k+1 P_k+1 P'_k)", tr(pk, du, pu, dk), -(k + 1)),
        TraceRow("Tr(P_k P'_k P_k-1 P'_k)", tr(pk, dk, pd, dk), k),
        TraceRow("Tr(P_k P'_k-1 P_k-1 P'_k)", tr(pk, dd, pd, dk), -k),
        TraceRow("Tr(P_k P'_k+1 P_k+1 P'_k+1)", tr(pk, du, pu, du), k + 1),
        TraceRow("Tr(P_k P'_k P_k+1 P'_k+1)", tr(pk, dk, pu, du), -(k + 1)),
        TraceRow("Tr(P_k P'_k-1 P_k-1 P'_k-1)", tr(pk, dd, pd, dd), k),
        TraceRow("Tr(P_k P'_k P_k-1 P'_k-1)", tr(pk, dk, pd, dd), -k),
    )
    return rows


def coherent_qfi_bvn(
    mean_occupation: float,
    trunc_dim: int | None = None,
    theta: float = 0.0,
    check_traces: bool = True,
) -> float:
    """KMB information of the displaced thermal family, closed form
     2 ln(1 + 1/M).

    The pair sums telescope: each neighbouring-level pair contributes
    2 ln(1/q) (n+1)(lambda_n - lambda_n+1), summing to 2 ln(1/q) times
    (1 - N lambda_N-1) on the truncation.  The computed value is asserted
    against the closed form within 1e-6; with check_traces the integer
    trace identities are verified on the lowest levels first.
    """
    fam = coherent_family(mean_occupation, trunc_dim)
    if check_traces:
        for k in range(0, min(4, fam.trunc_dim - 2)):
            for row in coherent_trace_table(k, fam.trunc_dim):
                if abs(row.value - row.expected) > 1e-9 * max(1.0, abs(row.expected)):
                    raise TruncationError(
                        f"trace identity {row.label} = {row.value!r} misses integer {row.expected}"
                    )
    value = qfi_bvn(coherent_branches(fam, theta))
    closed = 2.0 * math.log1p(1.0 / mean_occupation)
    if abs(value - closed) > 1e-6 * (1.0 + abs(value)):
        raise TruncationError(
            f"information {value!r} deviates from the closed form {closed!r} beyond 1e-6; "
            f"enlarge trunc_dim"
        )
    return value


@dataclass(frozen=True)
class Ld2Verdict:
    """Numerical ld2 information of the displaced thermal family at
    theta = 0 against two closed-form candidates."""

    numeric: float
    formula_a: float
    formula_b: float
    matches: str  # "A", "B" or "neither", within 1e-6


def coherent_qfi_ld2(mean_occupation: float, trunc_dim: int | None = None) -> Ld2Verdict:
    """Tr(rho H^2) for the ld2 model of the displaced thermal family,
    compared against the two candidate closed forms

      A = (2 + 2M(1+M)(3+M)) / (1+M)^4
      B = (2 + M(2+M)(3+2M)) / (1+M)^4

    and labelled with whichever one matches within 1e-6, or "neither".
    """
    m = float(mean_occupation)
    fam = coherent_family(m, trunc_dim)
    numeric = qfi_value(coherent_branches(fam, 0.0), "ld2")
    formula_a = (2.0 + 2.0 * m * (1.0 + m) * (3.0 + m)) / (1.0 + m) ** 4
    formula_b = (2.0 + m * (2.0 + m) * (3.0 + 2.0 * m)) / (1.0 + m) ** 4
    tol = 1e-6 * (1.0 + abs(numeric))
    hits_a = abs(numeric - formula_a) <= tol
    hits_b = abs(numeric - formula_b) <= tol
    if hits_a and not hits_b:
        matches = "A"
    elif hits_b and not hits_a:
        matches = "B"
    else:
        matches = "neither"
    return Ld2Verdict(numeric=numeric, formula_a=formula_a, formula_b=formula_b, matches=matches)


# ---------------------------------------------------------------------------
# projection-oscillation counterexample


def counterexample_family(step: float | None = None, richardson: bool = False) -> StateFamily:
    """Two-level family with smooth eigenvalues but eigenprojections that
    oscillate without a limit at theta = 0.

    No analytic branch data exists at the origin, so derivatives fall back
    to symmetric differences of the state itself.
    """
    def rho_of(theta: float) -> np.ndarray:
        return nonsmooth_projection_state(theta).rho.matrix

    return StateFamily(
        dim=2,
        theta_domain=(-1.0, 1.0),
        rho_of=rho_of,
        derivative_mode=CentralDifference(step=step, richardson=richardson),
        name="counterexample31",
    )


# ---------------------------------------------------------------------------
# family table for sweeps and verification


@dataclass(frozen=True)
class Interval:
    """Admissible values of a family parameter or sweep coordinate: finite
    numbers above lo (or equal to it when closed_lo) and below hi,
    optionally only integers."""

    lo: float
    hi: float
    closed_lo: bool = False
    integer: bool = False

    def __str__(self) -> str:
        return f"{'[' if self.closed_lo else '('}{self.lo:g}, {self.hi:g})"

    def check(self, label: str, value: float) -> None:
        """Raise InvalidInput unless value is admissible; NaN and infinities never are."""
        inside = (
            math.isfinite(value)
            and (self.lo <= value if self.closed_lo else self.lo < value)
            and value < self.hi
            and not (self.integer and value != int(value))
        )
        if not inside:
            kind = "integers" if self.integer else "interval"
            raise InvalidInput(f"{label} {value!r} outside the admissible {kind} {self}")


@dataclass(frozen=True)
class FamilySpec:
    """One named family of the sweep table.

    params are the fixed parameters a configuration may set and coords the
    coordinates a grid may run over, the default first, each with its
    admissible interval.  build receives the fixed parameters with the
    swept coordinate set to the grid value and returns the family instance
    and its evaluation point.  analytic tells whether the family supplies
    its derivative in closed form.
    """

    params: Mapping[str, Interval]
    coords: Mapping[str, Interval]
    build: Callable[[Mapping[str, float]], tuple[StateFamily, float]]
    analytic: bool = True


_TWO_LEVEL_THETA = Interval(-1.5, 1.5)
_RADIUS = Interval(0.0, 1.0, closed_lo=True)
_TRUNC_DIM = Interval(2.0, math.inf, closed_lo=True, integer=True)

# Admissible finite-difference steps, for counterexample31's step and a
# sweep's central-difference step alike.
STEP_DOMAIN = Interval(0.0, math.inf)

FAMILIES: Mapping[str, FamilySpec] = {
    "two_level_1": FamilySpec(
        params={},
        coords={"theta": _TWO_LEVEL_THETA},
        build=lambda v: (default_two_level_1().family(), v["theta"]),
    ),
    # Sweeps the radius r at theta = 0.4 by default, or theta at r = 0.5.
    "two_level_2": FamilySpec(
        params={"r": _RADIUS, "theta": _TWO_LEVEL_THETA},
        coords={"r": _RADIUS, "theta": _TWO_LEVEL_THETA},
        build=lambda v: (TwoLevelFamily2(r=v.get("r", 0.5)).family(), v.get("theta", 0.4)),
    ),
    "geometric": FamilySpec(
        params={"trunc_dim": _TRUNC_DIM},
        coords={"theta": Interval(GEOMETRIC_HALF_WIDTH, math.inf)},
        build=lambda v: (geometric_family(v["theta"], v.get("trunc_dim")), v["theta"]),
    ),
    "coherent": FamilySpec(
        params={"M": Interval(0.0, math.inf), "trunc_dim": _TRUNC_DIM},
        coords={"theta": Interval(-0.3, 0.3)},
        build=lambda v: (coherent_family(v.get("M", 1.0), v.get("trunc_dim")).family(), v["theta"]),
    ),
    "counterexample31": FamilySpec(
        params={"step": STEP_DOMAIN},
        coords={"theta": Interval(-1.0, 1.0)},
        build=lambda v: (counterexample_family(step=v.get("step")), v["theta"]),
        analytic=False,
    ),
}


def grid_domain(
    name: str, params: Mapping[str, float], sweep_param: str | None = None
) -> tuple[str, Interval]:
    """Check a family configuration against FAMILIES and return the sweep
    coordinate (the family's default when sweep_param is None) with its
    admissible interval.

    Unknown names, parameter keys and coordinates, fixed parameter values
    outside their intervals, and a coordinate that is also fixed, are
    rejected as InvalidInput.
    """
    spec = FAMILIES.get(name)
    if spec is None:
        raise InvalidInput(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}")
    unknown = set(params) - set(spec.params)
    if unknown:
        raise InvalidInput(f"family {name!r} does not take parameters {sorted(unknown)}")
    for key, value in params.items():
        spec.params[key].check(f"parameter {key}", value)
    if sweep_param is None:
        sweep_param = next(iter(spec.coords))
    if sweep_param not in spec.coords:
        raise InvalidInput(f"family {name!r} cannot sweep over {sweep_param!r}")
    if sweep_param in params:
        raise InvalidInput(f"parameter {sweep_param!r} is both fixed and swept")
    return sweep_param, spec.coords[sweep_param]


def sweep_family(
    name: str,
    params: Mapping[str, float],
    sweep_param: str,
    grid_value: float,
) -> tuple[StateFamily, float]:
    """Family instance and evaluation point for one grid value.

    The configuration is checked by grid_domain; the grid value is checked
    by the family itself when it is built or evaluated.
    """
    grid_domain(name, params, sweep_param)
    return FAMILIES[name].build({**params, sweep_param: grid_value})


def verification_tasks() -> list[tuple[str, StateFamily, float, bool]]:
    """(label, family, theta, analytic) points covering every reference
    family on its natural grid, for the residual audits."""
    out: list[tuple[str, StateFamily, float, bool]] = []
    f1 = default_two_level_1().family()
    for th in np.linspace(-1.0, 1.0, 50):
        out.append((f1.name, f1, float(th), True))
    f2 = TwoLevelFamily2(r=0.5).family()
    for th in np.linspace(-0.8, 0.8, 21):
        out.append((f2.name, f2, float(th), True))
    for r in (0.1, 0.3, 0.7, 0.9):
        out.append((f2.name, TwoLevelFamily2(r=r).family(), 0.4, True))
    for tc in (0.5, math.log(2.0), 0.9):
        fg = geometric_family(tc)
        out.append((fg.name, fg, tc, True))
    cf = coherent_family(1.0).family()
    for th in (0.0, 0.1, 0.2):
        out.append((cf.name, cf, th, True))
    ce = counterexample_family()
    for th in (0.4, 0.7):
        out.append((ce.name, ce, th, False))
    return out
