"""Reference state families and the table of families a sweep can name.

Four families exercise the spectral pipeline from different angles: a
two-level family with a moving weight and a rotating eigenbasis, a
two-level family whose weight is frozen so only the basis moves, a
truncated geometric family that commutes with its derivative, and a
displaced thermal family on a truncated number basis whose eigenbasis
rotates rigidly.  A fifth, pathological two-level family has a smooth
spectrum but eigenprojections that oscillate without a limit at the
origin (nonsmooth_projection_state gives them), and random_analytic_family
draws seeded Gibbs families exp(G0 + theta G1)/trace for the suites and tests.

Each family carries the truncation bookkeeping (tail mass, rank floor,
displacement accuracy) that makes the finite-dimensional surrogates
trustworthy; the displaced thermal family is also a unitary path
(CoherentFamily.path, whose branches(theta) are its spectral branches in
closed form) and carries the closed-form displacement its exponential is
checked against (displacement_closed_form, of which the points of one
bases_of grid share one pass).  FAMILIES is the table of families a sweep
can name: their parameters, sweep coordinates and admissible intervals.
The closed-form information values that cross-check the families are
references, not part of the runtime: the verification suites keep theirs
in ldqfi.verify, the tests theirs in tests/dense_oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError, InvalidInput, SingularState, TruncationError
from .family import RANK_TOL, CentralDifference, DensityMatrix, StateFamily, UnitaryPath, _check_finite
from .linalg import HermitianTridiagonal, TridiagonalExponential, _positive_int, _real, random_hermitian

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

# Open theta domains of the two-level families, the displaced thermal
# family and the projection-oscillation counterexample.
TWO_LEVEL_DOMAIN = (-1.5, 1.5)
COHERENT_DOMAIN = (-0.3, 0.3)
COUNTEREXAMPLE_DOMAIN = (-1.0, 1.0)


def _bulk_margin(theta: float, dim: int) -> int:
    # clamped at dim, which leaves no bulk either way, so that no finite
    # amplitude overflows math.ceil
    return max(BULK_MARGIN, math.ceil(min(3.5 * abs(theta) * math.sqrt(dim), dim)) + 8)


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

    Both the weight and the eigenbasis move; lambda_fn must map
    TWO_LEVEL_DOMAIN into (0, 1) and lambda_prime_fn must be its derivative.
    """

    lambda_fn: Callable[[float], float]
    lambda_prime_fn: Callable[[float], float]

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
            theta_domain=TWO_LEVEL_DOMAIN,
            rho_of=rho_of,
            rho_prime_of=rho_prime_of,
            name="two_level_1",
        )


def tanh_weight(theta: float) -> float:
    return 0.5 * (1.0 + math.tanh(theta))


def tanh_weight_prime(theta: float) -> float:
    return 0.5 / math.cosh(theta) ** 2


def default_two_level_1() -> TwoLevelFamily1:
    """The standard choice lambda = (1 + tanh theta)/2."""
    return TwoLevelFamily1(lambda_fn=tanh_weight, lambda_prime_fn=tanh_weight_prime)


@dataclass(frozen=True)
class TwoLevelFamily2:
    """Frozen weight (1+r)/2 on the rotating projection: rho' = r P'(theta).

    r = 0 is the maximally mixed point (the family is then constant) and
    r -> 1 degenerates to a pure state, rejected as rank deficient.  The
    domain is TWO_LEVEL_DOMAIN.
    """

    r: float

    def __post_init__(self):
        r = _real(self.r, "radius r")
        if not (math.isfinite(r) and 0.0 <= r <= 1.0):
            raise InvalidInput(f"radius r={self.r!r} must lie in [0, 1]")
        if 1.0 - r <= 2.0 * RANK_TOL:
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
            theta_domain=TWO_LEVEL_DOMAIN,
            rho_of=rho_of,
            rho_prime_of=rho_prime_of,
            name="two_level_2",
        )


# ---------------------------------------------------------------------------
# truncated geometric family


def geometric_trunc_dim(theta_lo: float, theta_hi: float) -> int:
    """Truncation dimension for the geometric family on [theta_lo, theta_hi].

    Keeps the discarded tail e^{-N theta} below GEOMETRIC_TAIL at the
    slow edge when possible, clamped so the smallest retained eigenvalue
    stays a factor 1.5 above the rank floor at the fast edge.  Near the
    rank clamp the realized tail can exceed the target; renormalization
    over the kept levels keeps the family exactly normalized either way.
    Edges that are not real numbers raise InvalidInput, a window that is
    not positive and finite DomainError.
    """
    lo = _real(theta_lo, "theta_lo")
    hi = _real(theta_hi, "theta_hi")
    if not (0.0 < lo <= hi < math.inf):
        raise DomainError("parameter window must be positive", value=theta_lo)
    n_tail = math.ceil(math.log(1.0 / GEOMETRIC_TAIL) / lo)
    # log(expm1(hi)) as hi + log(-expm1(-hi)), which cannot overflow
    n_rank = math.floor((hi + math.log(-math.expm1(-hi)) - math.log(1.5 * RANK_TOL)) / hi)
    return max(2, min(n_tail, n_rank))


def geometric_family(theta_center: float, trunc_dim: int | None = None) -> StateFamily:
    """Truncated geometric family lambda_j(theta) ~ e^{-j theta}, j < N,
    renormalized over the kept levels, on (theta_center +- GEOMETRIC_HALF_WIDTH).

    The family is diagonal for every theta, so it commutes with its
    derivative and all four models carry the same information.  The
    derivative is analytic:
      lambda'_j = lambda_j (1/(e^theta - 1) - j - N/(e^{N theta} - 1)).
    A trunc_dim that is not an integer of at least 2 raises InvalidInput.
    """
    center = _real(theta_center, "theta_center")
    if not (math.isfinite(center) and center > GEOMETRIC_HALF_WIDTH):
        raise DomainError(
            f"theta_center {theta_center!r} must exceed half_width {GEOMETRIC_HALF_WIDTH:g} "
            "to keep the window positive",
            value=center,
        )
    lo = center - GEOMETRIC_HALF_WIDTH
    hi = center + GEOMETRIC_HALF_WIDTH
    if trunc_dim is not None:
        _TRUNC_DIM.check("trunc_dim", trunc_dim)
    n = geometric_trunc_dim(lo, hi) if trunc_dim is None else int(trunc_dim)
    lam_min_edge = math.exp(-(n - 1) * hi) * math.expm1(-hi) / math.expm1(-n * hi)
    if lam_min_edge <= RANK_TOL:
        # at the floor of two levels the edge clears while 1 / (1 + e^hi) > RANK_TOL
        top = math.log((1.0 - RANK_TOL) / RANK_TOL) - GEOMETRIC_HALF_WIDTH
        advice = (f"the largest centre a two-level window clears is {top:.6g}" if n == 2
                  else "reduce trunc_dim or the window")
        raise SingularState(
            f"smallest eigenvalue {lam_min_edge:.3e} at the window edge sits at or below the "
            f"rank floor {RANK_TOL:g}; {advice}"
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


# ---------------------------------------------------------------------------
# displaced thermal family on a truncated number basis


def coherent_trunc_dim(mean_occupation: float) -> int:
    """Truncation dimension for a thermal state of the given mean occupation.

    Smallest N with tail q^N <= COHERENT_TAIL_TARGET (q = M/(M+1)), clamped
    so the smallest retained eigenvalue (1-q) q^{N-1} stays at or above
    COHERENT_MIN_EIG.  On the clamped branch the tail exceeds the target;
    the constructor still enforces the hard cap.
    """
    m = _real(mean_occupation, "mean occupation")
    if not (m > 0.0 and math.isfinite(m)):
        raise InvalidInput(f"mean occupation {mean_occupation!r} must be positive")
    log_inv_q = math.log1p(1.0 / m)
    n_tail = math.ceil(math.log(1.0 / COHERENT_TAIL_TARGET) / log_inv_q)
    frac = 1.0 / (m + 1.0)
    n_rank = math.floor(math.log(frac / COHERENT_MIN_EIG) / log_inv_q) + 1
    return max(2, min(n_tail, n_rank))


def _smallest_weight(m: float, n: int) -> float:
    """The smallest of n kept thermal weights, (1 - q) q^(n-1) before
    renormalization, which coherent_family holds above the rank floor."""
    q = m / (m + 1.0)
    return (1.0 - q) * q ** (n - 1)


def _rank_dim(m: float) -> int:
    """The most levels whose smallest weight clears the rank floor (0 if
    none does), counted up with the test coherent_family makes from two
    below the float solution of (1 - q) q^(n-1) = RANK_TOL, taken with the
    rounded q that test raises to a power."""
    q = m / (m + 1.0)
    if 1.0 - q <= RANK_TOL:
        return 0
    n = max(0, math.ceil(math.log(RANK_TOL / (1.0 - q)) / math.log(q)) - 2)
    while _smallest_weight(m, n + 1) > RANK_TOL:
        n += 1
    return n


def _two_level_floor() -> float:
    """The smallest mean occupation whose two kept weights clear the rank
    floor, counted with the test coherent_family makes from the float
    solution of (1 - q) q = m / (m + 1)^2 = RANK_TOL."""
    m = 2.0 * RANK_TOL / (1.0 - 2.0 * RANK_TOL + math.sqrt(1.0 - 4.0 * RANK_TOL))
    while _smallest_weight(m, 2) > RANK_TOL:
        m = math.nextafter(m, 0.0)
    while _smallest_weight(m, 2) <= RANK_TOL:
        m = math.nextafter(m, math.inf)
    return m


def displacement_closed_form(theta: float | Sequence[float], dim: int) -> np.ndarray:
    """Matrix elements <m| e^{theta (a+ - a)} |n> of the untruncated
    displacement with real amplitude theta, on the first dim levels; for a
    1-d sequence of amplitudes, their matrices stacked along a leading
    axis, from one pass of the recurrence.

    Below the diagonal, with m = n + d, the element is
    e_n(d) = e^{-x/2} theta^d sqrt(n!/(n+d)!) L_n^(d)(x), x = theta^2; above
    it the transpose picks up (-1)^d.  The Laguerre three-term recurrence in
    n, rescaled by sqrt(n!/(n+d)!), gives
      e_{n+1} = ((2n+1+d-x) e_n - sqrt(n (n+d)) e_{n-1}) / sqrt((n+1)(n+1+d))
    starting from e_0(d) = e^{-x/2} theta^d / sqrt(d!).  Every term stays
    bounded, so large dimensions cannot form the 0 * inf of a separately
    evaluated factorial ratio and Laguerre value; a starting value that
    underflows only loses elements far below double precision.  A zero
    amplitude gives the identity.

    Each element is formed by the same operations whatever the other
    amplitudes and dim, so a matrix of a stack, or the leading corner of a
    larger dim, equals the one-amplitude result bit for bit.

    An amplitude that is not finite raises DomainError, a dim that is not a
    positive integer InvalidInput.
    """
    single = np.ndim(theta) == 0
    amps = np.array([_check_finite(t) for t in ([theta] if single else theta)], dtype=float)
    dim = _positive_int(dim, "dim")
    zero = amps == 0.0
    any_zero = not amps.all()
    # The amplitudes run along a trailing axis until the result is
    # assembled; one amplitude is a stack of one.
    x = amps * amps
    d = np.arange(dim, dtype=float)[:, None]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])[:, None]
    # math.log, which the one-amplitude recurrence has always taken; a zero
    # amplitude starts from the vacuum column instead, so no step takes log(0).
    log_amp = np.array([math.log(abs(t)) if t else 0.0 for t in amps.tolist()])
    cur = np.exp(d * log_amp - 0.5 * x - 0.5 * log_fact)
    if any_zero:
        cur = np.where(zero, d == 0.0, cur)
    # odd d carry the amplitude's sign (a zero amplitude's matrix is
    # replaced by the identity, whatever the sign of its zero)
    cur[1::2] *= np.copysign(1.0, amps)
    prev = np.zeros(cur.shape)
    # Every coefficient of the recurrence as a table, before the loop:
    # root_prod[n, j] = sqrt(n) sqrt(n + j) and step[n, j] = 2n + 1 + j - x,
    # so that each step costs four array operations.  The products are
    # those the step formed itself, so the elements keep their bytes.
    root = np.sqrt(np.arange(dim + 1.0))
    levels = np.arange(dim + 1)[:, None]
    root_prod = (root[:, None] * root[np.minimum(levels + np.arange(dim), dim)])[..., None]
    step = 2 * levels[:dim, :, None] + (1.0 + d - x)
    # Row n of below holds e_n(d) from the diagonal on; the lower triangle
    # of the result is its transpose, the upper one carries the parities
    # (-1)^(m - n) = (-1)^m (-1)^n.
    below = np.zeros((dim, dim, amps.size))
    for n in range(dim):
        k = dim - n - 1
        below[n, n:] = cur
        nxt = step[n, :k] * cur[:k]
        nxt -= root_prod[n, :k] * prev[:k]
        nxt /= root_prod[n + 1, :k]
        prev, cur = cur, nxt
    del step  # before the two stacks of the assembly
    sign = np.ones(dim)
    sign[1::2] = -1.0
    # the amplitude axis first
    below = below.transpose(2, 0, 1)
    out = np.where(np.tri(dim, dtype=bool), below.swapaxes(-1, -2), below * (sign[:, None] * sign))
    if any_zero:
        out[zero] = np.eye(dim)
    return out[0] if single else out


@dataclass(frozen=True)
class CoherentFamily:
    """Thermal state of a given mean occupation, displaced along a
    real-amplitude path, truncated to trunc_dim number levels and
    renormalized over the kept levels; the amplitude ranges over
    COHERENT_DOMAIN.

    Use coherent_family to construct one with the tail and rank guards
    applied.
    """

    mean_occupation: float
    trunc_dim: int

    @property
    def q(self) -> float:
        return self.mean_occupation / (self.mean_occupation + 1.0)

    def eigenvalues(self) -> np.ndarray:
        """Thermal weights (1-q) q^k, renormalized, in level order."""
        w = (1.0 - self.q) * self.q ** np.arange(self.trunc_dim)
        return w / w.sum()

    @cached_property
    def _off(self) -> np.ndarray:
        """The one band of the generator A = a+ - a on the truncation,
        A[n + 1, n] = sqrt(n + 1) = -A[n, n + 1], formed once per family and
        read-only: the exponential, the path's rho' band and the eigensolver
        route's rho' all read it."""
        off = np.sqrt(np.arange(1.0, self.trunc_dim))
        off.flags.writeable = False
        return off

    @cached_property
    def _exponential(self) -> TridiagonalExponential:
        """theta -> e^{theta (a+ - a)}: the generator's band powers, formed
        once per family, which every displacement combines."""
        return TridiagonalExponential(self._off)

    def checked_displacement(self, theta: float, closed_form: np.ndarray | None = None) -> np.ndarray:
        """e^{theta (a+ - a)} of the truncated generator, validated on the
        bulk against the closed-form matrix elements and for unitarity.

        The exponential is the degree-13 Pade approximant with scaling and
        squaring, combined from the generator's band powers, which the
        family forms once (linalg.TridiagonalExponential); a point forms no
        power of its own.

        Truncation corrupts the top levels over a depth growing with
        theta sqrt(N); the check excludes that margin and demands the rest
        match within DISPLACEMENT_TOL, else the truncation is unusable at
        this amplitude and TruncationError is raised.  A theta that is not
        finite raises DomainError.  closed_form, when given, is
        displacement_closed_form(theta, m) for some m of at least the bulk,
        such as a matrix of a block's stack, and the check reads its leading
        bulk x bulk corner in place of computing it; a smaller one raises
        InvalidInput.
        """
        theta = _check_finite(theta)
        n = self.trunc_dim
        if theta == 0.0:
            return np.eye(n)
        bulk = n - _bulk_margin(theta, n)
        if bulk < 2:
            # the bulk grows with the dimension, so the largest one the rank
            # floor admits decides whether any truncation validates theta
            top = _rank_dim(self.mean_occupation)
            advice = (
                "enlarge trunc_dim" if top - _bulk_margin(theta, top) >= 2 else
                f"no truncation of mean occupation {self.mean_occupation!r} validates it, "
                f"as the rank floor admits at most {top} levels"
            )
            raise TruncationError(f"dimension {n} leaves no bulk to validate at amplitude {theta!r}; {advice}")
        if closed_form is not None and min(np.shape(closed_form)) < bulk:
            raise InvalidInput(f"a closed form of shape {np.shape(closed_form)} does not cover the bulk {bulk}")
        w = self._exponential(theta)
        exact = displacement_closed_form(theta, bulk) if closed_form is None else closed_form[:bulk, :bulk]
        dev = float(np.abs(w[:bulk, :bulk] - exact).max())
        gram = (w.T @ w - np.eye(n))[:bulk, :bulk]
        # The Frobenius norm bounds the 2-norm, so a bulk it passes also
        # passes the 2-norm test; the exact 2-norm (an SVD) is taken only
        # where the cheap test fails, and then decides and is printed.
        # Negated tests: a non-finite closed-form entry makes dev NaN, which
        # must fail the check rather than pass it.
        unit = float(np.linalg.norm(gram))
        if not (dev <= DISPLACEMENT_TOL and unit <= DISPLACEMENT_TOL):
            unit = float(np.linalg.norm(gram, 2))
        if not (dev <= DISPLACEMENT_TOL and unit <= DISPLACEMENT_TOL):
            raise TruncationError(
                f"bulk displacement deviates from the closed form by {dev:.3e} "
                f"(bulk unitarity defect {unit:.3e}) at dimension {n}; enlarge trunc_dim"
            )
        return w

    def state(self, theta: float) -> np.ndarray:
        """Displaced thermal state D diag(lambda) D^T with D the checked
        displacement and lambda the thermal weights."""
        w = self.checked_displacement(theta)
        return (w * self.eigenvalues()) @ w.T

    def family(self) -> StateFamily:
        @lru_cache(maxsize=1)
        def rho_of(theta: float) -> np.ndarray:
            # rho_prime_of reads the state that eval_rho has just formed.
            # Read-only, since callers share it.
            rho = self.state(theta)
            rho.flags.writeable = False
            return rho

        def rho_prime_of(theta: float) -> np.ndarray:
            # [A, rho] = B + B^T with B = A rho, since rho is symmetric and A
            # antisymmetric; row n of B is off[n-1] rho[n-1] - off[n] rho[n+1]
            off = self._off[:, None]
            rho = rho_of(theta)
            b = np.zeros_like(rho)
            b[1:] = off * rho[:-1]
            b[:-1] -= off * rho[1:]
            return b + b.T

        return StateFamily(
            dim=self.trunc_dim,
            theta_domain=COHERENT_DOMAIN,
            rho_of=rho_of,
            rho_prime_of=rho_prime_of,
            name="coherent",
            unitary_path=self.path,
        )

    @property
    def path(self) -> UnitaryPath:
        """The family as a unitary path.

        The displacement commutes with its own generator, so the eigenbasis
        at any theta is the displaced number basis, every eigenvalue is
        constant in theta, and rho' expressed in the moving basis is the
        fixed commutator [a+ - a, rho_0].  Branch data therefore needs no
        eigensolve: the basis columns are the checked displacement's
        columns in ascending-eigenvalue (reversed level) order, formed when
        a point's basis is first read (see UnitaryPath.bases_of and
        _bases_of), and rho' in that basis is the tridiagonal band with
        entries sqrt(n+1) (lambda_n - lambda_n+1) between levels n and n+1.

        The weights and the band are built once per family.  The path
        itself is not kept: its bases_of refers to the family, and a kept
        one would make a reference cycle that holds the family, with its
        band powers, until a full garbage collection.
        """
        eigenvalues, band = self._path_data
        return UnitaryPath(eigenvalues, band, self._bases_of)

    def _bases_of(self, thetas: Sequence[float]) -> Iterator[Callable[[], np.ndarray]]:
        """One lazy basis per theta, in order: the checked displacement's
        columns in reversed level order, checked when called.

        The amplitudes of the grid that are nonzero and leave a bulk share
        one pass of the recurrence: the first of their bases read computes
        all their closed forms, at the largest bulk
        (displacement_closed_form of them all), and each point's check
        reads its own, the closed form it would have computed alone, bit
        for bit.  Any other value is checked on its own, and raises there
        what checked_displacement raises.
        """
        thetas = list(thetas)
        bulks = [self._block_bulk(t) for t in thetas]
        shared = [t for t, bulk in zip(thetas, bulks) if bulk]
        block = cache(partial(displacement_closed_form, shared, max(bulks, default=0)))
        slots = iter(range(len(shared)))
        for theta, bulk in zip(thetas, bulks):
            yield partial(self._basis, theta, block, next(slots)) if bulk else partial(self._basis, theta)

    def _block_bulk(self, theta: float) -> int:
        """The bulk checked_displacement validates at theta, or 0 where
        theta cannot share a pass: zero, not a finite real number, or
        leaving no bulk."""
        try:
            amp = _check_finite(theta)
        except (InvalidInput, DomainError):
            return 0
        bulk = self.trunc_dim - _bulk_margin(amp, self.trunc_dim)
        return bulk if amp and bulk >= 2 else 0

    def _basis(self, theta: float, block: Callable[[], np.ndarray] | None = None, i: int = 0) -> np.ndarray:
        """The basis at theta, checked against matrix i of the block's
        shared closed forms when there is one."""
        return self.checked_displacement(theta, closed_form=None if block is None else block()[i])[:, ::-1]

    @cached_property
    def _path_data(self) -> tuple[np.ndarray, HermitianTridiagonal]:
        lam = self.eigenvalues()
        off = self._off
        comm = off * lam[:-1] - lam[1:] * off
        return lam[::-1], HermitianTridiagonal(np.zeros(self.trunc_dim), comm[::-1])


def coherent_family(mean_occupation: float, trunc_dim: int | None = None) -> CoherentFamily:
    """Construct a displaced thermal family with truncation guards.

    A caller-chosen trunc_dim is accepted only while the discarded tail
    q^N stays at or below 1e-6 (TruncationError otherwise) and the
    smallest kept eigenvalue clears the rank floor (SingularState); one
    that is not an integer of at least 2 raises InvalidInput.
    """
    m = _real(mean_occupation, "mean occupation")
    if not (m > 0.0 and math.isfinite(m)):
        raise InvalidInput(f"mean occupation {mean_occupation!r} must be positive")
    if trunc_dim is not None:
        _TRUNC_DIM.check("trunc_dim", trunc_dim)
    n = coherent_trunc_dim(m) if trunc_dim is None else int(trunc_dim)
    tail = (m / (m + 1.0))**n
    if tail > COHERENT_TAIL_HARD:
        raise TruncationError(
            f"thermal tail {tail:.3e} above {COHERENT_TAIL_HARD:g} at dimension {n}; enlarge trunc_dim"
        )
    lam_min = _smallest_weight(m, n)
    if lam_min <= RANK_TOL:
        # two levels are the floor of trunc_dim, where fewer cannot be advised
        advice = (f"the smallest mean occupation two levels admit is {_two_level_floor()!r}" if n == 2
                  else "reduce trunc_dim")
        raise SingularState(f"smallest retained eigenvalue {lam_min:.3e} at or below the rank floor; {advice}")
    return CoherentFamily(mean_occupation=m, trunc_dim=n)


# ---------------------------------------------------------------------------
# projection-oscillation counterexample


@dataclass(frozen=True)
class NonsmoothProjectionState:
    """State whose eigenvalues are C-infinity flat at 0 while the
    eigenprojections oscillate without a limit."""

    rho: DensityMatrix
    p1: np.ndarray
    p2: np.ndarray
    degenerate_at_zero: bool


def nonsmooth_projection_state(theta: float) -> NonsmoothProjectionState:
    """Two-level family with smooth spectrum but discontinuous projections.

    lambda_1,2 = (1 ± exp(-1/theta^2))/2 and the eigenbasis rotates by the
    angle 1/theta.  At theta = 0 every eigenvalue derivative vanishes and
    rho = I/2, flagged degenerate_at_zero; the projections have no limit as
    theta -> 0, which is why branch data cannot be assigned there.  A theta
    outside [-1, 1], or so close to 0 that 1/theta overflows, raises
    DomainError.
    """
    rho, p1 = _oscillating_state(theta)
    return NonsmoothProjectionState(DensityMatrix(rho), p1, np.eye(2) - p1, bool(theta == 0.0))


def _oscillating_state(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """rho and the projection P1 of nonsmooth_projection_state, unchecked
    as a density matrix, for the counterexample family to evaluate."""
    theta = _real(theta, "theta")
    if not (math.isfinite(theta) and abs(theta) <= 1.0):
        raise DomainError("theta must lie in [-1, 1]", value=theta)
    if theta == 0.0:
        return 0.5 * np.eye(2), np.diag([1.0, 0.0])
    angle = 1.0 / theta
    if math.isinf(angle):
        raise DomainError(f"theta={theta!r} lies so close to 0 that the angle 1/theta overflows", value=theta)
    # exp(-1/theta^2) is 0 long before theta^2 underflows to 0
    gap = math.exp(-1.0 / theta**2) if theta**2 else 0.0
    p1 = rotating_projection(angle)
    # the eigenvalues (1 +- gap)/2 on P1 and I - P1
    return 0.5 * (1.0 + gap) * p1 + 0.5 * (1.0 - gap) * (np.eye(2) - p1), p1


def counterexample_family(step: float | None = None) -> StateFamily:
    """Two-level family with smooth eigenvalues but eigenprojections that
    oscillate without a limit at theta = 0.

    No analytic branch data exists at the origin, so derivatives fall back
    to symmetric differences of the state itself.
    """
    def rho_of(theta: float) -> np.ndarray:
        return _oscillating_state(theta)[0]

    return StateFamily(
        dim=2,
        theta_domain=COUNTEREXAMPLE_DOMAIN,
        rho_of=rho_of,
        derivative_mode=CentralDifference(step=step),
        name="counterexample31",
    )


# ---------------------------------------------------------------------------
# random analytic families


def random_analytic_family(
    dim: int,
    rng: np.random.Generator,
    commuting: bool = False,
    min_rel_gap: float = 1e-2,
) -> StateFamily:
    """Random analytic full-rank family rho(theta) = exp(G0 + theta G1)/trace.

    rho and rho' come from one eigh of G0 + theta G1 = V diag(h) V^dagger:
    rho = V diag(p) V^dagger with p = e^h / sum(e^h), and by the
    Daleckii-Krein formula (Bhatia, Matrix Analysis, Thm V.3.3)
    rho' = V (Gamma o X - diag(p) sum_i p_i X_ii) V^dagger with X = V^dagger G1 V,
    Gamma_ij = (p_i - p_j)/(h_i - h_j) and Gamma_ii = p_i; the off-diagonal
    part does not commute with rho.  Draws are rejected until the spectrum
    at theta = 0 has relative gaps of at least min_rel_gap (finite, >= 0),
    keeping branch tracking well conditioned near 0.  With commuting=True
    the generators share an eigenbasis, so [rho, rho'] = 0 for every theta.
    """
    _NON_NEGATIVE.check("min_rel_gap", min_rel_gap)
    for _ in range(200):
        g0 = random_hermitian(dim, rng, scale=0.6)
        w, v = np.linalg.eigh(g0)
        if commuting:
            # same eigenbasis, independent spectrum for the direction
            g1 = (v * rng.standard_normal(dim)) @ v.conj().T
        else:
            g1 = random_hermitian(dim, rng, scale=0.6)
        diam = w[-1] - w[0]
        if diam <= 0 or np.min(np.diff(w)) < min_rel_gap * diam:
            continue

        # rho and rho' of one point share the decomposition
        @lru_cache(maxsize=1)
        def gibbs(theta: float, g0=g0, g1=g1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            return _gibbs(g0 + theta * g1)

        def rho_of(theta: float) -> np.ndarray:
            v, _, p = gibbs(theta)
            return (v * p) @ v.conj().T

        def rho_prime_of(theta: float, g1=g1) -> np.ndarray:
            v, h, p = gibbs(theta)
            x = v.conj().T @ g1 @ v
            # Gamma is symmetric; each entry is p_j expm1(h_i - h_j)/(h_i - h_j)
            # of the pair ordered h_i <= h_j, whose exponent cannot overflow
            d = -np.abs(h[:, None] - h)
            ratio = np.divide(np.expm1(d), d, out=np.ones_like(d), where=d != 0.0)
            gamma_x = np.maximum.outer(p, p) * ratio * x - np.diag(p * (p @ x.diagonal().real))
            return v @ gamma_x @ v.conj().T

        return StateFamily(
            dim=dim,
            theta_domain=(-1.0, 1.0),
            rho_of=rho_of,
            rho_prime_of=rho_prime_of,
            name="random",
        )
    raise InvalidInput("failed to draw a well-separated random family")


def _gibbs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvectors, ascending eigenvalues h and weights e^h / sum(e^h) of
    the Hermitian a, each exponent shifted by max(h) so that none overflows."""
    h, v = np.linalg.eigh(a)
    p = np.exp(h - h[-1])
    return v, h, p / p.sum()


# ---------------------------------------------------------------------------
# family table for sweeps


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
        x = _real(value, label)
        inside = (
            math.isfinite(x)
            and (self.lo <= x if self.closed_lo else self.lo < x)
            and x < self.hi
            and not (self.integer and x != int(x))
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
    its derivative in closed form.  family_coords are the coordinates that
    change the family itself; any other coordinate only moves the
    evaluation point, which build then returns as the grid value, so one
    family serves a whole grid over it.
    """

    params: Mapping[str, Interval]
    coords: Mapping[str, Interval]
    build: Callable[[Mapping[str, float]], tuple[StateFamily, float]]
    analytic: bool = True
    family_coords: frozenset[str] = frozenset()


_TWO_LEVEL_THETA = Interval(*TWO_LEVEL_DOMAIN)
_RADIUS = Interval(0.0, 1.0, closed_lo=True)
_TRUNC_DIM = Interval(2.0, math.inf, closed_lo=True, integer=True)
_NON_NEGATIVE = Interval(0.0, math.inf, closed_lo=True)

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
        family_coords=frozenset({"r"}),
    ),
    "geometric": FamilySpec(
        params={"trunc_dim": _TRUNC_DIM},
        coords={"theta": Interval(GEOMETRIC_HALF_WIDTH, math.inf)},
        build=lambda v: (geometric_family(v["theta"], v.get("trunc_dim")), v["theta"]),
        # the parameter window is centred on theta
        family_coords=frozenset({"theta"}),
    ),
    "coherent": FamilySpec(
        params={"M": Interval(0.0, math.inf), "trunc_dim": _TRUNC_DIM},
        coords={"theta": Interval(*COHERENT_DOMAIN)},
        build=lambda v: (coherent_family(v.get("M", 1.0), v.get("trunc_dim")).family(), v["theta"]),
    ),
    "counterexample31": FamilySpec(
        params={"step": STEP_DOMAIN},
        coords={"theta": Interval(*COUNTEREXAMPLE_DOMAIN)},
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
