"""Reference state families and the table of families a sweep can name.

Four families exercise the spectral pipeline from different angles: a
two-level family with a moving weight and a rotating eigenbasis, a
two-level family whose weight is frozen so only the basis moves, a
truncated geometric family that commutes with its derivative, and a
displaced thermal family on a truncated number basis whose eigenbasis
rotates rigidly.  A fifth, pathological two-level family has a smooth
spectrum but eigenprojections that oscillate without a limit at the
origin.

Each family carries the truncation bookkeeping (tail mass, rank floor,
displacement accuracy) that makes the finite-dimensional surrogates
trustworthy; the displaced thermal family is also a unitary path
(CoherentFamily.path, whose branches(theta) are its spectral branches in
closed form) and carries the closed-form displacement its exponential is
checked against (displacement_closed_form, of one amplitude or of a
block of them at once: the path's consecutive points share one pass of
its recurrence).  FAMILIES is the table of
families a sweep can name: their parameters, sweep coordinates and
admissible intervals.  The closed-form information values that
cross-check the families are references, not part of the runtime: the
verification suites keep theirs in ldqfi.verify, the tests theirs in
tests/dense_oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError, InvalidInput, SingularState, TruncationError
from .family import (
    RANK_TOL,
    CentralDifference,
    StateFamily,
    UnitaryPath,
    _BLOCK_BYTES,
    _last_theta,
    nonsmooth_projection_state,
)
from .linalg import HermitianTridiagonal, TridiagonalExponential, _positive_int, _real

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


def _check_amplitude(theta: float) -> float:
    """theta as a float, InvalidInput unless it is a real number and
    DomainError unless it is finite."""
    amp = _real(theta, "displacement amplitude")
    if not math.isfinite(amp):
        raise DomainError(f"displacement amplitude {theta!r} is not finite", value=theta)
    return amp


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
    n_rank = math.floor(math.log(math.expm1(hi) / (1.5 * RANK_TOL)) / hi)
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
    amps = np.array([_check_amplitude(t) for t in ([theta] if single else theta)], dtype=float)
    dim = _positive_int(dim, "dim")
    zero = amps == 0.0
    any_zero = not amps.all()
    # The amplitudes run along a trailing axis until the result is
    # assembled, and one amplitude is a scalar with no such axis: each step
    # slices as a single amplitude's would, and one amplitude's steps slice
    # 1-d arrays.  Indexed by amp_axis, an array over the levels gains
    # that axis, if there is one.
    if single:
        amps, zero = amps[0], zero[0]
    amp_axis = (...,) + (None,) * amps.ndim
    x = amps * amps
    d = np.arange(dim, dtype=float)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    # math.log, which the one-amplitude recurrence has always taken; a zero
    # amplitude starts from the vacuum column instead, so no step takes log(0).
    log_amp = np.array([math.log(abs(t)) if t else 0.0 for t in amps.ravel().tolist()]).reshape(amps.shape)
    cur = np.exp(d[amp_axis] * log_amp - 0.5 * x - 0.5 * log_fact[amp_axis])
    if any_zero:
        cur = np.where(zero, (d == 0.0)[amp_axis], cur)
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
    root_prod = (root[:, None] * root[np.minimum(levels + np.arange(dim), dim)])[amp_axis]
    step = 2 * levels[:dim][amp_axis] + (1.0 + d[amp_axis] - x)
    # Row n of below holds e_n(d) from the diagonal on; the lower triangle
    # of the result is its transpose, the upper one carries the parities
    # (-1)^(m - n) = (-1)^m (-1)^n.
    below = np.zeros((dim, dim) + amps.shape)
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
    # the amplitude axis, if there is one, first
    below = below.transpose(tuple(range(2, below.ndim)) + (0, 1))
    out = np.where(np.tri(dim, dtype=bool), below.swapaxes(-1, -2), below * (sign[:, None] * sign))
    if any_zero:
        out[zero] = np.eye(dim)
    return out


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

    def rho0(self) -> np.ndarray:
        return np.diag(self.eigenvalues())

    def generator(self) -> np.ndarray:
        """a+ - a on the truncation, real antisymmetric; formed once per
        family and read-only, since every caller shares it."""
        return self._generator

    @cached_property
    def _generator(self) -> np.ndarray:
        off = np.sqrt(np.arange(1.0, self.trunc_dim))
        ad = np.diag(off, -1)
        gen = ad - ad.T
        gen.flags.writeable = False
        return gen

    @cached_property
    def _exponential(self) -> TridiagonalExponential:
        """theta -> e^{theta (a+ - a)}: the generator's band powers, formed
        once per family, which every displacement combines."""
        off = np.sqrt(np.arange(1.0, self.trunc_dim))
        return TridiagonalExponential(off, np.zeros(self.trunc_dim), -off)

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
        theta = _check_amplitude(theta)
        n = self.trunc_dim
        if theta == 0.0:
            return np.eye(n)
        bulk = n - _bulk_margin(theta, n)
        if bulk < 2:
            raise TruncationError(
                f"dimension {n} leaves no bulk to validate at amplitude {theta!r}; enlarge trunc_dim"
            )
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
        """Displaced thermal state D rho0 D^T with D the checked displacement."""
        w = self.checked_displacement(theta)
        return w @ self.rho0() @ w.T

    def family(self) -> StateFamily:
        gen = self.generator()

        @_last_theta
        def rho_of(theta: float) -> np.ndarray:
            # rho_prime_of reads the state that eval_rho has just formed.
            # Read-only, since callers share it.
            rho = self.state(theta)
            rho.flags.writeable = False
            return rho

        def rho_prime_of(theta: float) -> np.ndarray:
            rho = rho_of(theta)
            return gen @ rho - rho @ gen

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
        N x N generator, until a full garbage collection.
        """
        eigenvalues, band = self._path_data
        return UnitaryPath(eigenvalues, band, self._bases_of)

    def _bases_of(self, thetas: Sequence[float]) -> Iterator[Callable[[], np.ndarray]]:
        """One lazy basis per theta, in order: the checked displacement's
        columns in reversed level order, checked when called.

        A run of consecutive amplitudes that are nonzero and leave a bulk
        forms blocks whose closed forms, at the block's largest bulk, take
        at most family._BLOCK_BYTES, the budget by which compute_reports
        splits a grid, so that its blocks (20 points at M = 2, one point
        from M = 8 on) share one pass each; the first basis read of a block
        computes them all in one pass of the recurrence
        (displacement_closed_form of the block), and each point's check
        reads its own.  Each point still runs
        checked_displacement, with the closed form it would have computed
        bit for bit.  Any other value, and a block of one point, is checked
        on its own, and raises there what checked_displacement raises.
        """
        thetas = list(thetas)
        bulks = [self._block_bulk(t) for t in thetas]
        start = 0
        while start < len(thetas):
            stop, bulk = start, 0
            while stop < len(thetas) and bulks[stop]:
                widest = max(bulk, bulks[stop])
                if (stop + 1 - start) * widest * widest * 8 > _BLOCK_BYTES:
                    break
                stop, bulk = stop + 1, widest
            if stop - start < 2:
                yield partial(self._basis, thetas[start])
                start += 1
                continue
            block = cache(partial(displacement_closed_form, thetas[start:stop], bulk))
            for i in range(start, stop):
                yield partial(self._basis, thetas[i], block, i - start)
            start = stop

    def _block_bulk(self, theta: float) -> int:
        """The bulk checked_displacement validates at theta, or 0 where a
        block cannot take theta: zero, not a finite real number, or leaving
        no bulk."""
        try:
            amp = _check_amplitude(theta)
        except (InvalidInput, DomainError):
            return 0
        bulk = self.trunc_dim - _bulk_margin(amp, self.trunc_dim)
        return bulk if amp and bulk >= 2 else 0

    def _basis(self, theta: float, block: Callable[[], np.ndarray] | None = None, i: int = 0) -> np.ndarray:
        """The basis at theta, checked against matrix i of the block's
        closed forms when theta is point i of a block."""
        if block is None:
            return self.checked_displacement(theta)[:, ::-1]
        return self.checked_displacement(theta, closed_form=block()[i])[:, ::-1]

    @cached_property
    def _path_data(self) -> tuple[np.ndarray, HermitianTridiagonal]:
        n = self.trunc_dim
        lam = self.eigenvalues()
        root = np.sqrt(np.arange(1.0, n))
        comm = root * lam[:-1] - lam[1:] * root
        return lam[::-1], HermitianTridiagonal(np.zeros(n), comm[::-1])


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
    q = m / (m + 1.0)
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
    return CoherentFamily(mean_occupation=m, trunc_dim=n)


# ---------------------------------------------------------------------------
# projection-oscillation counterexample


def counterexample_family(step: float | None = None) -> StateFamily:
    """Two-level family with smooth eigenvalues but eigenprojections that
    oscillate without a limit at theta = 0.

    No analytic branch data exists at the origin, so derivatives fall back
    to symmetric differences of the state itself.
    """
    def rho_of(theta: float) -> np.ndarray:
        return nonsmooth_projection_state(theta).rho.matrix

    return StateFamily(
        dim=2,
        theta_domain=COUNTEREXAMPLE_DOMAIN,
        rho_of=rho_of,
        derivative_mode=CentralDifference(step=step),
        name="counterexample31",
    )


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
