"""Parametrized density-matrix families and their spectral derivative data.

A family is a smooth map theta -> rho(theta) of full-rank states on an open
interval.  This module evaluates states and derivatives, splits rho' into
eigenvalue and eigenprojection branches, and audits the operator identities
that the projection derivatives must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

from .errors import (
    DegenerateCrossing,
    DomainError,
    InvalidInput,
    SingularState,
)
from .linalg import (
    HermitianTridiagonal,
    _one_blas_thread,
    _real,
    hermitize,
    random_hermitian,
    require_hermitian,
)

# A state is rejected as numerically rank deficient below this eigenvalue.
RANK_TOL = 1e-12

# Consecutive eigenvalues merge into one cluster when their gap is below
# max(CLUSTER_ABS_FLOOR_REL * spectral diameter, CLUSTER_REL * pair mean).
# The relative term keeps genuinely distinct but geometrically decaying
# spectra (thermal tails) apart, while the absolute floor still merges true
# multiplets whose members differ only by eigensolver noise.
CLUSTER_REL = 1e-9
CLUSTER_ABS_FLOOR_REL = 1e-13

# A near-crossing is flagged when the first-order projection rotation rate
# ||P_j rho' P_k|| / gap exceeds this cap; beyond it the branch derivative
# formula divides noise by a vanishing gap.
MIXING_CAP = 1e8

TRACE_TOL_ANALYTIC = 1e-12
TRACE_TOL_NUMERIC = 1e-7

# Step of the second difference in projection_curvature_residual.
CURVATURE_STEP = 1e-3

# A unitary path is swept in blocks of consecutive points that hold at most
# this many bytes of N x N float arrays, two a point (its basis and its KMB
# residual, see qfi.compute_reports): 20 points at M = 2 (N = 57) and one
# point from M = 8 on, so large truncations keep the memory of one point.
# The coherent family's closed forms of a block share one pass of their
# recurrence under the same budget (zoo.CoherentFamily._bases_of).
_BLOCK_BYTES = 1 << 20


def _check_rank(w: np.ndarray) -> None:
    """Reject an ascending spectrum whose smallest eigenvalue is at or
    below RANK_TOL."""
    if w[0] <= RANK_TOL:
        raise SingularState(
            f"smallest eigenvalue {w[0]:.3e} at or below rank tolerance {RANK_TOL:g}"
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, full rank.

    eigenvalues (ascending) and eigenvectors (columns) are the state's
    single eigendecomposition; the rank decision and every spectral
    quantity of the state are taken from them.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if mat.ndim != 2:
            raise InvalidInput(f"density matrix must be square, got shape {mat.shape}")
        mat = require_hermitian(mat, "density matrix")
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > 1e-12:
            raise InvalidInput(f"density matrix trace {tr!r} differs from 1")
        w, v = _one_blas_thread(np.linalg.eigh, mat)
        _check_rank(w)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Analytic:
    """Derivative supplied in closed form by the family."""


@dataclass(frozen=True)
class CentralDifference:
    """Symmetric finite-difference derivative (rho(theta + h) -
    rho(theta - h)) / 2h.

    step None picks max(1e-5, cbrt(eps) * (1 + |theta|)).
    """

    step: float | None = None


DerivativeMode = Analytic | CentralDifference


@dataclass(frozen=True)
class UnitaryPath:
    """A family rho(theta) = W(theta) rho0 W(theta)^dagger whose
    eigendecomposition is known in closed form.

    Only the basis moves: the eigenvalues (ascending) and rho' in the
    moving basis, a dense matrix or a HermitianTridiagonal, are the same at
    every theta, and bases_of(thetas) returns, for a grid of thetas, one
    callable per theta, in order, that returns the basis columns at that
    theta in the eigenvalues' order.  The callables may share work between
    the points of the grid, and may raise what the basis at their own theta
    raises when called; bases_of itself must accept any grid and raise
    nothing.  compute_reports calls it once per block of consecutive
    points (of at most _BLOCK_BYTES), and reads every basis of a block
    before the block's diagnostics, so the work a grid shares is held for
    one block at a time.  The eigenvalues and rho' are kept read-only,
    since every point of the path shares them.
    """

    eigenvalues: np.ndarray
    rho_prime_eig: np.ndarray | HermitianTridiagonal
    bases_of: Callable[[list[float]], Iterable[Callable[[], np.ndarray]]]

    def __post_init__(self):
        rp = self.rho_prime_eig
        if isinstance(rp, HermitianTridiagonal):
            rp = HermitianTridiagonal(_read_only(rp.diag), _read_only(rp.upper))
        else:
            rp = _read_only(rp)
        object.__setattr__(self, "eigenvalues", _read_only(self.eigenvalues))
        object.__setattr__(self, "rho_prime_eig", rp)

    def branches(self, theta: float) -> SpectralBranches:
        """The spectral branches at theta: branches_over of the one point."""
        return next(self.branches_over([theta]))

    def branches_over(self, thetas: Iterable[float]) -> Iterator[SpectralBranches]:
        """The spectral branches of each theta of a grid, in order, each
        made when the iteration reaches its point, from one bases_of call.

        A theta that is not a real number raises InvalidInput, and one that
        is not finite DomainError, when its point is reached, and so does a
        point that bases_of gave no callable.  A point's basis callable is
        called on the first read of its branches' basis, so the readers that
        need only the eigenvalues and rho' (the information values) never
        build it; whatever it raises, such as the bulk check of a
        displacement, is raised by that read.
        """
        thetas = list(thetas)
        bases = iter(self.bases_of(thetas))
        for theta in thetas:
            _check_finite(theta)
            basis = next(bases, None)
            if basis is None:
                raise InvalidInput(f"bases_of gave no basis for theta={theta!r}")
            yield spectral_branches(Eigenframe(basis, self.eigenvalues), self.rho_prime_eig)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


T = TypeVar("T")


def _last_theta(fn: Callable[[float], T]) -> Callable[[float], T]:
    """fn keeping its value at the last theta it was called with: a point
    evaluates rho, then rho' at the same theta, and one family serves a
    whole sweep, so only the last value is kept."""
    last: dict[float, T] = {}

    def at(theta: float) -> T:
        hit = last.get(theta)
        if hit is None:
            hit = fn(theta)
            last.clear()
            last[theta] = hit
        return hit

    return at


@dataclass(frozen=True)
class StateFamily:
    """Smooth family of full-rank states over an open parameter interval.

    unitary_path, when given, describes the same family as a UnitaryPath;
    compute_report then takes each point's branches from it in place of
    eigendecomposing rho_of(theta), as long as the derivative mode is
    Analytic.  A path whose eigenvalues or rho' do not have the family's
    dimension raises InvalidInput.
    """

    dim: int
    theta_domain: tuple[float, float]
    rho_of: Callable[[float], np.ndarray]
    rho_prime_of: Callable[[float], np.ndarray] | None = None
    derivative_mode: DerivativeMode = field(default_factory=Analytic)
    name: str = "family"
    unitary_path: UnitaryPath | None = None

    def __post_init__(self):
        try:
            lo, hi = self.theta_domain
            interval = math.isfinite(lo) and math.isfinite(hi) and lo < hi
        except (TypeError, ValueError):
            interval = False
        if not interval:
            raise InvalidInput(f"theta_domain {self.theta_domain!r} is not an open interval")
        if isinstance(self.derivative_mode, Analytic) and self.rho_prime_of is None:
            raise InvalidInput("analytic derivative mode requires rho_prime_of")
        path = self.unitary_path
        if path is not None:
            rp = path.rho_prime_eig
            rp_shape = (rp.dim, rp.dim) if isinstance(rp, HermitianTridiagonal) else rp.shape
            if path.eigenvalues.shape != (self.dim,) or rp_shape != (self.dim, self.dim):
                raise InvalidInput(
                    f"unitary path with eigenvalues of shape {path.eigenvalues.shape} and "
                    f"rho' of shape {rp_shape} does not have the family's dimension {self.dim}"
                )


def _check_tolerance(x: float, name: str) -> float:
    """x as a float when it is a finite real number >= 0, else InvalidInput."""
    value = _real(x, name)
    if not 0.0 <= value < math.inf:
        raise InvalidInput(f"{name} must be a finite number >= 0, got {x!r}")
    return value


def _check_step(h: float) -> float:
    step = _real(h, "finite-difference step")
    if not 0.0 < step < math.inf:
        raise InvalidInput(f"invalid finite-difference step {h!r}")
    return step


def default_step(theta: float) -> float:
    """Central-difference step balancing truncation against rounding."""
    return max(1e-5, float(np.cbrt(np.finfo(float).eps)) * (1.0 + abs(theta)))


def _check_finite(theta: float) -> float:
    """theta as a float; InvalidInput unless it is a real number (see
    linalg._real), DomainError unless it is finite."""
    value = _real(theta, "theta")
    if not math.isfinite(value):
        raise DomainError("theta must be finite", value=theta)
    return value


def _check_theta(fam: StateFamily, theta: float, pad: float = 0.0) -> float:
    """theta as a float; InvalidInput unless it is a real number (see
    linalg._real), DomainError unless it lies in the family's open domain
    by pad."""
    value = _check_finite(theta)
    lo, hi = fam.theta_domain
    if not (lo < value - pad and value + pad < hi):
        raise DomainError(
            f"theta={theta!r} (stencil pad {pad:g}) outside open domain ({lo!r}, {hi!r})",
            value=theta,
        )
    return value


def eval_rho(fam: StateFamily, theta: float) -> DensityMatrix:
    """Evaluate the family and validate the result as a density matrix."""
    theta = _check_theta(fam, theta)
    mat = np.asarray(fam.rho_of(theta))
    if mat.shape != (fam.dim, fam.dim):
        raise InvalidInput(f"family returned shape {mat.shape}, expected {(fam.dim, fam.dim)}")
    return DensityMatrix(mat)


def eval_rho_prime(fam: StateFamily, theta: float) -> np.ndarray:
    """Derivative of the family at theta, per its derivative mode.

    The result is Hermitian and traceless within the mode tolerance
    (1e-12 analytic, 1e-7 numerical) and finite; violations mean the family
    itself is inconsistent and raise InvalidInput.
    """
    mode = fam.derivative_mode
    if isinstance(mode, Analytic):
        theta = _check_theta(fam, theta)
        rp = np.asarray(fam.rho_prime_of(theta))
        tol = TRACE_TOL_ANALYTIC
    else:
        theta = _check_finite(theta)
        h = _check_step(mode.step if mode.step is not None else default_step(theta))
        theta = _check_theta(fam, theta, pad=h)
        rp = (np.asarray(fam.rho_of(theta + h)) - np.asarray(fam.rho_of(theta - h))) / (2.0 * h)
        tol = TRACE_TOL_NUMERIC
    if rp.shape != (fam.dim, fam.dim):
        raise InvalidInput(f"derivative has shape {rp.shape}, expected {(fam.dim, fam.dim)}")
    rp = require_hermitian(rp, "family derivative", tol)
    scale = max(1.0, float(np.abs(rp).max(initial=0.0)))
    if abs(float(rp.trace().real)) > tol * scale:
        raise InvalidInput("family derivative has non-zero trace beyond mode tolerance")
    return rp


class SpectralBranches:
    """Eigen-data of (rho, rho') resolved into clustered spectral branches.

    basis columns hold the orthonormal eigenvectors in ascending eigenvalue
    order: set by __init__ for a point given its basis (an eigensolver
    point), built on first read by the callable given in its place (a point
    of a UnitaryPath), which is then dropped.  eigenvalues are the raw
    solver values, which also give dim, and cluster_values their
    per-cluster means, over clusters of cluster_mults consecutive
    eigenvalues each; cluster_slices, the columns of each cluster, are
    built on first read.  rho' decomposes as
        rho' = sum_k value_prime_k P_k + sum_k cluster_value_k P'_k.
    rho' in the eigenbasis is given as a dense matrix or, by a closed-form
    family, as a HermitianTridiagonal (kept as band); rho_prime_eig
    materializes a band on first use, for the readers that need the whole
    matrix.  Dense per-cluster projections are materialized lazily so that
    information-only paths stay O(dim^2) in memory.  kernels holds the
    point's mean kernel table of each model, filled on first use by
    ldops.kernel_table, and on a banded point the model's kernel over the
    band's entries under ("band", model), filled by ldops.kernel_entries,
    and rho' over that kernel under ("band_ld", model), filled by
    ldops.expectations; all are shared by every later reader of the point.
    """

    def __init__(
        self,
        basis: np.ndarray | Callable[[], np.ndarray],
        eigenvalues: np.ndarray,
        rho_prime_eig: np.ndarray | HermitianTridiagonal,
        cluster_mults: np.ndarray,
        cluster_values: np.ndarray,
        cluster_value_primes: np.ndarray,
    ):
        if callable(basis):
            self._basis_of = basis
        else:
            self.basis = basis
        self.eigenvalues = eigenvalues
        if isinstance(rho_prime_eig, HermitianTridiagonal):
            self.band = rho_prime_eig
        else:
            self.band = None
            self.rho_prime_eig = rho_prime_eig
        self.cluster_mults = cluster_mults
        self.cluster_values = cluster_values
        self.cluster_value_primes = cluster_value_primes
        self.kernels: dict[str | tuple[str, str], np.ndarray] = {}

    @cached_property
    def basis(self) -> np.ndarray:
        """The basis of a point given a callable for it, built on first
        read; the callable goes, so that a kept point holds no family.  A
        callable that returns anything but a numeric dim x dim array raises
        InvalidInput."""
        basis = np.asarray(self._basis_of())
        if basis.shape != (self.dim, self.dim) or basis.dtype.kind not in "biufc":
            raise InvalidInput(f"a basis must be a numeric {self.dim} x {self.dim} array, got shape {basis.shape}")
        del self._basis_of
        return basis

    @cached_property
    def rho_prime_eig(self) -> np.ndarray:
        """rho' in the eigenbasis as a dense matrix: set by __init__ for a
        dense point, built from the band on first use for a banded one."""
        return self.band.dense()

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.cluster_mults.size

    @cached_property
    def cluster_slices(self) -> list[slice]:
        """The eigenvector columns of each cluster."""
        stops = np.cumsum(self.cluster_mults).tolist()
        return [slice(b - m, b) for b, m in zip(stops, self.cluster_mults.tolist())]

    @cached_property
    def cluster_index(self) -> np.ndarray:
        """Cluster number of each eigenvector column."""
        return np.repeat(np.arange(self.n_clusters), self.cluster_mults)

    def rho(self) -> np.ndarray:
        return (self.basis * self.eigenvalues) @ self.basis.conj().T

    def projection(self, k: int) -> np.ndarray:
        cols = self.basis[:, self.cluster_slices[k]]
        return cols @ cols.conj().T

    def projections(self) -> np.ndarray:
        """Every cluster projection P_k as a stack of shape (K, dim, dim)."""
        return np.stack([self.projection(k) for k in range(self.n_clusters)])

    def projection_primes(self) -> np.ndarray:
        """Every dP_k/dtheta, from first-order perturbation of the other
        clusters, as a stack of shape (K, dim, dim).

        In the eigenbasis dP_k/dtheta carries rho'_ab / (value_k - value_j)
        at every entry coupling cluster k with another cluster j, in either
        order, and zero elsewhere.
        """
        k = np.arange(self.n_clusters)[:, None, None]
        idx = self.cluster_index
        in_row = idx[:, None] == k
        in_col = idx[None, :] == k
        coupling = in_row != in_col
        other = np.where(in_col, idx[:, None], idx[None, :])
        gap = np.where(coupling, self.cluster_values[k] - self.cluster_values[other], 1.0)
        block = np.where(coupling, self.rho_prime_eig / gap, 0j)
        return self.basis @ block @ self.basis.conj().T


def _cluster_bounds(w: np.ndarray) -> np.ndarray:
    """Index of the first eigenvalue of each cluster of an ascending
    spectrum, followed by the spectrum's size."""
    floor = CLUSTER_ABS_FLOOR_REL * float(w[-1] - w[0])
    merge = w[1:] - w[:-1] <= np.maximum(floor, CLUSTER_REL * 0.5 * (w[:-1] + w[1:]))
    return np.concatenate(([0], (~merge).nonzero()[0] + 1, [w.size]))


class Eigenframe(NamedTuple):
    """A state's eigendecomposition known in closed form: orthonormal basis
    columns and their eigenvalues, in ascending order.  The basis may be
    given as a callable that returns it, for SpectralBranches to call on
    the first read."""

    basis: np.ndarray | Callable[[], np.ndarray]
    eigenvalues: np.ndarray


def spectral_branches(
    rho: DensityMatrix | np.ndarray | Eigenframe,
    rho_prime: np.ndarray | HermitianTridiagonal,
) -> SpectralBranches:
    """Resolve (rho, rho') into spectral branches.

    rho is a state, eigendecomposed by DensityMatrix, and rho' its
    derivative, checked Hermitian and of the state's shape; or rho is the
    Eigenframe of a family whose spectrum is known in closed form, and rho'
    is already given in that basis, as a dense matrix or a
    HermitianTridiagonal (whose coupling rates come from its stored
    entries alone).  An Eigenframe's eigenvalues must be a non-empty 1-d
    real numpy array, finite and ascending, and its rho' finite, of their
    dimension; anything else raises InvalidInput.  These checks read the
    eigenvalues and, of a band, its O(dim) entries.  Either way the
    eigenvalues pass the same rank, clustering and rotation-rate checks.

    Consecutive eigenvalues join one cluster when their gap is below
    max(CLUSTER_ABS_FLOOR_REL * spectral diameter, CLUSTER_REL * pair
    mean).  DegenerateCrossing is raised for the first pair of neighbouring
    clusters whose projection rotation rate ||coupling||/gap exceeds
    MIXING_CAP; the caller may then evaluate the family at another theta.
    """
    if isinstance(rho, Eigenframe):
        v, w = rho
        if not (isinstance(w, np.ndarray) and w.ndim == 1 and w.size and w.dtype.kind in "iuf"):
            raise InvalidInput("an Eigenframe's eigenvalues must be a non-empty 1-d real numpy array")
        if not (np.isfinite(w).all() and (w[1:] >= w[:-1]).all()):
            raise InvalidInput("an Eigenframe's eigenvalues must be finite and ascending")
        _check_rank(w)
        return _branches(v, w, _checked_frame_derivative(rho_prime, w.size))
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(np.asarray(rho))
    rho_prime = require_hermitian(np.asarray(rho_prime), "rho_prime")
    if rho_prime.shape != rho.matrix.shape:
        raise InvalidInput("rho and rho_prime must share a dimension")
    return _state_branches(rho, rho_prime)


def _checked_frame_derivative(
    rp: np.ndarray | HermitianTridiagonal, dim: int
) -> np.ndarray | HermitianTridiagonal:
    """rho' given in an Eigenframe's basis, checked finite and of the
    frame's dimension: a HermitianTridiagonal, or a dense numeric matrix."""
    if isinstance(rp, HermitianTridiagonal):
        if rp.dim != dim:
            raise InvalidInput(f"rho' of dimension {rp.dim} does not match the frame's {dim} eigenvalues")
        if not (np.isfinite(rp.diag).all() and np.isfinite(rp.upper).all()):
            raise InvalidInput("rho' contains non-finite entries")
        return rp
    rp = np.asarray(rp)
    if rp.shape != (dim, dim):
        raise InvalidInput(f"rho' of shape {rp.shape} does not match the frame's {dim} eigenvalues")
    if rp.dtype.kind not in "biufc" or not np.isfinite(rp).all():
        raise InvalidInput("rho' contains non-numeric or non-finite entries")
    return rp


def _state_branches(rho: DensityMatrix, rho_prime: np.ndarray) -> SpectralBranches:
    """spectral_branches of a state and of its derivative, already checked
    Hermitian and of the state's shape (by eval_rho_prime, say)."""
    v = rho.eigenvectors
    return _branches(v, rho.eigenvalues, v.conj().T @ rho_prime @ v)


def _branches(
    v: np.ndarray | Callable[[], np.ndarray],
    w: np.ndarray,
    rp_eig: np.ndarray | HermitianTridiagonal,
) -> SpectralBranches:
    """The clustered branches of checked eigen-data: the basis v, the
    ascending eigenvalues w above the rank floor, and rho' in that basis."""
    # Slices and array methods, not np.diff, np.flatnonzero or np.diag:
    # at d <= 4 their wrappers' per-call overhead is a visible share of a
    # point; DensityMatrix, eval_rho_prime, qfi and ldops call .trace()
    # and .sum() for the same reason.
    bounds = _cluster_bounds(w)
    starts = bounds[:-1]
    mults = bounds[1:] - starts
    values = np.add.reduceat(w, starts) / mults

    # Squared Frobenius norm of each coupling block between neighbouring
    # clusters; in a tridiagonal it is the one entry across the boundary.
    if isinstance(rp_eig, HermitianTridiagonal):
        diag = rp_eig.diag.real
        coupling_sq = np.abs(rp_eig.upper[starts[1:] - 1]) ** 2
    else:
        diag = rp_eig.diagonal().real
        block_sq = np.add.reduceat(np.add.reduceat(np.abs(rp_eig) ** 2, starts, axis=0), starts, axis=1)
        coupling_sq = block_sq.diagonal(1)
    primes = np.add.reduceat(diag, starts) / mults

    rates = np.sqrt(coupling_sq) / (values[1:] - values[:-1])
    for k in (rates > MIXING_CAP).nonzero()[0][:1]:
        pair = (float(values[k]), float(values[k + 1]))
        raise DegenerateCrossing(
            f"projection rotation rate {rates[k]:.3e} exceeds {MIXING_CAP:g} "
            f"between eigenvalues {pair[0]:.6g} and {pair[1]:.6g}",
            pair=pair,
        )

    return SpectralBranches(
        basis=v,
        eigenvalues=w,
        rho_prime_eig=rp_eig,
        cluster_mults=mults,
        cluster_values=values,
        cluster_value_primes=primes,
    )


def branches_at(fam: StateFamily, theta: float) -> SpectralBranches:
    """Convenience: branches of (rho, rho') evaluated from a family, through
    the eigensolver even when the family has a unitary_path.  The state and
    rho' are each checked once, by eval_rho and eval_rho_prime."""
    return _state_branches(eval_rho(fam, theta), eval_rho_prime(fam, theta))


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
    proj = br.projections()
    prime = br.projection_primes()
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
    family must keep a constant cluster count on [theta - h, theta + h].
    """
    theta = _check_theta(fam, theta)
    h = CURVATURE_STEP
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
    proj = mid.projections()
    prime = mid.projection_primes()

    def second_diff(lo: SpectralBranches, hi: SpectralBranches, step: float, k: int) -> np.ndarray:
        return (hi.projection(k) - 2.0 * mid.projection(k) + lo.projection(k)) / step**2

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
    theta -> 0, which is why branch data cannot be assigned there.
    """
    theta = _real(theta, "theta")
    if not (math.isfinite(theta) and abs(theta) <= 1.0):
        raise DomainError("theta must lie in [-1, 1]", value=theta)
    eye = np.eye(2)
    if theta == 0.0:
        rho = DensityMatrix(0.5 * eye)
        return NonsmoothProjectionState(
            rho=rho,
            p1=np.diag([1.0, 0.0]),
            p2=np.diag([0.0, 1.0]),
            degenerate_at_zero=True,
        )
    gap = math.exp(-1.0 / theta**2)
    lam1 = 0.5 * (1.0 + gap)
    lam2 = 0.5 * (1.0 - gap)
    c = math.cos(1.0 / theta)
    s = math.sin(1.0 / theta)
    p1 = np.array([[c * c, c * s], [c * s, s * s]])
    p2 = eye - p1
    rho = DensityMatrix(lam1 * p1 + lam2 * p2)
    return NonsmoothProjectionState(rho=rho, p1=p1, p2=p2, degenerate_at_zero=theta == 0.0)


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
    min_rel_gap = _check_tolerance(min_rel_gap, "min_rel_gap")
    for _ in range(200):
        g0 = random_hermitian(dim, rng, scale=0.6)
        if commuting:
            # same eigenbasis, independent spectrum for the direction
            _, v = np.linalg.eigh(g0)
            g1 = (v * rng.standard_normal(dim)) @ v.conj().T
        else:
            g1 = random_hermitian(dim, rng, scale=0.6)
        w = np.linalg.eigh(hermitize(g0))[0]
        diam = w[-1] - w[0]
        if diam <= 0 or np.min(np.diff(w)) < min_rel_gap * diam:
            continue

        # rho and rho' of one point share the decomposition
        @_last_theta
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
