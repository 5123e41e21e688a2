"""Linear algebra primitives used by every higher layer.

Hermiticity checks, the positive-spectrum check of every mean kernel, the
elementwise logarithmic mean (``logmean_pairs``), the trace of a product,
Schatten norms, Hermitian tridiagonal matrices, and the exponential
theta -> e^(theta A) of a fixed tridiagonal A (``TridiagonalExponential``,
the coherent displacement), from A's band powers formed once.
Everything here runs on numpy alone.  Other modules call numpy's
eigensolvers directly, the state's own eigensolve pinned to one BLAS
thread by ``_one_blas_thread``; the clustered spectral decomposition of a
family's state is ``family.spectral_branches``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import threading
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidInput

# Relative tolerance used when deciding whether a matrix is Hermitian.
HERMITICITY_TOL = 1e-12

# Entries of a modulus below this can be subtracted, added and taken the
# modulus of their difference without overflow (2 sqrt(2) 2^1022 < 2^1024).
_HUGE = 2.0**1022

# Relative half-gap below which the logarithmic mean switches to its series.
# At the boundary u = ln(hi/lo) ~ 1e-2: the direct ratio's error is ~eps/u
# (subtraction of logs), the six-term series' truncation is u^6/5040 ~ 2e-16,
# so both branches stay at machine precision everywhere.
LOGMEAN_SWITCH = 5e-3

# Coefficients b_0..b_13 of the diagonal [13/13] Pade approximant to e^x,
# and the largest 1-norm theta_13 at which it meets double-precision unit
# roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3).
_THETA_13 = 5.371920351148152e0
_PADE_13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE_DEGREE = len(_PADE_13_B) - 1
_PADE_EXPONENTS = np.arange(_PADE_DEGREE + 1)
# The approximant's denominator V - U and numerator V + U as rows of
# coefficients over the powers A^0..A^13: U sums the odd powers, V the even.
_PADE_ROWS = np.array(_PADE_13_B) * np.array([(-1.0) ** _PADE_EXPONENTS, np.ones(_PADE_DEGREE + 1)])


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """Getter and setter of the thread count of numpy's bundled OpenBLAS,
    or None where numpy links another BLAS."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


# Calls currently inside _one_blas_thread, and the thread count the first
# of them found, guarded by _PIN_LOCK.
_PIN_LOCK = threading.Lock()
_pins = {"active": 0, "saved": 1}


def _one_blas_thread(fn: Callable, *args, **kwargs):
    """fn(*args, **kwargs) with numpy's OpenBLAS pinned to one thread.

    LAPACK's blocked eigensolvers and SVDs round differently with the
    thread count; pinned, their bytes are those of a single-thread run
    whatever the environment sets.  The count is process-wide: the first
    of overlapping pinned calls (from several Python threads) sets it to
    one and the last restores the count the first found, so a pinned call
    is never unpinned by another.  Meanwhile unpinned BLAS calls on other
    threads also run on one thread, and a count set by other code during a
    pin is overwritten when the pin ends.  Without numpy's bundled OpenBLAS
    the call runs unpinned.  Private, so that a tracer wrapping the public
    functions keeps timing the eigensolve inside its caller.
    """
    threads = _openblas_threads()
    if threads is None:
        return fn(*args, **kwargs)
    get, put = threads
    with _PIN_LOCK:
        if _pins["active"] == 0:
            _pins["saved"] = get()
            if _pins["saved"] != 1:
                put(1)
        _pins["active"] += 1
    try:
        return fn(*args, **kwargs)
    finally:
        with _PIN_LOCK:
            _pins["active"] -= 1
            if _pins["active"] == 0 and _pins["saved"] != 1:
                put(_pins["saved"])


def _square(a: np.ndarray, name: str, ndims: tuple[int, ...]) -> np.ndarray:
    """a as a numeric array whose last two axes are square: a matrix, or a
    stack of them where ndims allows 3 axes; its entries are not read."""
    a = np.asarray(a)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    if a.dtype.kind not in "biufc":
        raise InvalidInput(f"{name} contains non-numeric or non-finite entries")
    return a


def _as_square_matrix(a: np.ndarray, name: str = "matrix", ndims: tuple[int, ...] = (2,)) -> np.ndarray:
    """a as a finite numeric array whose last two axes are square: a
    matrix, or a stack of them where ndims allows 3 axes."""
    a = _square(a, name, ndims)
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} contains non-numeric or non-finite entries")
    return a


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (A + A†)/2, of a matrix or of each
    matrix of a stack (the last two axes)."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """Whether a matrix, or each matrix of a stack (the last two axes), is
    Hermitian within tol relative to its largest entry (at least 1); a
    bool matrix is read as its 0/1 values."""
    a = np.asarray(a)
    if a.dtype.kind == "b":
        a = a.astype(float)
    a, peaks, scale = _in_range(a)
    return scale > 0.0 and _within(a, a.conj().swapaxes(-1, -2), tol, peaks, scale)


def _peaks(a: np.ndarray) -> np.ndarray:
    """The largest modulus of each matrix of a (the last two axes)."""
    return np.abs(a).max(axis=(-2, -1), initial=0.0)


def _in_range(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(a, _peaks(a), scale) with scale 1 where every largest modulus is
    below _HUGE.  Otherwise, for finite entries, a / 4 and its peaks with
    scale 0.25: an exact rescaling, under which no difference, sum or
    modulus that the Hermiticity checks form overflows.  Scale 0 where an
    entry is not finite (a NaN or infinite peak is caught by the same test)."""
    peaks = _peaks(a)
    if (peaks < _HUGE).all():
        return a, peaks, 1.0
    if not np.isfinite(a).all():
        return a, peaks, 0.0
    a = 0.25 * a
    return a, _peaks(a), 0.25


def _within(a: np.ndarray, a_h: np.ndarray, tol: float, peaks: np.ndarray, floor: float = 1.0) -> bool:
    """is_hermitian of a, given its conjugate transpose a_h and _peaks(a);
    floor is the least tolerance scale, 1 for a as given and 0.25 for a
    quarter of it (see _in_range)."""
    dev = np.abs(a - a_h).max(axis=(-2, -1), initial=0.0)
    return bool((dev <= tol * np.maximum(floor, peaks)).all())


def require_hermitian(a: np.ndarray, name: str = "matrix", tol: float = HERMITICITY_TOL) -> np.ndarray:
    """The Hermitian part of a finite square matrix, or of a stack of them
    of shape (k, d, d), checked Hermitian within tol >= 0 (see
    is_hermitian).  The largest modulus of each matrix, which the check
    reads, also finds a non-finite entry, so the entries are tested one by
    one only when a largest modulus is not below _HUGE (|z| of a finite
    complex entry may overflow); a matrix with such an entry is checked,
    and its part formed, on a quarter of it (see _in_range).  A matrix
    equal to its conjugate transpose, as a family's closed-form state or
    random_hermitian's draw often is, passes without the tolerance test.
    The conjugate transpose is formed once, for the check and the part.  A
    bool matrix is read as its 0/1 values."""
    a = _square(a, name, (2, 3))
    if not tol >= 0.0:
        raise InvalidInput(f"Hermiticity tolerance must be >= 0, got {tol!r}")
    if a.dtype.kind == "b":
        a = a.astype(float)
    a, peaks, scale = _in_range(a)
    if not scale:
        raise InvalidInput(f"{name} contains non-numeric or non-finite entries")
    a_h = a.conj().swapaxes(-1, -2)
    if not ((a == a_h).all() or _within(a, a_h, tol, peaks, scale)):
        raise InvalidInput(f"{name} is not Hermitian within tolerance {tol:g}")
    part = 0.5 * (a + a_h)
    return part if scale == 1.0 else part / scale


def require_positive(w: np.ndarray, name: str) -> np.ndarray:
    """w as a 1-d float array of strictly positive finite eigenvalues: the
    domain of every mean kernel.  Any other shape raises InvalidInput, any
    other value DomainError carrying the first offending eigenvalue."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise InvalidInput(f"{name} expects a 1-d array of eigenvalues")
    # min and max see a NaN too; the two reductions keep this check cheap on
    # the per-point path
    if w.size and not (0.0 < w.min() and w.max() < np.inf):
        offending = w[~((w > 0.0) & (w < np.inf))][0]
        raise DomainError(f"{name} needs strictly positive finite eigenvalues", value=float(offending))
    return w


def logmean_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise logarithmic mean of positive arrays broadcast together.

    Near-degenerate pairs switch to a short series in u = ln(hi/lo)
    because the direct ratio cancels.  The logarithms of the direct ratio
    are taken before broadcasting (N of them for a column against a row),
    since ln(hi) - ln(lo) is |ln a - ln b| exactly; the series' ln(hi/lo)
    is taken at the near pairs alone.
    """
    log_gap = np.abs(np.log(a) - np.log(b))
    lo = np.asarray(np.minimum(a, b))
    hi = np.asarray(np.maximum(a, b))
    diff = hi - lo
    near = np.asarray(diff <= LOGMEAN_SWITCH * (hi + lo))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(diff / log_gap)
    lo_near = lo[near]
    u = np.log(hi[near] / lo_near)
    out[near] = lo_near * (
        1.0 + u * (0.5 + u * (1.0 / 6.0 + u * (1.0 / 24.0 + u * (1.0 / 120.0 + u / 720.0))))
    )
    return out


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Real part of Tr(AB) as sum_ij a_ij b_ji, in O(d^2) without forming AB.

    Both operands must be numeric square matrices of one shape; for
    Hermitian A and B the real part is the whole trace.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    numeric = a.dtype.kind in "biufc" and b.dtype.kind in "biufc"
    if not numeric or a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise InvalidInput(
            f"trace of a product needs two numeric square matrices of one shape, got {a.shape} and {b.shape}"
        )
    return float(np.sum(a * b.T).real)


def schatten_norm(a: np.ndarray, p: int | str) -> float:
    """Schatten norm of a square matrix: p = 1 trace norm, p = 2 Frobenius,
    p = "op" operator norm.

    The trace norm is sum |eigvalsh(a)| and takes an exactly Hermitian
    matrix, such as hermitize returns: any other raises InvalidInput, since
    eigvalsh would read its lower triangle alone.  A matrix with a
    non-numeric or non-finite entry raises InvalidInput at every order."""
    a = _as_square_matrix(a)
    if p == 1:
        return float(_trace_norms(a[None])[0])
    if p == 2:
        return float(np.linalg.norm(a))
    if p == "op":
        return float(np.linalg.norm(a, 2))
    raise InvalidInput(f"unsupported Schatten order {p!r}; use 1, 2 or 'op'")


def trace_norms(a: np.ndarray) -> np.ndarray:
    """The trace norm of each matrix of a stack of shape (k, d, d), as an
    array of length k: schatten_norm(a[i], 1) of every i, bit for bit, from
    one stacked eigvalsh, with the same checks: a non-numeric or non-finite
    entry, or a matrix that is not exactly Hermitian, raises InvalidInput
    with schatten_norm's message, and so does an array that is not such a
    stack."""
    a = np.asarray(a)
    if a.ndim != 3:
        raise InvalidInput(f"the trace norms take a stack of shape (k, d, d), got shape {a.shape}")
    return _trace_norms(_as_square_matrix(a, ndims=(3,)))


def _trace_norms(a: np.ndarray) -> np.ndarray:
    """trace_norms of a stack already checked square, numeric and finite."""
    if not np.array_equal(a, a.conj().swapaxes(-1, -2)):
        raise InvalidInput("the trace norm takes an exactly Hermitian matrix; hermitize it first")
    return np.abs(_one_blas_thread(np.linalg.eigvalsh, a)).sum(axis=-1)


class HermitianTridiagonal:
    """Hermitian tridiagonal matrix kept as its diagonal and superdiagonal;
    the subdiagonal is the conjugate of the superdiagonal."""

    def __init__(self, diag: np.ndarray, upper: np.ndarray):
        self.diag = np.asarray(diag)
        self.upper = np.asarray(upper)
        numeric = self.diag.dtype.kind in "biufc" and self.upper.dtype.kind in "biufc"
        if not numeric or self.diag.ndim != 1 or self.upper.shape != (self.diag.size - 1,):
            raise InvalidInput("a tridiagonal needs a numeric diagonal of length n and superdiagonal of n - 1")

    @property
    def dim(self) -> int:
        return self.diag.size

    @functools.cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of every stored entry: the diagonal, then
        the superdiagonal, then the subdiagonal."""
        i = np.arange(self.dim)
        rows = np.concatenate((i, i[:-1], i[1:]))
        cols = np.concatenate((i, i[1:], i[:-1]))
        return rows, cols, np.concatenate((self.diag, self.upper, self.upper.conj()))

    def dense(self) -> np.ndarray:
        rows, cols, vals = self.entries
        out = np.zeros((self.dim, self.dim), dtype=vals.dtype)
        out[rows, cols] = vals
        return out


class TridiagonalExponential:
    """theta -> e^(theta A) for a fixed tridiagonal matrix A, given by its
    subdiagonal, diagonal and superdiagonal: a callable that returns the
    exponential as a dense matrix.

    Each call runs the degree-13 Pade approximant, at every norm, with
    scaling and squaring above theta_13: the scaling s is the least with
    |theta| ||A||_1 / 2^s <= theta_13, and the approximant of
    B = theta A / 2^s is solve(V - U, V + U) squared s times (Higham 2005).
    Lower degrees would meet the same absolute accuracy below their own
    theta_m, but not the entrywise accuracy of the small entries far from
    the diagonal.  Since A is fixed, its powers A^0..A^13 are formed once,
    by the tridiagonal recurrence A^(k+1) = A^k A, in row-band storage:
    powers[k, i, 13 + d] is the entry (i, i + d) of A^k, whose
    half-bandwidth is at most 13, and a slot outside the matrix holds zero.
    At each theta, V - U and V + U are then the coefficient combinations
    sum_k (+-1)^k b_k (theta / 2^s)^k A^k of the stored bands, placed in
    two dense matrices by one strided assignment; no power is multiplied at
    a call.

    Bands of a dimension or dtype that do not fit raise InvalidInput, and
    so does a theta that is not a finite real number; a norm
    |theta| ||A||_1 that overflows double precision raises DomainError.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        lower, diag, upper = (np.asarray(x) for x in (lower, diag, upper))
        numeric = all(x.dtype.kind in "biufc" and np.all(np.isfinite(x)) for x in (lower, diag, upper))
        n = diag.size
        if not numeric or diag.shape != (n,) or n < 1 or lower.shape != (n - 1,) or upper.shape != (n - 1,):
            raise InvalidInput(
                "a tridiagonal exponential needs finite numeric bands: a diagonal of length n and "
                "sub- and superdiagonals of n - 1"
            )
        dtype = np.result_type(lower, diag, upper, float)
        col = np.abs(diag).astype(float)
        col[1:] += np.abs(upper)
        col[:-1] += np.abs(lower)
        self.dim = n
        self.norm = float(col.max())
        # factors[:, i, c]: the entries (j - 1, j), (j, j) and (j + 1, j) of
        # A that the recurrence reads for slot c of row i, at column
        # j = i + c - 13; zero where j, or the row they name, is outside
        hw = _PADE_DEGREE
        j = np.arange(n)[:, None] + np.arange(-hw, hw + 1)
        inside = (j >= 0) & (j < n)
        cols = np.where(inside, j, 0)
        padded = np.zeros((3, n), dtype)
        padded[0, 1:], padded[1], padded[2, :-1] = upper, diag, lower
        factors = np.where(inside, padded[:, cols], 0)
        powers = np.zeros((hw + 1, n, 2 * hw + 1), dtype)
        powers[0, :, hw] = 1.0
        for k in range(hw):
            nxt = powers[k + 1]
            np.multiply(powers[k], factors[1], out=nxt)
            nxt[:, 1:] += powers[k, :, :-1] * factors[0, :, 1:]
            nxt[:, :-1] += powers[k, :, 1:] * factors[2, :, :-1]
        powers.flags.writeable = False
        self.powers = powers

    def __call__(self, theta: float) -> np.ndarray:
        theta = _real(theta, "theta")
        if not math.isfinite(theta):
            raise InvalidInput(f"theta must be finite, got {theta!r}")
        norm = abs(theta) * self.norm
        if norm == math.inf:
            raise DomainError("the 1-norm of the matrix overflows double precision", value=norm)
        s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
        hw, n = _PADE_DEGREE, self.dim
        coef = _PADE_ROWS * (theta / 2.0**s) ** _PADE_EXPONENTS
        bands = coef @ self.powers.reshape(hw + 1, -1)
        # Rows of n + 26 entries: entry (i, i + d) sits at i (n + 27) + 13 + d
        # and every band slot at its own place, the ones outside the matrix
        # in the padding; the dense matrices are the columns 13 .. n + 12.
        buf = np.zeros((2, n, n + 2 * hw), bands.dtype)
        step = buf.strides
        band_view = np.ndarray((2, n, 2 * hw + 1), buf.dtype, buf, 0, (step[0], step[1] + step[2], step[2]))
        band_view[...] = bands.reshape(2, n, 2 * hw + 1)
        q, p = buf[:, :, hw:n + hw]
        r = np.linalg.solve(q, p)
        for _ in range(s):
            r = r @ r
        return r


def _real(x, name: str) -> float:
    """x as a float when it is a real number (a bool is not), else
    InvalidInput; so is an integer too large for a float."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InvalidInput(f"{name} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise InvalidInput(f"{name} must be a real number within the range of a float") from None


def _positive_int(n, name: str) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInput(f"{name} must be a positive integer, got {n!r}")
    return int(n)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0,
                     count: int | None = None) -> np.ndarray:
    """Gaussian Hermitian matrix, used by verification suites and tests.

    With a count, a stack of shape (count, dim, dim) drawn from the same
    generator stream: bitwise the matrices that count successive single
    draws return.  The Hermitian part (Z + Z^dagger)/2 of each draw Z is
    built from the real and imaginary draws in place, with the bytes of
    hermitize(Z) and no conjugate copy, so a draw peaks at about twice the
    stack it returns.  A dimension or count that is not a positive integer,
    an rng that is not a numpy Generator or a scale that is not a finite
    real raises InvalidInput.
    """
    dim = _positive_int(dim, "dimension")
    k = 1 if count is None else _positive_int(count, "count")
    if not isinstance(rng, np.random.Generator):
        raise InvalidInput(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    scale = _real(scale, "scale")
    if not math.isfinite(scale):
        raise InvalidInput(f"scale must be finite, got {scale!r}")
    # each matrix draws its real part, then its imaginary part
    z = rng.standard_normal((k, 2, dim, dim))
    zr, zi = z[:, 0], z[:, 1]
    x = np.empty((k, dim, dim), dtype=complex)
    np.add(zr, zr.swapaxes(-1, -2), out=x.real)
    np.subtract(zi, zi.swapaxes(-1, -2), out=x.imag)
    x *= 0.5
    if scale != 1.0:
        x *= scale
    return x[0] if count is None else x
