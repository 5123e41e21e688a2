"""Linear algebra primitives used by every higher layer.

Hermiticity checks, the positive-spectrum check of every mean kernel, the
elementwise logarithmic mean (``logmean_pairs``), the trace of a product,
Schatten norms, Hermitian tridiagonal matrices, and the matrix exponential
of a general square matrix (``expm``, used by the coherent displacement).
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

# Relative half-gap below which the logarithmic mean switches to its series.
# At the boundary u = ln(hi/lo) ~ 1e-2: the direct ratio's error is ~eps/u
# (subtraction of logs), the six-term series' truncation is u^6/5040 ~ 2e-16,
# so both branches stay at machine precision everywhere.
LOGMEAN_SWITCH = 5e-3

# Coefficients b_0..b_13 of the diagonal [13/13] Pade approximant to e^x,
# and the largest 1-norm theta_13 at which it meets double-precision unit
# roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3).
# The table holds them as rows over the stacked even powers I, A^2, A^4,
# A^6, splitting each sum at A^6: U = A (A^6 row 0 + row 2) and
# V = A^6 row 1 + row 3.
_THETA_13 = 5.371920351148152e0
_PADE_13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE_13 = np.array([
    (0.0,) + _PADE_13_B[9::2],
    (0.0,) + _PADE_13_B[8::2],
    _PADE_13_B[1:8:2],
    _PADE_13_B[0:8:2],
])


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


def _as_square_matrix(a: np.ndarray, name: str = "matrix", ndims: tuple[int, ...] = (2,)) -> np.ndarray:
    """a as a finite numeric array whose last two axes are square: a
    matrix, or a stack of them where ndims allows 3 axes."""
    a = np.asarray(a)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    if a.dtype.kind not in "biufc" or not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-numeric or non-finite entries")
    return a


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (A + A†)/2, of a matrix or of each
    matrix of a stack (the last two axes)."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """Whether a matrix, or each matrix of a stack (the last two axes), is
    Hermitian within tol relative to its largest entry (at least 1)."""
    a = np.asarray(a)
    return _within(a, a.conj().swapaxes(-1, -2), tol)


def _within(a: np.ndarray, a_h: np.ndarray, tol: float) -> bool:
    """is_hermitian of a, given its conjugate transpose a_h."""
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    dev = np.abs(a - a_h).max(axis=(-2, -1), initial=0.0)
    return bool(np.all(dev <= tol * scale))


def require_hermitian(a: np.ndarray, name: str = "matrix", tol: float = HERMITICITY_TOL) -> np.ndarray:
    """The Hermitian part of a finite square matrix, or of a stack of them
    of shape (k, d, d), checked Hermitian within tol (see is_hermitian).
    The conjugate transpose is formed once, for the check and the part."""
    a = _as_square_matrix(a, name, ndims=(2, 3))
    a_h = a.conj().swapaxes(-1, -2)
    if not _within(a, a_h, tol):
        raise InvalidInput(f"{name} is not Hermitian within tolerance {tol:g}")
    return 0.5 * (a + a_h)


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
    p = "op" operator norm."""
    a = _as_square_matrix(a)
    if p == 1:
        return float(_one_blas_thread(np.linalg.svd, a, compute_uv=False).sum())
    if p == 2:
        return float(np.linalg.norm(a))
    if p == "op":
        return float(np.linalg.norm(a, 2))
    raise InvalidInput(f"unsupported Schatten order {p!r}; use 1, 2 or 'op'")


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


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix by Pade scaling and squaring.

    The degree-13 Pade approximant is used at every norm: above theta_13,
    A is scaled by 2^-s into range and the approximant squared s times
    (Higham 2005).  Lower degrees would meet the same absolute accuracy
    below their own theta_m, but not the entrywise accuracy of the small
    entries far from the diagonal.  A matrix that is not square or has
    non-numeric or non-finite entries raises InvalidInput, one whose 1-norm
    overflows double precision DomainError.
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
    powers = _even_powers(a @ a, 4)
    a6 = powers[3]
    odd_hi, v_hi, odd_lo, v_lo = _combine(_PADE_13, powers)
    u = a @ (a6 @ odd_hi + odd_lo)
    v = a6 @ v_hi + v_lo
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _even_powers(a2: np.ndarray, k: int) -> np.ndarray:
    """The stack I, A^2, ..., A^(2k-2) of shape (k, n, n)."""
    powers = np.empty((k,) + a2.shape, dtype=a2.dtype)
    powers[0] = np.eye(len(a2))
    powers[1] = a2
    for j in range(2, k):
        np.matmul(powers[j - 1], a2, out=powers[j])
    return powers


def _combine(coef: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Each row of coef as a linear combination of the stacked powers, in
    one product."""
    k, n, _ = powers.shape
    return (coef @ powers.reshape(k, n * n)).reshape(len(coef), n, n)


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
    draws return.  A dimension or count that is not a positive integer, an
    rng that is not a numpy Generator or a scale that is not a finite real
    raises InvalidInput.
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
    x = np.empty((k, dim, dim), dtype=complex)
    x.real, x.imag = z[:, 0], z[:, 1]
    x = hermitize(x)
    x *= scale
    return x[0] if count is None else x
