"""Hermitian linear algebra primitives used by every higher layer.

Hermiticity checks, spectral matrix functions, the logarithmic-mean kernel
and Schatten norms.  Other modules call numpy's eigensolvers directly; the
clustered spectral decomposition of a family's state is
``family.spectral_branches``.
"""

from __future__ import annotations

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


def _as_square_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (A + A†)/2."""
    return 0.5 * (a + a.conj().T)


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    a = np.asarray(a)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    return bool(np.abs(a - a.conj().T).max(initial=0.0) <= tol * scale)


def require_hermitian(a: np.ndarray, name: str = "matrix", tol: float = HERMITICITY_TOL) -> np.ndarray:
    a = _as_square_matrix(a, name)
    if not is_hermitian(a, tol):
        raise InvalidInput(f"{name} is not Hermitian within tolerance {tol:g}")
    return hermitize(a)


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


def logmean_kernel(a: float, b: float) -> float:
    """Logarithmic mean (a - b)/(ln a - ln b) of two positive numbers.

    Continuous at a = b where it equals a; the off-diagonal entry of
    logmean_matrix([a, b]).  Equals the integral of a^t b^(1-t) over t in
    [0, 1].
    """
    if not (a > 0.0 and b > 0.0) or not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("logmean_kernel needs strictly positive finite arguments",
                          value=float(min(a, b)))
    return float(logmean_matrix(np.array([a, b]))[0, 1])


def logmean_matrix(w: np.ndarray) -> np.ndarray:
    """Matrix of pairwise logarithmic means K[i, j] = logmean(w[i], w[j])
    of a strictly positive spectrum.

    Near-degenerate pairs switch to a short series in u = ln(hi/lo)
    because the direct ratio cancels.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise InvalidInput("logmean_matrix expects a 1-d array of eigenvalues")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise DomainError("logmean_matrix needs strictly positive finite eigenvalues",
                          value=float(w.min(initial=np.nan)))
    lo = np.minimum(w[:, None], w[None, :])
    hi = np.maximum(w[:, None], w[None, :])
    diff = hi - lo
    near = diff <= LOGMEAN_SWITCH * (hi + lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = diff / (np.log(hi) - np.log(lo))
    u = np.log(hi / np.where(near, lo, 1.0))
    series = lo * (
        1.0 + u * (0.5 + u * (1.0 / 6.0 + u * (1.0 / 24.0 + u * (1.0 / 120.0 + u / 720.0))))
    )
    return np.where(near, series, ratio)


def schatten_norm(a: np.ndarray, p: int | str) -> float:
    """Schatten norm: p = 1 trace norm, p = 2 Frobenius, p = "op" operator norm."""
    a = _as_square_matrix(a)
    if p == 1:
        return float(np.linalg.svd(a, compute_uv=False).sum())
    if p == 2:
        return float(np.linalg.norm(a))
    if p == "op":
        return float(np.linalg.norm(a, 2))
    raise InvalidInput(f"unsupported Schatten order {p!r}; use 1, 2 or 'op'")


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix, used by verification suites and tests."""
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(x) * scale
