"""Dense reference operators for the eigenbasis path: ld1 and ld2 from
their defining matrix equations, and the spectral matrix function that ld2
needs.  The library builds every operator as rho'_eig divided by a kernel
table; these build them without it, so the tests can compare the two."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ldqfi.errors import DomainError, InvalidInput
from ldqfi.family import DensityMatrix
from ldqfi.ldops import LdOperator
from ldqfi.linalg import hermitize, require_hermitian


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


def ld1(rho: DensityMatrix, rho_prime: np.ndarray) -> LdOperator:
    """Symmetrized one-sided derivative, (rho^-1 rho' + rho' rho^-1)/2.

    Direct matrix form without spectral data; the split is not computed.
    """
    rho_prime = require_hermitian(np.asarray(rho_prime), "rho_prime")
    x = np.linalg.solve(rho.matrix, rho_prime)
    return LdOperator(model="ld1", matrix=hermitize(x))


def ld2(rho: DensityMatrix, rho_prime: np.ndarray) -> LdOperator:
    """Symmetric sandwich derivative, rho^-1/2 rho' rho^-1/2.

    Direct matrix form without spectral data; the split is not computed.
    """
    rho_prime = require_hermitian(np.asarray(rho_prime), "rho_prime")
    inv_sqrt = matrix_function(rho.matrix, lambda w: w**-0.5)
    return LdOperator(model="ld2", matrix=hermitize(inv_sqrt @ rho_prime @ inv_sqrt))
