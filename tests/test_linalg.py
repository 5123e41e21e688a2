"""Scalar and matrix helpers: logarithmic-mean kernel, spectral matrix
functions, Schatten norms."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldqfi
from ldqfi import logmean_kernel, logmean_matrix, random_hermitian, schatten_norm, trace_product
from ldqfi.linalg import hermitize, is_hermitian, matrix_function, require_hermitian
from ldqfi.errors import InvalidInput

positive = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(positive, positive)
@settings(max_examples=200, deadline=None)
def test_logmean_between_geometric_and_arithmetic(a: float, b: float) -> None:
    lm = logmean_kernel(a, b)
    gm = math.sqrt(a * b)
    am = 0.5 * (a + b)
    assert gm * (1 - 1e-12) <= lm <= am * (1 + 1e-12)


@given(positive, positive)
@settings(max_examples=200, deadline=None)
def test_logmean_symmetric_and_homogeneous(a: float, b: float) -> None:
    assert logmean_kernel(a, b) == pytest.approx(logmean_kernel(b, a), rel=1e-13)
    c = 3.7
    assert logmean_kernel(c * a, c * b) == pytest.approx(c * logmean_kernel(a, b), rel=1e-12)


def test_logmean_diagonal_and_near_diagonal() -> None:
    assert logmean_kernel(0.3, 0.3) == pytest.approx(0.3, abs=0.0)
    a = 0.5
    for rel in (1e-15, 1e-12, 1e-9, 1e-6):
        b = a * (1 + rel)
        lm = logmean_kernel(a, b)
        assert a <= lm <= b


def test_logmean_accuracy_across_switch_boundary() -> None:
    """Machine-precision agreement with a 50-digit oracle for relative
    splits from 1e-15 to 1e-1, covering both evaluation branches."""
    import mpmath

    mpmath.mp.dps = 50
    a = 0.437
    for rel in (1e-15, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 4e-3, 6e-3, 1e-2, 1e-1):
        b = float(a * (1 + rel))
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        exact = float((mb - ma) / (mpmath.log(mb) - mpmath.log(ma))) if b != a else a
        assert logmean_kernel(a, b) == pytest.approx(exact, rel=5e-15)
        arr = logmean_matrix(np.array([a, b]))
        assert arr[0, 1] == pytest.approx(exact, rel=5e-15)


def test_logmean_against_definition() -> None:
    a, b = 0.7, 0.1
    assert logmean_kernel(a, b) == pytest.approx((a - b) / math.log(a / b), rel=1e-14)


def test_logmean_matrix_entries() -> None:
    w = np.array([0.5, 0.3, 0.2])
    k = logmean_matrix(w)
    assert k.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            assert k[i, j] == pytest.approx(logmean_kernel(w[i], w[j]), rel=1e-14)


def test_matrix_function_log_exp_roundtrip(rng) -> None:
    a = random_hermitian(5, rng)
    a = a @ a.conj().T + np.eye(5)  # positive definite
    logged = matrix_function(a, np.log)
    back = matrix_function(logged, np.exp)
    assert np.linalg.norm(back - a) <= 1e-11 * np.linalg.norm(a)


def test_matrix_function_matches_scipy_sqrt(rng) -> None:
    from scipy.linalg import sqrtm

    a = random_hermitian(4, rng)
    a = a @ a.conj().T + 0.5 * np.eye(4)
    ours = matrix_function(a, np.sqrt)
    ref = sqrtm(a)
    assert np.linalg.norm(ours - ref) <= 1e-10


def test_schatten_norms(rng) -> None:
    a = random_hermitian(4, rng)
    w = np.linalg.eigvalsh(a)
    assert schatten_norm(a, 1) == pytest.approx(np.sum(np.abs(w)), rel=1e-12)
    assert schatten_norm(a, 2) == pytest.approx(np.linalg.norm(a), rel=1e-12)
    assert schatten_norm(a, "op") == pytest.approx(np.max(np.abs(w)), rel=1e-12)
    with pytest.raises(InvalidInput):
        schatten_norm(a, 3)


def test_hermitian_helpers(rng) -> None:
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = hermitize(a)
    assert is_hermitian(h)
    assert not is_hermitian(a + np.diag([0, 1j, 0]))
    require_hermitian(h)
    with pytest.raises(InvalidInput):
        require_hermitian(a + 0.1 * np.diag([0, 1j, 0]))


def test_random_hermitian_is_hermitian(rng) -> None:
    a = random_hermitian(6, rng)
    assert is_hermitian(a)
    assert a.shape == (6, 6)


def test_trace_product_matches_trace_of_matmul(rng) -> None:
    a = random_hermitian(5, rng)
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert trace_product(a, b) == pytest.approx(np.trace(a @ b).real, abs=1e-13)
    assert trace_product(a.real, b.real) == pytest.approx(np.trace(a.real @ b.real), abs=1e-13)


@pytest.mark.parametrize("a_shape, b_shape", [((2, 2), (3, 3)), ((2, 2), (2,)), ((2,), (2,)),
                                              ((2, 3), (2, 3)), ((2, 2), (1, 2, 2))])
def test_trace_product_rejects_mismatched_or_non_square(a_shape, b_shape) -> None:
    with pytest.raises(InvalidInput):
        trace_product(np.ones(a_shape), np.ones(b_shape))


# np.trace applied directly to an @ product, an O(d^3) product for an O(d^2)
# trace; the argument may hold one level of calls, as in np.trace(br.rho() @ h).
_TRACE_OF_MATMUL = re.compile(r"np\.trace\((?:[^()]|\([^()]*\))*@")


def test_library_takes_no_trace_of_a_matrix_product() -> None:
    offenders = []
    for path in sorted(Path(ldqfi.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in _TRACE_OF_MATMUL.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            offenders.append(f"{path.name}:{line}: {text.splitlines()[line - 1].strip()}")
    assert not offenders, "use trace_product for Tr(AB):\n" + "\n".join(offenders)
