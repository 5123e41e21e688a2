"""Scalar and matrix helpers: logarithmic-mean kernel and its table, the
dense oracles' spectral matrix function, Schatten norms, the tridiagonal
exponential of the coherent displacement, and the dense oracle's general
matrix exponential it is tested against."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldqfi
import dense_oracles
from dense_oracles import expm, matrix_function
from ldqfi import (
    CoherentFamily,
    kernel_matrix,
    random_analytic_family,
    random_hermitian,
    schatten_norm,
    trace_product,
)
from ldqfi.linalg import (
    LOGMEAN_SWITCH,
    HermitianTridiagonal,
    TridiagonalExponential,
    hermitize,
    is_hermitian,
    logmean_pairs,
    require_hermitian,
    trace_norms,
)
from ldqfi.errors import DomainError, InvalidInput

positive = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(positive, positive)
@settings(max_examples=200, deadline=None)
def test_logmean_between_geometric_and_arithmetic(a: float, b: float) -> None:
    lm = float(logmean_pairs(a, b))
    gm = math.sqrt(a * b)
    am = 0.5 * (a + b)
    assert gm * (1 - 1e-12) <= lm <= am * (1 + 1e-12)


@given(positive, positive)
@settings(max_examples=200, deadline=None)
def test_logmean_symmetric_and_homogeneous(a: float, b: float) -> None:
    assert float(logmean_pairs(a, b)) == pytest.approx(float(logmean_pairs(b, a)), rel=1e-13)
    c = 3.7
    assert float(logmean_pairs(c * a, c * b)) == pytest.approx(
        c * float(logmean_pairs(a, b)), rel=1e-12
    )


def test_logmean_diagonal_and_near_diagonal() -> None:
    assert float(logmean_pairs(0.3, 0.3)) == pytest.approx(0.3, abs=0.0)
    a = 0.5
    for rel in (1e-15, 1e-12, 1e-9, 1e-6):
        b = a * (1 + rel)
        lm = float(logmean_pairs(a, b))
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
        assert float(logmean_pairs(a, b)) == pytest.approx(exact, rel=5e-15)
        arr = kernel_matrix(np.array([a, b]), "bvn")
        assert arr[0, 1] == pytest.approx(exact, rel=5e-15)


def test_logmean_against_definition() -> None:
    a, b = 0.7, 0.1
    assert float(logmean_pairs(a, b)) == pytest.approx((a - b) / math.log(a / b), rel=1e-14)


def test_logmean_matrix_entries() -> None:
    w = np.array([0.5, 0.3, 0.2])
    k = kernel_matrix(w, "bvn")
    assert k.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            assert k[i, j] == pytest.approx(float(logmean_pairs(w[i], w[j])), rel=1e-14)


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
    # every order takes one matrix
    stack = random_hermitian(57, rng, count=5)
    for p in (1, 2, "op"):
        with pytest.raises(InvalidInput):
            schatten_norm(stack, p)


def test_trace_norm_needs_an_exactly_hermitian_matrix(rng) -> None:
    # eigvalsh would read the lower triangle alone, so a matrix Hermitian
    # only to rounding, or not at all, is refused rather than measured
    a = random_hermitian(6, rng)
    assert schatten_norm(a, 1) == pytest.approx(float(np.linalg.svd(a, compute_uv=False).sum()), rel=1e-13)
    assert schatten_norm(a.real, 1) == pytest.approx(float(np.linalg.svd(a.real, compute_uv=False).sum()),
                                                     rel=1e-13)
    near = a.copy()
    near[0, 3] *= 1.0 + 1e-15
    skew = np.triu(a) - np.triu(a, 1).conj().T
    for bad in (near, skew, rng.standard_normal((4, 4)), np.array([[1.0, 0.0], [0.0, 1j]])):
        with pytest.raises(InvalidInput, match="exactly Hermitian"):
            schatten_norm(bad, 1)
    assert schatten_norm(hermitize(near), 1) == pytest.approx(schatten_norm(a, 1), rel=1e-13)


def test_trace_norm_of_a_non_finite_matrix_is_invalid_input(rng) -> None:
    a = random_hermitian(4, rng)
    for value in (math.nan, math.inf):
        bad = a.copy()
        bad[1, 1] = value
        with pytest.raises(InvalidInput, match="non-finite"):
            schatten_norm(bad, 1)


@pytest.mark.parametrize("dim", [1, 2, 4, 12, 57])
def test_trace_norms_equal_the_trace_norm_of_each_matrix(dim: int, rng) -> None:
    # one stacked eigvalsh, the bytes of schatten_norm(., 1) matrix by matrix
    for stack in (random_hermitian(dim, rng, count=5), random_hermitian(dim, rng, count=5).real.copy()):
        norms = trace_norms(stack)
        assert norms.shape == (5,)
        assert [float(n) for n in norms] == [schatten_norm(a, 1) for a in stack]
    assert trace_norms(np.zeros((0, dim, dim))).shape == (0,)


def test_trace_norms_raise_the_messages_of_the_trace_norm(rng) -> None:
    stack = random_hermitian(4, rng, count=3)
    bad = {}
    nan = stack.copy()
    nan[1, 2, 2] = math.nan
    bad["non-finite"] = nan
    near = stack.copy()
    near[2, 0, 3] *= 1.0 + 1e-15
    bad["exactly Hermitian"] = near
    for match, b in bad.items():
        with pytest.raises(InvalidInput, match=match) as stacked:
            trace_norms(b)
        with pytest.raises(InvalidInput) as one:
            schatten_norm(b[1 if match == "non-finite" else 2], 1)
        assert str(stacked.value) == str(one.value)
    for shape in ((4, 4), (2, 3, 4), (1, 2, 2, 2)):
        with pytest.raises(InvalidInput):
            trace_norms(np.zeros(shape))
    with pytest.raises(InvalidInput, match="non-numeric"):
        trace_norms(np.array([[["a"]]]))


# Finite matrices whose largest modulus reaches the top of the float range:
# the modulus, a - a^H or a + a^H of an entry can overflow.
_HUGE_NOT_HERMITIAN = [
    np.array([[0.0, 1.3e308 * (1 + 1j)], [0.0, 0.0]]),  # |z| overflows
    np.array([[1e308 * (1 + 1j), 0.0], [0.0, 0.0]]),  # a - a^H overflows
    np.array([[0.0, 1.7e308], [-1.7e308, 0.0]], dtype=complex),
]


@pytest.mark.parametrize("a", _HUGE_NOT_HERMITIAN, ids=["modulus", "imaginary_diagonal", "antisymmetric"])
def test_hermitian_check_refuses_a_huge_non_hermitian_matrix(a: np.ndarray) -> None:
    assert not is_hermitian(a) and not is_hermitian(a[None])
    for x in (a, a[None], np.stack([np.eye(2), a])):
        with pytest.raises(InvalidInput, match="not Hermitian"):
            require_hermitian(x)


def test_hermitian_check_of_a_huge_matrix_keeps_its_scale() -> None:
    # checked and halved on a quarter of it: the part of a Hermitian matrix
    # is itself, and a relative deviation below the tolerance still passes
    h = np.array([[1.7e308, 1.3e308 * (1 + 1j)], [1.3e308 * (1 - 1j), -1.7e308]])
    assert is_hermitian(h)
    np.testing.assert_array_equal(require_hermitian(h), h)
    near = h.copy()
    near[0, 1] += 1e296
    assert is_hermitian(near) and not is_hermitian(near, tol=1e-13)
    np.testing.assert_array_equal(require_hermitian(near), 4.0 * hermitize(0.25 * near))
    assert not is_hermitian(np.array([[math.inf, 0.0], [0.0, 0.0]]))


def test_hermitian_helpers(rng) -> None:
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = hermitize(a)
    assert is_hermitian(h)
    assert not is_hermitian(a + np.diag([0, 1j, 0]))
    require_hermitian(h)
    with pytest.raises(InvalidInput):
        require_hermitian(a + 0.1 * np.diag([0, 1j, 0]))
    # within tolerance, the checked part is hermitize's to the bit
    near = h + 1e-13 * a
    np.testing.assert_array_equal(require_hermitian(near), hermitize(near))
    # a bool matrix is its 0/1 values, where numpy refuses to subtract it
    flags = np.array([[True, False], [True, True]])
    assert is_hermitian(np.eye(2, dtype=bool)) and not is_hermitian(flags)
    np.testing.assert_array_equal(require_hermitian(np.eye(2, dtype=bool)), np.eye(2))
    with pytest.raises(InvalidInput, match="not Hermitian"):
        require_hermitian(flags)
    # an exactly Hermitian matrix or stack skips the tolerance test, which
    # no tolerance below 0 (or NaN) could pass
    for tol in (-1e-12, math.nan):
        for x in (h, np.stack([h, h])):
            with pytest.raises(InvalidInput, match="tolerance must be >= 0"):
                require_hermitian(x, tol=tol)


def test_hermitian_check_of_a_stack_scales_each_matrix() -> None:
    # a deviation of 5e-10 passes next to entries of 1e3 (relative
    # 5e-13) and fails in a matrix whose largest entry is 1
    dev = np.array([[0.0, 5e-10], [0.0, 0.0]])
    big, small = np.diag([1e3, -1e3]) + dev, np.eye(2) + dev
    assert is_hermitian(big) and not is_hermitian(small)
    assert is_hermitian(np.stack([big, big]))
    assert not is_hermitian(np.stack([big, small]))
    np.testing.assert_array_equal(require_hermitian(np.stack([big, big])),
                                  np.stack([hermitize(big)] * 2))
    with pytest.raises(InvalidInput, match="not Hermitian"):
        require_hermitian(np.stack([big, small]))
    for bad in (np.ones((2, 2, 3)), np.ones((2, 2, 2, 2)), np.full((2, 2, 2), np.nan)):
        with pytest.raises(InvalidInput):
            require_hermitian(bad)


_ENTRY = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _hermiticity_inputs(draw) -> np.ndarray:
    """A square matrix of dimension 1 to 4 for require_hermitian: Hermitian,
    off by a multiple of the tolerance at one entry, general, holding a NaN
    or an infinity or a finite entry whose modulus overflows, or of an
    integer or bool dtype; the complex kinds at magnitudes up to 1.7e308."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["hermitian", "at_tolerance", "complex", "non_finite", "huge", "int", "bool"]))
    if kind == "int":
        return np.array(draw(st.lists(st.integers(-3, 3), min_size=d * d, max_size=d * d))).reshape(d, d)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=d * d, max_size=d * d))).reshape(d, d)
    # magnitudes up to the top of the float range, where |z|, a - a^H and
    # a + a^H can overflow (1e3 scaled is 1.7e308)
    scale = draw(st.sampled_from([1.0, 1.0, 1e300, 4.5e304, 1.7e305]))
    parts = draw(st.lists(_ENTRY, min_size=2 * d * d, max_size=2 * d * d))
    a = np.array(parts[: d * d]).reshape(d, d) + 1j * np.array(parts[d * d:]).reshape(d, d)
    if kind == "complex":
        return a * scale
    h = hermitize(a) * scale
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    if kind == "non_finite":
        h[i, j] = draw(st.sampled_from([math.nan, math.inf, -math.inf, complex(0.0, math.nan)]))
    elif kind == "huge":
        # finite, with a modulus above the largest float; its mirror entry
        # stays 0
        h = np.zeros((d + 1, d + 1), dtype=complex)
        h[0, 1] = complex(1.3e308, 1.3e308)
    elif kind == "at_tolerance":
        # the deviation |h_ij - conj(h_ji)| lands on, just below or just
        # above HERMITICITY_TOL times the largest modulus (at least 1),
        # taken of a quarter of h where it would overflow
        factor = draw(st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]))
        h[i, j] += factor * 1e-12 * max(1.0, 4.0 * float(np.abs(0.25 * h).max()))
    return h


def _hermiticity_outcome(a: np.ndarray):
    try:
        return require_hermitian(a)
    except Exception as err:  # the test compares the types
        return err


@given(_hermiticity_inputs())
@settings(max_examples=300, deadline=None)
def test_hermitian_check_of_a_matrix_equals_that_of_its_one_matrix_stack(a: np.ndarray) -> None:
    one, stacked = _hermiticity_outcome(a), _hermiticity_outcome(a[None])
    if isinstance(one, Exception):
        assert type(one) is InvalidInput and type(stacked) is InvalidInput
        assert str(one) == str(stacked)
    else:
        assert not isinstance(stacked, Exception), stacked
        assert stacked.shape == (1, *one.shape) and stacked.dtype == one.dtype
        assert stacked[0].tobytes() == one.tobytes()


def test_random_hermitian_is_hermitian(rng) -> None:
    a = random_hermitian(6, rng)
    assert is_hermitian(a)
    assert a.shape == (6, 6)


@pytest.mark.parametrize("dim", [1, 3, 34])
def test_random_hermitian_stack_equals_successive_draws(dim: int) -> None:
    stacked = random_hermitian(dim, np.random.default_rng(5), scale=0.6, count=7)
    rng = np.random.default_rng(5)
    single = np.stack([random_hermitian(dim, rng, scale=0.6) for _ in range(7)])
    assert stacked.shape == (7, dim, dim)
    np.testing.assert_array_equal(stacked, single)
    # and leaves the generator where the successive draws leave it
    after = np.random.default_rng(5)
    random_hermitian(dim, after, count=7)
    assert after.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("dim, count, scale", [(38, 100, 1.0), (34, 100, 1.0), (4, None, 0.6),
                                               (5, 3, 0.6), (16, 7, 2.3), (1, None, 1.0),
                                               (1, 4, 0.6), (6, 5, -1.7)])
def test_random_hermitian_has_the_bytes_of_hermitize(dim, count, scale) -> None:
    got = random_hermitian(dim, np.random.default_rng(3), scale=scale, count=count)
    want = dense_oracles.random_hermitian(dim, np.random.default_rng(3), scale=scale, count=count)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, count", [(-1, None), (0, None), (2.5, None), (True, None),
                                        ("3", None), (3, 0), (3, -2), (3, 1.0)])
def test_random_hermitian_rejects_bad_sizes(dim, count, rng) -> None:
    with pytest.raises(InvalidInput, match="positive integer"):
        random_hermitian(dim, rng, count=count)


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_hermitian(3, 7),
        lambda: random_analytic_family(3, None),
        lambda: random_hermitian(3, np.random.default_rng(0), scale="a"),
        lambda: random_hermitian(3, np.random.default_rng(0), scale=math.nan),
        lambda: random_hermitian(3, np.random.default_rng(0), scale=1j),
    ],
    ids=["rng_int", "family_rng_none", "scale_string", "scale_nan", "scale_complex"],
)
def test_random_draws_reject_bad_rng_and_scale(call) -> None:
    # an AttributeError, a UFuncTypeError, and a silent NaN or non-Hermitian matrix
    with pytest.raises(InvalidInput, match="rng|scale"):
        call()


def _three_log_logmean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The log mean with ln(hi), ln(lo) and ln(hi/lo) taken over every pair."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    diff = hi - lo
    near = diff <= LOGMEAN_SWITCH * (hi + lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = diff / (np.log(hi) - np.log(lo))
    u = np.log(hi / np.where(near, lo, 1.0))
    series = lo * (
        1.0 + u * (0.5 + u * (1.0 / 6.0 + u * (1.0 / 24.0 + u * (1.0 / 120.0 + u / 720.0))))
    )
    return np.where(near, series, ratio)


@pytest.mark.parametrize("dim", [2, 17, 256])
def test_logmean_pairs_is_bitwise_the_three_log_formula(dim: int) -> None:
    rng = np.random.default_rng(dim)
    w = np.sort(rng.uniform(1e-4, 1.0, dim))
    # the diagonal and near-degenerate neighbours take the series branch
    w[1::4] = w[0::4][: w[1::4].size] * (1.0 + 1e-3 * rng.uniform(size=w[1::4].size))
    w /= w.sum()
    table = logmean_pairs(w[:, None], w[None, :])
    np.testing.assert_array_equal(table, _three_log_logmean(w[:, None], w[None, :]))
    np.testing.assert_array_equal(logmean_pairs(w[::-1], w), _three_log_logmean(w[::-1], w))


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


@pytest.mark.parametrize("a", [np.array([["a", "b"], ["c", "d"]]), np.eye(2, dtype=object),
                               np.array([[None, None], [None, None]])], ids=["str", "object", "none"])
def test_trace_product_rejects_non_numeric(a) -> None:
    with pytest.raises(InvalidInput, match="numeric"):
        trace_product(a, np.eye(2))
    with pytest.raises(InvalidInput, match="numeric"):
        trace_product(np.eye(2), a)


@pytest.mark.parametrize("diag, upper", [(["a", "b"], [1.0]), ([1.0, 2.0], ["c"]),
                                         (np.ones(2, dtype=object), np.ones(1))],
                         ids=["str_diag", "str_upper", "object"])
def test_tridiagonal_rejects_non_numeric(diag, upper) -> None:
    with pytest.raises(InvalidInput, match="numeric"):
        HermitianTridiagonal(diag, upper)


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


_SCIPY_IMPORT = re.compile(r"^\s*(?:import|from)\s+scipy\b", re.MULTILINE)


def test_library_source_imports_no_scipy() -> None:
    """The runtime is numpy only; scipy serves the tests as an oracle."""
    offenders = []
    for path in sorted(Path(ldqfi.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in _SCIPY_IMPORT.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            offenders.append(f"{path.name}:{line}")
    assert not offenders, "scipy imported at " + ", ".join(offenders)


# ---------------------------------------------------------------------------
# matrix exponential: the dense oracle (dense_oracles.expm) against scipy
# and mpmath, and the coherent displacement's tridiagonal exponential
# against the oracle, scipy and mpmath

EXPM_RTOL = 1e-13


def _rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(x - ref).max() / np.abs(ref).max())


def _with_norm(a: np.ndarray, norm: float) -> np.ndarray:
    return a * (norm / np.abs(a).sum(axis=0).max())


# The 1-norms theta_3, theta_5, theta_7, theta_9 and theta_13 at which
# Higham's (2005) scaling and squaring switches Pade degree; expm uses
# degree 13 throughout, so each is a norm at which a lower degree would
# have been enough, and theta_13 is where scaling starts.
_PADE_THETAS = [1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                2.097847961257068e0, 5.371920351148152e0]


@pytest.mark.parametrize("theta", _PADE_THETAS)
@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_matches_scipy_on_each_pade_branch(theta: float, side: float, dtype, rng) -> None:
    """Each side of the norms where a degree-switching expm would change
    branch, against scipy."""
    from scipy.linalg import expm as scipy_expm

    a = rng.standard_normal((6, 6))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((6, 6))
    a = _with_norm(a, theta * side)
    assert _rel_err(expm(a), scipy_expm(a)) <= EXPM_RTOL


def test_expm_with_squaring_matches_scipy(rng) -> None:
    from scipy.linalg import expm as scipy_expm

    for _ in range(5):
        a = _with_norm(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)), 50.0)
        assert _rel_err(expm(a), scipy_expm(a)) <= EXPM_RTOL


def test_expm_with_squaring_real_non_normal_matches_high_precision(rng) -> None:
    """Real non-normal input of 1-norm 50, against a 40-digit exponential.
    scipy's own result for such input can be 1e-13 off, so the oracle here
    is mpmath."""
    import mpmath

    a = _with_norm(rng.standard_normal((6, 6)), 50.0)
    with mpmath.workdps(40):
        exact = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
    assert _rel_err(expm(a), exact) <= EXPM_RTOL


@pytest.mark.parametrize("dim", [2, 34, 57])
@pytest.mark.parametrize("theta", [0.05, 0.137, -0.29])
def test_expm_of_coherent_generator_matches_scipy(dim: int, theta: float) -> None:
    from scipy.linalg import expm as scipy_expm

    fam = CoherentFamily(1.0, dim)
    assert _rel_err(fam._exponential(theta), scipy_expm(theta * fam.generator())) <= EXPM_RTOL


def _from_band(band: np.ndarray) -> np.ndarray:
    """The dense matrix of a row band: slot 13 + d of row i is entry (i, i + d)."""
    n, width = band.shape
    out = np.zeros((n, n), dtype=band.dtype)
    for i in range(n):
        for c in range(width):
            if 0 <= i + c - 13 < n:
                out[i, i + c - 13] = band[i, c]
            else:
                assert band[i, c] == 0.0
    return out


@pytest.mark.parametrize("dim", [2, 3, 14, 57])
def test_band_powers_equal_dense_powers(dim: int) -> None:
    # below 14 levels the band is wider than the matrix, and its slots
    # outside the matrix hold zero
    gen = CoherentFamily(1.0, dim).generator()
    powers = CoherentFamily(1.0, dim)._exponential.powers
    assert powers.shape == (14, dim, 27)
    dense = np.eye(dim)
    for k in range(14):
        assert _rel_err(_from_band(powers[k]), dense) <= 1e-15, k
        dense = dense @ gen


@pytest.mark.parametrize("dim", [2, 34, 57, 241])
@pytest.mark.parametrize("theta", [0.0, 0.05, -0.137, 0.29, -1.3])
def test_tridiagonal_exponential_matches_the_dense_oracle(dim: int, theta: float) -> None:
    # 0.29 at N = 241 (M = 10) and 1.3 from N = 34 on are scaled and squared
    fam = CoherentFamily(1.0, dim)
    assert _rel_err(fam._exponential(theta), expm(theta * fam.generator())) <= EXPM_RTOL


def test_tridiagonal_exponential_of_a_complex_band_with_a_diagonal(rng) -> None:
    n = 19
    lower, upper = (rng.standard_normal((2, n - 1)) + 1j * rng.standard_normal((2, n - 1)))
    diag = rng.standard_normal(n)
    a = np.diag(diag).astype(complex) + np.diag(lower, -1) + np.diag(upper, 1)
    exp = TridiagonalExponential(lower, diag, upper)
    assert exp.norm == pytest.approx(np.abs(a).sum(axis=0).max(), rel=1e-15)
    for theta in (0.3, -2.0, 7.5):
        assert _rel_err(exp(theta), expm(theta * a)) <= EXPM_RTOL
    one = TridiagonalExponential(np.zeros(0), np.array([2.5]), np.zeros(0))
    assert one(-1.5)[0, 0] == pytest.approx(math.exp(-3.75), rel=EXPM_RTOL)


@pytest.mark.parametrize("bands", [
    (np.ones(2), np.ones(2), np.ones(1)),
    (np.ones(1), np.ones((2, 1)), np.ones(1)),
    (np.ones(0), np.ones(0), np.ones(0)),
    (np.ones(1), np.array([1.0, np.nan]), np.ones(1)),
    (np.array(["a"]), np.ones(2), np.ones(1)),
], ids=["lower_too_long", "diag_2d", "empty", "nan", "strings"])
def test_tridiagonal_exponential_rejects_bad_bands(bands) -> None:
    with pytest.raises(InvalidInput):
        TridiagonalExponential(*bands)


def test_tridiagonal_exponential_rejects_bad_amplitudes() -> None:
    exp = CoherentFamily(1.0, 5)._exponential
    for bad in (math.nan, math.inf, "0.1", None, True):
        with pytest.raises(InvalidInput):
            exp(bad)
    with pytest.raises(DomainError):
        exp(1e308)


@pytest.mark.parametrize("theta", [0.01, 0.05])
def test_expm_small_entries_match_high_precision(theta: float) -> None:
    """Entrywise accuracy of the displacement at small amplitudes, where a
    low Pade degree would meet the absolute bound but lose the small
    entries far from the diagonal: the median entrywise relative error
    against a 30-digit exponential."""
    import mpmath

    dim = 34
    fam = CoherentFamily(1.0, dim)
    a = theta * fam.generator()
    with mpmath.workdps(30):
        exact = mpmath.expm(mpmath.matrix(a.tolist()))
        ref = np.array([[float(exact[i, j]) for j in range(dim)] for i in range(dim)])
    nonzero = ref != 0.0
    rel = np.abs(fam._exponential(theta) - ref)[nonzero] / np.abs(ref)[nonzero]
    assert float(np.median(rel)) <= 1e-12


def test_expm_complex_hermitian_and_one_by_one(rng) -> None:
    from scipy.linalg import expm as scipy_expm

    h = random_hermitian(7, rng)
    assert _rel_err(expm(h), scipy_expm(h)) <= EXPM_RTOL
    w, v = np.linalg.eigh(h)
    assert _rel_err(expm(h), (v * np.exp(w)) @ v.conj().T) <= EXPM_RTOL
    for z in (0.0, 2.5, -40.0, 3.0 - 1.5j, -1e200):
        one = expm(np.array([[z]]))
        assert one.shape == (1, 1)
        assert one[0, 0] == pytest.approx(complex(np.exp(z)), rel=EXPM_RTOL)
    assert expm(np.array([[3]]))[0, 0] == pytest.approx(math.exp(3.0), rel=EXPM_RTOL)


@pytest.mark.parametrize("bad", [np.ones((2, 3)), np.ones(3), np.ones((1, 2, 2)),
                                 np.array([[1.0, np.nan], [0.0, 1.0]]),
                                 np.array([[np.inf, 0.0], [0.0, 1.0]]),
                                 np.array([["a", "b"], ["c", "d"]]),
                                 np.eye(2, dtype=object)])
def test_expm_rejects_non_square_or_non_finite(bad: np.ndarray) -> None:
    with pytest.raises(InvalidInput):
        expm(bad)


def test_expm_rejects_norm_beyond_double_range() -> None:
    with pytest.raises(DomainError):
        expm(np.array([[1e308, 0.0], [1e308, 0.0]]))
