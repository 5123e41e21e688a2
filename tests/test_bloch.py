"""Qubit families on random quadratic Bloch curves against their closed
forms (tests/dense_oracles.py): the information parts, the model chain
ld1 >= ld2 >= bvn >= sld, the commuting and maximally mixed limits, and
the rank floor at the surface of the Bloch ball."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import BlochCurve, bloch_closed_forms
from ldqfi import MODELS, compute_report
from ldqfi.errors import SingularState

coord = st.floats(-1.0, 1.0)
vector = st.tuples(coord, coord, coord).map(np.array)
direction = vector.filter(lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))
speeds = st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3)
velocity = st.builds(lambda speed, n: speed * n, speeds, direction)
thetas = st.floats(-0.5, 0.5)
lengths = st.floats(1e-3, 0.99)


def _curve(theta: float, r: np.ndarray, r_prime: np.ndarray, c: np.ndarray) -> BlochCurve:
    """The quadratic curve with curvature c through r at theta with velocity r'."""
    b = r_prime - 2.0 * c * theta
    return BlochCurve(a=r - b * theta - c * theta**2, b=b, c=c)


def _floor(curve: BlochCurve, theta: float) -> float:
    """Absolute floor of a comparison: 1e-13 of the largest part, ld1's."""
    r, rp = curve.r(theta), curve.r_prime(theta)
    return 1e-13 * float(rp @ rp) / (1.0 - float(r @ r)) ** 2


@settings(max_examples=60, deadline=None)
@given(thetas, lengths, direction, velocity, vector)
def test_parts_match_the_closed_forms(theta, length, n, r_prime, c) -> None:
    curve = _curve(theta, length * n, r_prime, c)
    rep = compute_report(curve.family(), theta)
    forms = bloch_closed_forms(curve.r(theta), curve.r_prime(theta))
    floor = _floor(curve, theta)
    assert abs(rep.i1 - forms.i1) <= 1e-10 * forms.i1 + floor
    for m in MODELS:
        assert abs(rep.i2[m] - forms.i2[m]) <= 1e-10 * forms.i2[m] + floor, m
    chain = [rep.qfi[m] for m in ("ld1", "ld2", "bvn", "sld")]
    assert all(x >= y - floor for x, y in zip(chain, chain[1:]))


@settings(max_examples=30, deadline=None)
@given(thetas, lengths, direction, speeds, st.floats(-1.0, 1.0))
def test_velocity_along_r_has_no_second_part(theta, length, n, speed, bend) -> None:
    # a curve on the line through n: r and r' are multiples of n
    a = length - speed * theta - bend * theta**2
    curve = BlochCurve(a=a * n, b=speed * n, c=bend * n)
    rep = compute_report(curve.family(), theta)
    for m in MODELS:
        assert abs(rep.i2[m]) <= _floor(curve, theta), m


@settings(max_examples=30, deadline=None)
@given(velocity, vector)
def test_models_agree_at_the_maximally_mixed_state(r_prime, c) -> None:
    # the curve passes through r = 0 at theta = 0, where every mean of the
    # pair (1/2, 1/2) is 1/2 and the value is |r'|^2
    rep = compute_report(BlochCurve(a=np.zeros(3), b=r_prime, c=c).family(), 0.0)
    for m in MODELS:
        assert rep.qfi[m] == pytest.approx(float(r_prime @ r_prime), rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(thetas, st.floats(-1e-13, 1e-13), direction, vector, vector)
def test_the_surface_of_the_ball_is_singular(theta, depth, n, r_prime, c) -> None:
    curve = _curve(theta, (1.0 - depth) * n, r_prime, c)
    with pytest.raises(SingularState):
        compute_report(curve.family(), theta)
