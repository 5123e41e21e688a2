"""Shared fixtures: deterministic RNGs and representative state families.

The checkout's src/ also goes on PYTHONPATH, so that the Python processes
a test starts import the same package as the test itself."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from ldqfi import (
    StateFamily,
    TwoLevelFamily2,
    branches_at,
    coherent_family,
    default_two_level_1,
    geometric_family,
    random_analytic_family,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [SRC, *_paths] if p)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260821)


@pytest.fixture(scope="session")
def tanh_family() -> StateFamily:
    return default_two_level_1().family()


@pytest.fixture(scope="session")
def fixed_weight_family() -> StateFamily:
    return TwoLevelFamily2(r=0.5).family()


@pytest.fixture(scope="session")
def geometric_ln2() -> StateFamily:
    return geometric_family(float(np.log(2.0)))


@pytest.fixture(scope="session")
def coherent_m1() -> StateFamily:
    return coherent_family(1.0).family()


@pytest.fixture
def random_family(rng) -> StateFamily:
    return random_analytic_family(4, rng)


@pytest.fixture
def random_branches(random_family):
    return branches_at(random_family, 0.2)
