"""The package's public surface: the runtime exports the families, the
pipeline and its checks, while the closed-form references live next to
their callers (ldqfi.verify for the suites, tests/dense_oracles.py for the
tests), and ``import ldqfi`` loads the runtime modules alone."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dense_oracles
import ldqfi
from ldqfi import linalg, qfi, verify, zoo

# Names that left the runtime, and where each one lives now (None: deleted,
# its callers use the code it wrapped).
MOVED = {
    "qfi_split": None,
    "logmean_kernel": None,
    "geometric_qfi": dense_oracles,
    "geometric_information": dense_oracles,
    "ncopy_qfi": dense_oracles,
    "_embed": dense_oracles,
    "NCOPY_DIM_CAP": dense_oracles,
    "two_level_closed_forms": verify,
    "TwoLevelForms": verify,
    "coherent_projection_prime": verify,
    "TraceRow": verify,
    "coherent_trace_table": verify,
    "coherent_qfi_bvn": verify,
    "coherent_qfi_ld2": verify,
    "Ld2Verdict": verify,
}


@pytest.mark.parametrize("module", [ldqfi, zoo, qfi, linalg], ids=lambda m: m.__name__)
def test_runtime_modules_do_not_bind_the_references(module) -> None:
    assert sorted(set(MOVED) & set(vars(module))) == []


def test_each_reference_lives_next_to_its_callers() -> None:
    for name, home in MOVED.items():
        if home is not None:
            assert name in vars(home), name


def test_zoo_binds_nothing_from_the_information_layer() -> None:
    tree = ast.parse(inspect.getsource(zoo))
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
    }
    assert imported.isdisjoint({"qfi", "ldops", "ldqfi.qfi", "ldqfi.ldops"})
    homes = {getattr(obj, "__module__", None) for obj in vars(zoo).values()}
    assert homes.isdisjoint({"ldqfi.qfi", "ldqfi.ldops"})


def test_import_loads_only_the_runtime_modules() -> None:
    src = str(Path(ldqfi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import json, sys, ldqfi; print(json.dumps(sorted(m for m in sys.modules if 'ldqfi' in m)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    runtime = ("errors", "family", "ldops", "linalg", "qfi", "zoo")
    assert json.loads(out.stdout) == ["ldqfi"] + [f"ldqfi.{m}" for m in runtime]


# Keywords and fields that no runtime caller set, each replaced by the one
# value it was always given.
REMOVED_PARAMETERS = {
    ldqfi.spectral_branches: ("cluster_tol", "gap_tol"),
    ldqfi.coherent_family: ("theta_domain",),
    ldqfi.default_two_level_1: ("theta_domain",),
    ldqfi.relent_limit: ("eps_seq",),
    ldqfi.local_cr_check: ("slack_tol",),
    ldqfi.maximality_check: ("step",),
    ldqfi.projection_curvature_residual: ("h",),
    ldqfi.random_analytic_family: ("name",),
}
REMOVED_FIELDS = {
    ldqfi.CentralDifference: "richardson",
    ldqfi.TwoLevelFamily1: "theta_domain",
    ldqfi.TwoLevelFamily2: "theta_domain",
    ldqfi.CoherentFamily: "theta_domain",
}


@pytest.mark.parametrize("fn", list(REMOVED_PARAMETERS), ids=lambda fn: fn.__name__)
def test_removed_keywords_are_gone(fn) -> None:
    params = inspect.signature(fn).parameters
    assert sorted(set(REMOVED_PARAMETERS[fn]) & set(params)) == []


def test_branches_at_takes_no_keywords() -> None:
    params = inspect.signature(ldqfi.branches_at).parameters
    assert list(params) == ["fam", "theta"]


@pytest.mark.parametrize("cls", list(REMOVED_FIELDS), ids=lambda cls: cls.__name__)
def test_removed_fields_are_gone(cls) -> None:
    assert REMOVED_FIELDS[cls] not in {f.name for f in dataclasses.fields(cls)}


def test_one_pade_degree_and_no_unused_members() -> None:
    assert "_PADE_LOW" not in vars(linalg)
    assert "theta_domain" in {f.name for f in dataclasses.fields(ldqfi.StateFamily)}
    assert not hasattr(ldqfi.StateFamily, "contains")
    assert not hasattr(ldqfi.SpectralBranches, "projection_prime")
    assert not hasattr(ldqfi, "ResourceLimit")
    assert not hasattr(ldqfi.errors, "ResourceLimit")
    # every report point's diagnostics come from its own basis' Gram matrix
    assert not hasattr(qfi, "REPORT_BLOCK_ENTRIES")
    assert not hasattr(qfi, "_stack")
    assert not hasattr(ldqfi.SpectralBranches, "over")

