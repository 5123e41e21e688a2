"""The package's public surface: the runtime exports the families, the
pipeline and its checks, while the closed-form references live next to
their callers (ldqfi.verify for the suites, tests/dense_oracles.py for the
tests), and ``import ldqfi`` loads the runtime modules alone."""

from __future__ import annotations

import ast
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
