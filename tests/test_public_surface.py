"""The package's public surface: the runtime exports the families (all of
them ldqfi.zoo's) and the pipeline, while the audits of the paper's identities and the closed-form
references live next to their callers (ldqfi.audits and ldqfi.verify for
the suites, tests/dense_oracles.py for the tests), and ``import ldqfi``
loads the runtime modules alone."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dense_oracles
import ldqfi
from ldqfi import audits, cli, family, ldops, linalg, qfi, verify, zoo

# Names that left the runtime, and where each one lives now (None: deleted,
# its callers use the code it wrapped).
MOVED = {
    "qfi_split": None,
    "logmean_kernel": None,
    "branches_of": None,
    "local_cr_check": None,
    "CrCheck": None,
    "sweep_family": None,
    "CR_SLACK_TOL": verify,
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
    "LdOperator": None,
    "coherent_branches": None,
    "qfi_variance": dense_oracles,
    "rho_prime": dense_oracles,
    # the KMB residual of an assembled operator is the oracle of the one
    # each report forms in its basis, which qfi ld prints too
    "kmb_residual": dense_oracles,
    # UnitaryPath.basis_of(theta) became bases_of(thetas), one lazy basis per
    # theta of a grid
    "basis_of": None,
    # the general dense exponential is the oracle of the coherent family's
    # TridiagonalExponential
    "expm": dense_oracles,
    # the trace norm is trace_norms, the other Schatten orders numpy's
    # norms; the Hermiticity check is require_hermitian
    "schatten_norm": None,
    "is_hermitian": None,
    # expectation(br, rho_eig, model) became expectations(br, rho_eig,
    # models), one call for every model of a point
    "expectation": None,
    # the audits of the paper's identities, run by the suites alone; the
    # SpectralBranches methods projection, projections and projection_primes
    # became functions of the branches
    "CURVATURE_STEP": audits,
    "ProjectionAuditReport": audits,
    "projection": audits,
    "projections": audits,
    "projection_primes": audits,
    "projection_audit": audits,
    "projection_curvature_residual": audits,
    "RELENT_EPS": audits,
    "breve_variance": audits,
    "_moments": audits,
    "local_cr_terms": audits,
    "_log_state": audits,
    "relative_entropy": audits,
    "relent_limit": audits,
    "maximality_check": audits,
}


@pytest.mark.parametrize("module", [ldqfi, zoo, qfi, ldops, linalg, family, cli], ids=lambda m: m.__name__)
def test_runtime_modules_do_not_bind_the_references(module) -> None:
    assert sorted(set(MOVED) & set(vars(module))) == []


def test_one_module_owns_the_block_size() -> None:
    # qfi sizes a sweep's blocks; the coherent family shares work over the
    # grid it is given and checks an amplitude as any theta
    runtime = [ldqfi, cli, ldqfi.errors, family, ldops, linalg, qfi, verify, zoo]
    assert [m.__name__ for m in runtime if "_BLOCK_BYTES" in vars(m)] == ["ldqfi.qfi"]
    assert [m.__name__ for m in runtime if "_check_amplitude" in vars(m)] == []


def test_each_reference_lives_next_to_its_callers() -> None:
    for name, home in MOVED.items():
        if home is not None:
            assert name in vars(home), name


def test_only_the_suites_import_the_audits() -> None:
    # cli is not loaded by ``import ldqfi``, so the module list of the
    # import test below would not see it import the audits
    importers = set()
    for path in Path(audits.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            if any("audits" in name.split(".") for name in names):
                importers.add(path.name)
    assert importers == {"verify.py"}


# The reference families that left family for zoo, and the helpers that
# went with them: family keeps the pipeline.
FAMILIES_IN_ZOO = ("random_analytic_family", "_gibbs", "NonsmoothProjectionState", "nonsmooth_projection_state")


def _bound_names(path: Path) -> set[str]:
    """Every name a module binds anywhere: defined, assigned or imported."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_the_reference_families_live_in_zoo() -> None:
    left = {*FAMILIES_IN_ZOO, "_last_theta", "_check_tolerance", "random_hermitian", "hermitize"}
    assert sorted(left & set(vars(family))) == []
    assert sorted(left & _bound_names(Path(family.__file__))) == []
    assert all(name in vars(zoo) for name in FAMILIES_IN_ZOO)
    # the last-theta memo is functools.lru_cache
    modules = sorted(Path(family.__file__).parent.glob("*.py"))
    assert [p.name for p in modules if "_last_theta" in _bound_names(p)] == []
    private = [
        a.name
        for node in ast.walk(ast.parse(inspect.getsource(zoo)))
        if isinstance(node, ast.ImportFrom) and node.module in ("family", "ldqfi.family")
        for a in node.names
        if a.name.startswith("_")
    ]
    assert private == ["_check_finite"]


def test_zoo_binds_nothing_from_the_information_layer() -> None:
    tree = ast.parse(inspect.getsource(zoo))
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
    }
    assert imported.isdisjoint({"qfi", "ldops", "ldqfi.qfi", "ldqfi.ldops"})
    homes = {getattr(obj, "__module__", None) for obj in vars(zoo).values()}
    assert homes.isdisjoint({"ldqfi.qfi", "ldqfi.ldops"})


RUNTIME = ("errors", "family", "ldops", "linalg", "qfi", "zoo")


def _loaded_by(module: str) -> list[str]:
    """The ldqfi modules a fresh interpreter has loaded after importing module."""
    src = str(Path(ldqfi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import json, sys, {module}; print(json.dumps(sorted(m for m in sys.modules if 'ldqfi' in m)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout)


def test_import_loads_only_the_runtime_modules() -> None:
    assert _loaded_by("ldqfi") == ["ldqfi"] + [f"ldqfi.{m}" for m in RUNTIME]


# The point's route and BLAS pin of ``qfi ld``, which qfi.ld_report owns:
# cli parses and prints.
LD_ROUTE = ("branches_at", "_one_blas_thread", "ld_operator", "kmb_residual", "commuting_part", "trace_product")


def test_cli_parses_and_prints_only() -> None:
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    assert sorted(set(LD_ROUTE) & _bound_names(Path(cli.__file__))) == []
    # verify is imported by cmd_verify alone, and names the same suites
    importers = [
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and "verify" in [a.name for a in node.names]
    ]
    top = [a.name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names]
    assert (importers, "verify" in top) == (["cmd_verify"], False)
    assert cli.SUITES[1:] == tuple(verify.SUITES)


def test_ld_report_reads_the_sweep_diagnostics() -> None:
    # Tr(rho H) and the KMB residual of qfi ld come from qfi._diagnostics,
    # the route of every sweep row, not from the assembled operator
    tree = ast.parse(inspect.getsource(qfi._ld_report))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(names & {"trace_product", "kmb_residual"}) == []
    assert "trace_product" not in _bound_names(Path(qfi.__file__))
    for name in ("kmb_residual", "_band_ld"):
        assert name not in _bound_names(Path(ldops.__file__)), name


def test_a_point_keeps_one_kernel_per_model(monkeypatch) -> None:
    # the keys of SpectralBranches.kernels are model names: a banded
    # point's kernel over its band takes the name a dense point's table has
    made = []
    real = family.SpectralBranches.__init__

    def recorded(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(family.SpectralBranches, "__init__", recorded)
    ldqfi.compute_reports(ldqfi.coherent_family(2.0).family(), [0.0, 0.1, 0.2])
    ldqfi.compute_report(ldqfi.default_two_level_1().family(), 0.3)
    assert [br.band is None for br in made] == [False] * 3 + [True]
    keys = [key for br in made for key in br.kernels]
    assert keys and set(keys) <= set(ldqfi.MODELS)


def test_cli_import_loads_no_verification_code() -> None:
    # neither ldqfi.verify nor ldqfi.audits
    assert _loaded_by("ldqfi.cli") == ["ldqfi"] + [f"ldqfi.{m}" for m in sorted(("cli", *RUNTIME))]


# Keywords and fields that no runtime caller set, each replaced by the one
# value it was always given.
REMOVED_PARAMETERS = {
    ldqfi.spectral_branches: ("cluster_tol", "gap_tol"),
    ldqfi.coherent_family: ("theta_domain",),
    ldqfi.default_two_level_1: ("theta_domain",),
    audits.relent_limit: ("eps_seq",),
    audits.maximality_check: ("step",),
    audits.projection_curvature_residual: ("h",),
    ldqfi.random_analytic_family: ("name",),
    ldqfi.ld_operator: ("split",),
}
REMOVED_FIELDS = {
    ldqfi.CentralDifference: "richardson",
    ldqfi.TwoLevelFamily1: "theta_domain",
    ldqfi.TwoLevelFamily2: "theta_domain",
    ldqfi.CoherentFamily: "theta_domain",
    ldqfi.StateFamily: "branches_of",
    ldqfi.UnitaryPath: "basis_of",
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


def test_every_public_linalg_routine_has_a_runtime_caller() -> None:
    # one routine per job: a public function or class of linalg that no
    # other module of the package names is a duplicate or dead
    tree = ast.parse(Path(linalg.__file__).read_text(encoding="utf-8"))
    public = {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    named = set()
    for path in Path(linalg.__file__).parent.glob("*.py"):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(a.name for a in node.names)
    assert public and sorted(public - named) == []
    for name in ("is_hermitian", "schatten_norm", "_peaks", "_in_range", "_within"):
        assert name not in vars(linalg), name


def test_coherent_family_keeps_no_dense_generator() -> None:
    # a + - a is the family's one band, which the exponential, the path's
    # rho' band and the eigensolver route's rho' read
    for name in ("generator", "_generator", "rho0"):
        assert name not in vars(zoo.CoherentFamily), name
    assert list(inspect.signature(linalg.TridiagonalExponential).parameters) == ["off"]


def test_an_eigensolver_point_has_one_route() -> None:
    # family._state_point evaluates, checks and decomposes an eigensolver
    # point, for branches_at and qfi alike; qfi binds none of its parts
    tree = ast.parse(Path(qfi.__file__).read_text(encoding="utf-8"))
    assert "_state_point" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    parts = {"_state_branches", "eval_rho", "eval_rho_prime"}
    assert sorted(parts & _bound_names(Path(qfi.__file__))) == []


def test_zoo_does_not_hermitize_an_exact_hermitian_draw() -> None:
    # random_hermitian returns an exactly Hermitian matrix, and eigh reads
    # one triangle: hermitize would copy the draw to the same bytes
    assert "hermitize" not in _bound_names(Path(zoo.__file__))


@pytest.mark.parametrize("m", [1.0, 10.0])
def test_eigensolver_route_rho_prime_is_the_dense_commutator(m: float) -> None:
    cf = ldqfi.coherent_family(m)
    fam = cf.family()
    gen = dense_oracles.coherent_generator(cf.trunc_dim)
    for theta in (0.0, 0.1, -0.2):
        rho = fam.rho_of(theta)
        want = gen @ rho - rho @ gen
        got = fam.rho_prime_of(theta)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), theta


def test_one_pade_degree_and_no_unused_members() -> None:
    assert "_PADE_LOW" not in vars(linalg)
    assert "theta_domain" in {f.name for f in dataclasses.fields(ldqfi.StateFamily)}
    assert not hasattr(ldqfi.StateFamily, "contains")
    # the cluster projections are the audits' functions of the branches
    for name in ("projection_prime", "projection", "projections", "projection_primes"):
        assert not hasattr(ldqfi.SpectralBranches, name), name
    assert not hasattr(ldqfi.SpectralBranches, "rho_prime")
    assert not hasattr(ldqfi, "ResourceLimit")
    assert not hasattr(ldqfi.errors, "ResourceLimit")
    # every report point's diagnostics come from its own basis' Gram matrix
    assert not hasattr(qfi, "REPORT_BLOCK_ENTRIES")
    assert not hasattr(qfi, "_stack")
    assert not hasattr(ldqfi.SpectralBranches, "over")



def _readme_library_example() -> str:
    """The first Python block of the README's ``## Library`` section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys) -> None:
    # a stale call in the README (a removed keyword or name) fails here
    exec(compile(_readme_library_example(), "README.md", "exec"), {})
    printed = [float(line) for line in capsys.readouterr().out.split()]
    assert printed == [pytest.approx(2.0 * math.log(2.0), rel=1e-6), pytest.approx(4.0 / 3.0, rel=1e-6)]
