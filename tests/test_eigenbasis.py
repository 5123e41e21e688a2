"""One eigendecomposition, one kernel table per model and one assembled
operator per point, and the eigenbasis formulas of every information value
and of Tr(rho H) against the dense operator oracles."""

from __future__ import annotations

import dataclasses
import itertools
import sys

import numpy as np
import pytest
import scipy.linalg

import ldqfi
import ldqfi.verify
from dense_oracles import ld1, ld2, qfi_variance
from ldqfi import (
    MODELS,
    StateFamily,
    branches_at,
    classical_information,
    commuting_part,
    compute_report,
    ld_operator,
    random_analytic_family,
    random_hermitian,
    spectral_branches,
)
from ldqfi import audits
from ldqfi.audits import RELENT_EPS, breve_variance, relent_limit
from ldqfi.errors import DegenerateCrossing
from ldqfi.family import MIXING_CAP, TRACE_TOL_ANALYTIC, eval_rho, eval_rho_prime


def _counting(monkeypatch, owner, name: str, counts: dict[str, int]) -> None:
    real = getattr(owner, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _tabulated(fam: StateFamily, thetas) -> StateFamily:
    """fam with rho and rho' looked up from values computed now, so that a
    later eigensolver count sees only the pipeline's own eigensolves (the
    random family's callbacks run an eigh of their own)."""
    rho = {t: fam.rho_of(t) for t in thetas}
    rho_prime = {t: fam.rho_prime_of(t) for t in thetas}
    return dataclasses.replace(fam, rho_of=rho.__getitem__, rho_prime_of=rho_prime.__getitem__)


def test_branches_at_runs_one_eigh(monkeypatch, random_family) -> None:
    fam = _tabulated(random_family, [0.2])
    counts: dict[str, int] = {}
    _counting(monkeypatch, np.linalg, "eigh", counts)
    _counting(monkeypatch, np.linalg, "eigvalsh", counts)
    branches_at(fam, 0.2)
    assert counts == {"eigh": 1, "eigvalsh": 0}


def test_random_family_point_decomposes_its_generator_once(monkeypatch) -> None:
    # rho and rho' at one theta share the eigh of G0 + theta G1; the
    # pipeline adds the state's own
    fam = random_analytic_family(4, np.random.default_rng(5))
    counts: dict[str, int] = {}
    _counting(monkeypatch, np.linalg, "eigh", counts)
    for k, theta in enumerate((0.2, -0.1, 0.2), 1):
        branches_at(fam, theta)
        assert counts == {"eigh": 2 * k}


def _recording_everywhere(monkeypatch, fn) -> list[tuple]:
    """The positional arguments of every call of a library function, patched
    in every ldqfi module that binds it."""
    calls: list[tuple] = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "ldqfi" and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, recorded)
    return calls


def test_compute_report_assembles_no_operator_and_one_kernel_table_per_model(
    monkeypatch, random_family
) -> None:
    # both diagnostics are read through the basis' Gram matrix
    points = (0.1, 0.2, 0.3)
    fam = _tabulated(random_family, points)
    counts: dict[str, int] = {}
    _counting(monkeypatch, np.linalg, "eigh", counts)
    operators = _recording_everywhere(monkeypatch, ldqfi.ldops.ld_operator)
    tables = _recording_everywhere(monkeypatch, ldqfi.ldops.kernel_matrix)
    for k, theta in enumerate(points, 1):
        del tables[:]
        compute_report(fam, theta)
        assert sorted(model for _, model in tables) == sorted(MODELS)
        assert counts == {"eigh": k}
        assert operators == []


@pytest.mark.parametrize("name", ["two_level_1", "random", "geometric", "central_difference"])
@pytest.mark.parametrize("entry", ["compute_report", "branches_at"])
def test_eigensolver_point_checks_the_state_and_rho_prime_once(
    monkeypatch, name: str, entry: str
) -> None:
    # eval_rho checks the state and eval_rho_prime rho'; the branches, the
    # values and the diagnostics take the checked matrices as they are
    fam, theta = {
        "two_level_1": (ldqfi.default_two_level_1().family(), 0.3),
        "random": (random_analytic_family(4, np.random.default_rng(11)), 0.2),
        "geometric": (ldqfi.geometric_family(0.7), 0.7),
        "central_difference": (
            dataclasses.replace(
                ldqfi.default_two_level_1().family(), derivative_mode=ldqfi.CentralDifference()
            ),
            0.4,
        ),
    }[name]
    checks = _recording_everywhere(monkeypatch, ldqfi.linalg.require_hermitian)
    {"compute_report": compute_report, "branches_at": branches_at}[entry](fam, theta)
    assert [label for _, label, *_ in checks] == ["density matrix", "family derivative"]
    assert [a.shape for a, *_ in checks] == [(fam.dim, fam.dim)] * 2


def test_coherent_path_point_runs_no_hermiticity_check(monkeypatch, coherent_m1) -> None:
    checks = _recording_everywhere(monkeypatch, ldqfi.linalg.require_hermitian)
    compute_report(coherent_m1, 0.1)
    ldqfi.compute_reports(coherent_m1, [0.0, -0.2, 0.25])
    assert checks == []


def test_verify_cr_builds_one_kernel_table_per_model_and_branch_set(monkeypatch) -> None:
    # four reference points, each checked with every model against 100
    # random observables and its efficient directions
    tables = _recording_everywhere(monkeypatch, ldqfi.ldops.kernel_matrix)
    ldqfi.verify.cr(7)
    assert len(tables) <= 4 * len(MODELS)


def test_relent_limit_runs_one_eigh_per_state(monkeypatch, tanh_family) -> None:
    counts: dict[str, int] = {}
    _counting(monkeypatch, np.linalg, "eigh", counts)
    relent_limit(tanh_family, 0.3)
    assert counts == {"eigh": len(RELENT_EPS) + 1}


def _multiplet_family(dim: int, rng: np.random.Generator) -> StateFamily:
    """rho = U D U^dagger with U = exp(theta A), A anti-Hermitian, and
    normalized weights D = exp(c + theta s) whose first two entries
    coincide for every theta: a rotating doubly degenerate cluster."""
    gen = 1j * random_hermitian(dim, rng, scale=0.4)
    c = rng.uniform(-1.0, 1.0, dim)
    s = rng.uniform(-1.0, 1.0, dim)
    c[1], s[1] = c[0], s[0]

    def weights(theta: float) -> tuple[np.ndarray, np.ndarray]:
        p = np.exp(c + theta * s)
        p /= p.sum()
        return p, p * (s - p @ s)

    def rho_of(theta: float) -> np.ndarray:
        u = scipy.linalg.expm(theta * gen)
        return (u * weights(theta)[0]) @ u.conj().T

    def rho_prime_of(theta: float) -> np.ndarray:
        u = scipy.linalg.expm(theta * gen)
        rho = rho_of(theta)
        return gen @ rho - rho @ gen + (u * weights(theta)[1]) @ u.conj().T

    return StateFamily(
        dim=dim, theta_domain=(-1.0, 1.0), rho_of=rho_of, rho_prime_of=rho_prime_of,
        name="multiplet",
    )


def _cluster_reference(br) -> tuple[np.ndarray, np.ndarray]:
    values = [br.eigenvalues[s].mean() for s in br.cluster_slices]
    primes = [np.trace(br.rho_prime_eig[s, s]).real / (s.stop - s.start) for s in br.cluster_slices]
    return np.array(values), np.array(primes)


def _split_reference(br) -> tuple[np.ndarray, np.ndarray]:
    """The bvn split from the branch data: h1 = sum_k (lambda'_k / lambda_k) P_k
    and h2 = sum_k ln(lambda_k) P'_k."""
    ks = range(br.n_clusters)
    h1 = sum(br.cluster_value_primes[k] / br.cluster_values[k] * audits.projection(br, k) for k in ks)
    prime = audits.projection_primes(br)
    return h1, sum(np.log(br.cluster_values[k]) * prime[k] for k in ks)


@pytest.mark.parametrize("kind", ["commuting", "noncommuting", "multiplet"])
@pytest.mark.parametrize("dim", [2, 3, 8, 16])
def test_eigenbasis_values_match_dense_oracles(dim: int, kind: str) -> None:
    rng = np.random.default_rng([dim, len(kind)])
    if kind == "multiplet":
        fam = _multiplet_family(dim, rng)
    else:
        fam = random_analytic_family(dim, rng, commuting=kind == "commuting", min_rel_gap=1e-3)
    theta = 0.3
    rep = compute_report(fam, theta)
    br = branches_at(fam, theta)
    assert rep.i1 == classical_information(br)

    # dense oracles: Tr(rho H^2) of the assembled and the direct operators,
    # and the KMB-weighted variance of the assembled bvn operator
    rho = eval_rho(fam, theta)
    rho_prime = eval_rho_prime(fam, theta)
    oracles = {
        m: [qfi_variance(rho, ld_operator(br, m))] for m in MODELS if m != "bvn"
    }
    oracles["ld1"].append(qfi_variance(rho, ld1(rho, rho_prime)))
    oracles["ld2"].append(qfi_variance(rho, ld2(rho, rho_prime)))
    oracles["bvn"] = [breve_variance(br, ld_operator(br, "bvn"))]
    for m, values in oracles.items():
        for v in values:
            assert rep.qfi[m] == pytest.approx(v, rel=1e-10, abs=1e-12), m
        assert rep.i2[m] == pytest.approx(rep.qfi[m] - rep.i1, abs=1e-15)

    # Tr(rho H) in the eigenbasis against the trace of the dense product
    ops = [ld_operator(br, m) for m in MODELS]
    dense = max(abs(np.trace(br.rho() @ h).real) for h in ops)
    scale = max(1.0, max(float(np.abs(h).max()) for h in ops))
    assert abs(rep.max_zero_expectation - dense) <= 1e-13 * scale

    # cluster bookkeeping and the bvn split H = H1 + H2 against per-cluster
    # loops; the multiplet family's doubly degenerate pair is one cluster of two
    if kind == "multiplet":
        assert br.n_clusters == dim - 1
        assert max(br.cluster_mults) == 2
    values, primes = _cluster_reference(br)
    np.testing.assert_allclose(br.cluster_values, values, rtol=1e-14)
    np.testing.assert_allclose(br.cluster_value_primes, primes, rtol=1e-12, atol=1e-14)
    h1, h2 = _split_reference(br)
    h = ld_operator(br, "bvn")
    scale = max(1.0, float(np.abs(h).max()))
    assert np.abs(commuting_part(br) - h1).max() <= 1e-10 * scale
    assert np.abs(h - commuting_part(br) - h2).max() <= 1e-10 * scale


def _first_crossing_reference(w, rp):
    """Loop over neighbouring clusters of a diagonal state: the first pair
    whose rotation rate exceeds MIXING_CAP."""
    br = spectral_branches(np.diag(w).astype(complex), np.zeros_like(rp))
    s, v = br.cluster_slices, br.cluster_values
    for k in range(br.n_clusters - 1):
        gap = v[k + 1] - v[k]
        rate = np.linalg.norm(rp[s[k], s[k + 1]]) / gap
        if rate > MIXING_CAP:
            return (float(v[k]), float(v[k + 1]))
    return None


@pytest.mark.parametrize("coupling", [1e-3, 1.0])
def test_crossing_check_matches_cluster_loop(coupling: float) -> None:
    # clusters of multiplicity 2, 1, 1, 1, 1: before normalization, a close
    # pair at 0.15 (gap 1e-4) that is resolvable, and a near-crossing at 0.2
    # (gap 2e-9) that rotates fast for coupling 1
    w = np.array([0.1, 0.1, 0.15, 0.15 + 1e-4, 0.2, 0.2 + 2e-9])
    w /= w.sum()
    rp = np.zeros((6, 6), dtype=complex)
    rp[0, 2] = rp[2, 0] = rp[1, 3] = rp[3, 1] = 0.05
    rp[4, 5] = rp[5, 4] = coupling
    expected = _first_crossing_reference(w, rp)
    if expected is None:
        assert spectral_branches(np.diag(w).astype(complex), rp).n_clusters == 5
    else:
        with pytest.raises(DegenerateCrossing) as err:
            spectral_branches(np.diag(w).astype(complex), rp)
        assert err.value.pair == expected


def test_zero_expectation_sees_a_trace_defect_of_rho_prime(random_family) -> None:
    # rho' + c I passes the analytic trace check, and every model's
    # Tr(rho H) then equals Tr(rho') = d c
    dim = random_family.dim
    defect = 5e-13
    assert defect < TRACE_TOL_ANALYTIC
    base = random_family.rho_prime_of
    fam = dataclasses.replace(
        random_family, rho_prime_of=lambda t: base(t) + (defect / dim) * np.eye(dim)
    )
    assert compute_report(random_family, 0.2).max_zero_expectation < 1e-14
    for k in range(1, len(MODELS) + 1):
        for models in itertools.combinations(MODELS, k):
            rep = compute_report(fam, 0.2, models)
            assert rep.max_zero_expectation == pytest.approx(defect, rel=1e-2), models
