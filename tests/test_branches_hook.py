"""Closed-form branches of the displaced thermal family: the branches_of
hook against the eigensolver path, its call counts, the banded
functionals, and the bulk check of the displacement."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

import ldqfi
from ldqfi import (
    MODELS,
    CentralDifference,
    CoherentFamily,
    coherent_branches,
    coherent_family,
    compute_report,
    compute_reports,
    kernel_matrix,
    qfi_value,
)
from ldqfi.errors import DegenerateCrossing, InvalidInput, TruncationError
from ldqfi.family import Eigenframe, StateFamily, spectral_branches
from ldqfi.ldops import kernel_entries, kernel_pairs
from ldqfi.linalg import HermitianTridiagonal, expm, logmean_pairs
from ldqfi.qfi import REPORT_BLOCK_ENTRIES
from ldqfi.verify import coherent_qfi_bvn
from ldqfi.zoo import DISPLACEMENT_TOL, displacement_closed_form

from dense_oracles import hook_report

THETAS = np.linspace(-0.29, 0.29, 13)


@pytest.mark.parametrize("m", [1.0, 2.0, 10.0])
def test_hook_matches_eigensolver_path(m: float) -> None:
    fam = coherent_family(m).family()
    assert fam.dim == {1.0: 34, 2.0: 57, 10.0: 241}[m]
    generic = dataclasses.replace(fam, branches_of=None)
    for theta in THETAS:
        hook = compute_report(fam, float(theta))
        ref = compute_report(generic, float(theta))
        for model in MODELS:
            assert hook.qfi[model] == pytest.approx(ref.qfi[model], rel=1e-12, abs=0.0)
        assert hook.kmb_residual <= 1e-13
        assert hook.max_zero_expectation <= 1e-13


@pytest.mark.parametrize("m, count", [(1.0, 31), (2.0, 23), (10.0, 3)])
def test_reports_equal_the_reports_of_single_points(m: float, count: int) -> None:
    # blocks of 14, 5 and 1 points at N = 34, 57 and 241; each grid holds
    # 0, negative amplitudes and more points than one block
    fam = coherent_family(m).family()
    grid = [0.0, *np.linspace(-0.29, 0.29, count).tolist()]
    assert len(grid) > REPORT_BLOCK_ENTRIES // fam.dim**2
    assert compute_reports(fam, grid) == [compute_report(fam, theta) for theta in grid]


@pytest.mark.parametrize("m", [1.0, 2.0])
def test_stacked_diagnostics_keep_the_bytes_of_one_basis(m: float) -> None:
    # each point's products formed with its own basis alone give the bytes
    # of the stacked evaluation
    fam = coherent_family(m).family()
    grid = [0.0, *np.linspace(-0.29, 0.29, 12).tolist()]
    assert compute_reports(fam, grid) == [hook_report(fam, theta) for theta in grid]


def _path_family(moving: str, dense: bool = False) -> StateFamily:
    """A hook family on a fixed basis whose eigenvalues or rho' change with
    theta when moving says so: not a unitary path.  rho' is given as a
    band, or as a dense matrix when dense is set."""
    w0 = np.array([0.1, 0.2, 0.3, 0.4])

    def branches_of(theta: float):
        w = w0 + (theta * 0.01 * np.array([-1.0, -1.0, 1.0, 1.0]) if moving == "spectrum" else 0.0)
        coupling = 0.02 * (1.0 + theta if moving == "band" else 1.0)
        band = HermitianTridiagonal(np.zeros(4), np.full(3, coupling))
        return spectral_branches(Eigenframe(np.eye(4), w), band.dense() if dense else band)

    return StateFamily(
        dim=4,
        theta_domain=(-1.0, 1.0),
        rho_of=lambda theta: np.diag(w0),
        rho_prime_of=lambda theta: np.zeros((4, 4)),
        branches_of=branches_of,
    )


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("moving", ["spectrum", "band"])
def test_hook_off_a_unitary_path_is_rejected(moving: str, dense: bool) -> None:
    fam = _path_family(moving, dense)
    assert compute_report(fam, 0.3).theta == 0.3
    with pytest.raises(InvalidInput, match="unitary path"):
        compute_reports(fam, [0.1, 0.3])
    fixed = _path_family("nothing", dense)
    grid = [0.1, 0.3, -0.5]
    assert compute_reports(fixed, grid) == [compute_report(fixed, t) for t in grid]


def test_failing_block_raises_the_error_of_its_first_failing_point() -> None:
    # N = 12 leaves no bulk from amplitude 0.2 on; the four points are one block
    fam = coherent_family(0.1, 12).family()
    grid = [0.05, 0.1, 0.2, 0.25]
    assert len(grid) <= REPORT_BLOCK_ENTRIES // fam.dim**2
    with pytest.raises(TruncationError) as single:
        compute_report(fam, 0.2)
    with pytest.raises(TruncationError) as block:
        compute_reports(fam, grid)
    assert str(block.value) == str(single.value)
    assert "amplitude 0.2;" in str(block.value)


def test_reports_memory_stays_of_the_order_of_one_point() -> None:
    # blocks of 5 points at N = 57: whatever the grid size, the peak is one
    # point's plus one block's stacks (at most 8 live arrays of
    # REPORT_BLOCK_ENTRIES doubles, 1 MiB) plus the reports (under 1 kB
    # each).  One block of all 200 points would hold about 30 MB of stacks.
    fam = coherent_family(2.0).family()
    grid = np.linspace(-0.29, 0.29, 200).tolist()
    compute_report(fam, 0.29)  # the family's generator, formed once
    peaks = []
    for thetas in ([0.29], grid):
        tracemalloc.start()
        try:
            compute_reports(fam, thetas)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 8 * REPORT_BLOCK_ENTRIES * 8 + 1000 * len(grid)


def _counting(monkeypatch, owner, name: str, counts: dict[str, int]) -> None:
    real = getattr(owner, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_coherent_point_runs_no_eigh_and_one_displacement(monkeypatch) -> None:
    fam = coherent_family(2.0).family()
    counts: dict[str, int] = {}
    _counting(monkeypatch, np.linalg, "eigh", counts)
    _counting(monkeypatch, CoherentFamily, "checked_displacement", counts)
    for theta in (0.0, 0.1, -0.2):
        compute_report(fam, theta)
    assert counts == {"eigh": 0, "checked_displacement": 3}


def test_hook_point_takes_the_mean_over_the_band(monkeypatch) -> None:
    # Tr(rho H) of every model over the band's entries: no table but the
    # bvn one of the KMB residual, and the dense tables' value to rounding
    fam = coherent_family(2.0).family()
    tables = []
    real = ldqfi.ldops.kernel_matrix

    def recorded(w, model):
        tables.append(model)
        return real(w, model)

    monkeypatch.setattr(ldqfi.ldops, "kernel_matrix", recorded)
    for theta in (0.0, 0.15, -0.25):
        del tables[:]
        rep = compute_report(fam, theta)
        assert tables == ["bvn"]
        br = fam.branches_of(theta)
        gram = br.basis.conj().T @ br.basis
        rho_eig = (gram * br.eigenvalues) @ gram
        dense = max(
            abs(float(np.sum(rho_eig * (br.rho_prime_eig / real(br.eigenvalues, m)).T).real))
            for m in MODELS
        )
        assert abs(rep.max_zero_expectation - dense) <= 1e-15


def test_central_difference_bypasses_the_hook(monkeypatch) -> None:
    fam = dataclasses.replace(
        coherent_family(1.0).family(), derivative_mode=CentralDifference()
    )
    plain = dataclasses.replace(fam, branches_of=None)

    def unused(theta: float):
        raise AssertionError("the hook serves only analytic derivatives")

    monkeypatch.setattr(ldqfi.zoo, "coherent_branches", unused)
    for theta in (0.05, 0.2):
        assert compute_report(fam, theta) == compute_report(plain, theta)


def test_large_occupation_bvn_is_banded() -> None:
    tracemalloc.start()
    try:
        value = coherent_qfi_bvn(100.0, check_traces=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(0.019900661289228672, rel=1e-14, abs=0.0)
    # the identity basis at theta = 0 (N = 2082) is the only N^2 array
    assert peak < 40e6


def test_band_is_the_dense_commutator() -> None:
    fam = coherent_family(1.0)
    br = coherent_branches(fam, 0.1)
    assert br.band is not None
    gen = fam.generator()
    rho0 = fam.rho0()
    comm = (gen @ rho0 - rho0 @ gen)[::-1, ::-1]
    np.testing.assert_array_equal(br.rho_prime_eig, comm)


def test_band_entries_and_kernels_match_the_tables() -> None:
    rng = np.random.default_rng(7)
    n = 6
    diag = rng.standard_normal(n)
    upper = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    band = HermitianTridiagonal(diag, upper)
    dense = band.dense()
    np.testing.assert_array_equal(dense, dense.conj().T)
    np.testing.assert_array_equal(np.diagonal(dense), diag)
    np.testing.assert_array_equal(np.diagonal(dense, 1), upper)
    assert np.count_nonzero(np.triu(dense, 2)) == 0
    with pytest.raises(ldqfi.InvalidInput):
        HermitianTridiagonal(np.ones(3), np.ones(3))

    w = np.sort(rng.uniform(0.1, 1.0, n))
    w /= w.sum()
    rows, cols, _ = band.entries
    for model in MODELS:
        table = kernel_matrix(w, model)
        np.testing.assert_array_equal(table, kernel_pairs(w[:, None], w[None, :], model))
        np.testing.assert_array_equal(kernel_pairs(w[rows], w[cols], model), table[rows, cols])
    np.testing.assert_array_equal(kernel_matrix(w, "bvn"), logmean_pairs(w[:, None], w[None, :]))

    frame = Eigenframe(np.eye(n), w)
    banded = spectral_branches(frame, band)
    full = spectral_branches(frame, dense)
    for model in MODELS:
        _, vals, _ = kernel_entries(banded, model)
        assert vals.size == rows.size
        assert qfi_value(banded, model) == pytest.approx(qfi_value(full, model), rel=1e-13)
    np.testing.assert_array_equal(banded.cluster_value_primes, full.cluster_value_primes)


@pytest.mark.parametrize("coupling", [1e-3, 1.0])
def test_band_crossing_check_matches_dense(coupling: float) -> None:
    # a near-crossing at gap 2e-9 that rotates fast for coupling 1, and a
    # doubly degenerate cluster coupled to its neighbour
    w = np.array([0.1, 0.1, 0.15, 0.2, 0.2 + 2e-9])
    w /= w.sum()
    band = HermitianTridiagonal(np.zeros(5), np.array([0.0, 0.05, 0.01, coupling]))
    outcomes = []
    for rp in (band, band.dense()):
        try:
            outcomes.append(spectral_branches(Eigenframe(np.eye(5), w), rp).n_clusters)
        except DegenerateCrossing as err:
            outcomes.append((str(err), err.pair))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[0], tuple) == (coupling == 1.0)


def _parent_message(fam: CoherentFamily, theta: float, bulk: int) -> str:
    """The check's message, computed with the 2-norm of the bulk Gram defect."""
    w = ldqfi.zoo.expm(theta * fam.generator())
    dev = float(np.abs(w[:bulk, :bulk] - displacement_closed_form(theta, bulk)).max())
    gram = w.T @ w - np.eye(fam.trunc_dim)
    unit = float(np.linalg.norm(gram[:bulk, :bulk], 2))
    assert not (dev <= DISPLACEMENT_TOL and unit <= DISPLACEMENT_TOL)
    return (
        f"bulk displacement deviates from the closed form by {dev:.3e} "
        f"(bulk unitarity defect {unit:.3e}) at dimension {fam.trunc_dim}; enlarge trunc_dim"
    )


def test_forced_deviation_keeps_the_message(monkeypatch) -> None:
    # a margin of 2 levels puts the corrupted top of a 20-level truncation
    # at amplitude 1 into the bulk
    monkeypatch.setattr(ldqfi.zoo, "_bulk_margin", lambda theta, dim: 2)
    fam = CoherentFamily(mean_occupation=1.0, trunc_dim=20)
    expected = _parent_message(fam, 1.0, 18)
    with pytest.raises(TruncationError) as err:
        fam.checked_displacement(1.0)
    assert str(err.value) == expected


def test_forced_unitarity_defect_keeps_the_message(monkeypatch) -> None:
    monkeypatch.setattr(ldqfi.zoo, "expm", lambda a: (1.0 + 1e-7) * expm(a))
    fam = coherent_family(1.0)
    bulk = fam.trunc_dim - ldqfi.zoo._bulk_margin(0.2, fam.trunc_dim)
    expected = _parent_message(fam, 0.2, bulk)
    # the Frobenius norm of this defect exceeds its 2-norm
    assert "2.000e-07)" in expected
    with pytest.raises(TruncationError) as err:
        fam.checked_displacement(0.2)
    assert str(err.value) == expected
