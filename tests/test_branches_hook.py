"""Closed-form branches of the displaced thermal family: its unitary path
against the eigensolver path, its call counts, the banded functionals,
and the bulk check of the displacement."""

from __future__ import annotations

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import ldqfi
from ldqfi import (
    MODELS,
    CentralDifference,
    CoherentFamily,
    UnitaryPath,
    coherent_family,
    compute_report,
    compute_reports,
    kernel_matrix,
    qfi_value,
)
from ldqfi.errors import DegenerateCrossing, DomainError, InvalidInput, TruncationError
from ldqfi.family import Eigenframe, StateFamily, spectral_branches
from ldqfi.ldops import kernel_entries, kernel_pairs
from ldqfi.linalg import HermitianTridiagonal, logmean_pairs
from ldqfi.verify import coherent_qfi_bvn, coherent_qfi_ld2
from ldqfi.zoo import DISPLACEMENT_TOL, displacement_closed_form

from dense_oracles import hook_report

THETAS = np.linspace(-0.29, 0.29, 13)


def _fixed_bases(basis: np.ndarray):
    """bases_of of a path whose basis is the same at every theta."""
    return lambda thetas: [lambda: basis for _ in thetas]


@pytest.mark.parametrize("m", [1.0, 2.0, 10.0])
def test_hook_matches_eigensolver_path(m: float) -> None:
    fam = coherent_family(m).family()
    assert fam.dim == {1.0: 34, 2.0: 57, 10.0: 241}[m]
    generic = dataclasses.replace(fam, unitary_path=None)
    for theta in THETAS:
        hook = compute_report(fam, float(theta))
        ref = compute_report(generic, float(theta))
        for model in MODELS:
            assert hook.qfi[model] == pytest.approx(ref.qfi[model], rel=1e-12, abs=0.0)
        assert hook.kmb_residual <= 1e-13
        assert hook.max_zero_expectation <= 1e-13


@pytest.mark.parametrize("m, count", [(1.0, 31), (2.0, 23), (2.0, 59), (10.0, 3)])
def test_reports_equal_the_reports_of_single_points(m: float, count: int) -> None:
    # each grid holds 0 and negative amplitudes; 60 points at M = 2 make
    # three blocks of 20
    fam = coherent_family(m).family()
    grid = [0.0, *np.linspace(-0.29, 0.29, count).tolist()]
    assert compute_reports(fam, grid) == [compute_report(fam, theta) for theta in grid]


def test_reports_around_points_that_share_no_closed_forms() -> None:
    # N = 12 keeps a bulk up to amplitude 0.165: one block of the sweep,
    # whose zero amplitudes split the runs that share closed forms
    fam = coherent_family(0.1, 12).family()
    for grid in ([0.0, 0.05, -0.1, 0.0, 0.15, 0.16, -0.05, 0.0, 0.1], [0.1, 0.0, 0.0, -0.16], [0.0]):
        assert compute_reports(fam, grid) == [compute_report(fam, theta) for theta in grid]


def _raise(error: Exception):
    def basis():
        raise error
    return basis


@pytest.mark.parametrize("dense", [False, True])
def test_a_failing_diagnostic_raises_before_a_later_basis(dense: bool) -> None:
    # the second point's basis is not finite, so its diagnostics raise; the
    # fourth point's basis raises on its read, which a block makes before
    # the diagnostics of its points: the second point's error comes first,
    # as point by point
    fam = _fixed_basis_family(dense)
    path = fam.unitary_path

    def with_bases(*bases):
        # a path that takes its bases, point by point, from those given
        listed = UnitaryPath(path.eigenvalues, path.rho_prime_eig, lambda thetas: list(bases)[:len(thetas)])
        return dataclasses.replace(fam, unitary_path=listed)

    eye, nan = (lambda: np.eye(4)), (lambda: np.full((4, 4), math.nan))
    fourth = _raise(TruncationError("fourth"))
    with pytest.raises(InvalidInput) as many:
        compute_reports(with_bases(eye, nan, eye, fourth), [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(InvalidInput) as one:
        compute_report(with_bases(nan), 0.2)
    assert str(many.value) == str(one.value) and "non-finite" in str(many.value)
    # without it, the fourth point's own error
    with pytest.raises(TruncationError, match="fourth"):
        compute_reports(with_bases(eye, eye, eye, fourth), [0.1, 0.2, 0.3, 0.4])


@pytest.mark.parametrize("basis", [np.eye(3), np.ones(4), np.full((4, 4), "a")], ids=["shape", "1-d", "text"])
def test_a_basis_that_is_not_a_numeric_square_matrix_is_invalid(basis) -> None:
    fam = _fixed_basis_family(dense=False)
    path = fam.unitary_path
    bad = dataclasses.replace(fam, unitary_path=UnitaryPath(path.eigenvalues, path.rho_prime_eig,
                                                            _fixed_bases(basis)))
    with pytest.raises(InvalidInput, match="numeric 4 x 4"):
        compute_reports(bad, [0.1, 0.2])


@pytest.mark.parametrize("m", [1.0, 2.0, 10.0])
def test_hook_diagnostics_match_the_assembled_operator(m: float) -> None:
    # the values and Tr(rho H) keep the bytes of the point alone; the KMB
    # residual from the Gram matrix is that of the assembled bvn operator
    # to rounding
    fam = coherent_family(m).family()
    grid = [0.0, *np.linspace(-0.29, 0.29, 12).tolist()]
    for rep, ref in zip(compute_reports(fam, grid), [hook_report(fam, theta) for theta in grid]):
        assert (rep.theta, rep.qfi, rep.i1, rep.i2) == (ref.theta, ref.qfi, ref.i1, ref.i2)
        assert rep.max_zero_expectation == ref.max_zero_expectation
        assert abs(rep.kmb_residual - ref.kmb_residual) <= 1e-15


@pytest.mark.parametrize("eps", [1e-9, 1e-6])
def test_hook_residual_sees_a_basis_defect(eps: float) -> None:
    # a path basis I + eps S with S symmetric is not orthonormal: taking
    # G = I would report a residual at rounding level instead of the defect
    fam = coherent_family(1.0).family()
    path = fam.unitary_path
    rng = np.random.default_rng(3)
    s = rng.standard_normal((fam.dim, fam.dim))
    basis = np.eye(fam.dim) + eps * (s + s.T)
    defective = dataclasses.replace(
        fam, unitary_path=UnitaryPath(path.eigenvalues, path.rho_prime_eig, _fixed_bases(basis))
    )
    rep = compute_report(defective, 0.1)
    ref = hook_report(defective, 0.1)
    assert ref.kmb_residual > eps
    assert rep.kmb_residual == pytest.approx(ref.kmb_residual, rel=1e-6, abs=0.0)


def _fixed_basis_family(dense: bool) -> StateFamily:
    """A four-level unitary path on a fixed basis, rho' given as a band or,
    when dense is set, as a dense matrix."""
    w = np.array([0.1, 0.2, 0.3, 0.4])
    band = HermitianTridiagonal(np.zeros(4), np.full(3, 0.02))
    return StateFamily(
        dim=4,
        theta_domain=(-1.0, 1.0),
        rho_of=lambda theta: np.diag(w),
        rho_prime_of=lambda theta: np.zeros((4, 4)),
        unitary_path=UnitaryPath(w, band.dense() if dense else band, _fixed_bases(np.eye(4))),
    )


@pytest.mark.parametrize("dense", [False, True])
def test_path_reports_equal_the_reports_of_single_points(dense: bool) -> None:
    fam = _fixed_basis_family(dense)
    grid = [0.1, 0.3, -0.5]
    assert compute_reports(fam, grid) == [compute_report(fam, t) for t in grid]


@pytest.mark.parametrize("dense", [False, True])
def test_path_data_is_read_only_and_sized_by_the_family(dense: bool) -> None:
    fam = _fixed_basis_family(dense)
    path = fam.unitary_path
    arrays = (path.rho_prime_eig,) if dense else (path.rho_prime_eig.diag, path.rho_prime_eig.upper)
    for a in (path.eigenvalues, *arrays):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    with pytest.raises(InvalidInput, match="dimension 3"):
        dataclasses.replace(fam, dim=3)
    short = UnitaryPath(path.eigenvalues[:3], path.rho_prime_eig, path.bases_of)
    with pytest.raises(InvalidInput, match="dimension 4"):
        dataclasses.replace(fam, unitary_path=short)


def test_coherent_family_is_freed_without_a_collection() -> None:
    # the path refers to the family; were it kept on the family, the pair
    # would hold the N x N generator until a full garbage collection
    gc.disable()
    try:
        fam = coherent_family(1.0)
        compute_reports(fam.family(), [0.1, 0.2])
        fam.path.branches(0.1)
        ref = weakref.ref(fam)
        del fam
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "margin, grid, bad, error",
    [
        # N = 12 leaves no bulk from amplitude 0.2 on
        (None, [0.05, 0.1, 0.2, 0.25], 0.2, TruncationError),
        # a margin of 4 levels puts the corrupted top of N = 12 into the
        # bulk from amplitude 0.23 on: the fourth point of one block fails
        # the deviation check
        (4, [0.05, 0.1, 0.15, 0.23, 0.25], 0.23, TruncationError),
        (None, [0.05, 0.1, math.nan, 0.15], math.nan, DomainError),
        (None, [0.05, 0.1, 0.5, 0.15], 0.5, DomainError),
    ],
    ids=["no_bulk", "mid_block", "nan", "out_of_domain"],
)
def test_failing_point_of_a_grid_raises_its_own_error(monkeypatch, margin, grid, bad, error) -> None:
    if margin is not None:
        monkeypatch.setattr(ldqfi.zoo, "_bulk_margin", lambda theta, dim: margin)
    blocks = []
    real = ldqfi.zoo.displacement_closed_form

    def recorded(theta, dim):
        if np.ndim(theta):
            blocks.append(list(theta))
        return real(theta, dim)

    monkeypatch.setattr(ldqfi.zoo, "displacement_closed_form", recorded)
    fam = coherent_family(0.1, 12).family()
    with pytest.raises(error) as single:
        compute_report(fam, bad)
    with pytest.raises(error) as many:
        compute_reports(fam, grid)
    assert str(many.value) == str(single.value)
    if margin is not None:
        assert blocks == [grid] and "deviates from the closed form" in str(many.value)
    if bad == 0.2:
        assert "amplitude 0.2;" in str(many.value)


def test_a_grid_point_without_a_basis_raises() -> None:
    # zip would have cut the grid short without a word
    fam = _fixed_basis_family(dense=False)
    path = fam.unitary_path
    short = dataclasses.replace(
        fam, unitary_path=UnitaryPath(path.eigenvalues, path.rho_prime_eig, lambda thetas: [lambda: np.eye(4)])
    )
    with pytest.raises(InvalidInput, match="no basis for theta=0.3"):
        compute_reports(short, [0.1, 0.3])


def test_bases_of_takes_any_grid() -> None:
    # the values a block cannot take are checked on their own, when read
    fam = coherent_family(2.0)
    grid = [0.1, "a", math.nan, 1e308, 0.0, -0.2, 0.2]
    bases = list(fam.path.bases_of(grid))
    assert len(bases) == len(grid)
    for i, error in ((1, InvalidInput), (2, DomainError), (3, TruncationError)):
        with pytest.raises(error):
            bases[i]()
    np.testing.assert_array_equal(bases[4](), np.eye(fam.trunc_dim)[:, ::-1])
    for i in (0, 5, 6):
        np.testing.assert_array_equal(bases[i](), fam.checked_displacement(grid[i])[:, ::-1])


@pytest.mark.parametrize("m, points_per_block", [(2.0, (20, 20)), (10.0, (1, 1))])
def test_path_points_share_the_closed_forms_of_a_block(monkeypatch, m, points_per_block) -> None:
    # the points of a block of compute_reports (20 at M = 2) share one pass
    # of the recurrence, and each point's check reads the closed form it
    # would have computed on its own, bit for bit; from M = 10 on each
    # point computes its own
    blocks = []
    real = ldqfi.zoo.displacement_closed_form

    def recorded(theta, dim):
        blocks.append(np.size(theta))
        return real(theta, dim)

    checked = []
    check = CoherentFamily.checked_displacement

    def compared(self, theta, closed_form=None):
        checked.append(theta)
        if closed_form is not None:
            bulk = self.trunc_dim - ldqfi.zoo._bulk_margin(theta, self.trunc_dim)
            np.testing.assert_array_equal(closed_form[:bulk, :bulk], real(theta, bulk))
        return check(self, theta, closed_form)

    monkeypatch.setattr(ldqfi.zoo, "displacement_closed_form", recorded)
    monkeypatch.setattr(CoherentFamily, "checked_displacement", compared)
    grid = np.linspace(-0.29, 0.29, 40).tolist()
    compute_reports(coherent_family(m).family(), grid)
    assert checked == grid
    assert sum(blocks) == len(grid)
    # the last block takes what is left
    lo, hi = points_per_block
    assert all(lo <= k <= hi for k in blocks[:-1]) and blocks[-1] <= hi


def test_reports_memory_stays_of_the_order_of_one_point() -> None:
    # the points are evaluated a block at a time: whatever the grid size,
    # the peak is one block's plus the reports (under 2 kB each).  Both
    # grids hold whole blocks (20 points at M = 2: their bases, residuals
    # and closed forms), so the peak grows between them by the added
    # reports alone; a kept basis (26 kB a point) or a stack of the whole
    # grid would exceed that.
    fam = coherent_family(2.0).family()
    grids = [np.linspace(-0.29, 0.29, k).tolist() for k in (20, 200)]
    compute_report(fam, 0.29)  # the family's generator and band powers, formed once
    peaks = []
    for thetas in grids:
        tracemalloc.start()
        try:
            compute_reports(fam, thetas)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2000 * (len(grids[1]) - len(grids[0]))


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
    # the weights and the band are built once, with the family
    _counting(monkeypatch, CoherentFamily, "eigenvalues", counts)
    # each call builds each model's band kernel once, and the bvn table of
    # the KMB residual once
    _counting(monkeypatch, ldqfi.ldops, "kernel_pairs", counts)
    # the generator's band powers are built once per family, and a point
    # takes Tr(rho H) of every model in one call
    _counting(monkeypatch, ldqfi.zoo, "TridiagonalExponential", counts)
    _counting(monkeypatch, ldqfi.qfi, "expectations", counts)
    for theta in (0.0, 0.1, -0.2):
        compute_report(fam, theta)
    compute_reports(fam, [0.05, 0.15])
    assert counts == {
        "eigh": 0,
        "checked_displacement": 5,
        "eigenvalues": 0,
        "kernel_pairs": 4 * (len(MODELS) + 1),
        "TridiagonalExponential": 1,
        "expectations": 5,
    }


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
        br = fam.unitary_path.branches(theta)
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
    plain = dataclasses.replace(fam, unitary_path=None)

    def unused(path, theta: float):
        raise AssertionError("the unitary path serves only analytic derivatives")

    monkeypatch.setattr(UnitaryPath, "branches", unused)
    for theta in (0.05, 0.2):
        assert compute_report(fam, theta) == compute_report(plain, theta)


def test_large_occupation_bvn_is_banded(monkeypatch) -> None:
    # the references read the eigenvalues and the band alone, so no basis
    # is built: no displacement and no N^2 array at N = 2082 (one would
    # take 35 MB)
    counts: dict[str, int] = {}
    _counting(monkeypatch, CoherentFamily, "checked_displacement", counts)
    tracemalloc.start()
    try:
        value = coherent_qfi_bvn(100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(0.019900661289228672, rel=1e-14, abs=0.0)
    assert peak < 4e6
    coherent_qfi_ld2(100.0)
    assert counts == {"checked_displacement": 0}


def test_path_basis_is_built_once_on_first_read(monkeypatch) -> None:
    fam = coherent_family(2.0)
    counts: dict[str, int] = {}
    _counting(monkeypatch, CoherentFamily, "checked_displacement", counts)
    for theta in (0.0, 0.15, -0.25):
        br = fam.path.branches(theta)
        assert br.dim == fam.trunc_dim
        qfi_value(br, "ld1")
        assert counts["checked_displacement"] == 0
        basis = br.basis
        assert counts["checked_displacement"] == 1
        np.testing.assert_array_equal(basis, fam.checked_displacement(theta)[:, ::-1])
        assert br.basis is basis
        counts["checked_displacement"] = 0


def test_path_branches_check_theta_at_the_call() -> None:
    fam = coherent_family(1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            fam.path.branches(bad)
    with pytest.raises(InvalidInput):
        fam.path.branches("a")


def test_no_bulk_amplitude_raises_on_the_first_basis_read() -> None:
    # N = 12 leaves no bulk at amplitude 0.2; the branches are made, and
    # their basis (the checked displacement) raises as compute_report does
    cf = coherent_family(0.1, 12)
    br = cf.path.branches(0.2)
    assert qfi_value(br, "bvn") > 0.0
    with pytest.raises(TruncationError) as first:
        br.basis
    with pytest.raises(TruncationError) as again:
        br.basis
    with pytest.raises(TruncationError) as report:
        compute_report(cf.family(), 0.2)
    assert str(first.value) == str(again.value) == str(report.value)
    assert "amplitude 0.2;" in str(first.value)


def test_band_is_the_dense_commutator() -> None:
    fam = coherent_family(1.0)
    br = fam.path.branches(0.1)
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


@pytest.mark.parametrize(
    "w",
    [[0.5, 0.3, 0.2], [0.2, math.nan, 0.5], [math.nan, 0.4, 0.6], [0.2, 0.3, math.inf]],
    ids=["descending", "nan", "leading_nan", "inf"],
)
def test_eigenframe_needs_finite_ascending_eigenvalues(w: list[float]) -> None:
    # a descending spectrum would merge into one cluster and give sld 0.0,
    # and a NaN would pass the rank check
    w = np.array(w)
    rp = HermitianTridiagonal(np.zeros(3), np.array([0.1, 0.1]))
    with pytest.raises(InvalidInput, match="finite and ascending"):
        spectral_branches(Eigenframe(np.eye(3), w), rp)
    path = UnitaryPath(w, rp.dense(), _fixed_bases(np.eye(3)))
    with pytest.raises(InvalidInput, match="finite and ascending"):
        qfi_value(path.branches(0.0), "sld")


_FRAME_BAND = HermitianTridiagonal(np.zeros(3), np.array([0.1, 0.1]))


@pytest.mark.parametrize(
    "w",
    [np.array([[0.2, 0.3, 0.5]]), [0.2, 0.3, 0.5], np.array([])],
    ids=["two_dimensional", "list", "empty"],
)
def test_eigenframe_needs_a_one_dimensional_eigenvalue_array(w) -> None:
    # unchecked, these reach numpy as a ValueError, a TypeError and an IndexError
    with pytest.raises(InvalidInput, match="non-empty 1-d real numpy array"):
        spectral_branches(Eigenframe(np.eye(3), w), _FRAME_BAND)


@pytest.mark.parametrize(
    "rp",
    [
        np.zeros((4, 4)),
        np.zeros((2, 2)),
        np.zeros((3, 4)),
        np.zeros(3),
        HermitianTridiagonal(np.zeros(4), np.zeros(3)),
    ],
    ids=["larger", "smaller", "not_square", "vector", "band"],
)
def test_eigenframe_rho_prime_of_another_dimension_is_invalid(rp) -> None:
    # a larger dense one would be accepted, and qfi_value would then raise
    # numpy's broadcast ValueError
    w = np.array([0.2, 0.3, 0.5])
    with pytest.raises(InvalidInput, match="does not match the frame's 3 eigenvalues"):
        spectral_branches(Eigenframe(np.eye(3), w), rp)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("banded", [False, True], ids=["dense", "band"])
def test_eigenframe_rho_prime_with_a_non_finite_entry_is_invalid(banded: bool, value: float) -> None:
    # either would give NaN information values
    upper = np.array([0.1, value])
    rp = HermitianTridiagonal(np.zeros(3), upper) if banded else HermitianTridiagonal(np.zeros(3), upper).dense()
    with pytest.raises(InvalidInput, match="non-finite"):
        spectral_branches(Eigenframe(np.eye(3), np.array([0.2, 0.3, 0.5])), rp)


def _parent_message(fam: CoherentFamily, theta: float, bulk: int) -> str:
    """The check's message, computed from the family's displacement theta -> W
    with the 2-norm of the bulk Gram defect."""
    w = fam._exponential(theta)
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
    fam = coherent_family(1.0)
    real = fam._exponential
    monkeypatch.setitem(vars(fam), "_exponential", lambda theta: (1.0 + 1e-7) * real(theta))
    bulk = fam.trunc_dim - ldqfi.zoo._bulk_margin(0.2, fam.trunc_dim)
    expected = _parent_message(fam, 0.2, bulk)
    # the Frobenius norm of this defect exceeds its 2-norm
    assert "2.000e-07)" in expected
    with pytest.raises(TruncationError) as err:
        fam.checked_displacement(0.2)
    assert str(err.value) == expected
