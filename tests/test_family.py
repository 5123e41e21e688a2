"""State families: validation, spectral branching with derivative blocks,
projection identities, derivative modes, and the discontinuous-projection
example."""

from __future__ import annotations

import math

import numpy as np
import pytest

import dense_oracles
from ldqfi import verify
from ldqfi import (
    Analytic,
    CentralDifference,
    DensityMatrix,
    StateFamily,
    branches_at,
    coherent_family,
    nonsmooth_projection_state,
    projection_audit,
    projection_curvature_residual,
    random_analytic_family,
    spectral_branches,
)
from ldqfi.errors import DegenerateCrossing, DomainError, InvalidInput, SingularState
from ldqfi.family import default_step, eval_rho, eval_rho_prime
from ldqfi.linalg import random_hermitian


def _diag_state(*values: float) -> np.ndarray:
    return np.diag(np.asarray(values, dtype=float)).astype(complex)


class TestDensityMatrix:
    def test_accepts_valid_state(self) -> None:
        dm = DensityMatrix(_diag_state(0.5, 0.3, 0.2))
        assert dm.matrix.shape == (3, 3)

    def test_rejects_nonhermitian(self) -> None:
        m = _diag_state(0.5, 0.5)
        m[0, 1] = 0.1
        with pytest.raises(InvalidInput):
            DensityMatrix(m)

    def test_rejects_bad_trace(self) -> None:
        with pytest.raises(InvalidInput):
            DensityMatrix(_diag_state(0.5, 0.4))

    def test_rejects_singular(self) -> None:
        with pytest.raises(SingularState):
            DensityMatrix(_diag_state(1.0 - 1e-14, 1e-14))

    def test_rejects_negative_eigenvalue(self) -> None:
        with pytest.raises(SingularState):
            DensityMatrix(_diag_state(1.01, -0.01))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DensityMatrix(np.array([["a", "b"], ["c", "d"]])),
            lambda: DensityMatrix(np.array([[0.5, 0.0], [0.0, 0.5]], dtype=object)),
            lambda: eval_rho(
                StateFamily(dim=2, theta_domain=(-1.0, 1.0), rho_of=lambda t: np.eye(2, dtype=object) / 2,
                            rho_prime_of=lambda t: np.zeros((2, 2)), name="object"),
                0.1,
            ),
        ],
        ids=["strings", "object_dtype", "family_returns_objects"],
    )
    def test_rejects_non_numeric(self, make) -> None:
        # np.isfinite raised a bare TypeError on each of these
        with pytest.raises(InvalidInput, match="numeric"):
            make()


class TestSpectralBranches:
    def test_simple_spectrum(self, random_branches) -> None:
        br = random_branches
        assert br.n_clusters == br.dim == 4
        assert list(br.cluster_mults) == [1, 1, 1, 1]
        # projections resolve the identity and are orthogonal
        total = sum(br.projection(k) for k in range(br.n_clusters))
        assert np.linalg.norm(total - np.eye(4)) <= 1e-12
        for j in range(4):
            for k in range(4):
                prod = br.projection(j) @ br.projection(k)
                ref = br.projection(j) if j == k else np.zeros((4, 4))
                assert np.linalg.norm(prod - ref) <= 1e-12

    def test_reconstruction(self, random_branches) -> None:
        br = random_branches
        rec = sum(
            br.cluster_value_primes[k] * br.projection(k)
            + br.cluster_values[k] * br.projection_prime(k)
            for k in range(br.n_clusters)
        )
        assert np.linalg.norm(rec - br.rho_prime()) <= 1e-8

    def test_true_multiplicity_clusters(self) -> None:
        rho = _diag_state(0.4, 0.4, 0.2)
        rho_prime = np.zeros((3, 3), dtype=complex)
        rho_prime[0, 2] = rho_prime[2, 0] = 0.05
        br = spectral_branches(rho, rho_prime)
        assert br.n_clusters == 2
        assert sorted(br.cluster_mults) == [1, 2]

    def test_near_crossing_with_fast_rotation_is_flagged(self) -> None:
        delta = 1e-9
        rho = _diag_state(0.5 - delta, 0.5 + delta)
        rho_prime = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(DegenerateCrossing):
            spectral_branches(rho, rho_prime)

    def test_gap_tol_flags_close_clusters(self) -> None:
        rho = _diag_state(0.5 - 1e-4, 0.5 + 1e-4)
        rho_prime = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(DegenerateCrossing):
            spectral_branches(rho, rho_prime, gap_tol=1e-3)
        # without gap_tol the same pair is perfectly resolvable
        assert spectral_branches(rho, rho_prime).n_clusters == 2

    @pytest.mark.parametrize("name", ["cluster_tol", "gap_tol"])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3, "1e-3", True])
    def test_rejects_bad_tolerance(self, name: str, tol) -> None:
        rho = _diag_state(0.3, 0.3 + 1e-12, 0.4 - 1e-12)
        with pytest.raises(InvalidInput, match=name):
            spectral_branches(rho, np.zeros((3, 3), dtype=complex), **{name: tol})
        # the default rule merges the close pair; a NaN cluster_tol would
        # silently merge nothing and give three clusters
        assert spectral_branches(rho, np.zeros((3, 3), dtype=complex)).n_clusters == 2

    def test_thermal_tail_not_merged(self) -> None:
        # eigenvalues spanning ten orders of magnitude stay separate even
        # though neighbouring tail gaps are tiny relative to the diameter
        q = 0.5
        w = q ** np.arange(30)
        w /= w.sum()
        rho = np.diag(w).astype(complex)
        rho_prime = np.zeros_like(rho)
        br = spectral_branches(rho, rho_prime)
        assert br.n_clusters == 30

    def test_gauge_invariance_inside_cluster(self, rng) -> None:
        # rotating the eigenbasis inside a degenerate cluster must not move
        # any reported output
        rho = _diag_state(0.35, 0.35, 0.3)
        h = random_hermitian(3, rng, scale=0.1)
        h = h - np.trace(h) / 3 * np.eye(3)
        br1 = spectral_branches(rho, h)
        phi = rng.uniform(0, 2 * np.pi)
        u = np.eye(3, dtype=complex)
        u[:2, :2] = np.array(
            [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]], dtype=complex
        )
        br2 = spectral_branches(u @ rho @ u.conj().T, u @ h @ u.conj().T)
        for k in range(br1.n_clusters):
            p1 = u @ br1.projection(k) @ u.conj().T
            assert np.linalg.norm(p1 - br2.projection(k)) <= 1e-10
            dp1 = u @ br1.projection_prime(k) @ u.conj().T
            assert np.linalg.norm(dp1 - br2.projection_prime(k)) <= 1e-9
        assert np.allclose(br1.cluster_values, br2.cluster_values, atol=1e-12)
        assert np.allclose(br1.cluster_value_primes, br2.cluster_value_primes, atol=1e-10)


class TestProjectionAudit:
    def test_identities_random(self, random_branches) -> None:
        rep = projection_audit(random_branches)
        assert rep.max_identity_residual() <= 1e-9

    def test_commuting_family(self, rng) -> None:
        fam = random_analytic_family(4, rng, commuting=True)
        rep = projection_audit(branches_at(fam, 0.3))
        assert rep.max_identity_residual() <= 1e-10
        assert rep.weighted_prime_sum <= 1e-10
        assert rep.commutator <= 1e-10

    def test_noncommuting_family_has_moving_projections(self, rng) -> None:
        fam = random_analytic_family(4, rng, commuting=False)
        rep = projection_audit(branches_at(fam, 0.3))
        assert rep.max_identity_residual() <= 1e-9
        assert rep.weighted_prime_sum > 1e-6
        assert rep.commutator > 1e-6

    @pytest.mark.parametrize("seed", [0, 7])
    def test_stacked_audit_matches_pair_loop_on_the_suite_families(self, seed, monkeypatch) -> None:
        seen = []

        def recorded(br):
            seen.append(br)
            return projection_audit(br)

        monkeypatch.setattr(verify, "projection_audit", recorded)
        verify.lemma33(seed)
        assert len(seen) == 100
        fields = ("offdiag_exchange", "compression", "adjoint_exchange",
                  "weighted_prime_sum", "commutator")
        for br in seen:
            got = projection_audit(br)
            want = dense_oracles.projection_audit(br)
            for name in fields:
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-14, name

    def test_audit_matches_pair_loop_with_many_clusters(self) -> None:
        # on four-level families and on the coherent family at d = 34,
        # with 34 clusters
        rng = np.random.default_rng(4)
        points = [branches_at(random_analytic_family(4, rng), 0.1) for _ in range(3)]
        points.append(branches_at(coherent_family(1.0).family(), 0.1))
        assert points[-1].n_clusters == 34
        for br in points:
            got = projection_audit(br)
            want = dense_oracles.projection_audit(br)
            for name in ("offdiag_exchange", "compression", "adjoint_exchange",
                         "weighted_prime_sum", "commutator"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-14)

    def test_projection_stacks_match_each_cluster(self) -> None:
        # a doubly degenerate cluster above two single ones
        rho = _diag_state(0.15, 0.3, 0.3, 0.25)
        h = random_hermitian(4, np.random.default_rng(2), scale=0.1)
        h = h - np.trace(h) / 4 * np.eye(4)
        v = np.linalg.qr(random_hermitian(4, np.random.default_rng(3)))[0]
        br = spectral_branches(v @ rho @ v.conj().T, v @ h @ v.conj().T)
        assert br.n_clusters == 3
        proj = br.projections()
        prime = br.projection_primes()
        assert proj.shape == prime.shape == (3, 4, 4)
        for k in range(br.n_clusters):
            np.testing.assert_array_equal(proj[k], br.projection(k))
            np.testing.assert_array_equal(prime[k], dense_oracles.projection_prime(br, k))
            np.testing.assert_array_equal(br.projection_prime(k), prime[k])

    def test_curvature_identity(self, rng) -> None:
        worst = 0.0
        for _ in range(3):
            fam = random_analytic_family(4, rng)
            worst = max(worst, projection_curvature_residual(fam, 0.15))
        assert worst <= 1e-6

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
    def test_curvature_rejects_bad_step(self, h: float, random_family) -> None:
        with pytest.raises(InvalidInput, match="step"):
            projection_curvature_residual(random_family, 0.3, h=h)


class TestDerivativeModes:
    def test_central_difference_matches_analytic(self, rng) -> None:
        fam = random_analytic_family(4, rng)
        exact = eval_rho_prime(fam, 0.2)
        import dataclasses

        numeric_fam = dataclasses.replace(fam, derivative_mode=CentralDifference())
        approx = eval_rho_prime(numeric_fam, 0.2)
        assert np.linalg.norm(exact - approx) <= 1e-8

    def test_richardson_is_tighter(self, rng) -> None:
        import dataclasses

        fam = random_analytic_family(4, rng)
        exact = eval_rho_prime(fam, 0.2)
        plain = dataclasses.replace(fam, derivative_mode=CentralDifference(step=1e-4))
        rich = dataclasses.replace(
            fam, derivative_mode=CentralDifference(step=1e-4, richardson=True)
        )
        err_plain = np.linalg.norm(eval_rho_prime(plain, 0.2) - exact)
        err_rich = np.linalg.norm(eval_rho_prime(rich, 0.2) - exact)
        assert err_rich <= err_plain

    def test_default_step_floor(self) -> None:
        assert default_step(0.0) >= 1e-5
        assert default_step(100.0) > default_step(0.0)

    def test_domain_enforced(self, rng) -> None:
        fam = random_analytic_family(4, rng)
        with pytest.raises(DomainError):
            eval_rho(fam, fam.theta_domain[1] + 1.0)


class TestBranchesAt:
    def test_matches_manual_route(self, rng) -> None:
        fam = random_analytic_family(5, rng)
        br = branches_at(fam, 0.1)
        manual = spectral_branches(eval_rho(fam, 0.1).matrix, eval_rho_prime(fam, 0.1))
        assert np.allclose(np.sort(br.eigenvalues), np.sort(manual.eigenvalues), atol=1e-12)
        assert np.linalg.norm(br.rho() - manual.rho()) <= 1e-12
        assert np.linalg.norm(br.rho_prime() - manual.rho_prime()) <= 1e-12

    def test_rho_roundtrip(self, random_branches) -> None:
        br = random_branches
        rho = br.rho()
        assert np.linalg.norm(rho - rho.conj().T) <= 1e-13
        assert abs(np.trace(rho).real - 1.0) <= 1e-12


class TestNonsmoothProjectionState:
    def test_far_from_zero(self) -> None:
        st = nonsmooth_projection_state(0.5)
        assert not st.degenerate_at_zero
        p1, p2 = st.p1, st.p2
        assert np.linalg.norm(p1 + p2 - np.eye(2)) <= 1e-12
        assert np.linalg.norm(p1 @ p2) <= 1e-12
        assert np.linalg.norm(p1 @ p1 - p1) <= 1e-12

    def test_projection_aligned_at_cosine_one(self) -> None:
        n = 1000
        theta = 1.0 / (2 * math.pi * n)
        st = nonsmooth_projection_state(theta)
        assert np.linalg.norm(st.p1 - np.array([[1.0, 0.0], [0.0, 0.0]])) <= 1e-9

    def test_states_converge_projections_oscillate(self) -> None:
        n = 10**6
        ta = 1.0 / (2 * math.pi * n)
        tb = 1.0 / (2 * math.pi * n + math.pi / 2)
        sa, sb = nonsmooth_projection_state(ta), nonsmooth_projection_state(tb)
        state_gap = np.linalg.svd(sa.rho.matrix - sb.rho.matrix, compute_uv=False).sum()
        proj_gap = np.linalg.norm(sa.p1 - sb.p1, 2)
        assert state_gap <= 1e-10
        assert abs(proj_gap - 1.0) <= 1e-12

    def test_zero_flagged_degenerate(self) -> None:
        st = nonsmooth_projection_state(0.0)
        assert st.degenerate_at_zero
        assert np.linalg.norm(st.rho.matrix - np.eye(2) / 2) <= 1e-15

    def test_outside_domain(self) -> None:
        with pytest.raises(DomainError):
            nonsmooth_projection_state(1.5)


class TestRandomFamily:
    def test_draws_are_reproducible(self) -> None:
        f1 = random_analytic_family(4, np.random.default_rng(3))
        f2 = random_analytic_family(4, np.random.default_rng(3))
        assert np.allclose(eval_rho(f1, 0.1).matrix, eval_rho(f2, 0.1).matrix)

    def test_commuting_flag(self) -> None:
        fam = random_analytic_family(4, np.random.default_rng(5), commuting=True)
        rho = eval_rho(fam, 0.2).matrix
        rho_prime = eval_rho_prime(fam, 0.2)
        assert np.linalg.norm(rho @ rho_prime - rho_prime @ rho) <= 1e-12

    def test_derivative_consistent_with_difference(self) -> None:
        fam = random_analytic_family(3, np.random.default_rng(11))
        h = 1e-6
        fd = (eval_rho(fam, 0.1 + h).matrix - eval_rho(fam, 0.1 - h).matrix) / (2 * h)
        assert np.linalg.norm(fd - eval_rho_prime(fam, 0.1)) <= 1e-7

    @pytest.mark.parametrize("commuting", [False, True], ids=["noncommuting", "commuting"])
    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_matches_pade_exponential_and_frechet_derivative(self, dim: int, commuting: bool) -> None:
        from scipy.linalg import expm_frechet

        min_rel_gap = 1e-2 if dim < 16 else 1e-4
        fam = random_analytic_family(dim, np.random.default_rng(dim), commuting, min_rel_gap)
        g0, g1 = _replayed_generators(dim, np.random.default_rng(dim), commuting, min_rel_gap)
        for theta in (-0.9, 0.0, 0.9):
            e, de = expm_frechet(g0 + theta * g1, g1)
            t, dt = np.trace(e).real, np.trace(de).real
            for got, want in ((fam.rho_of(theta), e / t), (fam.rho_prime_of(theta), de / t - e * (dt / t**2))):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("min_rel_gap", [math.nan, -1e-3, math.inf, "0.01", None])
    def test_rejects_bad_min_rel_gap(self, min_rel_gap) -> None:
        with pytest.raises(InvalidInput, match="min_rel_gap"):
            random_analytic_family(4, np.random.default_rng(0), min_rel_gap=min_rel_gap)


def _replayed_generators(dim: int, rng: np.random.Generator, commuting: bool,
                         min_rel_gap: float) -> tuple[np.ndarray, np.ndarray]:
    """The generators G0, G1 that random_analytic_family draws from rng: the
    first pair whose G0 has relative spectral gaps of at least min_rel_gap."""
    while True:
        g0 = random_hermitian(dim, rng, scale=0.6)
        if commuting:
            _, v = np.linalg.eigh(g0)
            g1 = (v * rng.standard_normal(dim)) @ v.conj().T
        else:
            g1 = random_hermitian(dim, rng, scale=0.6)
        w = np.linalg.eigh(g0)[0]
        if np.min(np.diff(w)) >= min_rel_gap * (w[-1] - w[0]):
            return g0, g1


def test_family_requires_domain_membership() -> None:
    fam = StateFamily(
        dim=2,
        theta_domain=(-1.0, 1.0),
        rho_of=lambda t: np.array([[0.6, 0.0], [0.0, 0.4]], dtype=complex),
        rho_prime_of=lambda t: np.zeros((2, 2), dtype=complex),
        derivative_mode=Analytic(),
        name="const",
    )
    assert fam.contains(0.5)
    assert not fam.contains(2.0)
    with pytest.raises(DomainError):
        branches_at(fam, 2.0)


def test_exact_crossing_merges_into_one_cluster() -> None:
    # at an exact degeneracy the two branches merge into a single cluster
    # (multiplicity 2); slightly away they resolve into two
    def rho_of(t: float) -> np.ndarray:
        return np.array([[0.5 + t, 0.0], [0.0, 0.5 - t]], dtype=complex)

    def rho_prime_of(t: float) -> np.ndarray:
        return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

    fam = StateFamily(
        dim=2,
        theta_domain=(-0.3, 0.3),
        rho_of=rho_of,
        rho_prime_of=rho_prime_of,
        derivative_mode=Analytic(),
        name="crossing",
    )
    assert branches_at(fam, 0.0).n_clusters == 1
    assert branches_at(fam, 0.2).n_clusters == 2
