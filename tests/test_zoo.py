"""Model zoo: the two-level families, the truncated thermal (geometric)
family, the displaced thermal (coherent) family and the
discontinuous-projection diagnostic family, each against the closed-form
references that ldqfi.verify and tests/dense_oracles.py keep for it."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from dense_oracles import geometric_information, geometric_qfi
from ldqfi import (
    MODELS,
    CoherentFamily,
    TwoLevelFamily1,
    TwoLevelFamily2,
    branches_at,
    breve_variance,
    classical_information,
    coherent_branches,
    coherent_family,
    coherent_trunc_dim,
    compute_report,
    counterexample_family,
    default_two_level_1,
    displacement_closed_form,
    geometric_family,
    geometric_trunc_dim,
    ld_operator,
    nonsmooth_projection_state,
    qfi_bvn,
    qfi_value,
    qfi_variance,
)
from ldqfi.errors import DomainError, InvalidInput, SingularState, TruncationError
from ldqfi import zoo
from ldqfi.linalg import logmean_pairs
from ldqfi.zoo import (
    FAMILIES,
    grid_domain,
    sweep_family,
    tanh_weight,
    tanh_weight_prime,
)
from ldqfi.family import Analytic
from ldqfi.verify import (
    coherent_projection_prime,
    coherent_qfi_bvn,
    coherent_qfi_ld2,
    coherent_trace_table,
    two_level_closed_forms,
    verification_tasks,
)


# ---------------------------------------------------------------------------
# two-level closed forms


def _weighted_second_parts(lam: float) -> dict[str, float]:
    """Tr(rho H2^2) of every model at two-level weight lam, the moments the
    pipeline computes: the tabulated value for bvn and sld, half of it for
    ld1 and ld2."""
    g = 2.0 * lam - 1.0
    prod = lam * (1.0 - lam)
    return {
        "bvn": math.log(lam / (1.0 - lam)) ** 2,
        "ld1": g**2 / (4.0 * prod**2),
        "ld2": g**2 / prod,
        "sld": 4.0 * g**2,
    }


def _breve_second_part(lam: float) -> float:
    """KMB-weighted second part of the bvn model at two-level weight lam,
    the piece that added to i1 gives qfi_bvn."""
    return 2.0 * (2.0 * lam - 1.0) * math.log(lam / (1.0 - lam))


class TestTwoLevelForms:
    def test_reference_table_values(self) -> None:
        lam, dlam = 0.75, 0.1
        g = 2 * lam - 1  # 0.5
        prod = lam * (1 - lam)  # 0.1875
        f = two_level_closed_forms(lam, dlam)
        assert f.i1 == pytest.approx(dlam**2 / prod, rel=1e-14)
        log_ratio = math.log(lam / (1 - lam))
        assert f.i2["bvn"] == pytest.approx(log_ratio**2, rel=1e-14)
        assert f.i2["ld1"] == pytest.approx(g**2 / (2 * prod**2), rel=1e-14)
        assert f.i2["ld2"] == pytest.approx(2 * g**2 / prod, rel=1e-14)
        assert f.i2["sld"] == pytest.approx(4 * g**2, rel=1e-14)

    def test_variance_convention_is_half_for_ld1_ld2(self) -> None:
        f = two_level_closed_forms(0.7, 0.2)
        weighted = _weighted_second_parts(0.7)
        assert weighted["ld1"] == pytest.approx(f.i2["ld1"] / 2, rel=1e-14)
        assert weighted["ld2"] == pytest.approx(f.i2["ld2"] / 2, rel=1e-14)
        assert weighted["bvn"] == pytest.approx(f.i2["bvn"], rel=1e-14)
        assert weighted["sld"] == pytest.approx(f.i2["sld"], rel=1e-14)

    def test_breve_form(self) -> None:
        # both off-diagonal entries of rho' in the eigenbasis are 2 lam - 1,
        # each divided by the logarithmic mean of the pair
        lam = 0.7
        assert _breve_second_part(lam) == pytest.approx(
            2 * (2 * lam - 1) ** 2 / float(logmean_pairs(lam, 1 - lam)), rel=1e-14
        )

    def test_rejects_degenerate_weight(self) -> None:
        for lam in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(SingularState):
                two_level_closed_forms(lam, 0.1)

    def test_pipeline_matches_variance_forms(self, tanh_family) -> None:
        # the weighted moment Tr(rho H^2) the pipeline computes equals the
        # variance-convention closed forms to near machine precision
        for theta in (-0.8, -0.2, 0.3, 0.9):
            lam, dlam = tanh_weight(theta), tanh_weight_prime(theta)
            f = two_level_closed_forms(lam, dlam)
            br = branches_at(tanh_family, theta)
            i1 = classical_information(br)
            assert i1 == pytest.approx(f.i1, abs=1e-12)
            for model in MODELS:
                op = ld_operator(br, model, split=False)
                i2 = qfi_variance(br.rho(), op) - i1
                assert i2 == pytest.approx(_weighted_second_parts(lam)[model], abs=1e-12)

    def test_pipeline_breve_matches_closed_form(self, tanh_family) -> None:
        for theta in (-0.5, 0.4):
            lam = tanh_weight(theta)
            br = branches_at(tanh_family, theta)
            assert qfi_bvn(br) - classical_information(br) == pytest.approx(
                _breve_second_part(lam), abs=1e-12
            )

    def test_oracle_returns_printed_convention(self) -> None:
        fam = default_two_level_1()
        forms = two_level_closed_forms(*fam.weight(0.3))
        lam, dlam = tanh_weight(0.3), tanh_weight_prime(0.3)
        f = two_level_closed_forms(lam, dlam)
        assert forms.i1 == pytest.approx(f.i1, rel=1e-14)
        assert forms.i2["ld2"] == pytest.approx(f.i2["ld2"], rel=1e-14)


class TestTanhFamily:
    def test_weight_functions(self) -> None:
        assert tanh_weight(0.0) == pytest.approx(0.5)
        assert tanh_weight_prime(0.0) == pytest.approx(0.5)
        assert tanh_weight(0.3) == pytest.approx((1 + math.tanh(0.3)) / 2, rel=1e-15)

    def test_family_states(self, tanh_family) -> None:
        br = branches_at(tanh_family, 0.4)
        lam = tanh_weight(0.4)
        assert np.allclose(np.sort(br.eigenvalues), [1 - lam, lam], atol=1e-12)

    def test_constant_half_weight_gives_zero_operator(self) -> None:
        # constant lambda = 1/2 makes the state identically I/2: the whole
        # operator vanishes, in particular its eigenvalue part H1
        fam = TwoLevelFamily1(lambda_fn=lambda t: 0.5, lambda_prime_fn=lambda t: 0.0).family()
        br = branches_at(fam, 0.3)
        op = ld_operator(br, "bvn", split=True)
        assert np.linalg.norm(op.h1) <= 1e-14
        assert np.linalg.norm(op.matrix) <= 1e-14
        assert abs(np.trace(br.rho() @ op.matrix)) <= 1e-14


class TestTwoLevelFamily2:
    def test_weight_constant_in_theta(self) -> None:
        fam = TwoLevelFamily2(r=0.5)
        lam, dlam = fam.weight(0.7)
        assert lam == pytest.approx(0.75)
        assert dlam == 0.0

    def test_classical_part_vanishes(self, fixed_weight_family) -> None:
        br = branches_at(fixed_weight_family, 0.4)
        assert classical_information(br) <= 1e-20

    def test_r_validation(self) -> None:
        with pytest.raises(InvalidInput):
            TwoLevelFamily2(r=-0.1)
        with pytest.raises(InvalidInput):
            TwoLevelFamily2(r=1.5)
        with pytest.raises(SingularState):
            TwoLevelFamily2(r=1.0 - 1e-13)

    def test_r_zero_is_maximally_mixed(self) -> None:
        fam = TwoLevelFamily2(r=0.0).family()
        br = branches_at(fam, 0.4)
        assert np.linalg.norm(br.rho() - np.eye(2) / 2) <= 1e-15
        for model in MODELS:
            assert qfi_value(br, model) <= 1e-12


# ---------------------------------------------------------------------------
# geometric family


class TestGeometric:
    def test_information_closed_form(self) -> None:
        theta = math.log(2.0)
        assert geometric_information(theta) == pytest.approx(2.0, rel=1e-14)
        # generic theta: e^theta / (e^theta - 1)^2
        for t in (0.5, 0.9, 1.5):
            expected = math.exp(t) / math.expm1(t) ** 2
            assert geometric_information(t) == pytest.approx(expected, rel=1e-12)

    def test_qfi_all_models_collapse(self) -> None:
        theta = math.log(2.0)
        value = geometric_qfi(theta)
        assert value == pytest.approx(2.0, abs=1e-8)

    def test_pipeline_operators_coincide(self, geometric_ln2) -> None:
        theta = math.log(2.0)
        br = branches_at(geometric_ln2, theta)
        mats = [ld_operator(br, m).matrix for m in MODELS]
        worst = max(np.linalg.norm(a - b) for a in mats for b in mats)
        assert worst <= 1e-8
        for m in MODELS:
            assert qfi_value(br, m) == pytest.approx(2.0, abs=1e-8)

    def test_eigenvalues_are_normalized_geometric(self, geometric_ln2) -> None:
        theta = math.log(2.0)
        br = branches_at(geometric_ln2, theta)
        w = np.sort(br.eigenvalues)[::-1]
        n = w.size
        expected = np.exp(-theta * np.arange(n)) * (1 - np.exp(-theta))
        expected /= 1 - np.exp(-theta * n)
        assert np.allclose(w, expected, rtol=1e-12)

    def test_auto_trunc_dim_respects_rank_guard(self) -> None:
        n = geometric_trunc_dim(0.5, 0.55)
        w_min = math.exp(-0.55 * (n - 1)) * (1 - math.exp(-0.55)) / (1 - math.exp(-0.55 * n))
        assert w_min > 1e-12
        assert n >= 2

    def test_domain_guard(self) -> None:
        with pytest.raises(DomainError):
            geometric_family(0.01)  # at or below the half width

    def test_theta_independent_value_inside_window(self, geometric_ln2) -> None:
        theta = math.log(2.0)
        a = qfi_bvn(branches_at(geometric_ln2, theta - 0.01))
        b = qfi_bvn(branches_at(geometric_ln2, theta + 0.01))
        assert a == pytest.approx(geometric_information(theta - 0.01), rel=1e-8)
        assert b == pytest.approx(geometric_information(theta + 0.01), rel=1e-8)


# ---------------------------------------------------------------------------
# coherent (displaced thermal) family


class TestDisplacementOperator:
    @pytest.mark.parametrize("theta", [0.2, -0.2])
    def test_closed_form_matches_exponential(self, theta: float) -> None:
        dim = 40
        ad = np.diag(np.sqrt(np.arange(1.0, dim)), -1)
        gen = ad - ad.T
        w_exp = expm(theta * gen)
        w_closed = displacement_closed_form(theta, dim)
        # the exponential of the truncated generator corrupts the highest
        # levels; compare on a protected bulk
        bulk = dim - 14
        assert np.linalg.norm(w_exp[:bulk, :bulk] - w_closed[:bulk, :bulk]) <= 1e-12

    def test_columns_are_displaced_number_states(self) -> None:
        # column 0 is the displaced vacuum: Poisson amplitudes e^{-x/2} theta^n/sqrt(n!)
        theta, dim = 0.3, 30
        w = displacement_closed_form(theta, dim)
        n = np.arange(dim)
        from scipy.special import gammaln

        expected = np.exp(-0.5 * theta**2 + n * np.log(theta) - 0.5 * gammaln(n + 1.0))
        assert np.allclose(w[:, 0], expected, atol=1e-12)

    def test_zero_displacement_is_identity(self) -> None:
        assert np.allclose(displacement_closed_form(0.0, 12), np.eye(12))

    def test_sign_symmetry(self) -> None:
        # W(-theta) = W(theta)^T (real orthogonal representation)
        w_pos = displacement_closed_form(0.17, 25)
        w_neg = displacement_closed_form(-0.17, 25)
        assert np.allclose(w_neg, w_pos.T, atol=1e-13)

    def test_large_dimension_is_finite_and_consistent(self) -> None:
        # a separately evaluated factorial ratio and Laguerre value give
        # 0 * inf = NaN on the far diagonals from N ~ 1100 on at theta = 0.1
        big = displacement_closed_form(0.1, 1200)
        assert np.all(np.isfinite(big))
        assert np.abs(big[:600, :600] - displacement_closed_form(0.1, 600)).max() <= 1e-12
        bulk = 1200 - zoo._bulk_margin(0.1, 1200)
        norms = np.linalg.norm(big[:, :bulk], axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-10

    def test_large_occupation_displacement_passes_check(self) -> None:
        w = zoo.CoherentFamily(100.0, 1200).checked_displacement(0.1)
        assert w.shape == (1200, 1200)

    def test_non_finite_amplitude_is_a_domain_error(self) -> None:
        # the check's margin took math.ceil of NaN (a bare ValueError), and
        # the closed form returned NaN matrices under RuntimeWarnings
        with pytest.raises(DomainError):
            zoo.CoherentFamily(1.0, 34).checked_displacement(math.nan)
        with pytest.raises(DomainError):
            displacement_closed_form(math.nan, 4)
        with pytest.raises(DomainError):
            displacement_closed_form(math.inf, 3)

    @pytest.mark.parametrize("dim", [2.5, 3.0, 0, True])
    def test_dimension_must_be_a_positive_integer(self, dim) -> None:
        with pytest.raises(InvalidInput, match="dim"):
            displacement_closed_form(0.1, dim)

    def test_recurrence_matches_the_stepwise_products(self) -> None:
        # the coefficient tables hold the products each step formed itself
        for theta, dim in ((0.29, 3), (-0.17, 45), (0.1, 47), (-2.0, 200)):
            np.testing.assert_array_equal(
                displacement_closed_form(theta, dim), _stepwise_closed_form(theta, dim)
            )

    def test_generator_is_formed_once_per_family(self) -> None:
        fam = zoo.CoherentFamily(1.0, 12)
        gen = fam.generator()
        assert fam.generator() is gen and not gen.flags.writeable
        ad = np.diag(np.sqrt(np.arange(1.0, 12)), -1)
        np.testing.assert_array_equal(gen, ad - ad.T)


def _stepwise_closed_form(theta: float, dim: int) -> np.ndarray:
    """The recurrence of displacement_closed_form with every coefficient
    formed inside its step, as the reference for the tabulated one."""
    x = theta * theta
    d = np.arange(dim, dtype=float)
    odd = d % 2 == 1
    parity = np.where(odd, -1.0, 1.0)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    cur = np.exp(d * math.log(abs(theta)) - 0.5 * x - 0.5 * log_fact)
    cur[odd] *= math.copysign(1.0, theta)
    prev = np.zeros(dim)
    root = np.sqrt(np.arange(dim + 1.0))
    shift = 1.0 + d - x
    out = np.empty((dim, dim))
    for n in range(dim):
        k = dim - n
        out[n:, n] = cur[:k]
        out[n, n:] = parity[:k] * cur[:k]
        nxt = (2 * n + shift[: k - 1]) * cur[: k - 1] - root[n] * root[n : n + k - 1] * prev[: k - 1]
        prev, cur = cur, nxt / (root[n + 1] * root[n + 1 : n + k])
    return out


class TestCoherentFamily:
    def test_auto_trunc_dims(self) -> None:
        assert coherent_trunc_dim(0.5) == 21
        assert coherent_trunc_dim(1.0) == 34
        assert coherent_trunc_dim(2.0) == 57

    def test_eigenvalues_geometric(self) -> None:
        fam = coherent_family(1.0)
        w = fam.eigenvalues()
        assert w[0] == pytest.approx((1 - fam.q) / (1 - fam.q**fam.trunc_dim), rel=1e-12)
        ratios = w[1:] / w[:-1]
        assert np.allclose(ratios, fam.q, rtol=1e-12)

    def test_tail_guard(self) -> None:
        with pytest.raises(TruncationError):
            coherent_family(1.0, trunc_dim=10)

    def test_rank_guard(self) -> None:
        # a huge truncation pushes the smallest weight below the full-rank
        # floor before the tail guard can be satisfied
        with pytest.raises(SingularState):
            coherent_family(0.25, trunc_dim=60)

    def test_report_point_forms_the_state_at_most_once(self, monkeypatch) -> None:
        # the branches hook forms no state; without it eval_rho forms the
        # displaced state and the derivative reads it back.  Either way the
        # displacement is checked once per point.
        calls: dict[str, list[float]] = {"state": [], "checked_displacement": []}
        for name, seen in calls.items():
            real = getattr(CoherentFamily, name)

            def counted(self, theta, real=real, seen=seen):
                seen.append(theta)
                return real(self, theta)

            monkeypatch.setattr(CoherentFamily, name, counted)
        fam = coherent_family(1.0).family()
        for f, states in ((fam, []), (dataclasses.replace(fam, branches_of=None), [0.1])):
            for seen in calls.values():
                seen.clear()
            compute_report(f, 0.1)
            assert calls == {"state": states, "checked_displacement": [0.1]}
        with pytest.raises(ValueError):
            fam.rho_of(0.1)[0, 0] = 0.0
        # only the last state is kept, since one family serves a sweep
        calls["state"].clear()
        for theta in (0.15, 0.15, 0.2, 0.15):
            fam.rho_of(theta)
        assert calls["state"] == [0.15, 0.2, 0.15]

    def test_closed_form_bvn(self) -> None:
        for m in (0.5, 1.0, 2.0):
            val = coherent_qfi_bvn(m)
            assert val == pytest.approx(2 * math.log1p(1 / m), rel=1e-6)

    def test_spec_dimensions_still_accepted(self) -> None:
        # dimensions 30 (M=1) and 40 (M=2) pass the hard tail guard; the
        # truncated value's exact relative error is N*(1-q)*q^(N-1)/(1-q^N),
        # i.e. 2.8e-8 at (M=1, N=30) and 1.8e-6 at (M=2, N=40), so the
        # second check uses the correspondingly looser tolerance
        assert coherent_qfi_bvn(1.0, trunc_dim=30) == pytest.approx(
            2 * math.log(2.0), rel=1e-6
        )
        assert coherent_qfi_bvn(2.0, trunc_dim=40) == pytest.approx(
            2 * math.log(1.5), rel=3e-6
        )

    def test_derived_goldens(self) -> None:
        # independently derived closed forms, frozen: the harmonic-kernel
        # value, the arithmetic-kernel value, the geometric-kernel second
        # moment, and the second moment of the logarithmic-kernel operator
        # itself, (2M+1)*ln^2(1+1/M)
        for m in (0.5, 1.0, 2.0):
            fam = coherent_family(m)
            br = coherent_branches(fam)
            ld1_expected = (2 * m + 1) ** 3 / (4 * m**2 * (m + 1) ** 2)
            sld_expected = 4 / (2 * m + 1)
            ld2_expected = (2 * m + 1) / (m * (m + 1))
            bvn_moment_expected = (2 * m + 1) * math.log(1 + 1 / m) ** 2
            assert qfi_value(br, "ld1") == pytest.approx(ld1_expected, rel=1e-6)
            assert qfi_value(br, "sld") == pytest.approx(sld_expected, rel=1e-6)
            assert qfi_value(br, "ld2") == pytest.approx(ld2_expected, rel=1e-6)
            h = ld_operator(br, "bvn", split=False)
            assert qfi_variance(br.rho(), h) == pytest.approx(
                bvn_moment_expected, rel=1e-6
            )

    def test_ld2_verdict_golden(self) -> None:
        # frozen verdict: the numeric second moment matches neither printed
        # candidate formula at any tested occupation
        for m in (0.5, 1.0, 2.0):
            v = coherent_qfi_ld2(m)
            assert v.matches == "neither"
            assert v.numeric == pytest.approx((2 * m + 1) / (m * (m + 1)), rel=1e-6)
        v1 = coherent_qfi_ld2(1.0)
        assert v1.formula_a == pytest.approx(1.125, rel=1e-12)
        assert v1.formula_b == pytest.approx(1.0625, rel=1e-12)

    def test_analytic_branches_match_generic_pipeline(self) -> None:
        fam = coherent_family(1.0)
        sf = fam.family()
        analytic = coherent_branches(fam, 0.1)
        generic = branches_at(sf, 0.1)
        assert qfi_bvn(analytic) == pytest.approx(qfi_bvn(generic), rel=1e-10)
        for model in MODELS:
            assert qfi_value(analytic, model) == pytest.approx(
                qfi_value(generic, model), rel=1e-9
            )

    def test_non_finite_closed_form_fails_displacement_check(self, monkeypatch) -> None:
        closed_form = zoo.displacement_closed_form

        def one_nan(theta: float, dim: int) -> np.ndarray:
            out = closed_form(theta, dim)
            out[dim // 2, dim // 2] = np.nan
            return out

        monkeypatch.setattr(zoo, "displacement_closed_form", one_nan)
        with pytest.raises(TruncationError):
            coherent_family(1.0).checked_displacement(0.1)

    def test_theta_independence(self) -> None:
        sf = coherent_family(1.0).family()
        vals = [qfi_bvn(branches_at(sf, t)) for t in (0.0, 0.1, 0.2)]
        assert max(vals) - min(vals) <= 1e-6

    def test_breve_identity_on_displaced_state(self) -> None:
        sf = coherent_family(1.0).family()
        br = branches_at(sf, 0.15)
        op = ld_operator(br, "bvn", split=False)
        assert breve_variance(br, op.matrix) == pytest.approx(qfi_bvn(br), rel=1e-10)


class TestProjectionDerivatives:
    def test_structure(self) -> None:
        n, dim = 3, 8
        dp = coherent_projection_prime(n, dim)
        expected = np.zeros((dim, dim))
        expected[n + 1, n] = expected[n, n + 1] = math.sqrt(n + 1)
        expected[n, n - 1] = expected[n - 1, n] = -math.sqrt(n)
        assert np.allclose(dp, expected, atol=1e-15)

    def test_ground_level_has_no_lower_coupling(self) -> None:
        dp = coherent_projection_prime(0, 6)
        assert dp[0, 1] == pytest.approx(1.0)
        assert np.count_nonzero(dp) == 2

    def test_needs_headroom(self) -> None:
        with pytest.raises(TruncationError):
            coherent_projection_prime(5, 6)

    @pytest.mark.parametrize("level", [1.5, 0.5, -1, 2.0, True])
    def test_level_must_be_a_non_negative_integer(self, level) -> None:
        # a fractional level indexed the matrix with a float (a bare IndexError)
        with pytest.raises(InvalidInput, match="level"):
            coherent_projection_prime(level, 6)
        with pytest.raises(InvalidInput, match="level"):
            coherent_trace_table(level, 6)

    def test_trace_table_all_integers(self) -> None:
        for k in range(11):
            rows = coherent_trace_table(k, 30)
            assert len(rows) == 8
            for row in rows:
                assert row.expected == float(round(row.expected))
                assert abs(row.value - row.expected) <= 1e-9

    def test_trace_table_values_k2(self) -> None:
        rows = {r.label: r for r in coherent_trace_table(2, 20)}
        # eight distinct diagnostics with the printed +-(k+1), +-k pattern
        expected_set = sorted(r.expected for r in rows.values())
        assert expected_set == [-3.0, -3.0, -2.0, -2.0, 2.0, 2.0, 3.0, 3.0]

    def test_trace_table_needs_headroom(self) -> None:
        with pytest.raises(TruncationError):
            coherent_trace_table(10, 12)


# ---------------------------------------------------------------------------
# discontinuous-projection family


class TestCounterexampleFamily:
    def test_family_evaluates_off_zero(self) -> None:
        fam = counterexample_family()
        br = branches_at(fam, 0.4)
        assert br.dim == 2
        assert qfi_bvn(br) >= 0.0

    def test_projections_merge_near_zero(self) -> None:
        fam = counterexample_family()
        n = 10**6
        theta = 1.0 / (2 * math.pi * n)
        br = branches_at(fam, theta)
        assert br.n_clusters == 1  # gap e^{-1/theta^2} far below resolution

    def test_numeric_derivative_mode(self) -> None:
        fam = counterexample_family()
        from ldqfi.family import CentralDifference

        assert isinstance(fam.derivative_mode, CentralDifference)


# ---------------------------------------------------------------------------
# registry helpers


def _inner(dom) -> float:
    return dom.lo + 0.5 if math.isinf(dom.hi) else 0.5 * (dom.lo + dom.hi)


@pytest.mark.parametrize(
    "build",
    [lambda n: geometric_family(math.log(2.0), n), lambda n: coherent_family(1.0, n)],
    ids=["geometric", "coherent"],
)
@pytest.mark.parametrize("trunc_dim", [math.nan, math.inf, 2.5, 1, -3, "a"])
def test_constructors_reject_bad_trunc_dim(build, trunc_dim: float) -> None:
    # the sweep table's domain rule: a finite integer of at least 2
    with pytest.raises(InvalidInput, match="trunc_dim"):
        build(trunc_dim)


@pytest.mark.parametrize(
    "build",
    [
        lambda: coherent_trunc_dim("a"),
        lambda: coherent_family("a"),
        lambda: geometric_family("a"),
        lambda: TwoLevelFamily2(r="a").family(),
        lambda: nonsmooth_projection_state("a"),
        lambda: nonsmooth_projection_state(None),
        lambda: coherent_trunc_dim(10**400),
        lambda: coherent_family(10**400),
        lambda: coherent_family(1.0, 10**400),
        lambda: geometric_family(10**400),
        lambda: TwoLevelFamily2(r=10**400),
        lambda: displacement_closed_form(10**400, 3),
        lambda: displacement_closed_form("a", 3),
        lambda: CoherentFamily(1.0, 10).checked_displacement(None),
    ],
    ids=["coherent_trunc_dim", "coherent_family", "geometric_family", "two_level_2",
         "nonsmooth_string", "nonsmooth_none", "coherent_trunc_dim_huge", "coherent_family_huge",
         "coherent_trunc_dim_param_huge", "geometric_family_huge", "two_level_2_huge",
         "displacement_huge", "displacement_string", "checked_displacement_none"],
)
def test_constructors_reject_non_real_parameters(build) -> None:
    # each raised a bare TypeError from a comparison or math.isfinite, or
    # for an integer beyond the float range a bare OverflowError
    with pytest.raises(InvalidInput, match="real number"):
        build()


class TestRegistry:
    def test_default_sweep_params(self) -> None:
        assert next(iter(FAMILIES["two_level_2"].coords)) == "r"
        for name in ("two_level_1", "geometric", "coherent", "counterexample31"):
            assert next(iter(FAMILIES[name].coords)) == "theta"
        for name, spec in FAMILIES.items():
            assert grid_domain(name, {})[0] == next(iter(spec.coords))

    def test_validate_family_config(self) -> None:
        grid_domain("coherent", {"M": 1.0}, "theta")
        with pytest.raises(InvalidInput):
            grid_domain("bogus", {}, "theta")
        with pytest.raises(InvalidInput):
            grid_domain("coherent", {"x": 1.0}, "theta")
        with pytest.raises(InvalidInput):
            grid_domain("two_level_1", {}, "r")

    def test_swept_coordinate_cannot_be_fixed(self) -> None:
        with pytest.raises(InvalidInput, match="both fixed and swept"):
            grid_domain("two_level_2", {"r": 0.3})
        with pytest.raises(InvalidInput, match="both fixed and swept"):
            sweep_family("two_level_2", {"theta": 0.2}, "theta", 0.7)
        assert grid_domain("two_level_2", {"theta": 0.2})[0] == "r"

    def test_only_counterexample_lacks_analytic_derivative(self) -> None:
        for name, spec in FAMILIES.items():
            fam, _ = spec.build({c: _inner(dom) for c, dom in spec.coords.items()})
            assert spec.analytic == (fam.rho_prime_of is not None), name
        assert not FAMILIES["counterexample31"].analytic

    def test_grid_domains(self) -> None:
        _, dom = grid_domain("two_level_2", {}, "r")
        assert (dom.lo, dom.hi, dom.closed_lo) == (0.0, 1.0, True)
        _, dom = grid_domain("geometric", {}, "theta")
        assert dom.closed_lo is False and dom.lo > 0.0 and math.isinf(dom.hi)
        _, dom = grid_domain("coherent", {"M": 1.0}, "theta")
        assert (dom.lo, dom.hi) == (-0.3, 0.3)

    def test_theta_coordinates_are_the_family_domains(self) -> None:
        # the table's theta interval is the domain the family itself enforces
        for name, spec in FAMILIES.items():
            if "theta" not in spec.coords or "theta" in spec.family_coords:
                continue
            dom = spec.coords["theta"]
            fam, _ = spec.build({"theta": _inner(dom)})
            assert (dom.lo, dom.hi) == fam.theta_domain, name

    def test_sweep_family_r_sweep(self) -> None:
        fam, theta = sweep_family("two_level_2", {}, "r", 0.5)
        assert theta == pytest.approx(0.4)  # fixed evaluation point
        br = branches_at(fam, theta)
        assert max(br.eigenvalues) == pytest.approx(0.75, rel=1e-12)

    def test_point_coordinates_return_the_grid_value(self) -> None:
        # a sweep over a coordinate outside family_coords evaluates one
        # family at the grid values themselves
        for name, spec in FAMILIES.items():
            assert spec.family_coords <= set(spec.coords), name
            for coord, dom in spec.coords.items():
                if coord in spec.family_coords:
                    continue
                for value in (_inner(dom), 0.5 * (_inner(dom) + dom.lo)):
                    assert spec.build({coord: value})[1] == value, (name, coord)
        assert FAMILIES["geometric"].family_coords == {"theta"}
        assert FAMILIES["two_level_2"].family_coords == {"r"}

    def test_sweep_family_theta_sweep(self) -> None:
        fam, theta = sweep_family("two_level_2", {"r": 0.3}, "theta", 0.7)
        assert theta == 0.7
        br = branches_at(fam, theta)
        assert max(br.eigenvalues) == pytest.approx(0.65, rel=1e-12)

    def test_verification_tasks_cover_all_families(self) -> None:
        labels = {label for label, _, _ in verification_tasks()}
        assert labels == {
            "two_level_1",
            "two_level_2",
            "geometric",
            "coherent",
            "counterexample31",
        }
        for label, fam, theta in verification_tasks():
            lo, hi = fam.theta_domain
            assert lo < theta < hi
            # the kmb suite's zero-expectation tolerance follows the derivative mode
            assert isinstance(fam.derivative_mode, Analytic) == (label != "counterexample31")
