"""Information values: conventions, splits, bounds, additivity, entropy
limits."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from ldqfi import (
    MODELS,
    StateFamily,
    branches_at,
    breve_variance,
    bvn_ld,
    classical_information,
    compute_report,
    ld_operator,
    local_cr_check,
    maximality_check,
    ncopy_qfi,
    qfi_bvn,
    qfi_split,
    qfi_value,
    qfi_variance,
    random_analytic_family,
    random_hermitian,
    relative_entropy,
    relent_limit,
)
from ldqfi.errors import DegenerateInformation, InvalidInput
from ldqfi.family import eval_rho


class TestConventions:
    def test_qfi_bvn_equals_pairing_with_derivative(self, random_branches) -> None:
        br = random_branches
        op = bvn_ld(br)
        direct = float(np.trace(br.rho_prime() @ op.matrix).real)
        assert qfi_bvn(br) == pytest.approx(direct, rel=1e-12)

    def test_qfi_bvn_equals_breve_variance(self, random_branches) -> None:
        br = random_branches
        op = bvn_ld(br, split=False)
        assert breve_variance(br, op.matrix) == pytest.approx(qfi_bvn(br), rel=1e-10)

    def test_breve_reduces_to_variance_when_commuting(self, rng) -> None:
        fam = random_analytic_family(4, rng, commuting=True)
        br = branches_at(fam, 0.2)
        y = np.diag(np.linalg.eigvalsh(random_hermitian(4, rng))).astype(complex)
        y = br.basis @ y @ br.basis.conj().T  # commutes with rho by construction
        y = y - np.trace(br.rho() @ y).real * np.eye(4)
        assert breve_variance(br, y) == pytest.approx(
            qfi_variance(br.rho(), y), rel=1e-10, abs=1e-12
        )

    def test_qfi_value_conventions(self, random_branches) -> None:
        # bvn reports the KMB pairing Tr(rho' H); the other three report the
        # ordinary second moment Tr(rho H^2)
        br = random_branches
        for model in MODELS:
            op = ld_operator(br, model, split=False)
            if model == "bvn":
                direct = float(np.trace(br.rho_prime() @ op.matrix).real)
            else:
                direct = float(np.trace(br.rho() @ op.matrix @ op.matrix).real)
            assert qfi_value(br, model) == pytest.approx(direct, rel=1e-11)
            # the ordinary moment itself is available for every model
            assert qfi_variance(br.rho(), op) == pytest.approx(
                float(np.trace(br.rho() @ op.matrix @ op.matrix).real), rel=1e-11
            )

    def test_qfi_variance_rejects_biased_observable(self, random_branches) -> None:
        br = random_branches
        with pytest.raises(InvalidInput):
            qfi_variance(br.rho(), np.eye(br.dim, dtype=complex))

    def test_ordering_chain(self, random_branches) -> None:
        br = random_branches
        vals = [qfi_value(br, m) for m in ("ld1", "ld2", "bvn", "sld")]
        for a, b in zip(vals, vals[1:]):
            assert a >= b - 1e-12


class TestSplit:
    def test_split_adds_up(self, random_branches) -> None:
        br = random_branches
        for model in MODELS:
            i1, i2 = qfi_split(br, model)
            total = qfi_bvn(br) if model == "bvn" else qfi_value(br, model)
            assert i1 + i2 == pytest.approx(total, rel=1e-12)
            assert i1 == pytest.approx(classical_information(br), rel=1e-14)
            assert i2 >= -1e-12

    def test_classical_part_from_eigenvalue_derivatives(self, random_branches) -> None:
        br = random_branches
        expected = sum(
            (s.stop - s.start) * dv**2 / v
            for s, v, dv in zip(br.cluster_slices, br.cluster_values, br.cluster_value_primes)
        )
        assert classical_information(br) == pytest.approx(expected, rel=1e-12)

    def test_commuting_family_is_purely_classical(self, rng) -> None:
        fam = random_analytic_family(4, rng, commuting=True)
        br = branches_at(fam, 0.2)
        for model in MODELS:
            i1, i2 = qfi_split(br, model)
            assert abs(i2) <= 1e-10 * max(1.0, i1)


class TestReparametrization:
    def test_qfi_scales_quadratically(self, rng) -> None:
        fam = random_analytic_family(4, rng)
        c = 1.7
        rescaled = StateFamily(
            dim=fam.dim,
            theta_domain=(fam.theta_domain[0] / c, fam.theta_domain[1] / c),
            rho_of=lambda t: fam.rho_of(c * t),
            rho_prime_of=lambda t: c * fam.rho_prime_of(c * t),
            derivative_mode=fam.derivative_mode,
            name="rescaled",
        )
        theta = 0.2
        br = branches_at(fam, theta)
        br_scaled = branches_at(rescaled, theta / c)
        assert qfi_bvn(br_scaled) == pytest.approx(c**2 * qfi_bvn(br), rel=1e-10)
        for model in MODELS:
            assert qfi_value(br_scaled, model) == pytest.approx(
                c**2 * qfi_value(br, model), rel=1e-10
            )


class TestCrBound:
    def test_random_observables_satisfy_bound(self, random_branches, rng) -> None:
        br = random_branches
        for model in MODELS:
            for _ in range(25):
                y = random_hermitian(br.dim, rng)
                chk = local_cr_check(br, y, model)
                assert chk.holds
                assert chk.slack >= -1e-10
                assert chk.model == model

    def test_efficient_direction_saturates_sld(self, random_branches) -> None:
        br = random_branches
        info = qfi_value(br, "sld")
        direction = ld_operator(br, "sld", split=False).matrix / info
        chk = local_cr_check(br, direction, "sld")
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-10)
        assert chk.u == pytest.approx(1.0 / info * qfi_value(br, "sld"), rel=1e-10)

    def test_efficient_direction_saturates_bvn_breve(self, random_branches) -> None:
        br = random_branches
        info = qfi_bvn(br)
        direction = bvn_ld(br, split=False).matrix / info
        chk = local_cr_check(br, direction, "bvn")
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-10)

    def test_zero_derivative_raises(self) -> None:
        const = StateFamily(
            dim=2,
            theta_domain=(-1.0, 1.0),
            rho_of=lambda t: np.diag([0.6, 0.4]).astype(complex),
            rho_prime_of=lambda t: np.zeros((2, 2), dtype=complex),
            name="const",
        )
        br = branches_at(const, 0.0)
        with pytest.raises(DegenerateInformation):
            local_cr_check(br, np.diag([1.0, -1.0]).astype(complex), "sld")


class TestNCopy:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_explicit_tensor_additivity(self, model: str, n: int, tanh_family) -> None:
        br = branches_at(tanh_family, 0.3)
        single = qfi_bvn(br) if model == "bvn" else qfi_value(br, model)
        assert ncopy_qfi(br, model, n) == pytest.approx(n * single, abs=1e-8)

    def test_one_copy_is_identity(self, tanh_family) -> None:
        br = branches_at(tanh_family, 0.3)
        assert ncopy_qfi(br, "sld", 1) == pytest.approx(qfi_value(br, "sld"), rel=1e-12)

    def test_large_n_uses_formula(self, tanh_family) -> None:
        br = branches_at(tanh_family, 0.3)
        assert ncopy_qfi(br, "sld", 50) == pytest.approx(
            50 * qfi_value(br, "sld"), rel=1e-12
        )

    def test_bad_n(self, tanh_family) -> None:
        br = branches_at(tanh_family, 0.3)
        with pytest.raises(InvalidInput):
            ncopy_qfi(br, "sld", 0)


class TestRelativeEntropy:
    def test_zero_on_equal_states(self, tanh_family) -> None:
        rho = eval_rho(tanh_family, 0.3)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-13)

    def test_positive_on_distinct_states(self, tanh_family) -> None:
        a = eval_rho(tanh_family, 0.3)
        b = eval_rho(tanh_family, 0.5)
        assert relative_entropy(a, b) > 0.0

    def test_closed_form_two_level_diagonal(self) -> None:
        from ldqfi import DensityMatrix

        p, q = 0.7, 0.4
        sigma = DensityMatrix(np.diag([p, 1 - p]).astype(complex))
        rho = DensityMatrix(np.diag([q, 1 - q]).astype(complex))
        expected = p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))
        assert relative_entropy(sigma, rho) == pytest.approx(expected, rel=1e-12)

    def test_limit_recovers_information(self, tanh_family) -> None:
        q = qfi_bvn(branches_at(tanh_family, 0.3))
        assert relent_limit(tanh_family, 0.3) == pytest.approx(q, rel=1e-5)

    def test_maximality(self, tanh_family) -> None:
        e_prime, neg_q = maximality_check(tanh_family, 0.3)
        assert e_prime == pytest.approx(neg_q, rel=1e-6)
        assert neg_q == pytest.approx(-qfi_bvn(branches_at(tanh_family, 0.3)), rel=1e-12)


class TestReport:
    def test_report_fields(self, tanh_family) -> None:
        rep = compute_report(tanh_family, 0.3)
        assert set(rep.qfi) == set(MODELS)
        assert set(rep.i2) == set(MODELS)
        assert rep.kmb_residual <= 1e-10
        assert rep.max_zero_expectation <= 1e-10
        for model in MODELS:
            assert rep.qfi[model] == pytest.approx(rep.i1 + rep.i2[model], rel=1e-10)

    def test_report_model_subset(self, tanh_family) -> None:
        rep = compute_report(tanh_family, 0.3, models=("bvn", "sld"))
        assert set(rep.qfi) == {"bvn", "sld"}

    def test_report_rejects_unknown_model(self, tanh_family) -> None:
        with pytest.raises(InvalidInput):
            compute_report(tanh_family, 0.3, models=("bvn", "xxx"))
