"""Information values: conventions, splits, bounds, additivity, entropy
limits."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import dense_oracles
from dense_oracles import ncopy_qfi, qfi_variance, rho_prime
from ldqfi import (
    MODELS,
    CentralDifference,
    DensityMatrix,
    StateFamily,
    branches_at,
    breve_variance,
    classical_information,
    compute_report,
    compute_reports,
    ld_operator,
    coherent_family,
    default_two_level_1,
    geometric_family,
    kmb_residual,
    local_cr_terms,
    maximality_check,
    projection_curvature_residual,
    qfi_bvn,
    qfi_value,
    random_analytic_family,
    random_hermitian,
    relative_entropy,
    relent_limit,
    second_moment,
    trace_product,
)
from ldqfi.errors import DegenerateInformation, InvalidInput
from ldqfi.family import eval_rho
from ldqfi.ldops import expectation
from ldqfi.verify import _cr_targets


class TestConventions:
    def test_qfi_bvn_equals_pairing_with_derivative(self, random_branches) -> None:
        br = random_branches
        direct = float(np.trace(rho_prime(br) @ ld_operator(br, "bvn")).real)
        assert qfi_bvn(br) == pytest.approx(direct, rel=1e-12)

    def test_qfi_bvn_equals_breve_variance(self, random_branches) -> None:
        br = random_branches
        assert breve_variance(br, ld_operator(br, "bvn")) == pytest.approx(qfi_bvn(br), rel=1e-10)

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
            h = ld_operator(br, model)
            if model == "bvn":
                direct = float(np.trace(rho_prime(br) @ h).real)
            else:
                direct = float(np.trace(br.rho() @ h @ h).real)
            assert qfi_value(br, model) == pytest.approx(direct, rel=1e-11)
            # the ordinary moment itself is available for every model
            assert second_moment(br, model) == pytest.approx(
                float(np.trace(br.rho() @ h @ h).real), rel=1e-11
            )
            assert qfi_variance(br.rho(), h) == pytest.approx(second_moment(br, model), rel=1e-11)

    def test_qfi_variance_rejects_biased_observable(self, random_branches) -> None:
        br = random_branches
        with pytest.raises(InvalidInput):
            qfi_variance(br.rho(), np.eye(br.dim, dtype=complex))

    def test_qfi_variance_checks_every_operator(self, random_branches) -> None:
        # a library-built operator passes the Hermitian check unchanged; a
        # centred but non-Hermitian one is rejected
        br = random_branches
        h = ld_operator(br, "sld")
        assert qfi_variance(br.rho(), h) == trace_product(br.rho() @ h, h)
        skew = np.zeros((br.dim, br.dim), dtype=complex)
        skew[0, 1] = 1.0
        with pytest.raises(InvalidInput, match="not Hermitian"):
            qfi_variance(br.rho(), h + skew)

    def test_ordering_chain(self, random_branches) -> None:
        br = random_branches
        vals = [qfi_value(br, m) for m in ("ld1", "ld2", "bvn", "sld")]
        for a, b in zip(vals, vals[1:]):
            assert a >= b - 1e-12


class TestSplit:
    def test_split_adds_up(self, random_branches) -> None:
        # the second part qfi - i1 of every model is non-negative, and the
        # bvn value is qfi_bvn
        br = random_branches
        i1 = classical_information(br)
        assert qfi_value(br, "bvn") == qfi_bvn(br)
        for model in MODELS:
            assert qfi_value(br, model) - i1 >= -1e-12

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
        i1 = classical_information(br)
        for model in MODELS:
            assert abs(qfi_value(br, model) - i1) <= 1e-10 * max(1.0, i1)


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


def _cr_one(br, obs: np.ndarray, model: str) -> tuple[float, float, float]:
    """(u, lhs, rhs) of local_cr_terms for one observable, a stack of one."""
    u, lhs, rhs = local_cr_terms(br, np.asarray(obs)[None], model)
    return float(u[0]), float(lhs[0]), float(rhs[0])


class TestCrBound:
    def test_random_observables_satisfy_bound(self, random_branches, rng) -> None:
        br = random_branches
        for model in MODELS:
            _, lhs, rhs = local_cr_terms(br, random_hermitian(br.dim, rng, count=25), model)
            assert np.all(lhs - rhs >= -1e-10)

    def test_efficient_direction_saturates_sld(self, random_branches) -> None:
        br = random_branches
        info = qfi_value(br, "sld")
        direction = ld_operator(br, "sld") / info
        u, lhs, rhs = _cr_one(br, direction, "sld")
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert u == pytest.approx(1.0 / info * qfi_value(br, "sld"), rel=1e-10)

    def test_efficient_direction_saturates_bvn_breve(self, random_branches) -> None:
        br = random_branches
        info = qfi_bvn(br)
        direction = ld_operator(br, "bvn") / info
        _, lhs, rhs = _cr_one(br, direction, "bvn")
        assert lhs == pytest.approx(rhs, rel=1e-10)

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
            _cr_one(br, np.diag([1.0, -1.0]).astype(complex), "sld")


def _cr_points():
    """Branch sets of every kind the Cramer-Rao checks meet: two-level,
    geometric (commuting), and the coherent family through its closed-form
    hook (banded rho') and through the eigensolver."""
    coherent = coherent_family(1.0).family()
    geometric = geometric_family(math.log(2.0))
    return {
        "two_level": branches_at(default_two_level_1().family(), 0.3),
        "geometric": branches_at(geometric, math.log(2.0)),
        "coherent_hook": coherent.unitary_path.branches(0.1),
        "coherent_eigh": branches_at(coherent, 0.1),
    }


class TestStackedCr:
    @pytest.mark.parametrize("kind", ["two_level", "geometric", "coherent_hook", "coherent_eigh"])
    def test_stack_matches_per_observable_oracle(self, kind: str) -> None:
        br = _cr_points()[kind]
        assert (br.band is not None) == (kind == "coherent_hook")
        ys = random_hermitian(br.dim, np.random.default_rng(11), count=12)
        for model in MODELS:
            u, lhs, rhs = local_cr_terms(br, ys, model)
            assert u.shape == lhs.shape == rhs.shape == (12,)
            for y, got in zip(ys, zip(u, lhs, rhs)):
                want = dense_oracles.cr_terms(br, y, model)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_single_check_is_the_stack_of_one(self, random_branches, rng) -> None:
        # each observable's terms do not depend on the stack it comes in
        br = random_branches
        ys = random_hermitian(br.dim, rng, count=3)
        for model in MODELS:
            u, lhs, rhs = local_cr_terms(br, ys, model)
            for i, y in enumerate(ys):
                assert _cr_one(br, y, model) == (u[i], lhs[i], rhs[i])

    @pytest.mark.parametrize("target", _cr_targets(), ids=lambda t: t[0])
    def test_chunks_give_the_bits_of_one_stack(self, target) -> None:
        # the premise of the cr suite's chunks: ten stacks of 10 drawn from
        # one seed are the stack of 100, term for term and bit for bit
        _, fam, theta, _ = target
        br = branches_at(fam, theta)
        for model in MODELS:
            ys = random_hermitian(br.dim, np.random.default_rng(4), count=100)
            whole = local_cr_terms(br, ys, model)
            rng = np.random.default_rng(4)
            chunks = [local_cr_terms(br, random_hermitian(br.dim, rng, count=10), model)
                      for _ in range(10)]
            for got, want in zip(zip(*chunks), whole):
                np.testing.assert_array_equal(np.concatenate(got), want)

    @pytest.mark.parametrize(
        "make",
        [
            lambda ys: ys[:, :1, :1],
            lambda ys: ys[0],
            lambda ys: ys[None],
            lambda ys: ys + np.triu(np.ones((2, 2)), 1) * 0.5,
            lambda ys: np.where(np.arange(3)[:, None, None] == 2, np.nan, ys),
            lambda ys: np.where(np.arange(3)[:, None, None] == 0, np.inf, ys),
        ],
        ids=["wrong_dim", "not_a_stack", "four_axes", "non_hermitian", "nan", "inf"],
    )
    def test_bad_stack_is_invalid_input(self, make, tanh_family) -> None:
        br = branches_at(tanh_family, 0.3)
        ys = random_hermitian(2, np.random.default_rng(3), count=3)
        with pytest.raises(InvalidInput):
            local_cr_terms(br, make(ys), "sld")

    def test_unknown_model_and_zero_information(self, tanh_family) -> None:
        ys = random_hermitian(2, np.random.default_rng(3), count=2)
        with pytest.raises(InvalidInput):
            local_cr_terms(branches_at(tanh_family, 0.3), ys, "xxx")
        const = StateFamily(
            dim=2,
            theta_domain=(-1.0, 1.0),
            rho_of=lambda t: np.diag([0.6, 0.4]).astype(complex),
            rho_prime_of=lambda t: np.zeros((2, 2), dtype=complex),
            name="const",
        )
        with pytest.raises(DegenerateInformation):
            local_cr_terms(branches_at(const, 0.0), ys, "bvn")


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

    @pytest.mark.parametrize("n", [2.5, 2.0, 4.5, "2", True])
    def test_non_integer_n_is_invalid_input(self, n, tanh_family) -> None:
        br = branches_at(tanh_family, 0.3)
        with pytest.raises(InvalidInput, match="positive integer"):
            ncopy_qfi(br, "bvn", n)


class TestRelativeEntropy:
    def test_zero_on_equal_states(self, tanh_family) -> None:
        rho = eval_rho(tanh_family, 0.3)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-13)

    def test_positive_on_distinct_states(self, tanh_family) -> None:
        a = eval_rho(tanh_family, 0.3)
        b = eval_rho(tanh_family, 0.5)
        assert relative_entropy(a, b) > 0.0

    def test_closed_form_two_level_diagonal(self) -> None:
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

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf, "a"])
    def test_maximality_rejects_bad_step(self, step: float, tanh_family) -> None:
        # the operator field's derivatives take the family's finite-difference step
        fam = dataclasses.replace(tanh_family, derivative_mode=CentralDifference(step=step))
        with pytest.raises(InvalidInput, match="finite-difference step"):
            maximality_check(fam, 0.3)


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

    def test_theta_must_be_a_real_number(self, tanh_family, coherent_m1) -> None:
        # math.isfinite raised a bare TypeError for a string and a bare
        # OverflowError for an integer beyond the float range, on both the
        # eigensolver and the hook path, and a bool gave the report at 1
        for fam in (tanh_family, coherent_m1):
            for theta in ("a", None, 1j, 10**400, True):
                with pytest.raises(InvalidInput, match="real number"):
                    compute_report(fam, theta)
            with pytest.raises(InvalidInput, match="real number"):
                relent_limit(fam, 10**400)
            # both took a step from theta before checking it
            for theta in ("a", 10**400):
                with pytest.raises(InvalidInput, match="real number"):
                    maximality_check(fam, theta)
                with pytest.raises(InvalidInput, match="real number"):
                    projection_curvature_residual(fam, theta)
            with pytest.raises(InvalidInput, match="real number"):
                compute_reports(fam, [0.1, "a"])
            with pytest.raises(InvalidInput, match="iterable"):
                compute_reports(fam, 0.1)


    @pytest.mark.parametrize(
        "call",
        [
            lambda fam: compute_report(
                dataclasses.replace(fam, derivative_mode=CentralDifference(step="a")), 0.3),
            lambda fam: dataclasses.replace(fam, theta_domain=("a", "b")),
            lambda fam: dataclasses.replace(fam, theta_domain=(0,)),
            lambda fam: compute_reports(fam, [0.3], models=None),
        ],
        ids=["central_difference_step", "theta_domain_strings", "theta_domain_short", "models_none"],
    )
    def test_boundary_rejects_malformed_input(self, call, tanh_family) -> None:
        # each raised a bare TypeError or ValueError
        with pytest.raises(InvalidInput):
            call(tanh_family)


class TestOperandShapes:
    """Every Tr(AB) of the library checks its operands: a mismatch is a
    typed InvalidInput, never a numpy broadcast error or a silent broadcast."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda br: qfi_variance(np.eye(2) / 2, np.eye(3)),
            lambda br: local_cr_terms(br, np.eye(3)[None], "sld"),
            lambda br: local_cr_terms(br, np.eye(3)[None], "bvn"),
            lambda br: local_cr_terms(br, np.stack([np.eye(3)] * 2), "sld"),
            lambda br: relative_entropy(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3)),
            # a stack of matrices where one matrix is expected
            lambda br: DensityMatrix(np.stack([np.eye(2) / 2] * 2)),
            lambda br: breve_variance(br, np.stack([np.eye(2)] * 2)),
            # a bare ValueError from the product, a UFuncTypeError and an
            # AttributeError
            lambda br: kmb_residual(br, np.eye(3)),
            lambda br: kmb_residual(br, "a"),
            lambda br: relative_entropy(np.eye(2) / 2, np.eye(2) / 2),
            # rho in the eigenbasis at a dense and at a banded point
            lambda br: expectation(br, np.eye(3), "bvn"),
            lambda br: expectation(coherent_family(1.0).path.branches(0.1), np.eye(3), "bvn"),
        ],
        ids=["qfi_variance", "local_cr_sld", "local_cr_bvn", "local_cr_stack", "relative_entropy",
             "density_stack", "breve_stack", "kmb_residual", "kmb_residual_string",
             "relative_entropy_arrays", "expectation_dense", "expectation_banded"],
    )
    def test_dimension_mismatch_is_invalid_input(self, call, tanh_family) -> None:
        br = branches_at(tanh_family, 0.3)
        assert br.dim == 2
        with pytest.raises(InvalidInput):
            call(br)
