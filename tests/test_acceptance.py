"""Acceptance gate: the thirteen headline checks, one test (and one printed
pass/fail line) each, at their stated tolerances.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Two checks are expected failures, marked strict-xfail: the reference tables'
two intermediate-model columns equal the unweighted second moment Tr(H2^2),
which at dimension two is exactly twice the definitional weighted moment
Tr(rho H2^2) that the pipeline computes.  Those comparisons fail by that
exact factor; everything else passes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from ldqfi import (
    MODELS,
    branches_at,
    classical_information,
    coherent_branches,
    coherent_family,
    coherent_qfi_bvn,
    coherent_qfi_ld2,
    coherent_trace_table,
    geometric_family,
    geometric_qfi,
    ld_operator,
    ncopy_qfi,
    nonsmooth_projection_state,
    qfi_bvn,
    qfi_value,
    schatten_norm,
    TwoLevelFamily2,
    default_two_level_1,
)
from ldqfi import verify


def report(num: str, ok: bool, text: str) -> None:
    print(f"acceptance {num} {'PASS' if ok else 'FAIL'} {text}")
    assert ok, f"acceptance {num}: {text}"


def checks_named(checks, names):
    """Verdict of the checks with the given names; each name must occur."""
    picked = [c for c in checks if c.name in names]
    assert {c.name for c in picked} == set(names), "suite lacks a named check"
    return all(c.passed for c in picked)


def table_names(tag, columns):
    return {f"tables.{tag}.{col}" for col in columns}


# every tables check except the ld1/ld2 second parts, which are the xfails
TABLE_COLUMNS = ("i1", "i2_bvn", "i2_sld", "ordering")
INTERMEDIATE_COLUMNS = ("i2_ld1", "i2_ld2")


# ---------------------------------------------------------------------------
# criteria 1 and 2: two-level reference tables (shared computation)


@pytest.fixture(scope="module")
def tables():
    t0 = time.perf_counter()
    checks = verify.tables(0)
    elapsed = time.perf_counter() - t0
    return elapsed, checks


INTERMEDIATE_NOTE = (
    "reference intermediate-model columns equal the unweighted moment "
    "Tr(H2^2), exactly twice the definitional weighted moment the pipeline "
    "computes at dimension two"
)


class TestCriterion01:
    def test_criterion_01_two_level_1_reference_table(self, tables):
        elapsed, checks = tables
        ok = checks_named(checks, table_names("table1", TABLE_COLUMNS))
        ok = ok and elapsed < 1.0
        report(
            "01",
            ok,
            "two-level hyperbolic-weight family, 50 points: classical part, "
            "log-kernel and arithmetic-kernel columns within 1e-10 absolute, "
            f"ordering chain held, runtime {elapsed:.2f}s < 1s",
        )

    @pytest.mark.xfail(strict=True, reason=INTERMEDIATE_NOTE)
    def test_criterion_01_two_level_1_intermediate_columns(self, tables):
        _, checks = tables
        ok = checks_named(checks, table_names("table1", INTERMEDIATE_COLUMNS))
        report(
            "01",
            ok,
            "two-level hyperbolic-weight family harmonic/geometric-kernel "
            "columns within 1e-10 (" + INTERMEDIATE_NOTE + ")",
        )


class TestCriterion02:
    def test_criterion_02_two_level_2_reference_table(self, tables):
        elapsed, checks = tables
        ok = checks_named(checks, table_names("table2", TABLE_COLUMNS + ("origin",)))
        ok = ok and elapsed < 1.0
        report(
            "02",
            ok,
            "two-level rotating family, 50 radii in [0, 0.95]: log-kernel and "
            "arithmetic-kernel columns within 1e-10, ordering chain slack >= "
            f"-1e-10, all values at r=0 <= 1e-12, runtime {elapsed:.2f}s < 1s",
        )

    @pytest.mark.xfail(strict=True, reason=INTERMEDIATE_NOTE)
    def test_criterion_02_two_level_2_intermediate_columns(self, tables):
        _, checks = tables
        ok = checks_named(checks, table_names("table2", INTERMEDIATE_COLUMNS))
        report(
            "02",
            ok,
            "two-level rotating family harmonic/geometric-kernel columns "
            "within 1e-10 (" + INTERMEDIATE_NOTE + ")",
        )


# ---------------------------------------------------------------------------
# criterion 3: displaced-thermal log-kernel information, closed form


def test_criterion_03_coherent_bvn_value():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for m in (0.5, 1.0, 2.0):
        expected = 2.0 * math.log(1.0 + 1.0 / m)
        got = coherent_qfi_bvn(m)
        worst_rel = max(worst_rel, abs(got - expected) / expected)
    sf = coherent_family(1.0).family()
    vals = [qfi_bvn(branches_at(sf, t)) for t in (0.0, 0.1, 0.2)]
    spread = max(vals) - min(vals)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and spread <= 1e-6 and elapsed < 10.0
    report(
        "03",
        ok,
        "displaced-thermal log-kernel value matches 2*ln(1+1/M) for "
        f"M in {{0.5, 1, 2}} (worst rel {worst_rel:.2e} <= 1e-6), "
        f"theta-independent at {{0, 0.1, 0.2}} (spread {spread:.2e} <= 1e-6), "
        f"runtime {elapsed:.2f}s < 10s",
    )


# ---------------------------------------------------------------------------
# criterion 4: geometric-kernel second-moment verdict, frozen golden


def test_criterion_04_coherent_ld2_verdict():
    t0 = time.perf_counter()
    ok = True
    for m in (0.5, 1.0, 2.0):
        v = coherent_qfi_ld2(m)
        # the verdict must name exactly one candidate within 1e-6 relative
        # or declare neither; the frozen golden is "neither" at every M,
        # with the numeric matching the independently derived closed form
        near_a = abs(v.numeric - v.formula_a) <= 1e-6 * abs(v.formula_a)
        near_b = abs(v.numeric - v.formula_b) <= 1e-6 * abs(v.formula_b)
        consistent = (
            ("A" if near_a else "B" if near_b else "neither") == v.matches
            if not (near_a and near_b)
            else v.matches in ("A", "B")
        )
        derived = (2 * m + 1) / (m * (m + 1))
        ok = ok and consistent and v.matches == "neither"
        ok = ok and abs(v.numeric - derived) <= 1e-6 * derived
    v1 = coherent_qfi_ld2(1.0)
    ok = ok and v1.formula_a == pytest.approx(1.125, rel=1e-12)
    ok = ok and v1.formula_b == pytest.approx(1.0625, rel=1e-12)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(
        "04",
        ok,
        "geometric-kernel second moment matches neither printed candidate "
        "(1.125 vs 1.0625 at M=1) at any M in {0.5, 1, 2}; frozen verdict "
        "'neither' and derived value (2M+1)/(M(M+1)) confirmed, "
        f"runtime {elapsed:.2f}s < 10s",
    )


# ---------------------------------------------------------------------------
# criterion 5: projection-derivative trace table


def test_criterion_05_projection_trace_table():
    worst = 0.0
    n_rows = 0
    for k in range(11):
        for row in coherent_trace_table(k, 30):
            assert row.expected == int(row.expected)
            worst = max(worst, abs(row.value - row.expected))
            n_rows += 1
    ok = worst <= 1e-9 and n_rows == 8 * 11
    report(
        "05",
        ok,
        f"all eight integer projection-derivative traces reproduced for "
        f"k in 0..10 at dimension 30 ({n_rows} entries, worst deviation "
        f"{worst:.2e} <= 1e-9)",
    )


# ---------------------------------------------------------------------------
# criterion 6: transport-equation residual and zero expectation, every family


def test_criterion_06_transport_residuals():
    checks = verify.kmb(0)
    ok = all(c.passed for c in checks)
    report(
        "06",
        ok,
        "log-kernel transport residual <= 1e-8 and |Tr(rho H)| <= 1e-10 "
        "(analytic mode) for all four models on every reference family grid "
        f"({len(checks)} suite checks)",
    )


# ---------------------------------------------------------------------------
# criterion 7: derivative-identity property suite


def test_criterion_07_derivative_identities():
    checks = verify.lemma33(7)
    ok = all(c.passed for c in checks)
    report(
        "07",
        ok,
        "projection/eigenvalue derivative identities within 1e-7 on 100 "
        "seeded random four-level families; curvature residual <= 1e-6; "
        "commuting members collapse and non-commuting members do not "
        f"({len(checks)} suite checks)",
    )


# ---------------------------------------------------------------------------
# criterion 8: model collapse on the commuting family


def test_criterion_08_commuting_collapse():
    ok = True
    worst_dist = 0.0
    worst_dev = 0.0
    for tc in (0.5, math.log(2.0), 0.9):
        fam = geometric_family(tc)
        br = branches_at(fam, tc)
        mats = [ld_operator(br, m, split=False).matrix for m in MODELS]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                worst_dist = max(worst_dist, float(np.linalg.norm(mats[i] - mats[j])))
        i1 = classical_information(br)
        for m in MODELS:
            worst_dev = max(worst_dev, abs(qfi_value(br, m) - i1))
        worst_dev = max(worst_dev, abs(qfi_bvn(br) - i1))
    common = geometric_qfi(math.log(2.0))
    ok = worst_dist <= 1e-8 and worst_dev <= 1e-8 and abs(common - 2.0) <= 1e-8
    report(
        "08",
        ok,
        "commuting geometric family: max pairwise LD distance "
        f"{worst_dist:.2e} <= 1e-8, every information value equals the "
        f"classical sum within {max(worst_dev, 1e-99):.2e} <= 1e-8, and the "
        f"common value at the half-life point is 2 within 1e-8 "
        f"(got {common:.12f})",
    )


# ---------------------------------------------------------------------------
# criterion 9: local estimation bound and efficient direction


def test_criterion_09_cramer_rao():
    checks = verify.cr(7)
    ok = all(c.passed for c in checks)
    report(
        "09",
        ok,
        "variance bound Var >= u^2/QFI holds with slack >= -1e-10 for 100 "
        "seeded observables per model per family; the efficient direction "
        f"saturates within 1e-8 where the bound is attainable "
        f"({len(checks)} suite checks)",
    )


# ---------------------------------------------------------------------------
# criterion 10: n-copy additivity by explicit tensor construction


def test_criterion_10_ncopy_additivity():
    targets = [
        (default_two_level_1().family(), 0.3),
        (TwoLevelFamily2(r=0.6).family(), 0.4),
    ]
    worst = 0.0
    for fam, theta in targets:
        br = branches_at(fam, theta)
        for m in MODELS:
            single = qfi_value(br, m)
            for n in (2, 3):
                worst = max(worst, abs(ncopy_qfi(br, m, n) - n * single))
    ok = worst <= 1e-8
    report(
        "10",
        ok,
        "explicit 2- and 3-copy tensor constructions on two dim-2 families "
        f"give n times the single-copy value for every model "
        f"(worst deviation {worst:.2e} <= 1e-8)",
    )


# ---------------------------------------------------------------------------
# criterion 11: relative-entropy limit and maximality


def test_criterion_11_entropy_limit_and_maximality():
    checks = verify.entropy(0)
    ok = all(c.passed for c in checks)
    report(
        "11",
        ok,
        "extrapolated 2*S_rel/eps^2 and -Tr(rho H') both match the log-kernel "
        "information within 1e-4 relative on the two-level and geometric "
        f"families ({len(checks)} suite checks)",
    )


# ---------------------------------------------------------------------------
# criterion 12: smooth state, discontinuous projections


def test_criterion_12_nonsmooth_projections():
    n = 1e6
    theta_a = 1.0 / (2.0 * math.pi * n)
    theta_b = 1.0 / (2.0 * math.pi * n + math.pi / 2.0)
    sa = nonsmooth_projection_state(theta_a)
    sb = nonsmooth_projection_state(theta_b)
    state_gap = schatten_norm(sa.rho.matrix - sb.rho.matrix, 1)
    proj_gap = schatten_norm(sa.p1 - sb.p1, "op")
    ok = state_gap <= 1e-10 and abs(proj_gap - 1.0) <= 1e-12
    report(
        "12",
        ok,
        f"at n=10^6 the two states are trace-norm indistinguishable "
        f"(gap {state_gap:.2e} <= 1e-10) while the first eigenprojections "
        f"are maximally apart (op-norm gap {proj_gap:.15f} = 1 +- 1e-12)",
    )


# ---------------------------------------------------------------------------
# criterion 13: determinism


def test_criterion_13_determinism(tmp_path):
    runs = [
        subprocess.run(
            [sys.executable, "-m", "ldqfi", "verify", "all", "--seed", "7"],
            capture_output=True,
        )
        for _ in range(2)
    ]
    byte_identical = (
        runs[0].stdout == runs[1].stdout and runs[0].returncode == runs[1].returncode
    )

    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        textwrap.dedent(
            """\
            [family]
            name = coherent
            M = 1.0
            [sweep]
            start = -0.2
            stop = 0.2
            count = 5
            """
        ),
        encoding="utf-8",
    )
    outs = {}
    for fmt in ("csv", "json"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "ldqfi",
                "sweep",
                "--config",
                str(cfg),
                "--format",
                fmt,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs[fmt] = proc.stdout
    header, *data = outs["csv"].splitlines()
    columns = header.split(",")
    csv_rows = [
        {c: (None if tok == "" else float(tok)) for c, tok in zip(columns, line.split(","))}
        for line in data
    ]
    json_doc = json.loads(outs["json"])
    formats_agree = len(csv_rows) == len(json_doc["rows"]) and all(
        rc[c] == rj[c]
        for rc, rj in zip(csv_rows, json_doc["rows"])
        for c in columns
    )
    ok = byte_identical and formats_agree
    report(
        "13",
        ok,
        "two full verification runs at the same seed are byte-identical, and "
        "a sweep emitted as CSV and JSON carries numerically identical values",
    )
