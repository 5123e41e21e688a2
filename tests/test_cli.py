"""Command-line interface: config handling, exit codes, output formats,
determinism and the documented example invocations."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ldqfi.cli import COLUMNS, SUITES, load_sweep_config, main, run_sweep
from ldqfi.zoo import FAMILIES


# ---------------------------------------------------------------------------
# helpers


def run_cli(argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_cfg(tmp_path, body, name="sweep.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(p)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(COLUMNS)
    out = []
    for raw in rows[1:]:
        out.append(
            {c: (None if tok == "" else float(tok)) for c, tok in zip(COLUMNS, raw)}
        )
    return out


def parse_json(text):
    doc = json.loads(text)
    assert doc["columns"] == list(COLUMNS)
    return doc["rows"]


TWO_LEVEL_2_CFG = """\
    [family]
    name = two_level_2
    [sweep]
    grid = 0 0.5 0.9
"""

COHERENT_CFG = """\
    [family]
    name = coherent
    M = 1.0
    [sweep]
    grid = 0 0.1
"""


# ---------------------------------------------------------------------------
# configuration validation (exit code 2)


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--config", str(tmp_path / "absent.ini")], capsys
        )
        assert code == 2
        assert "config error" in err

    def test_extra_section_rejected(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            [sweep]
            grid = 0.1
            [extra]
            x = 1
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "exactly the sections" in err

    def test_unknown_sweep_key(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            [sweep]
            grid = 0.1
            fidelity = high
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "unknown [sweep] keys" in err

    def test_empty_model_list(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            [sweep]
            grid = 0.1
            models =
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "at least one model" in err

    def test_unknown_model_name(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            [sweep]
            grid = 0.1
            models = sld, rld
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "unknown models" in err

    def test_grid_excludes_linspace_keys(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            [sweep]
            grid = 0.1
            count = 3
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "excludes" in err

    # 1e20 points are refused by the allocation, before any is made
    @pytest.mark.parametrize("count", ["2.5", "inf", "nan", "1e400", "1e20"])
    def test_fractional_count(self, tmp_path, capsys, count):
        cfg = write_cfg(
            tmp_path,
            f"""\
            [family]
            name = two_level_1
            [sweep]
            start = 0
            stop = 1
            count = {count}
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "positive integer" in err

    def test_step_requires_central_mode(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            [sweep]
            grid = 0.1
            step = 1e-4
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "step only applies" in err

    def test_unknown_derivative_mode(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            [sweep]
            grid = 0.1
            derivative_mode = forward
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "analytic or central" in err

    def test_unknown_family(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = three_level
            [sweep]
            grid = 0.1
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "unknown family" in err

    def test_unknown_family_parameter(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            r = 0.5
            [sweep]
            grid = 0.1
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "does not take parameters" in err

    def test_grid_value_outside_domain(self, tmp_path, capsys):
        # r = 1 is excluded (pure state); the admissible interval is [0, 1)
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_2
            [sweep]
            grid = 0 1.0
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "outside the admissible" in err

    def test_coherent_theta_domain(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = coherent
            [sweep]
            grid = 0.35
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "outside the admissible" in err

    @pytest.mark.parametrize(
        "family, sweep",
        [
            ("name = two_level_2\nr = 1.5", "sweep_param = theta\ngrid = 0.1"),
            ("name = coherent\nM = -1", "grid = 0"),
            ("name = two_level_2\ntheta = 5", "grid = 0.5"),
            ("name = coherent\ntrunc_dim = 2.5", "grid = 0"),
            ("name = geometric", "grid = nan"),
            ("name = coherent", "grid = nan"),
            ("name = counterexample31", "grid = 0.4\nderivative_mode = analytic"),
            ("name = two_level_1", "grid = 0.3\nderivative_mode = central\nstep = 0"),
            # np.linspace overflowed on stop - start and warned before the
            # grid values were checked
            ("name = two_level_1", "start = -1.7e308\nstop = 1.7e308\ncount = 3"),
            ("name = two_level_1", "start = 0\nstop = inf\ncount = 1"),
        ],
        ids=[
            "r_fixed", "M_negative", "theta_fixed", "trunc_dim_fractional", "geometric_nan",
            "coherent_nan", "analytic_mode_without_closed_form", "zero_step", "linspace_overflow",
            "infinite_stop",
        ],
    )
    def test_bad_fixed_parameter_or_grid_value(self, tmp_path, capsys, family, sweep):
        cfg = write_cfg(tmp_path, f"[family]\n{family}\n[sweep]\n{sweep}\n")
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "config error" in err and "outside the admissible" in err

    def test_family_step_and_sweep_step_together(self, tmp_path, capsys):
        # the [sweep] step would silently replace the family's own
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = counterexample31
            step = 0.001
            [sweep]
            grid = 0.4
            derivative_mode = central
            step = 0.002
            """,
        )
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == "config error: [family] step and [sweep] step are both set; set one\n"

    def test_fixed_parameter_that_is_also_swept(self, tmp_path, capsys):
        # r is the default sweep coordinate of two_level_2; fixing it as
        # well would be overwritten by every grid value
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_2
            r = 0.3
            [sweep]
            grid = 0.5
            """,
        )
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "config error" in err and "both fixed and swept" in err

    def test_bad_format(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            [sweep]
            grid = 0.1
            format = yaml
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2
        assert "must be csv or json" in err

    def test_case_sensitive_family_parameter(self, tmp_path):
        # the coherent occupation parameter is spelled M; a lowercased copy
        # must be rejected rather than silently folded
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = coherent
            m = 1.0
            [sweep]
            grid = 0.0
            """,
        )
        with pytest.raises(Exception, match="does not take parameters"):
            load_sweep_config(cfg, None, None)


# ---------------------------------------------------------------------------
# the family table, entry by entry


def _inner_points(dom):
    if math.isinf(dom.hi):
        return dom.lo + 0.5, dom.lo + 1.0
    return dom.lo + 0.25 * (dom.hi - dom.lo), dom.lo + 0.75 * (dom.hi - dom.lo)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_table_entry(tmp_path, capsys, name):
    spec = FAMILIES[name]
    inner = _inner_points(next(iter(spec.coords.values())))
    cfg = write_cfg(tmp_path, f"[family]\nname = {name}\n[sweep]\ngrid = {inner[0]!r}\n")
    assert load_sweep_config(cfg, None, None).sweep_param == next(iter(spec.coords))
    for coord, dom in spec.coords.items():
        body = f"[family]\nname = {name}\n[sweep]\nsweep_param = {coord}\ngrid = %s\n"
        cfg = write_cfg(tmp_path, body % " ".join(map(repr, _inner_points(dom))))
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0, err
        assert len(parse_csv(out)) == 2
        below = math.nextafter(dom.lo, -math.inf) if dom.closed_lo else dom.lo
        for value in (below, dom.hi):
            cfg = write_cfg(tmp_path, body % repr(value))
            code, _, err = run_cli(["sweep", "--config", cfg], capsys)
            assert code == 2, (coord, value)
            assert "outside the admissible" in err


# ---------------------------------------------------------------------------
# runtime failures (exit code 3)


class TestRuntimeErrors:
    def test_sweep_runtime_failure_names_grid_point(self, tmp_path, capsys):
        # forced truncation dimension far beyond the representable tail:
        # the state assembly fails at evaluation time, not config time
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = coherent
            M = 0.25
            trunc_dim = 60
            [sweep]
            grid = 0 0.1
            """,
        )
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 3
        assert "runtime error" in err
        assert "at theta=0" in err
        assert "SingularState" in err

    def test_failure_inside_a_grid_names_its_first_failing_value(self, tmp_path, capsys):
        # the one-family sweep fails in its single call; the grid is then
        # evaluated value by value, and 0.2 is the first amplitude whose
        # truncation leaves no bulk; the 12 levels are the most the rank
        # floor admits at M = 0.1, so no truncation validates it
        out = tmp_path / "rows.csv"
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = coherent
            M = 0.1
            trunc_dim = 12
            [sweep]
            grid = 0.05 0.1 0.2 0.25
            """,
        )
        code, stdout, err = run_cli(["sweep", "--config", cfg, "--out", str(out)], capsys)
        assert code == 3 and stdout == ""
        assert err == (
            "runtime error at theta=0.20000000000000001: TruncationError: dimension 12 "
            "leaves no bulk to validate at amplitude 0.2; no truncation of mean occupation 0.1 "
            "validates it, as the rank floor admits at most 12 levels\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, sweep",
        [
            ("name = two_level_1", "grid = 0.3\nderivative_mode = central\nstep = 1e-17"),
            ("name = counterexample31\nstep = 1e-300", "grid = 0.4 0.5"),
        ],
        ids=["sweep_step", "family_step"],
    )
    def test_step_below_the_resolution_of_theta(self, tmp_path, capsys, family, sweep):
        # theta + h == theta - h == theta gave a silent row of zeros
        cfg = write_cfg(tmp_path, f"[family]\n{family}\n[sweep]\n{sweep}\n")
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 3 and out == ""
        theta = "0.29999999999999999" if "0.3" in sweep else "0.40000000000000002"
        assert err.startswith(f"runtime error at theta={theta}: InvalidInput: finite-difference step ")
        assert "below the resolution of theta" in err

    @pytest.mark.parametrize("theta", ["684", "700", "1e300"])
    def test_far_geometric_window_is_singular(self, tmp_path, capsys, theta):
        # the truncation's log(expm1(hi)) overflowed: a bare OverflowError
        cfg = write_cfg(tmp_path, f"[family]\nname = geometric\n[sweep]\ngrid = {theta}\n")
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 3 and out == ""
        assert err.startswith(f"runtime error at theta={float(theta):.17g}: SingularState: ")
        code, out, err = run_cli(["ld", "--family", "geometric", "--theta", theta, "--model", "sld"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("runtime error: smallest eigenvalue ")


    def test_two_level_geometric_window_names_the_largest_centre(self, tmp_path, capsys):
        # trunc_dim is at its floor of 2 and the window's width is fixed, so
        # "reduce trunc_dim or the window" could not be followed
        cfg = write_cfg(tmp_path, "[family]\nname = geometric\n[sweep]\ngrid = 28\n")
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 3 and out == ""
        assert err == (
            "runtime error at theta=28: SingularState: smallest eigenvalue 6.811e-13 at the window "
            "edge sits at or below the rank floor 1e-12; the largest centre a two-level window "
            "clears is 27.616\n"
        )
        cfg = write_cfg(tmp_path, "[family]\nname = geometric\n[sweep]\ngrid = 27.616\n")
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0 and len(parse_csv(out)) == 1

    def test_two_level_coherent_truncation_names_the_smallest_occupation(self, tmp_path, capsys):
        # M = 1e-13 already takes the floor of two levels, where "reduce
        # trunc_dim" could not be followed
        advice = ("smallest retained eigenvalue 1.000e-13 at or below the rank floor; "
                  "the smallest mean occupation two levels admit is 1.0000000000020003e-12\n")
        body = "[family]\nname = coherent\nM = {}\n[sweep]\ngrid = 0\n"
        code, out, err = run_cli(["sweep", "--config", write_cfg(tmp_path, body.format("1e-13"))], capsys)
        assert (code, out, err) == (3, "", "runtime error at theta=0: SingularState: " + advice)
        code, out, err = run_cli(["ld", "--family", "coherent", "--theta", "0", "--model", "bvn",
                                  "--param", "M=1e-13"], capsys)
        assert (code, out, err) == (3, "", "runtime error: " + advice)
        # the advice can be followed
        cfg = write_cfg(tmp_path, body.format("1.0000000000020003e-12"))
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0 and len(parse_csv(out)) == 1

    def test_wide_geometric_window_advises_fewer_levels(self, tmp_path, capsys):
        body = "[family]\nname = geometric\ntrunc_dim = {}\n[sweep]\ngrid = 20\n"
        code, out, err = run_cli(["sweep", "--config", write_cfg(tmp_path, body.format(5))], capsys)
        assert code == 3 and out == ""
        assert err.startswith("runtime error at theta=20: SingularState: smallest eigenvalue ")
        assert err.endswith("at or below the rank floor 1e-12; reduce trunc_dim or the window\n")
        # the advice can be followed
        code, out, _ = run_cli(["sweep", "--config", write_cfg(tmp_path, body.format(2))], capsys)
        assert code == 0 and len(parse_csv(out)) == 1

# ---------------------------------------------------------------------------
# sweep output: documented examples, formats, equality


class TestSweepOutput:
    def test_two_level_2_example_rows(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TWO_LEVEL_2_CFG)
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        assert [r["theta"] for r in rows] == [0.0, 0.5, 0.9]
        # r = 0 is the maximally mixed point: the state is constant, so
        # every information column vanishes identically
        for c in COLUMNS[1:]:
            assert rows[0][c] == 0.0
        # closed forms at r = 0.5 and r = 0.9
        r = 0.5
        assert rows[1]["i2_sld"] == pytest.approx(4 * r**2, rel=1e-12)
        assert rows[1]["i2_ld2"] == pytest.approx(4 * r**2 / (1 - r**2), rel=1e-12)
        assert rows[1]["i2_bvn"] == pytest.approx(
            2 * r * math.log((1 + r) / (1 - r)), rel=1e-12
        )
        assert rows[1]["i1"] == pytest.approx(0.0, abs=1e-15)
        r = 0.9
        assert rows[2]["i2_sld"] == pytest.approx(4 * r**2, rel=1e-12)
        # the classical part vanishes (eigenvalues do not move), so the
        # full value equals the commutator part for every model
        for m in ("bvn", "ld1", "ld2", "sld"):
            assert rows[1][f"qfi_{m}"] == pytest.approx(rows[1][f"i2_{m}"], rel=1e-12)

    def test_coherent_example_rows(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COHERENT_CFG)
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert row["qfi_bvn"] == pytest.approx(2 * math.log(2.0), rel=1e-6)

    def test_a_byte_order_mark_is_not_text(self, tmp_path, capsys):
        # a config saved with a UTF-8 byte-order mark, as some editors save
        # one, gives the bytes of the same config without it
        plain = write_cfg(tmp_path, COHERENT_CFG)
        marked = tmp_path / "bom.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        runs = [run_cli(["sweep", "--config", str(cfg)], capsys) for cfg in (plain, marked)]
        assert runs[0][0] == 0 and runs[1] == runs[0]

    def test_model_subset_leaves_other_columns_blank(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_2
            [sweep]
            grid = 0.5
            models = sld
            """,
        )
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["qfi_sld"] is not None
        assert rows[0]["i2_sld"] is not None
        for m in ("bvn", "ld1", "ld2"):
            assert rows[0][f"qfi_{m}"] is None
            assert rows[0][f"i2_{m}"] is None

    def test_csv_and_json_agree_numerically(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TWO_LEVEL_2_CFG)
        code, out_csv, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        code, out_json, _ = run_cli(
            ["sweep", "--config", cfg, "--format", "json"], capsys
        )
        assert code == 0
        rows_c = parse_csv(out_csv)
        rows_j = parse_json(out_json)
        assert len(rows_c) == len(rows_j)
        for rc, rj in zip(rows_c, rows_j):
            for c in COLUMNS:
                assert rc[c] == rj[c]

    def test_json_none_encoded_as_null(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_2
            [sweep]
            grid = 0.5
            models = bvn
            format = json
            """,
        )
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        rows = parse_json(out)
        assert rows[0]["qfi_ld1"] is None
        assert rows[0]["qfi_bvn"] is not None

    def test_out_file_and_format_override(self, tmp_path, capsys):
        dest = tmp_path / "rows.json"
        cfg = write_cfg(tmp_path, TWO_LEVEL_2_CFG)
        code, out, _ = run_cli(
            ["sweep", "--config", cfg, "--out", str(dest), "--format", "json"], capsys
        )
        assert code == 0
        assert out == ""
        rows = parse_json(dest.read_text(encoding="utf-8"))
        assert len(rows) == 3

    def test_seventeen_significant_digits(self, tmp_path, capsys):
        # values round-trip: parsing a printed token and re-printing it
        # reproduces the token exactly
        cfg = write_cfg(tmp_path, TWO_LEVEL_2_CFG)
        _, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        for line in out.splitlines()[1:]:
            for tok in line.split(","):
                if tok:
                    assert "%.17g" % float(tok) == tok

    def test_linspace_grid(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            [sweep]
            start = -0.4
            stop = 0.4
            count = 5
            """,
        )
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert [r["theta"] for r in rows] == pytest.approx(
            [-0.4, -0.2, 0.0, 0.2, 0.4], abs=1e-15
        )

    def test_two_level_2_theta_sweep(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_2
            r = 0.7
            [sweep]
            sweep_param = theta
            grid = -0.3 0.3
            """,
        )
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        # fixed radius: the commutator part is theta-independent
        assert rows[0]["i2_sld"] == pytest.approx(rows[1]["i2_sld"], rel=1e-10)

    def test_one_family_per_sweep_unless_the_coordinate_shapes_it(self, tmp_path, monkeypatch):
        # coherent theta and two_level_2 theta only move the point: one
        # family, one compute_reports call over the grid; a two_level_2 r
        # sweep builds a family per value and evaluates it at theta = 0.4
        from ldqfi import TwoLevelFamily2, cli, compute_report

        calls = []
        real_reports = cli.compute_reports

        def counted(build):
            return lambda values: calls.append("build") or build(values)

        counted_families = {
            name: dataclasses.replace(spec, build=counted(spec.build))
            for name, spec in cli.FAMILIES.items()
        }
        monkeypatch.setattr(cli, "FAMILIES", counted_families)
        monkeypatch.setattr(
            cli, "compute_reports", lambda fam, grid, models: calls.append(len(grid)) or real_reports(fam, grid, models)
        )
        for body, expected in (
            (COHERENT_CFG, ["build", 2]),
            (TWO_LEVEL_2_CFG.replace("[sweep]", "r = 0.7\n    [sweep]\n    sweep_param = theta"), ["build", 3]),
            (TWO_LEVEL_2_CFG, ["build"] * 3),
        ):
            del calls[:]
            run_sweep(load_sweep_config(write_cfg(tmp_path, body), None, None))
            assert calls == expected
        rows = run_sweep(load_sweep_config(write_cfg(tmp_path, TWO_LEVEL_2_CFG), None, None))
        for row, r in zip(rows, (0.0, 0.5, 0.9)):
            rep = compute_report(TwoLevelFamily2(r=r).family(), 0.4)
            assert (row["qfi_sld"], row["kmb_residual"]) == (rep.qfi["sld"], rep.kmb_residual)

    def test_central_mode_keeps_the_family_step(self, tmp_path, capsys):
        # derivative_mode = central replaced counterexample31's step by the
        # default one
        body = "[family]\nname = counterexample31\nstep = 0.001\n[sweep]\ngrid = 0.4\n"
        _, out_own, _ = run_cli(["sweep", "--config", write_cfg(tmp_path, body, "own.ini")], capsys)
        central = write_cfg(tmp_path, body + "derivative_mode = central\n", "central.ini")
        code, out_central, _ = run_cli(["sweep", "--config", central], capsys)
        assert code == 0 and out_central == out_own
        assert out_own.splitlines()[1].startswith("0.40000000000000002,0.0042218767770107329,")

    def test_counterexample_rows_where_theta_squared_underflows(self, tmp_path, capsys):
        # 1/theta**2 divided by an underflowed zero: a bare ZeroDivisionError
        cfg = write_cfg(tmp_path, "[family]\nname = counterexample31\n[sweep]\ngrid = 1e-300 -1e-300 1e-150\n")
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        rows = out.splitlines()[1:]
        assert [r.split(",", 1)[0] for r in rows] == ["1e-300", "-1e-300", "1e-150"]
        assert {r.split(",", 1)[1] for r in rows} == {",".join(["0"] * (len(COLUMNS) - 1))}

    def test_central_differences_match_analytic(self, tmp_path, capsys):
        cfg_a = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            [sweep]
            grid = 0.3
            """,
            "a.ini",
        )
        cfg_c = write_cfg(
            tmp_path,
            """\
            [family]
            name = two_level_1
            [sweep]
            grid = 0.3
            derivative_mode = central
            step = 1e-5
            """,
            "c.ini",
        )
        _, out_a, _ = run_cli(["sweep", "--config", cfg_a], capsys)
        _, out_c, _ = run_cli(["sweep", "--config", cfg_c], capsys)
        row_a = parse_csv(out_a)[0]
        row_c = parse_csv(out_c)[0]
        for m in ("bvn", "ld1", "ld2", "sld"):
            assert row_c[f"qfi_{m}"] == pytest.approx(row_a[f"qfi_{m}"], rel=1e-7)


# ---------------------------------------------------------------------------
# verify subcommand


class TestVerify:
    def test_kmb_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "kmb", "--seed", "0"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "suite kmb seed=0"
        assert all(
            l.startswith(("suite ", "PASS ", "FAIL ", "summary:")) for l in lines
        )
        assert not [l for l in lines if l.startswith("FAIL ")]
        assert lines[-1].startswith("summary: ")
        assert lines[-1].endswith(" 0 failed")

    def test_tables_suite_reports_reference_mismatch(self, capsys):
        # the two intermediate-model reference entries differ from the
        # definitional second moment by an exact factor of two; the suite
        # reports that honestly and exits nonzero
        code, out, _ = run_cli(["verify", "tables", "--seed", "0"], capsys)
        assert code == 3
        fails = [l for l in out.splitlines() if l.startswith("FAIL ")]
        assert fails, "expected the reference-table mismatch to be reported"
        assert all(("ld1" in l or "ld2" in l) for l in fails)
        assert "exactly half" in out

    def test_verify_summary_counts_are_consistent(self, capsys):
        code, out, _ = run_cli(["verify", "cr", "--seed", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        n_pass = sum(1 for l in lines if l.startswith("PASS "))
        n_fail = sum(1 for l in lines if l.startswith("FAIL "))
        assert lines[-1] == f"summary: {n_pass} passed, {n_fail} failed"

    def test_verify_is_seed_deterministic(self, capsys):
        _, out_a, _ = run_cli(["verify", "entropy", "--seed", "5"], capsys)
        _, out_b, _ = run_cli(["verify", "entropy", "--seed", "5"], capsys)
        assert out_a == out_b

    def test_verify_all_counts_and_failures(self, capsys):
        # the four FAIL lines are the reference tables' Tr(H2^2) convention
        # for ld1 and ld2; every other check passes
        code, out, _ = run_cli(["verify", "all", "--seed", "7"], capsys)
        assert code == 3
        lines = out.splitlines()
        checks = [l.split(" ", 2) for l in lines if l.startswith(("PASS ", "FAIL "))]
        assert len(checks) == 66
        assert sum(1 for verdict, _, _ in checks if verdict == "PASS") == 62
        assert [name for verdict, name, _ in checks if verdict == "FAIL"] == [
            "tables.table1.i2_ld1",
            "tables.table1.i2_ld2",
            "tables.table2.i2_ld1",
            "tables.table2.i2_ld2",
        ]
        assert [l for l in lines if l.startswith("suite ")] == [
            f"suite {name} seed=7" for name in SUITES[1:]
        ]
        assert lines[-1] == "summary: 62 passed, 4 failed"

    def test_verify_all_verdicts_match_the_benchmark_reference(self, capsys):
        # the full ordered (verdict, name) list, so a renamed, reordered,
        # added or dropped check fails here and not only in the benchmark
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "reference" / "verify_all.json"
        reference = json.loads(path.read_text(encoding="utf-8"))
        code, out, _ = run_cli(["verify", "all", "--seed", "7"], capsys)
        assert code == reference["exit_code"]
        checks = [l.split(" ", 2)[:2] for l in out.splitlines() if l.startswith(("PASS ", "FAIL "))]
        assert checks == reference["verdicts"]

    @pytest.mark.parametrize("suite", ["lemma33", "cr", "all"])
    def test_negative_seed_is_usage_error(self, capsys, suite):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--seed", "-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--seed" in err and "negative" in err

    def test_suite_and_column_names_are_pinned(self):
        # the benchmark harness reads both tuples
        assert SUITES == ("all", "lemma33", "kmb", "tables", "coherent", "cr", "entropy")
        assert COLUMNS == (
            "theta",
            "qfi_bvn",
            "qfi_ld1",
            "qfi_ld2",
            "qfi_sld",
            "i1",
            "i2_bvn",
            "i2_ld1",
            "i2_ld2",
            "i2_sld",
            "kmb_residual",
            "max_zero_expectation",
        )


# ---------------------------------------------------------------------------
# ld subcommand


class TestLdReport:
    def test_two_level_report_content(self, capsys):
        code, out, _ = run_cli(
            ["ld", "--family", "two_level_1", "--theta", "0.2", "--model", "bvn"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("family two_level_1 theta 0.2")
        assert lines[0].endswith("model bvn")
        assert "H (real part):" in lines
        assert "H (imag part):" in lines
        diag = {
            l.split(" = ")[0]: float(l.split(" = ")[1].split()[0])
            for l in lines
            if " = " in l
        }
        assert abs(diag["Tr(rho H)"]) <= 1e-12
        assert diag["KMB residual"] <= 1e-10
        # real 2x2 matrix blocks
        i = lines.index("H (real part):")
        assert len(lines[i + 1].split()) == 2
        assert len(lines[i + 2].split()) == 2

    def test_transport_residual_distinguishes_models(self, capsys):
        # only the logarithmic-mean operator satisfies the integral
        # transport equation; the arithmetic-mean one leaves a visible defect
        _, out, _ = run_cli(
            ["ld", "--family", "two_level_1", "--theta", "0.2", "--model", "sld"],
            capsys,
        )
        resid = float(
            [l for l in out.splitlines() if l.startswith("KMB residual")][0].split(
                " = "
            )[1]
        )
        assert resid > 1e-6

    def test_split_norms_reported(self, capsys):
        _, out, _ = run_cli(
            ["ld", "--family", "two_level_1", "--theta", "0.2", "--model", "ld2"],
            capsys,
        )
        line = [l for l in out.splitlines() if l.startswith("||H1||_F")][0]
        h1 = float(line.split()[2])
        h2 = float(line.split()[5])
        assert h1 > 0 and h2 > 0

    MERGED = (
        "warning: the eigenvalues fall into fewer clusters than the dimension; "
        "the projection branches inside a cluster are unresolved"
    )

    def test_degenerate_vicinity_warning(self, capsys):
        # the warning names the condition it reads, merged clusters
        theta = 1 / (2 * math.pi * 1e6)
        code, out, _ = run_cli(
            ["ld", "--family", "counterexample31", "--theta", str(theta), "--model", "sld"],
            capsys,
        )
        assert code == 0
        assert [l for l in out.splitlines() if l.startswith("warning:")] == [self.MERGED]

    def test_merged_warning_without_a_crossing(self, capsys):
        # the maximally mixed state: an exact doublet, and no crossing
        code, out, _ = run_cli(
            ["ld", "--family", "two_level_2", "--theta", "0.3", "--param", "r=0", "--model", "bvn"],
            capsys,
        )
        assert code == 0
        assert [l for l in out.splitlines() if l.startswith("warning:")] == [self.MERGED]

    def test_no_warning_away_from_crossing(self, capsys):
        code, out, _ = run_cli(
            ["ld", "--family", "counterexample31", "--theta", "0.4", "--model", "sld"],
            capsys,
        )
        assert code == 0
        assert not [l for l in out.splitlines() if l.startswith("warning:")]

    def test_unknown_model_rejected(self, capsys):
        code, _, err = run_cli(
            ["ld", "--family", "two_level_1", "--theta", "0.2", "--model", "rld"],
            capsys,
        )
        assert code == 2
        assert "usage error" in err

    def test_theta_outside_domain_rejected(self, capsys):
        code, _, err = run_cli(
            ["ld", "--family", "two_level_1", "--theta", "2.0", "--model", "bvn"],
            capsys,
        )
        assert code == 2
        assert "outside the admissible" in err

    def test_unknown_param_key_rejected(self, capsys):
        code, _, err = run_cli(
            [
                "ld",
                "--family",
                "two_level_1",
                "--theta",
                "0.2",
                "--model",
                "bvn",
                "--param",
                "r=0.5",
            ],
            capsys,
        )
        assert code == 2
        assert "does not take parameters" in err

    def test_malformed_param_rejected(self, capsys):
        code, _, err = run_cli(
            [
                "ld",
                "--family",
                "coherent",
                "--theta",
                "0.0",
                "--model",
                "bvn",
                "--param",
                "M",
            ],
            capsys,
        )
        assert code == 2
        assert "must look like key=value" in err

    def test_param_that_is_the_theta_coordinate_rejected(self, capsys):
        code, out, err = run_cli(
            ["ld", "--family", "two_level_2", "--theta", "0.1", "--model", "sld",
             "--param", "theta=0.2"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "both fixed and swept" in err

    def test_param_forwarded(self, capsys):
        code, out, _ = run_cli(
            [
                "ld",
                "--family",
                "two_level_2",
                "--theta",
                "0.1",
                "--model",
                "sld",
                "--param",
                "r=0.6",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0].startswith("family two_level_2 theta 0.1")


# ---------------------------------------------------------------------------
# process-level behavior


class TestSubprocess:
    def test_no_arguments_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ldqfi"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_unknown_suite_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ldqfi", "verify", "nosuite"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_sweep_output_is_byte_identical_across_runs(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = coherent
            M = 1.0
            [sweep]
            start = -0.2
            stop = 0.2
            count = 7
            """,
        )
        outs = []
        for name in ("r1.csv", "r2.csv"):
            dest = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "ldqfi",
                    "sweep",
                    "--config",
                    cfg,
                    "--out",
                    str(dest),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]

    def test_runtime_loads_no_scipy(self, tmp_path):
        """import ldqfi, a coherent sweep away from theta = 0 (the displacement
        exponential), the lemma33 suite (random analytic families) and a
        coherent ld report run on numpy alone."""
        cfg = write_cfg(
            tmp_path,
            """\
            [family]
            name = coherent
            M = 1.0
            [sweep]
            grid = 0.1 0.2
            """,
        )
        script = textwrap.dedent(
            """\
            import contextlib, io, json, sys
            import ldqfi
            from ldqfi.cli import main
            codes = []
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2]]))
                codes.append(main(["verify", "lemma33", "--seed", "7"]))
                codes.append(main(["ld", "--family", "coherent", "--theta", "0.1", "--model", "bvn"]))
            loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            print(json.dumps({"codes": codes, "scipy": loaded}))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, cfg, str(tmp_path / "out.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [0, 0, 0]
        assert len((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()) == 3
        assert result["scipy"] == []

    def test_verify_stdout_is_byte_identical_across_runs(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "ldqfi", "verify", "lemma33", "--seed", "7"],
                capture_output=True,
                text=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode == 0
