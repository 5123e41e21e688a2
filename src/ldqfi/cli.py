"""Command-line front end: theta-grid sweeps, verification suites and
single-point LD operator reports.

Exit codes: 0 success, 2 usage or configuration problem, 3 runtime model
error (singular state, bad truncation, failed verification).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InvalidInput, QfiError
from .family import (
    CentralDifference,
    StateFamily,
    branches_at,
    projection_audit,
    projection_curvature_residual,
    random_analytic_family,
)
from .ldops import MODELS, bvn_ld, kmb_residual, ld_operator, zero_expectation_check
from .linalg import random_hermitian
from .qfi import (
    breve_variance,
    classical_information,
    compute_report,
    local_cr_check,
    maximality_check,
    qfi_bvn,
    qfi_value,
    qfi_variance,
    relent_limit,
)
from .zoo import (
    FAMILIES,
    STEP_DOMAIN,
    TwoLevelFamily2,
    coherent_family,
    coherent_qfi_bvn,
    coherent_qfi_ld2,
    coherent_trace_table,
    default_two_level_1,
    geometric_family,
    grid_domain,
    sweep_family,
    two_level_closed_forms,
    verification_tasks,
)

COLUMNS = (
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

SUITES = ("all", "lemma33", "kmb", "tables", "coherent", "cr", "entropy")

_SWEEP_KEYS = {
    "start", "stop", "count", "grid", "models", "sweep_param",
    "derivative_mode", "step", "out", "format",
}


def _g17(v: float) -> str:
    return "%.17g" % v


# ---------------------------------------------------------------------------
# sweep configuration


@dataclass(frozen=True)
class SweepConfig:
    family: str
    params: dict[str, float]
    sweep_param: str
    grid: tuple[float, ...]
    models: tuple[str, ...]
    derivative_mode: str | None  # None (family default) | "analytic" | "central"
    step: float | None
    out: str | None
    fmt: str


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise InvalidInput(f"[{section}] {key} = {raw!r} is not a number") from None


def load_sweep_config(path: str, out_override: str | None, fmt_override: str | None) -> SweepConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # family parameter names are case-sensitive (e.g. M)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise InvalidInput(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise InvalidInput(f"config parse failure: {exc}") from None

    sections = set(cp.sections())
    if sections != {"family", "sweep"}:
        raise InvalidInput(
            f"config must contain exactly the sections [family] and [sweep], found {sorted(sections)}"
        )

    fam_sec = cp["family"]
    name = fam_sec.get("name")
    if not name:
        raise InvalidInput("[family] section requires a name key")
    params = {
        k: _parse_float("family", k, v) for k, v in fam_sec.items() if k != "name"
    }

    sweep = cp["sweep"]
    unknown = set(sweep.keys()) - _SWEEP_KEYS
    if unknown:
        raise InvalidInput(f"unknown [sweep] keys {sorted(unknown)}")

    sweep_param, domain = grid_domain(name, params, sweep.get("sweep_param") or None)

    if "grid" in sweep:
        if any(k in sweep for k in ("start", "stop", "count")):
            raise InvalidInput("[sweep] grid excludes start/stop/count")
        tokens = [t for t in re.split(r"[,\s]+", sweep["grid"].strip()) if t]
        if not tokens:
            raise InvalidInput("[sweep] grid is empty")
        grid = tuple(_parse_float("sweep", "grid", t) for t in tokens)
    else:
        missing = [k for k in ("start", "stop", "count") if k not in sweep]
        if missing:
            raise InvalidInput(f"[sweep] requires {missing} (or an explicit grid)")
        start = _parse_float("sweep", "start", sweep["start"])
        stop = _parse_float("sweep", "stop", sweep["stop"])
        count_f = _parse_float("sweep", "count", sweep["count"])
        if count_f != int(count_f) or int(count_f) < 1:
            raise InvalidInput(f"[sweep] count = {sweep['count']!r} must be a positive integer")
        count = int(count_f)
        grid = tuple(float(v) for v in np.linspace(start, stop, count))

    raw_models = sweep.get("models", "all").strip()
    if raw_models == "all":
        models = MODELS
    else:
        tokens = [t for t in re.split(r"[,\s]+", raw_models) if t]
        bad = [t for t in tokens if t not in MODELS]
        if bad:
            raise InvalidInput(f"unknown models {bad}; expected a subset of {list(MODELS)}")
        models = tuple(m for m in MODELS if m in tokens)
    if not models:
        raise InvalidInput("[sweep] models must name at least one model")

    mode = sweep.get("derivative_mode")
    if mode is not None and mode not in ("analytic", "central"):
        raise InvalidInput(f"derivative_mode {mode!r} must be analytic or central")
    if mode == "analytic" and not FAMILIES[name].analytic:
        raise InvalidInput(
            f"derivative_mode 'analytic' outside the admissible modes of family {name!r}, "
            "which has no analytic derivative (use central)"
        )
    step = _parse_float("sweep", "step", sweep["step"]) if "step" in sweep else None
    if step is not None:
        if mode != "central":
            raise InvalidInput("[sweep] step only applies with derivative_mode = central")
        STEP_DOMAIN.check("[sweep] step", step)

    for v in grid:
        domain.check(f"{sweep_param} grid value", v)

    out = out_override if out_override is not None else sweep.get("out")
    fmt = fmt_override if fmt_override is not None else sweep.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise InvalidInput(f"format {fmt!r} must be csv or json")

    return SweepConfig(
        family=name,
        params=params,
        sweep_param=sweep_param,
        grid=grid,
        models=models,
        derivative_mode=mode,
        step=step,
        out=out,
        fmt=fmt,
    )


def _apply_derivative_mode(fam: StateFamily, cfg: SweepConfig) -> StateFamily:
    # "analytic" keeps the family's own derivative; load_sweep_config has
    # checked that the family has one.
    if cfg.derivative_mode != "central":
        return fam
    return dataclasses.replace(fam, derivative_mode=CentralDifference(step=cfg.step))


def run_sweep(cfg: SweepConfig) -> list[dict[str, float | None]]:
    """Evaluate the configured grid in order; the first failing grid point
    raises QfiError naming it."""
    rows: list[dict[str, float | None]] = []
    for grid_value in cfg.grid:
        try:
            fam, theta = sweep_family(cfg.family, cfg.params, cfg.sweep_param, grid_value)
            fam = _apply_derivative_mode(fam, cfg)
            rep = compute_report(fam, theta, cfg.models)
        except QfiError as exc:
            raise QfiError(
                f"at {cfg.sweep_param}={_g17(grid_value)}: {type(exc).__name__}: {exc}"
            ) from exc
        row: dict[str, float | None] = {c: None for c in COLUMNS}
        row["theta"] = grid_value
        row["i1"] = rep.i1
        row["kmb_residual"] = rep.kmb_residual
        row["max_zero_expectation"] = rep.max_zero_expectation
        for m in cfg.models:
            row[f"qfi_{m}"] = rep.qfi[m]
            row[f"i2_{m}"] = rep.i2[m]
        rows.append(row)
    return rows


def write_csv(rows: Sequence[Mapping[str, float | None]], fh) -> None:
    fh.write(",".join(COLUMNS) + "\n")
    for row in rows:
        fh.write(",".join("" if row[c] is None else _g17(row[c]) for c in COLUMNS) + "\n")


def write_json(rows: Sequence[Mapping[str, float | None]], fh) -> None:
    fh.write("{\n")
    fh.write('  "columns": [' + ", ".join(f'"{c}"' for c in COLUMNS) + "],\n")
    fh.write('  "rows": [\n')
    for i, row in enumerate(rows):
        body = ", ".join(
            f'"{c}": ' + ("null" if row[c] is None else _g17(row[c])) for c in COLUMNS
        )
        comma = "," if i + 1 < len(rows) else ""
        fh.write("    {" + body + "}" + comma + "\n")
    fh.write("  ]\n}\n")


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        cfg = load_sweep_config(args.config, args.out, args.format)
    except InvalidInput as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = run_sweep(cfg)
    except QfiError as exc:
        print(f"runtime error {exc}", file=sys.stderr)
        return 3
    writer = write_csv if cfg.fmt == "csv" else write_json
    if cfg.out is None:
        writer(rows, sys.stdout)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            writer(rows, fh)
    return 0


# ---------------------------------------------------------------------------
# verification suites

Line = tuple[bool, str]


def _suite_lemma33(seed: int) -> list[Line]:
    rng = np.random.default_rng(seed)
    n_fam = 100
    worst_ident = 0.0
    comm_prime, comm_comm = 0.0, 0.0
    nonc_prime, nonc_comm = math.inf, math.inf
    n_comm = 0
    for i in range(n_fam):
        commuting = i % 5 == 0
        fam = random_analytic_family(4, rng, commuting=commuting)
        theta = float(rng.uniform(-0.25, 0.25))
        try:
            br = branches_at(fam, theta)
        except QfiError:
            br = branches_at(fam, 0.0)
        rep = projection_audit(br)
        worst_ident = max(worst_ident, rep.max_identity_residual())
        if commuting:
            n_comm += 1
            comm_prime = max(comm_prime, rep.weighted_prime_sum)
            comm_comm = max(comm_comm, rep.commutator)
        else:
            nonc_prime = min(nonc_prime, rep.weighted_prime_sum)
            nonc_comm = min(nonc_comm, rep.commutator)
    worst_curv = 0.0
    for _ in range(10):
        fam = random_analytic_family(4, rng)
        worst_curv = max(worst_curv, projection_curvature_residual(fam, 0.15))
    return [
        (
            worst_ident <= 1e-7,
            f"lemma33.identities families={n_fam} max_residual={worst_ident:.3e} tol=1e-07",
        ),
        (
            worst_curv <= 1e-6,
            f"lemma33.curvature families=10 max_residual={worst_curv:.3e} tol=1e-06",
        ),
        (
            comm_prime <= 1e-8 and comm_comm <= 1e-8,
            f"lemma33.part2_commuting families={n_comm} max_prime_sum={comm_prime:.3e} "
            f"max_commutator={comm_comm:.3e} tol=1e-08",
        ),
        (
            nonc_prime > 1e-6 and nonc_comm > 1e-6,
            f"lemma33.part2_noncommuting families={n_fam - n_comm} min_prime_sum={nonc_prime:.3e} "
            f"min_commutator={nonc_comm:.3e} floor=1e-06",
        ),
    ]


def _suite_kmb(seed: int) -> list[Line]:
    del seed  # deterministic without randomness
    groups: dict[str, list[tuple[StateFamily, float, bool]]] = {}
    for label, fam, theta, analytic in verification_tasks():
        groups.setdefault(label, []).append((fam, theta, analytic))
    lines: list[Line] = []
    for label, pts in groups.items():
        worst_res = 0.0
        worst_mean = 0.0
        tol_mean = 1e-10 if pts[0][2] else 1e-8
        for fam, theta, _ in pts:
            rep = compute_report(fam, theta)
            worst_res = max(worst_res, rep.kmb_residual)
            worst_mean = max(worst_mean, rep.max_zero_expectation)
        lines.append(
            (
                worst_res <= 1e-8 and worst_mean <= tol_mean,
                f"kmb.{label} points={len(pts)} max_kmb_residual={worst_res:.3e} "
                f"max_abs_mean={worst_mean:.3e} tol_mean={tol_mean:g}",
            )
        )
    breve_pts = [
        (default_two_level_1().family(), -0.7),
        (default_two_level_1().family(), 0.3),
        (TwoLevelFamily2(r=0.5).family(), 0.4),
        (geometric_family(math.log(2.0)), math.log(2.0)),
        (coherent_family(1.0).family(), 0.1),
    ]
    worst = 0.0
    for fam, theta in breve_pts:
        br = branches_at(fam, theta)
        q = qfi_bvn(br)
        breve = breve_variance(br, bvn_ld(br, split=False).matrix)
        worst = max(worst, abs(breve - q) / max(1.0, abs(q)))
    lines.append(
        (
            worst <= 1e-10,
            f"kmb.breve_identity points={len(breve_pts)} max_rel_dev={worst:.3e} tol=1e-10",
        )
    )
    return lines


def _two_level_table_lines(
    tag: str,
    weights: Sequence[tuple[float, float]],
    points: Sequence[tuple[StateFamily, float]],
) -> list[Line]:
    """Compare pipeline values against the closed-form reference table.

    The reference second parts for ld1 and ld2 equal the unweighted moment
    Tr(H2^2); at dimension two that is exactly twice the weighted
    Tr(rho H2^2) the pipeline computes, so those two comparisons state the
    factor the computation actually produces.
    """
    err_i1 = 0.0
    err_i2 = {m: 0.0 for m in MODELS}
    min_order_slack = math.inf
    for (lam, dlam), (fam, theta) in zip(weights, points):
        forms = two_level_closed_forms(lam, dlam)
        br = branches_at(fam, theta)
        i1 = classical_information(br)
        err_i1 = max(err_i1, abs(i1 - forms.i1))
        var_i2 = {}
        for m in MODELS:
            op = ld_operator(br, m, split=False)
            var_i2[m] = qfi_variance(br.rho(), op) - i1
            err_i2[m] = max(err_i2[m], abs(var_i2[m] - forms.i2[m]))
        chain = (var_i2["ld1"], var_i2["ld2"], var_i2["bvn"], var_i2["sld"])
        for a, b in zip(chain, chain[1:]):
            min_order_slack = min(min_order_slack, a - b)
    lines: list[Line] = [
        (
            err_i1 <= 1e-10,
            f"tables.{tag}.i1 points={len(points)} max_abs_err={err_i1:.3e} tol=1e-10",
        )
    ]
    for m in MODELS:
        ok = err_i2[m] <= 1e-10
        note = ""
        if not ok and m in ("ld1", "ld2"):
            note = (
                " note=pipeline second part Tr(rho H2^2)-I1 is exactly half the reference"
                " entry, which equals the unweighted moment Tr(H2^2) at dimension two"
            )
        lines.append(
            (
                ok,
                f"tables.{tag}.i2_{m} points={len(points)} max_abs_err={err_i2[m]:.3e} tol=1e-10{note}",
            )
        )
    lines.append(
        (
            min_order_slack >= -1e-10,
            f"tables.{tag}.ordering points={len(points)} min_slack={min_order_slack:.3e} "
            f"chain=ld1>=ld2>=bvn>=sld slack_tol=1e-10",
        )
    )
    return lines


def _suite_tables(seed: int) -> list[Line]:
    del seed
    lines: list[Line] = []
    fam1 = default_two_level_1()
    sf1 = fam1.family()
    grid1 = [float(t) for t in np.linspace(-1.0, 1.0, 50)]
    lines.extend(
        _two_level_table_lines(
            "table1",
            [fam1.weight(t) for t in grid1],
            [(sf1, t) for t in grid1],
        )
    )
    grid2 = [float(r) for r in np.linspace(0.0, 0.95, 50)]
    weights2 = []
    points2 = []
    for r in grid2:
        f2 = TwoLevelFamily2(r=r)
        weights2.append(f2.weight(0.4))
        points2.append((f2.family(), 0.4))
    lines.extend(_two_level_table_lines("table2", weights2, points2))
    origin = compute_report(TwoLevelFamily2(r=0.0).family(), 0.4)
    worst0 = max(
        [abs(v) for v in origin.qfi.values()]
        + [abs(v) for v in origin.i2.values()]
        + [abs(origin.i1)]
    )
    lines.append(
        (
            worst0 <= 1e-12,
            f"tables.table2.origin r=0 max_abs_value={worst0:.3e} tol=1e-12",
        )
    )
    return lines


def _suite_coherent(seed: int) -> list[Line]:
    del seed
    lines: list[Line] = []
    for m in (0.5, 1.0, 2.0):
        closed = 2.0 * math.log1p(1.0 / m)
        try:
            val = coherent_qfi_bvn(m)
            rel = abs(val - closed) / abs(closed)
            lines.append(
                (
                    rel <= 1e-6,
                    f"coherent.qfi_bvn M={m:g} value={val:.12g} closed={closed:.12g} "
                    f"rel_err={rel:.3e} tol=1e-06",
                )
            )
        except QfiError as exc:
            lines.append((False, f"coherent.qfi_bvn M={m:g} error={exc}"))
    fam = coherent_family(1.0).family()
    vals = [qfi_bvn(branches_at(fam, t)) for t in (0.0, 0.1, 0.2)]
    spread = max(vals) - min(vals)
    lines.append(
        (
            spread <= 1e-6 * (1.0 + abs(vals[0])),
            f"coherent.theta_independence M=1 thetas=0,0.1,0.2 spread={spread:.3e} tol=1e-06",
        )
    )
    for m in (0.5, 1.0, 2.0):
        v = coherent_qfi_ld2(m)
        definite = v.matches in ("A", "B", "neither")
        lines.append(
            (
                definite,
                f"coherent.ld2_verdict M={m:g} numeric={v.numeric:.12g} "
                f"A={v.formula_a:.12g} B={v.formula_b:.12g} matches={v.matches}",
            )
        )
    worst_trace = 0.0
    for k in range(11):
        for row in coherent_trace_table(k, 30):
            worst_trace = max(worst_trace, abs(row.value - row.expected))
    lines.append(
        (
            worst_trace <= 1e-9,
            f"coherent.trace_table k=0..10 trunc_dim=30 max_abs_err={worst_trace:.3e} tol=1e-09",
        )
    )
    big_m = 100.0
    val = coherent_qfi_bvn(big_m, check_traces=False)
    scaled = big_m * val
    lines.append(
        (
            abs(scaled - 2.0) <= 0.02 * 2.0,
            f"coherent.scaling M={big_m:g} M_times_value={scaled:.12g} target=2 tol_rel=0.02",
        )
    )
    return lines


def _suite_cr(seed: int) -> list[Line]:
    rng = np.random.default_rng(seed)
    # (label, family, theta, family commutes with its derivative)
    targets = [
        ("two_level_1", default_two_level_1().family(), 0.3, False),
        ("two_level_2", TwoLevelFamily2(r=0.5).family(), 0.4, False),
        ("geometric", geometric_family(math.log(2.0)), math.log(2.0), True),
        ("coherent", coherent_family(1.0).family(), 0.1, False),
    ]
    lines: list[Line] = []
    for label, fam, theta, commuting in targets:
        br = branches_at(fam, theta)
        for model in MODELS:
            min_slack = math.inf
            for _ in range(100):
                y = random_hermitian(br.dim, rng)
                chk = local_cr_check(br, y, model)
                min_slack = min(min_slack, chk.slack)
            lines.append(
                (
                    min_slack >= -1e-10,
                    f"cr.bound.{label}.{model} obs=100 min_slack={min_slack:.3e} slack_tol=-1e-10",
                )
            )
        for model in MODELS:
            if model in ("ld1", "ld2") and not commuting:
                continue
            info = qfi_value(br, model)
            direction = ld_operator(br, model, split=False).matrix / info
            chk = local_cr_check(br, direction, model)
            gap = abs(chk.lhs - chk.rhs)
            lines.append(
                (
                    gap <= 1e-8 * max(1.0, abs(chk.rhs)),
                    f"cr.saturation.{label}.{model} gap={gap:.3e} tol=1e-08",
                )
            )
    return lines


def _suite_entropy(seed: int) -> list[Line]:
    del seed
    points = [
        ("two_level_1.a", default_two_level_1().family(), -0.5),
        ("two_level_1.b", default_two_level_1().family(), 0.3),
        ("two_level_2", TwoLevelFamily2(r=0.5).family(), 0.4),
        ("geometric", geometric_family(math.log(2.0)), math.log(2.0)),
    ]
    lines: list[Line] = []
    for label, fam, theta in points:
        q = qfi_bvn(branches_at(fam, theta))
        rl = relent_limit(fam, theta)
        rel = abs(rl - q) / abs(q)
        lines.append(
            (
                rel <= 1e-4,
                f"entropy.relent.{label} value={rl:.12g} qfi_bvn={q:.12g} rel_err={rel:.3e} tol=1e-04",
            )
        )
        e_prime, neg_q = maximality_check(fam, theta)
        rel2 = abs(e_prime - neg_q) / abs(q)
        lines.append(
            (
                rel2 <= 1e-4,
                f"entropy.maximality.{label} trace_h_prime={e_prime:.12g} minus_qfi={neg_q:.12g} "
                f"rel_err={rel2:.3e} tol=1e-04",
            )
        )
    return lines


_SUITE_FNS: dict[str, Callable[[int], list[Line]]] = {
    "lemma33": _suite_lemma33,
    "kmb": _suite_kmb,
    "tables": _suite_tables,
    "coherent": _suite_coherent,
    "cr": _suite_cr,
    "entropy": _suite_entropy,
}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(_SUITE_FNS) if args.suite == "all" else [args.suite]
    passed = 0
    failed = 0
    for name in names:
        print(f"suite {name} seed={args.seed}")
        for ok, text in _SUITE_FNS[name](args.seed):
            print(("PASS " if ok else "FAIL ") + text)
            if ok:
                passed += 1
            else:
                failed += 1
    print(f"summary: {passed} passed, {failed} failed")
    return 0 if failed == 0 else 3


# ---------------------------------------------------------------------------
# single-point LD report


def _parse_param(token: str) -> tuple[str, float]:
    key, sep, raw = token.partition("=")
    if not sep or not key:
        raise InvalidInput(f"--param {token!r} must look like key=value")
    try:
        return key, float(raw)
    except ValueError:
        raise InvalidInput(f"--param {token!r} has a non-numeric value") from None


def cmd_ld(args: argparse.Namespace) -> int:
    try:
        params = dict(_parse_param(t) for t in args.param)
        if args.model not in MODELS:
            raise InvalidInput(f"unknown model {args.model!r}; expected one of {MODELS}")
        sweep_param, domain = grid_domain(args.family, params, "theta")
        domain.check("theta", args.theta)
    except InvalidInput as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    fam, theta = sweep_family(args.family, params, sweep_param, args.theta)
    br = branches_at(fam, theta)
    if args.family == "counterexample31" and br.n_clusters < fam.dim:
        print(
            "warning: DegenerateAtZero vicinity: spectral gap below resolution, "
            "projection branches unresolved and merged"
        )
    op = ld_operator(br, args.model, split=True)
    rho = br.rho()
    print(f"family {args.family} theta {_g17(theta)} model {args.model}")
    print("H (real part):")
    for row in op.matrix.real:
        print("  " + "  ".join(f"{v:18.12f}" for v in row))
    print("H (imag part):")
    for row in op.matrix.imag:
        print("  " + "  ".join(f"{v:18.12f}" for v in row))
    print(f"Tr(rho H) = {_g17(zero_expectation_check(rho, op))}")
    print(f"KMB residual = {_g17(kmb_residual(br, op))}")
    h1 = float(np.linalg.norm(op.h1)) if op.h1 is not None else float("nan")
    h2 = float(np.linalg.norm(op.h2)) if op.h2 is not None else float("nan")
    print(f"||H1||_F = {_g17(h1)}  ||H2||_F = {_g17(h2)}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfi",
        description="Logarithmic-derivative operators and information values of state families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid from a config file")
    p_sweep.add_argument("--config", required=True, help="INI file with [family] and [sweep]")
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")
    p_sweep.add_argument("--format", default=None, choices=("csv", "json"))

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--seed", type=int, default=0)

    p_ld = sub.add_parser("ld", help="print one LD operator with diagnostics")
    p_ld.add_argument("--family", required=True)
    p_ld.add_argument("--theta", required=True, type=float)
    p_ld.add_argument("--model", required=True)
    p_ld.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="family parameter, repeatable",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_ld(args)
    except InvalidInput as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QfiError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
