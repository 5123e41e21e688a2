"""Command-line front end: theta-grid sweeps, verification suites (run from
ldqfi.verify) and single-point LD operator reports.

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
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidInput, QfiError
from .family import CentralDifference, StateFamily
from .ldops import MODELS
from .qfi import compute_report, compute_reports, ld_report
from .zoo import FAMILIES, STEP_DOMAIN, grid_domain

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

# "all" and the names of ldqfi.verify.SUITES, which only cmd_verify imports
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
        # utf-8-sig drops the byte-order mark some editors write first
        with open(path, encoding="utf-8-sig") as fh:
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
        if not math.isfinite(count_f) or count_f != int(count_f) or count_f < 1:
            raise InvalidInput(f"[sweep] count = {sweep['count']!r} must be a positive integer")
        domain.check("[sweep] start", start)
        domain.check("[sweep] stop", stop)
        try:
            grid = tuple(float(v) for v in np.linspace(start, stop, int(count_f)))
        except (ValueError, MemoryError):
            raise InvalidInput(f"[sweep] count = {sweep['count']!r} must be a positive integer "
                               "of points that fit in memory") from None

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
        if "step" in params:
            raise InvalidInput("[family] step and [sweep] step are both set; set one")

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
    # checked that the family has one.  "central" without a [sweep] step
    # keeps a family's own central difference, with the step it was given.
    own = isinstance(fam.derivative_mode, CentralDifference) and cfg.step is None
    if cfg.derivative_mode != "central" or own:
        return fam
    return dataclasses.replace(fam, derivative_mode=CentralDifference(step=cfg.step))


def _family_at(cfg: SweepConfig, grid_value: float) -> tuple[StateFamily, float]:
    # load_sweep_config has checked the configuration (grid_domain)
    fam, theta = FAMILIES[cfg.family].build({**cfg.params, cfg.sweep_param: grid_value})
    return _apply_derivative_mode(fam, cfg), theta


def run_sweep(cfg: SweepConfig) -> list[dict[str, float | None]]:
    """Evaluate the configured grid in order; the first failing grid point
    raises QfiError naming it.

    A coordinate that only moves the evaluation point is swept on one
    family, whose points are the grid values, in one compute_reports call.
    One that changes the family (FamilySpec.family_coords) builds a family
    per grid value; so does a grid whose single call failed, to name the
    first failing value.
    """
    reports = None
    if cfg.sweep_param not in FAMILIES[cfg.family].family_coords:
        try:
            fam, _ = _family_at(cfg, cfg.grid[0])
            reports = compute_reports(fam, cfg.grid, cfg.models)
        except QfiError:
            pass
    if reports is None:
        reports = []
        for grid_value in cfg.grid:
            try:
                fam, theta = _family_at(cfg, grid_value)
                reports.append(compute_report(fam, theta, cfg.models))
            except QfiError as exc:
                raise QfiError(
                    f"at {cfg.sweep_param}={_g17(grid_value)}: {type(exc).__name__}: {exc}"
                ) from exc
    rows: list[dict[str, float | None]] = []
    for grid_value, rep in zip(cfg.grid, reports):
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
# verify subcommand


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    passed = 0
    failed = 0
    for name in names:
        print(f"suite {name} seed={args.seed}")
        for check in verify.SUITES[name](args.seed):
            print(f"{'PASS' if check.passed else 'FAIL'} {check.name} {check.detail}")
            if check.passed:
                passed += 1
            else:
                failed += 1
    print(f"summary: {passed} passed, {failed} failed")
    return 0 if failed == 0 else 3


def _seed(raw: str) -> int:
    """argparse type of --seed: a non-negative integer, as numpy's generators take."""
    try:
        seed = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{raw!r} is negative; expected a non-negative integer")
    return seed


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
    params = dict(_parse_param(t) for t in args.param)
    if args.model not in MODELS:
        raise InvalidInput(f"unknown model {args.model!r}; expected one of {MODELS}")
    sweep_param, domain = grid_domain(args.family, params, "theta")
    domain.check("theta", args.theta)
    fam, theta = FAMILIES[args.family].build({**params, sweep_param: args.theta})
    rep = ld_report(fam, theta, args.model)
    if rep.merged:
        print(
            "warning: the eigenvalues fall into fewer clusters than the dimension; "
            "the projection branches inside a cluster are unresolved"
        )
    print(f"family {args.family} theta {_g17(theta)} model {args.model}")
    print("H (real part):")
    for row in rep.operator.real:
        print("  " + "  ".join(f"{v:18.12f}" for v in row))
    print("H (imag part):")
    for row in rep.operator.imag:
        print("  " + "  ".join(f"{v:18.12f}" for v in row))
    print(f"Tr(rho H) = {_g17(rep.mean)}")
    print(f"KMB residual = {_g17(rep.kmb_residual)}")
    print(f"||H1||_F = {_g17(rep.h1_norm)}  ||H2||_F = {_g17(rep.h2_norm)}")
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
    p_verify.add_argument("--seed", type=_seed, default=0)

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
