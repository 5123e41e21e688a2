"""The three benchmark workloads: inputs made from the seed, one pass of
work each, and the checks on every output of a pass.

Why each workload exists is written down in README.md next to this file.
Every input is made from ``variant = seed % VARIANTS``: the outputs of all
variants were recorded at the commit that defined the benchmark
(``reference/*.json``, written by ``record_reference.py``), so each pass can
be compared with them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ldqfi
from ldqfi import cli

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

VARIANTS = 16

# Sweep: the coherent family at M = 2 (trunc_dim 57).  Each variant's grid is
# a window of SWEEP_POINTS consecutive points of one fixed lattice, starting
# at the variant's index, so all variants share one recorded table.
SWEEP_M = 2.0
SWEEP_POINTS = 200
SWEEP_LATTICE = np.linspace(-0.29, 0.29, SWEEP_POINTS + VARIANTS - 1)

# Dense reports: a convex path between two random full-rank states at d = 256.
DENSE_DIM = 256
DENSE_POINTS = 8

# Output columns of a sweep row / report, in the CLI's order.
VALUE_COLUMNS = tuple(c for c in cli.COLUMNS if c != "theta")
ORDER_CHAIN = ("qfi_ld1", "qfi_ld2", "qfi_bvn", "qfi_sld")
REF_RTOL = 1e-10
REF_ATOL = 1e-12  # floor for entries at rounding level (residuals, i1 of the coherent family)
ORDER_SLACK = 1e-10
BVN_RTOL = 1e-6  # the library's own tolerance for the coherent closed form
KMB_TOL = 1e-8
ZERO_EXPECT_TOL = 1e-10

VERIFY_SUITES = tuple(s for s in cli.SUITES if s != "all")


@dataclass
class PassResult:
    """Outcome of one pass: operations attempted and failed, the pass's
    units of work ("points"), the time spent in library calls, and per-point
    latencies where the benchmark can time single points."""

    attempted: int = 0
    wall_s: float = 0.0
    failed: int = 0
    points: int = 0
    point_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(why)


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _row_problems(row: dict[str, float], ref: dict[str, float] | None) -> list[str]:
    """Checks shared by sweep rows and dense reports."""
    problems = []
    for hi, lo in zip(ORDER_CHAIN, ORDER_CHAIN[1:]):
        if row[hi] - row[lo] < -ORDER_SLACK * max(1.0, abs(row[hi])):
            problems.append(f"ordering {hi}={row[hi]!r} < {lo}={row[lo]!r}")
    if ref is None:
        problems.append("no recorded reference for this point")
        return problems
    for c in VALUE_COLUMNS:
        x, r = row[c], ref[c]
        if not (abs(x - r) <= REF_RTOL * abs(r) + REF_ATOL):
            problems.append(f"{c}={x!r} differs from recorded {r!r}")
    return problems


def report_row(rep) -> dict[str, float]:
    row = {"i1": rep.i1, "kmb_residual": rep.kmb_residual,
           "max_zero_expectation": rep.max_zero_expectation}
    for m in ldqfi.MODELS:
        row[f"qfi_{m}"] = rep.qfi[m]
        row[f"i2_{m}"] = rep.i2[m]
    return row


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """cli.main(argv) with its output captured; also returns its duration."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


# ---------------------------------------------------------------------------
# sweep_coherent


def sweep_grid(variant: int, points: int = SWEEP_POINTS) -> list[float]:
    return [float(v) for v in SWEEP_LATTICE[variant:variant + points]]


def sweep_config_text(grid: list[float]) -> str:
    return (
        "[family]\nname = coherent\nM = %r\n\n[sweep]\ngrid = %s\n"
        % (SWEEP_M, " ".join(repr(v) for v in grid))
    )


class SweepCoherent:
    """``qfi sweep`` in-process over a coherent-family grid written to a file."""

    name = "sweep_coherent"

    def __init__(self, seed: int, workdir: Path, points: int = SWEEP_POINTS):
        self.variant = seed % VARIANTS
        self.grid = sweep_grid(self.variant, points)
        self.config = workdir / "sweep.ini"
        self.out = workdir / "sweep.csv"
        self.config.write_text(sweep_config_text(self.grid), encoding="utf-8")
        rows = load_reference(self.name)["rows"]
        self.reference = {r["theta"]: r for r in rows}
        self.bvn_closed = 2.0 * math.log1p(1.0 / SWEEP_M)

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult(attempted=len(self.grid), points=len(self.grid))
        self.out.unlink(missing_ok=True)
        try:
            rc, _, err, res.wall_s = run_cli(["sweep", "--config", str(self.config), "--out", str(self.out)])
        except Exception:
            res.fail(len(self.grid), traceback.format_exc())
            return res
        if rc != 0:
            res.fail(len(self.grid), f"qfi sweep exit {rc}: {err.strip()}")
            return res
        self.check(self.out.read_text(encoding="utf-8"), res)
        return res

    def check(self, text: str, res: PassResult) -> None:
        lines = text.splitlines()
        if not lines or lines[0] != ",".join(cli.COLUMNS):
            res.fail(len(self.grid), "unexpected CSV header")
            return
        body = lines[1:]
        for i, theta in enumerate(self.grid):
            if i >= len(body):
                res.fail(len(self.grid) - i, f"{len(self.grid) - i} rows missing")
                return
            cells = body[i].split(",")
            try:
                row = dict(zip(cli.COLUMNS, (float(c) for c in cells)))
            except ValueError:
                res.fail(1, f"row {i} does not parse: {body[i]!r}")
                continue
            problems = [] if len(cells) == len(cli.COLUMNS) else ["wrong cell count"]
            if not problems:
                if row["theta"] != theta:
                    problems.append(f"theta {row['theta']!r} != grid value {theta!r}")
                if abs(row["qfi_bvn"] - self.bvn_closed) > BVN_RTOL * self.bvn_closed:
                    problems.append(f"qfi_bvn {row['qfi_bvn']!r} off 2 ln(1 + 1/M)")
                problems += _row_problems(row, self.reference.get(theta))
            if problems:
                res.fail(1, f"theta={theta!r}: " + "; ".join(problems))
        extra = len(body) - len(self.grid)
        if extra > 0:
            res.attempted += extra
            res.fail(extra, f"{extra} unexpected rows")


# ---------------------------------------------------------------------------
# report_dense


def dense_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Normalized Wishart state G G† with G of shape (dim, 2 dim).

    With twice as many columns as rows the spectrum stays near the
    Marchenko-Pastur edge (1 - 1/sqrt 2)^2 / dim, about 3e-4 at d = 256,
    far above the library's rank tolerance 1e-12.
    """
    g = rng.standard_normal((dim, 2 * dim)) + 1j * rng.standard_normal((dim, 2 * dim))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def dense_inputs(variant: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([20250227, variant])
    return dense_state(rng, DENSE_DIM), dense_state(rng, DENSE_DIM)


DENSE_GRID = [(i + 0.5) / DENSE_POINTS for i in range(DENSE_POINTS)]


def dense_family(rho0: np.ndarray, rho1: np.ndarray) -> ldqfi.StateFamily:
    """(1 - theta) rho0 + theta rho1 on (0, 1), with its analytic derivative."""
    diff = rho1 - rho0
    return ldqfi.StateFamily(
        dim=rho0.shape[0],
        theta_domain=(0.0, 1.0),
        rho_of=lambda t: (1.0 - t) * rho0 + t * rho1,
        rho_prime_of=lambda t: diff,
        name="dense_mix",
    )


class ReportDense:
    """``compute_report`` once per grid point on a seeded dense family."""

    name = "report_dense"

    def __init__(self, seed: int, workdir: Path):
        del workdir
        self.variant = seed % VARIANTS
        self.family = dense_family(*dense_inputs(self.variant))
        self.grid = list(DENSE_GRID)
        rows = load_reference(self.name)["variants"][str(self.variant)]
        self.reference = {r["theta"]: r for r in rows}

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult(attempted=len(self.grid), points=len(self.grid))
        compute_report = ldqfi.compute_report  # looked up per pass so the traced run sees its wrapper
        for theta in self.grid:
            start = time.perf_counter()
            try:
                rep = compute_report(self.family, theta)
            except Exception:
                res.fail(1, f"theta={theta!r}: " + traceback.format_exc())
                continue
            finally:
                elapsed = time.perf_counter() - start
                res.wall_s += elapsed
            res.point_s.append(elapsed)
            row = report_row(rep)
            problems = []
            if not rep.kmb_residual <= KMB_TOL:
                problems.append(f"kmb_residual {rep.kmb_residual!r} > {KMB_TOL:g}")
            if not rep.max_zero_expectation <= ZERO_EXPECT_TOL:
                problems.append(f"max_zero_expectation {rep.max_zero_expectation!r} > {ZERO_EXPECT_TOL:g}")
            problems += _row_problems(row, self.reference.get(theta))
            if problems:
                res.fail(1, f"theta={theta!r}: " + "; ".join(problems))
        return res


# ---------------------------------------------------------------------------
# verify_all


def verdicts(text: str) -> list[list[str]]:
    """(verdict, check name) of every PASS/FAIL line, in order."""
    out = []
    for line in text.splitlines():
        parts = line.split(" ", 2)
        if parts[0] in ("PASS", "FAIL"):
            out.append(parts[:2])
    return out


class VerifyAll:
    """``qfi verify all`` in-process; the traced run calls each suite in turn."""

    name = "verify_all"

    def __init__(self, seed: int, workdir: Path):
        del workdir
        self.variant = seed % VARIANTS
        ref = load_reference(self.name)
        self.expected = ref["verdicts"]
        self.expected_rc = ref["exit_code"]
        self.suite_rc = ref["suite_exit_codes"]

    def run_pass(self, tracer=None) -> PassResult:
        n = len(self.expected)
        res = PassResult(attempted=n, points=n)
        seed = ["--seed", str(self.variant)]
        try:
            if tracer is None:
                rc, text, err, res.wall_s = run_cli(["verify", "all"] + seed)
                rc_ok = rc == self.expected_rc
            else:
                text, rc_ok = "", True
                for suite in VERIFY_SUITES:
                    rc, out, err, elapsed = tracer.call(f"cli.verify.{suite}", run_cli, ["verify", suite] + seed)
                    text += out
                    res.wall_s += elapsed
                    rc_ok = rc_ok and rc == self.suite_rc[suite]
        except Exception:
            res.fail(n, traceback.format_exc())
            return res
        if not rc_ok:
            res.fail(n, f"unexpected exit code {rc}: {err.strip()}")
            return res
        got = verdicts(text)
        for i, want in enumerate(self.expected):
            have = got[i] if i < len(got) else None
            if have != want:
                res.fail(1, f"verdict line {i}: expected {' '.join(want)}, got {have}")
        extra = len(got) - n
        if extra > 0:
            res.attempted += extra
            res.fail(extra, f"{extra} unexpected verdict lines")
        return res


WORKLOADS = {w.name: w for w in (SweepCoherent, ReportDense, VerifyAll)}
