"""ldqfi benchmark: one workload per invocation, checked outputs, one JSON
result line.

    python3 benchmarks/run.py --workload sweep_coherent --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports ``ldqfi`` from ``src/`` there
and refuses to run without it.  With ``--trace 0`` it reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is the JSON result; the lines before it print every
metric by name with its unit, the environment record and any failed check.
The full result (environment, metrics, sample counts, errors) is also
written to ``benchmarks/out/``, together with the spans of a traced run.
README.md next to this file explains the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy is first imported.  QFI_THREADS stays
# unset so the sweep pool runs at the library default that users get; with
# nproc = 2 the total stays within the cores.  README.md has the numbers.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("QFI_THREADS", None)

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("sweep_coherent", "report_dense", "verify_all")
SETUP_MIN = 5
IMPORTTIME_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_pts_s": "1/s",
    "point_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of a traced pass.  "<span>.calls" counts calls,
# "<span>.self_ms" is self time, "<span>.ms" inclusive time, all per pass
# (the median over the traced passes).
PER_LAYER = (
    "zoo.checked_displacement.calls",
    "zoo.checked_displacement.self_ms",
    "zoo.sweep_family.self_ms",
    "zoo.displacement_closed_form.self_ms",
    "family.eval_rho.self_ms",
    "family.eval_rho_prime.self_ms",
    "family.spectral_branches.calls",
    "family.spectral_branches.self_ms",
    "family.clusters_per_point",
    "family.projection_audit.self_ms",
    "ldops.ld_operator.calls",
    "ldops.ld_operator.self_ms",
    "ldops.kernel_matrix.calls",
    "ldops.kernel_matrix.self_ms",
    "ldops.kmb_residual.self_ms",
    "ldops.zero_expectation_check.self_ms",
    "qfi.qfi_value.calls",
    "qfi.qfi_value.self_ms",
    "qfi.compute_report.self_ms",
    "qfi.local_cr_check.calls",
    "qfi.local_cr_check.self_ms",
    "qfi.relent_limit.self_ms",
    "qfi.maximality_check.self_ms",
    "cli.run_sweep.self_ms",
    "cli.load_sweep_config.ms",
    "cli.write_csv.ms",
    "cli.verify.lemma33.ms",
    "cli.verify.kmb.ms",
    "cli.verify.tables.ms",
    "cli.verify.coherent.ms",
    "cli.verify.cr.ms",
    "cli.verify.entropy.ms",
    "linalg.logmean_matrix.calls",
    "linalg.logmean_matrix.self_ms",
    "linalg.schatten_norm.self_ms",
    "linalg.matrix_function.self_ms",
    "setup.import.scipy_ms",
    "setup.import.ldqfi_self_ms",
    "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "family.clusters_per_point":
        return "count"
    return "s" if name.endswith("_s") else "ms"


# ---------------------------------------------------------------------------
# measurements outside the workload


def _spawn_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds() -> float:
    """Fresh interpreter until ``import ldqfi`` completes."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ldqfi"], cwd=ROOT, env=_spawn_env(), check=True)
    return time.perf_counter() - start


def import_profile() -> dict[str, float]:
    """Self time of the scipy and ldqfi modules from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ldqfi"],
        cwd=ROOT, env=_spawn_env(), check=True, capture_output=True, text=True,
    )
    sums = {"scipy": 0.0, "ldqfi": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".")[0]
        if top in sums:
            sums[top] += int(fields[0]) / 1e3
    return {"setup.import.scipy_ms": sums["scipy"], "setup.import.ldqfi_self_ms": sums["ldqfi"]}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed: int, variant: int, pool_tasks: int) -> dict:
    """Machine, library versions, thread settings, seed and source version."""
    import numpy as np
    import scipy

    from ldqfi import cli

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor() or None)
    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(f"{idx}/{f}") for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else (kind or '')[:1].lower()}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    worker_count = getattr(cli, "_worker_count", None)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ldqfi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("QFI_THREADS",)},
        "sweep_pool_workers": worker_count(pool_tasks) if worker_count else None,
        "seed": seed,
        "input_variant": variant,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# passes


def measure(workload, seconds: float, between=None) -> list:
    """Untraced passes until the time budget is spent; at least one.
    between(), when given, runs after each pass inside the budget."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(workload.run_pass())
        if between is not None:
            between()
    return passes


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(workload, seconds: float) -> tuple[dict[str, float], dict, list]:
    import_seconds()  # compiles the bytecode once; users start from a warm cache
    setups: list[float] = []
    warm = workload.run_pass()
    # One interpreter start after each pass spreads the set-up samples over
    # the whole run, so they see the same machine load as the passes.
    passes = measure(workload, seconds, lambda: setups.append(import_seconds()))
    while len(setups) < SETUP_MIN:
        setups.append(import_seconds())
    walls = [p.wall_s for p in passes]
    points = passes[0].points
    per_point = [s for p in passes for s in p.point_s] or [p.wall_s / p.points for p in passes]
    wall = p90(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "throughput_pts_s": points / wall,
        "point_ms_p90": 1e3 * p90(per_point),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "passes": len(walls),
        "points_per_pass": points,
        "wall_s_min": min(walls),
        "wall_s_median": statistics.median(walls),
        "point_samples": len(per_point),
        "point_ms_min": 1e3 * min(per_point),
        "point_ms_p50": 1e3 * statistics.median(per_point),
        "setup_samples": len(setups),
        "pass_wall_s": walls,
        "point_ms": [1e3 * s for s in per_point],
        "setup_samples_s": setups,
    }
    return metrics, extra, [warm] + passes


def traced(workload, seconds: float, spans_path: Path) -> tuple[dict[str, float], dict, list]:
    import bench_trace

    warm = workload.run_pass()
    plain = measure(workload, seconds / 2)
    tracer = bench_trace.Tracer()
    per_pass: list[dict[str, float]] = []
    passes = []
    with tracer, open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,pass,name,start_s,end_s\n")
        deadline = time.perf_counter() + seconds / 2
        while not passes or time.perf_counter() < deadline:
            tracer.pass_id = len(passes) + 1
            passes.append(tracer.call("bench.pass", workload.run_pass, tracer))
            spans, clusters = tracer.take()
            for sid, parent, pid, name, start, end in spans:
                fh.write(f"{sid},{parent},{pid},{name},{start!r},{end!r}\n")
            per_pass.append(layer_values(bench_trace.summarize(spans), clusters))
    # median_low: a value some pass really had, so call counts stay integers
    metrics = {m: statistics.median_low(v[m] for v in per_pass) for m in per_pass[0]}
    profiles = [import_profile() for _ in range(IMPORTTIME_REPEATS)]
    for m in profiles[0]:
        metrics[m] = statistics.median(p[m] for p in profiles)
    traced_wall = statistics.median(p.wall_s for p in passes)
    plain_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    extra = {
        "traced_passes": len(passes),
        "untraced_passes": len(plain),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "call_counts_per_pass": sorted({tuple(sorted((k, v) for k, v in d.items() if k.endswith(".calls")))
                                        for d in per_pass}),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, extra, [warm] + plain + passes


def layer_values(summary: dict[str, dict[str, float]], clusters: int) -> dict[str, float]:
    out = {}
    for metric in PER_LAYER:
        if metric.startswith(("setup.", "trace.")):
            continue
        if metric == "family.clusters_per_point":
            calls = summary.get("family.spectral_branches", {}).get("calls", 0)
            out[metric] = clusters / calls if calls else 0.0
            continue
        span, _, kind = metric.rpartition(".")
        agg = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if kind == "calls":
            out[metric] = agg["calls"]
        elif kind == "self_ms":
            out[metric] = 1e3 * agg["self_s"]
        else:
            out[metric] = 1e3 * agg["total_s"]
    return out


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "ldqfi" / "__init__.py").is_file():
        print(f"error: no ldqfi sources at {SRC / 'ldqfi'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import ldqfi

    if not Path(ldqfi.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: ldqfi imported from {ldqfi.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import bench_workloads

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR))
    try:
        workload = bench_workloads.WORKLOADS[args.workload](args.seed, workdir)
        env = environment(args.seed, workload.variant, bench_workloads.SWEEP_POINTS)
        if args.trace:
            metrics, extra, passes = traced(workload, args.seconds, OUT_DIR / f"{tag}-spans.csv")
            units = {m: layer_unit(m) for m in PER_LAYER}
        else:
            metrics, extra, passes = end_to_end(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors][:20]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        "extra": extra,
        "failed_frac": failed / attempted,
        "errors": errors,
    }
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for err in errors:
        print("check failed: " + (err.splitlines() or [""])[0])
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in extra.items():
        if not isinstance(value, list):
            print(f"{key} = {value}")
    for m, unit in units.items():
        print(f"{m} = {metrics[m]:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} 1")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
