"""Record the outputs every benchmark pass is compared with.

    python3 benchmarks/record_reference.py

Writes ``benchmarks/reference/{sweep_coherent,report_dense,verify_all}.json``
from the library in ``src/`` of this checkout, for every input variant.  Run
it only when the benchmark's inputs change: the point of the files is that
a later commit's outputs are compared with these, not with its own.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

sys.path[:0] = [str(run.SRC), str(run.BENCH_DIR)]

import bench_workloads as bw  # noqa: E402
import ldqfi  # noqa: E402


def _write(name: str, payload: dict) -> None:
    bw.REFERENCE_DIR.mkdir(exist_ok=True)
    path = bw.REFERENCE_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def record_sweep(tmp: Path, source: dict) -> None:
    grid = [float(v) for v in bw.SWEEP_LATTICE]
    config, out = tmp / "lattice.ini", tmp / "lattice.csv"
    config.write_text(bw.sweep_config_text(grid), encoding="utf-8")
    rc, _, err, _ = bw.run_cli(["sweep", "--config", str(config), "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"sweep failed with exit {rc}: {err}")
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = [dict(zip(ldqfi.cli.COLUMNS, map(float, ln.split(",")))) for ln in lines[1:]]
    _write("sweep_coherent", {"source": source, "M": bw.SWEEP_M, "rows": rows})


def record_dense(source: dict) -> None:
    variants = {}
    for v in range(bw.VARIANTS):
        fam = bw.dense_family(*bw.dense_inputs(v))
        variants[str(v)] = [
            {"theta": t, **bw.report_row(ldqfi.compute_report(fam, t))} for t in bw.DENSE_GRID
        ]
    _write("report_dense", {"source": source, "dim": bw.DENSE_DIM, "variants": variants})


def record_verify(source: dict) -> None:
    seen = None
    for v in range(bw.VARIANTS):
        rc, text, _, _ = bw.run_cli(["verify", "all", "--seed", str(v)])
        suite_rc = {s: bw.run_cli(["verify", s, "--seed", str(v)])[0] for s in bw.VERIFY_SUITES}
        got = (rc, suite_rc, bw.verdicts(text))
        if seen is not None and got != seen:
            raise SystemExit(f"verify verdicts at seed {v} differ from seed 0")
        seen = got
    rc, suite_rc, verdicts = seen
    _write("verify_all", {"source": source, "exit_code": rc, "suite_exit_codes": suite_rc,
                          "verdicts": verdicts})


def main() -> None:
    env = run.environment(0, 0, bw.SWEEP_POINTS)
    source = {k: env[k] for k in ("git_commit", "src_sha256", "numpy", "scipy", "blas")}
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        record_sweep(Path(tmp), source)
    record_dense(source)
    record_verify(source)


if __name__ == "__main__":
    main()
