"""Self-tests of the benchmark harness: deterministic inputs, the output
checks, the traced call counts and the result-line contract."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import bench_trace
import bench_workloads as bw
import pytest
import run


def test_same_seed_gives_identical_inputs(tmp_path):
    configs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        configs.append(bw.SweepCoherent(21, tmp_path / name).config.read_bytes())
    assert configs[0] == configs[1]
    for x, y in zip(bw.dense_inputs(5), bw.dense_inputs(5)):
        assert x.tobytes() == y.tobytes()


def test_same_seed_gives_identical_sweep_output(tmp_path):
    outputs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        wl = bw.SweepCoherent(7, tmp_path / name, points=6)
        res = wl.run_pass()
        assert (res.attempted, res.failed) == (6, 0), res.errors
        outputs.append(wl.out.read_bytes())
    assert outputs[0] == outputs[1]


def test_different_seed_changes_inputs(tmp_path):
    r0, r1 = bw.dense_inputs(0)
    s0, s1 = bw.dense_inputs(1)
    assert r0.tobytes() != s0.tobytes() and r1.tobytes() != s1.tobytes()
    assert bw.sweep_grid(0) != bw.sweep_grid(1)


def test_check_counts_a_corrupted_row(tmp_path):
    wl = bw.SweepCoherent(2, tmp_path, points=4)
    assert wl.run_pass().failed == 0
    lines = wl.out.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-8))  # qfi_bvn, outside 1e-10 of the recorded value
    lines[2] = ",".join(cells)
    res = bw.PassResult(attempted=4)
    wl.check("\n".join(lines) + "\n", res)
    assert res.failed == 1 and "qfi_bvn" in res.errors[0]


def test_traced_sweep_counts_equal_grid_size_and_repeat(tmp_path):
    wl = bw.SweepCoherent(3, tmp_path, points=12)
    counts = []
    tracer = bench_trace.Tracer()
    with tracer:
        for _ in range(2):
            res = tracer.call("bench.pass", wl.run_pass, tracer)
            assert res.failed == 0, res.errors
            spans, clusters = tracer.take()
            vals = run.layer_values(bench_trace.summarize(spans), clusters)
            counts.append({k: v for k, v in vals.items() if k.endswith(".calls")})
    assert counts[0]["family.spectral_branches.calls"] == 12
    assert counts[0]["zoo.checked_displacement.calls"] == 12
    assert counts[0] == counts[1]
    # wrappers are gone again
    import ldqfi

    assert not hasattr(ldqfi.branches_at, "__wrapped__")
    assert not hasattr(ldqfi.zoo.CoherentFamily.checked_displacement, "__wrapped__")


def test_self_time_excludes_children():
    spans = [
        (1, 0, 1, "outer", 0.0, 10.0),
        (2, 1, 1, "inner", 1.0, 4.0),
        (3, 1, 1, "inner", 3.0, 6.0),  # overlaps the first child (pool threads)
    ]
    out = bench_trace.summarize(spans)
    assert out["outer"]["self_s"] == pytest.approx(5.0)
    assert out["inner"]["calls"] == 2 and out["inner"]["self_s"] == pytest.approx(6.0)


def test_tiny_smoke_passes(tmp_path):
    sweep = bw.SweepCoherent(0, tmp_path, points=3)
    dense = bw.ReportDense(0, tmp_path)
    dense.grid = dense.grid[:1]
    for wl in (sweep, dense):
        res = wl.run_pass()
        assert res.attempted >= 1 and res.failed == 0, res.errors


def test_benchmark_json_matches_harness():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep_coherent", "--seed", "4",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify_all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
