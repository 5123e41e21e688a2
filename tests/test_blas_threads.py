"""Output bytes do not depend on the BLAS thread count: the state's
eigensolve and the KMB trace-norm SVD run on one OpenBLAS thread, and so
does the whole of a ``qfi ld`` report."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ldqfi.linalg import _one_blas_thread, _openblas_threads

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from ldqfi import StateFamily, cli, compute_report

    def wishart(rng, dim):
        g = rng.standard_normal((dim, 2 * dim)) + 1j * rng.standard_normal((dim, 2 * dim))
        rho = g @ g.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        return rho / np.trace(rho).real

    rng = np.random.default_rng([20250227, 3])
    rho0, rho1 = wishart(rng, 256), wishart(rng, 256)
    fam = StateFamily(
        dim=256, theta_domain=(0.0, 1.0),
        rho_of=lambda t: (1.0 - t) * rho0 + t * rho1,
        rho_prime_of=lambda t: rho1 - rho0,
    )
    for theta in (0.25, 0.5, 0.75):
        rep = compute_report(fam, theta)
        print(repr(rep.qfi), repr(rep.i1), repr(rep.kmb_residual), repr(rep.max_zero_expectation))
    for config in sys.argv[1:]:
        sys.stdout.flush()
        cli.main(["sweep", "--config", config])
    """
)


LD_SCRIPT = textwrap.dedent(
    """
    import sys
    from ldqfi import cli

    for model in ("bvn", "sld"):
        sys.stdout.flush()
        cli.main(["ld", "--family", "coherent", "--theta", "0.1", "--model", model, "--param", "M=10"])
    """
)


def _run(threads: str, args: list, script: str = SCRIPT) -> str:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout


def test_outputs_are_identical_for_one_and_two_blas_threads(tmp_path) -> None:
    # a central-difference sweep (eigensolver path) and analytic ones
    # (closed-form branches: expm and dense products) at M = 10, N = 241
    # and at M = 2, N = 57
    configs = []
    for name, m, mode in (("central", 2.0, "central"), ("analytic", 10.0, "analytic"),
                          ("analytic_small", 2.0, "analytic")):
        config = tmp_path / f"{name}.toml"
        config.write_text(
            f"[family]\nname = coherent\nM = {m}\n\n"
            f"[sweep]\nstart = -0.2\nstop = 0.2\ncount = 5\nderivative_mode = {mode}\n",
            encoding="utf-8",
        )
        configs.append(config)
    one = _run("1", configs)
    assert one.count("\n") == 3 + 3 * 6
    assert _run("2", configs) == one


def test_ld_report_is_identical_for_one_and_two_blas_threads() -> None:
    # at M = 10 (N = 241) the eigensolve, the KMB residual and the split
    # norms of an unpinned report printed different bytes at two threads
    one = _run("1", [], LD_SCRIPT).splitlines()
    assert one.count("family coherent theta 0.10000000000000001 model bvn") == 1
    two = _run("2", [], LD_SCRIPT).splitlines()
    # the line numbers that differ: a diff of the two outputs (2 MB each)
    # would take pytest minutes to print
    assert (len(two), [i for i, (a, b) in enumerate(zip(one, two)) if a != b]) == (len(one), [])


def test_pinning_restores_the_thread_count() -> None:
    threads = _openblas_threads()
    a = np.arange(9.0).reshape(3, 3)
    if threads is None:
        np.testing.assert_array_equal(_one_blas_thread(np.linalg.svd, a, compute_uv=False),
                                      np.linalg.svd(a, compute_uv=False))
        return
    get, put = threads
    old = get()
    try:
        put(2)
        seen = _one_blas_thread(get)
        assert (seen, get()) == (1, 2)
    finally:
        put(old)


def test_overlapping_pins_from_two_threads() -> None:
    # a pin that ends while another thread's pin still runs must not
    # restore the count under it
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy's OpenBLAS thread entry points are absent")
    get, put = threads
    old = get()
    entered, release = threading.Event(), threading.Event()

    def held() -> int:
        entered.set()
        release.wait(10)
        return get()

    def overlapping(first) -> int:
        release.set()
        first.result(10)
        return get()

    try:
        put(2)
        with ThreadPoolExecutor(1) as pool:
            first = pool.submit(_one_blas_thread, held)
            assert entered.wait(10)
            second = _one_blas_thread(overlapping, first)
        assert (first.result(), second, get()) == (1, 1, 2)
    finally:
        put(old)
