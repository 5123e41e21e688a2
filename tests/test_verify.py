"""Verification suites as check records."""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import tracemalloc

import ldqfi.audits
from ldqfi import verify


def test_ld2_verdict_fails_on_a_wrong_numeric(monkeypatch):
    real = verify.coherent_qfi_ld2

    def off_by_1e_5(m):
        v = real(m)
        return dataclasses.replace(v, numeric=v.numeric * (1.0 + 1e-5))

    monkeypatch.setattr(verify, "coherent_qfi_ld2", off_by_1e_5)
    verdicts = [c for c in verify.coherent(0) if c.name == "coherent.ld2_verdict"]
    assert len(verdicts) == 3
    assert not any(c.passed for c in verdicts)


def test_package_import_does_not_load_the_suites():
    code = "import sys, ldqfi; sys.exit('ldqfi.verify' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_cr_evaluates_observables_in_chunks(monkeypatch):
    # 4 targets x 4 models x 10 chunks of 10 observables, and the 10
    # efficient directions one at a time: 170 evaluations where one call per
    # observable made 1,610
    real = ldqfi.audits.local_cr_terms
    stacks = []

    def counted(br, obs, model):
        stacks.append(len(obs))
        return real(br, obs, model)

    monkeypatch.setattr(ldqfi.audits, "local_cr_terms", counted)
    monkeypatch.setattr(verify, "local_cr_terms", counted)
    checks = verify.cr(7)
    assert len(checks) == 26 and all(c.passed for c in checks)
    assert len(stacks) <= 170
    assert sorted(stacks) == [1] * 10 + [10] * 160


def test_cr_peak_memory_is_one_chunk():
    # one stack of 100 observables peaked at about 9 MB; a chunk of 10 keeps
    # the suite near 1 MB
    verify.cr(7)
    tracemalloc.start()
    try:
        verify.cr(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
