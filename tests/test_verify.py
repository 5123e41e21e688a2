"""Verification suites as check records."""

from __future__ import annotations

import dataclasses
import subprocess
import sys

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
