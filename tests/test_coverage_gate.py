"""Opt-in coverage-floor gate (``coverage_gate`` marker).

These tests re-run parts of the suite under the stdlib settrace
collector (``scripts/check_coverage.py``), which is roughly an order
of magnitude slower than a plain run, so they are **skipped unless**
``RUN_COVERAGE_GATE=1`` is set::

    RUN_COVERAGE_GATE=1 python -m pytest -m coverage_gate -q

The floors themselves (including the 90% obs floor) live in
``scripts/check_coverage.py``; raise them as coverage improves.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

pytestmark = [
    pytest.mark.coverage_gate,
    pytest.mark.skipif(
        not os.environ.get("RUN_COVERAGE_GATE"),
        reason="opt-in: set RUN_COVERAGE_GATE=1",
    ),
]

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_coverage.py"


def _run_gate(*args: str) -> subprocess.CompletedProcess:
    # The gate re-runs the suite; without the opt-in variable the inner
    # run skips these tests instead of starting the gate again.
    env = {k: v for k, v in os.environ.items() if k != "RUN_COVERAGE_GATE"}
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        timeout=3600,
    )


def test_obs_package_meets_90_percent_floor():
    proc = _run_gate("--tests", "tests/obs", "--only", "obs")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "coverage gate passed" in proc.stdout


def test_full_suite_meets_all_ratcheted_floors():
    proc = _run_gate()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "coverage gate passed" in proc.stdout
