"""Unit tests of the stdlib coverage collector (``scripts/check_coverage.py``).

These run in tier 1: they measure a throwaway module under ``tmp_path``,
not the suite, so they are fast.
"""

from __future__ import annotations

import importlib.util
import pathlib
import runpy

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_coverage.py"

MODULE = """\
def pick(flag):
    if flag:
        return 1
    return 2
"""


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_coverage", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def root(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE)
    return package


def test_reports_lines_of_the_code_that_ran(gate, root):
    def run():
        runpy.run_path(str(root / "mod.py"))["pick"](True)

    rollup = gate.measure_run(run, root)
    (row,) = rollup.values()
    (entry,) = row["files"].values()
    assert entry["executable"] == len(gate.executable_lines(root / "mod.py"))
    assert entry["executed"] == 3  # the def, the test, the first return
    assert 4 in entry["missing"]


def test_refuses_to_report_after_a_mid_run_edit(gate, root):
    module = root / "mod.py"

    def run():
        runpy.run_path(str(module))["pick"](True)
        # A one-line edit shifts every later line of the file.
        module.write_text('"""Edited while measured."""\n' + MODULE)

    with pytest.raises(gate.StaleSourceError, match="mod.py"):
        gate.measure_run(run, root)


def test_refuses_to_report_after_a_mid_run_delete(gate, root):
    with pytest.raises(gate.StaleSourceError):
        gate.measure_run((root / "mod.py").unlink, root)


def test_hands_tracing_back_to_an_outer_collector(gate, root):
    # The gate measures this very test file: a nested measurement must
    # not switch the outer collector off for the rest of the suite.
    module = str(root / "mod.py")
    with gate.LineCollector(root) as outer:
        gate.measure_run(lambda: None, root)
        runpy.run_path(module)["pick"](False)
    assert 4 in outer.hits[module]
