"""Smoke benchmark for the speculative parallel engine (``bench_smoke``).

Runs in the tier-1 suite too (it is fast), but the marker lets CI pick
just the performance smokes: ``pytest -m bench_smoke``.  Checks output
parity, protocol wire accounting, and the protocol-overhead ceiling.

Two machine-gated performance assertions:

* **1-core protocol-cost ceiling** — with the ``"auto"`` backend the
  engine runs the full speculative protocol in-process (a pool cannot
  help without a second core), and its overhead over a plain serial
  run must stay within 1.15x.  Measured as a geomean across circuits
  with interleaved best-of-N runs: this container's wall-clock noise
  between *identical* consecutive runs exceeds the margin being
  asserted, so single-shot single-circuit timing would be meaningless.
* **multi-core speedup** — with >= 4 cores the pool must actually beat
  serial at ``jobs4`` (>1.0x).
"""

import json
import math
import os

import pytest

from repro.bench.parallelbench import (
    DEFAULT_RESULT_PATH,
    compare_on,
    run_circuit,
    run_parallel_benchmark,
)
from repro.bench.suite import build_benchmark
from repro.core.config import BASIC
from repro.network.blif import to_blif_str


@pytest.mark.bench_smoke
def test_parallel_parity_on_rnd8():
    comparison = compare_on(build_benchmark("rnd8"), BASIC, job_counts=(4,))
    assert comparison["output_identical"]
    row = comparison["parallel"]["jobs4"]
    assert row["accepted"] == comparison["serial"]["accepted"]
    assert row["pairs_evaluated"] > 0
    assert row["jobs"] == 4
    if (os.cpu_count() or 1) >= 4:
        assert row["speedup"] > 1.0


@pytest.mark.bench_smoke
def test_jobs2_protocol_overhead_within_ceiling():
    """jobs2 wall time stays within 1.15x of serial on one core."""
    circuits = ("rnd8", "add10", "pri10")
    reps = 3
    best = {name: {"serial": 9e9, "jobs2": 9e9} for name in circuits}
    for _ in range(reps):
        for name in circuits:
            serial_net = build_benchmark(name)
            serial = run_circuit(serial_net, BASIC, n_jobs=1)
            parallel_net = build_benchmark(name)
            parallel = run_circuit(parallel_net, BASIC, n_jobs=2)
            assert to_blif_str(parallel_net) == to_blif_str(serial_net)
            row = best[name]
            row["serial"] = min(row["serial"], serial["seconds"])
            row["jobs2"] = min(row["jobs2"], parallel["seconds"])
    ratios = {
        name: row["jobs2"] / max(1e-9, row["serial"])
        for name, row in best.items()
    }
    geomean = math.exp(
        sum(math.log(r) for r in ratios.values()) / len(ratios)
    )
    assert geomean <= 1.15, f"protocol overhead {geomean:.3f}x: {ratios}"


@pytest.mark.bench_smoke
def test_per_batch_wire_cost_is_amortized():
    """The persistent pool ships the snapshot once per run; the
    batch-scoped protocol it replaced paid the full snapshot for every
    batch.  The amortized snapshot-ship cost per batch must therefore
    be >= 10x smaller, and a shard's own payload (pair list +
    cumulative delta) must stay below one snapshot."""
    row = run_circuit(build_benchmark("rnd8"), BASIC, n_jobs=2)
    assert row["batches"] > 0
    assert row["snapshot_bytes"] > 0
    assert row["snapshot_bytes_per_batch"] * 10 <= row["snapshot_bytes"], (
        f"snapshot ship amortized to {row['snapshot_bytes_per_batch']:.0f}B"
        f"/batch vs {row['snapshot_bytes']}B re-shipped per batch before"
    )
    per_batch = row["batch_bytes"] / row["batches"]
    assert per_batch < row["snapshot_bytes"], (
        f"per-batch wire cost {per_batch:.0f}B vs snapshot "
        f"{row['snapshot_bytes']}B"
    )
    # Per-phase accounting rides with every parallel row.
    assert "snapshot_ship" in row["phase_seconds"]
    assert "evaluate" in row["phase_seconds"]
    assert "commit_loop" in row["phase_seconds"]


@pytest.mark.bench_smoke
def test_benchmark_report_written(tmp_path):
    out = tmp_path / "BENCH_parallel.json"
    report = run_parallel_benchmark(
        ["rnd1", "rnd3"],
        BASIC,
        (2,),
        out,
        history_path=tmp_path / "history.jsonl",
    )
    assert out.exists()
    on_disk = json.loads(out.read_text())
    assert on_disk["all_output_identical"] is True
    assert on_disk["circuits"][0]["circuit"] == "rnd1"
    assert on_disk["machine"]["cpu_count"] >= 1
    assert report["job_counts"] == [2]


@pytest.mark.bench_smoke
def test_default_result_path_is_in_benchmarks_results():
    assert DEFAULT_RESULT_PATH.name == "BENCH_parallel.json"
    assert DEFAULT_RESULT_PATH.parent.name == "results"
    assert DEFAULT_RESULT_PATH.parent.parent.name == "benchmarks"
