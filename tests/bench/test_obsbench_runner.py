"""The obs-overhead benchmark runner, without its timing assertions.

``test_obs_overhead.py`` gates the overhead bound and skips itself
under a settrace collector, where timings mean nothing.  These tests
check what the runner does instead — the A/B order, the report and
history it writes, output parity between the arms — so they run
everywhere, the coverage gate included.  The microbenchmarks run with
a few iterations: the runner only needs a figure from them.
"""

import json

import pytest

from repro.bench import obsbench

CIRCUIT = "rnd3"


@pytest.fixture
def few_iterations(monkeypatch):
    for name in ("null_span_cost", "bus_event_cost", "streaming_event_cost"):
        original = getattr(obsbench, name)
        monkeypatch.setattr(
            obsbench, name, lambda original=original: original(iterations=50)
        )


def test_measure_circuit_alternates_arms_and_keeps_minima(few_iterations):
    row, stats = obsbench.measure_circuit(CIRCUIT, repeats=2)
    assert row["circuit"] == CIRCUIT
    assert row["repeats"] == 2
    assert row["output_identical"] is True
    assert len(row["disabled_wall_samples"]) == 2
    assert len(row["enabled_wall_samples"]) == 2
    assert row["disabled_wall_seconds"] == min(row["disabled_wall_samples"])
    assert row["enabled_wall_seconds"] == min(row["enabled_wall_samples"])
    assert row["spans"] > 0
    for key in ("null_span_cost_ns", "bus_event_cost_ns", "streaming_event_cost_ns"):
        assert row[key] > 0
    expected = row["spans"] * row["null_span_cost_ns"] * 1e-9
    assert row["overhead_bound"] == pytest.approx(
        expected / row["disabled_wall_seconds"]
    )
    assert stats.attempts > 0


def test_measure_circuit_rejects_zero_repeats():
    with pytest.raises(ValueError):
        obsbench.measure_circuit(CIRCUIT, repeats=0)


def test_report_and_history_are_written(few_iterations, tmp_path):
    result_path = tmp_path / "nested" / "BENCH_obs_overhead.json"
    history_path = tmp_path / "history.jsonl"
    report = obsbench.run_obs_overhead_benchmark(
        circuits=(CIRCUIT,),
        result_path=result_path,
        repeats=1,
        history_path=history_path,
    )
    assert json.loads(result_path.read_text()) == report
    assert report["benchmark"] == "obs_overhead"
    assert report["bound"] == obsbench.OVERHEAD_BOUND
    assert report["live_bound"] == obsbench.LIVE_OVERHEAD_BOUND
    assert report["all_outputs_identical"] is True
    (row,) = report["circuits"]
    assert report["max_overhead_bound"] == row["overhead_bound"]
    assert report["max_live_overhead_bound"] == row["live_overhead_bound"]

    (line,) = history_path.read_text().splitlines()
    record = json.loads(line)
    assert record["bench"] == "obsbench"
    assert record["circuit"] == CIRCUIT
    assert record["extra"]["spans"] == row["spans"]


def test_history_append_can_be_skipped(few_iterations, tmp_path):
    obsbench.run_obs_overhead_benchmark(
        circuits=(CIRCUIT,),
        result_path=tmp_path / "report.json",
        repeats=1,
        history_path=None,
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
