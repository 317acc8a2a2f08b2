"""Executor lifecycle: context managers, shutdown, no leaked pools."""

import dataclasses
import pathlib
import subprocess
import sys

import pytest

from repro.bench.generators import planted_network
from repro.core.config import BASIC
from repro.core.substitution import substitute_network
from repro.parallel.engine import enumerate_candidate_pairs, shard_pairs
from repro.parallel.executor import (
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.parallel.worker import make_payload
from repro.resilience import inject


def _payload():
    network = planted_network(
        "exec", seed=99, n_pis=7, n_divisors=3, n_targets=4
    )
    return make_payload(network, BASIC, None), network


def _run_shards(executor, batches):
    """Submit every shard, then reap them in submission order (the
    engine's submit/result protocol with the whole pass in flight)."""
    for index, batch in enumerate(batches):
        executor.submit(index, batch)
    outcomes = []
    for index in range(len(batches)):
        outcomes.extend(executor.result(index))
    return outcomes


class TestSerialExecutor:
    def test_context_manager_closes(self):
        payload, _ = _payload()
        with SerialExecutor(payload) as executor:
            assert executor._context is not None
        assert executor._context is None

    def test_close_on_error_path(self):
        payload, _ = _payload()
        with pytest.raises(RuntimeError):
            with SerialExecutor(payload) as executor:
                raise RuntimeError("engine error")
        assert executor._context is None


@pytest.mark.parametrize(
    "make",
    [SerialExecutor, lambda payload: ProcessExecutor(payload, n_jobs=2)],
    ids=["serial", "process"],
)
def test_submit_after_close_raises(make):
    payload, network = _payload()
    executor = make(payload)
    executor.close()
    with pytest.raises(RuntimeError):
        executor.submit(0, enumerate_candidate_pairs(network, BASIC)[:1])


def _no_pool(self):
    raise OSError("no usable multiprocessing")


class TestProcessExecutor:
    def test_context_manager_shuts_pool_down(self):
        payload, network = _payload()
        pairs = enumerate_candidate_pairs(network, BASIC)
        with ProcessExecutor(payload, n_jobs=2) as executor:
            outcomes = _run_shards(executor, shard_pairs(pairs, 8))
            # The greedy short-circuit may skip a dividend's tail after
            # a profitable hit, so outcomes are a subset of the pairs —
            # never something that was not submitted.
            assert 0 < len(outcomes) <= len(pairs)
            assert {(o.f_name, o.d_name) for o in outcomes} <= set(pairs)
        assert executor._pool is None

    def test_exception_cannot_leak_a_live_pool(self):
        payload, _ = _payload()
        with pytest.raises(RuntimeError):
            with ProcessExecutor(payload, n_jobs=2) as executor:
                raise RuntimeError("engine error")
        assert executor._pool is None

    def test_close_is_idempotent(self):
        payload, _ = _payload()
        executor = ProcessExecutor(payload, n_jobs=2)
        executor.close()
        executor.close(cancel=True)
        assert executor._pool is None

    def test_result_of_unsubmitted_shard_raises(self):
        payload, _ = _payload()
        with ProcessExecutor(payload, n_jobs=2) as executor:
            with pytest.raises(KeyError):
                executor.result(7)


#: The pool is the subject here: force it (the "auto" backend stays
#: in-process on a single-core machine).
PROC = dataclasses.replace(BASIC, parallel_backend="process")


class TestProcessPoolRuns:
    def test_deadline_zero_stops_cleanly(self):
        network = planted_network(
            "exec_deadline", seed=7321, n_pis=8, n_divisors=3, n_targets=5
        )
        config = dataclasses.replace(PROC, deadline_seconds=0.0)
        stats = substitute_network(network, config, n_jobs=2)
        assert stats.budget_report is not None

    def test_clean_interpreter_reports_no_leaks(self):
        """Run the pool protocol in a fresh interpreter with warnings
        promoted to errors: anything the resource tracker has to clean
        up after the pool prints a 'leaked ...' warning at shutdown."""
        script = (
            "import dataclasses\n"
            "from repro.bench.generators import planted_network\n"
            "from repro.core.config import BASIC\n"
            "from repro.core.substitution import substitute_network\n"
            "network = planted_network('execsub', seed=11, n_pis=8,"
            " n_divisors=3, n_targets=5)\n"
            "config = dataclasses.replace(BASIC,"
            " parallel_backend='process')\n"
            "stats = substitute_network(network, config, n_jobs=2)\n"
            "assert stats.parallel_pairs_evaluated > 0\n"
            "print('OK')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
            cwd=str(pathlib.Path(__file__).resolve().parents[2]),
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "leaked" not in proc.stderr
        assert "resource_tracker" not in proc.stderr


@pytest.mark.fault_injection
class TestRetryLadderUnits:
    def test_results_keep_submission_order_across_retries(self):
        # Batch 1 fails once (transient worker exception); the
        # flattened outcomes must still follow batch order, matching
        # what a fault-free executor returns.
        payload, network = _payload()
        pairs = enumerate_candidate_pairs(network, BASIC)
        batches = shard_pairs(pairs, 4)
        assert len(batches) >= 2
        with ProcessExecutor(
            payload, n_jobs=2, injection=inject.plan(raise_on_batch=1)
        ) as executor:
            outcomes = _run_shards(executor, batches)
        with ProcessExecutor(payload, n_jobs=2) as clean:
            expected = _run_shards(clean, batches)
        assert [
            (o.f_name, o.d_name) for o in outcomes
        ] == [(o.f_name, o.d_name) for o in expected]
        assert executor.worker_faults == 1
        assert executor.shards_redispatched == 1

    def test_transient_plan_disarmed_on_rebuild(self):
        payload, network = _payload()
        pairs = enumerate_candidate_pairs(network, BASIC)
        executor = ProcessExecutor(
            payload, n_jobs=2, injection=inject.plan(kill_on_batch=0)
        )
        try:
            _run_shards(executor, shard_pairs(pairs, 4))
            # The rebuild dropped the transient plan entirely.
            assert executor._injection is None
            assert executor.degraded_to_serial == 0
        finally:
            executor.close()

    def test_unrebuildable_pool_degrades_to_in_process(self, monkeypatch):
        # The failure wave cannot spawn a fresh pool, so the failed
        # shard skips the redispatch rung and is evaluated in-process.
        payload, network = _payload()
        batch = shard_pairs(enumerate_candidate_pairs(network, BASIC), 4)[0]
        with ProcessExecutor(payload, n_jobs=2) as clean:
            expected = _run_shards(clean, [batch])
        executor = ProcessExecutor(
            payload, n_jobs=2, injection=inject.plan(raise_on_batch=0)
        )
        try:
            monkeypatch.setattr(ProcessExecutor, "_spawn_pool", _no_pool)
            outcomes = _run_shards(executor, [batch])
        finally:
            executor.close()
        assert [(o.f_name, o.d_name) for o in outcomes] == [
            (o.f_name, o.d_name) for o in expected
        ]
        assert executor.worker_faults == 1
        assert executor.shards_redispatched == 0
        assert executor.degraded_to_serial == 1


class TestMakeExecutor:
    def test_serial_backend_for_one_job(self):
        payload, _ = _payload()
        with make_executor(payload, 1, "process") as executor:
            assert isinstance(executor, SerialExecutor)

    def test_process_backend_degrades_without_multiprocessing(
        self, monkeypatch
    ):
        monkeypatch.setattr(ProcessExecutor, "_spawn_pool", _no_pool)
        payload, _ = _payload()
        with make_executor(payload, 2, "process") as executor:
            assert isinstance(executor, SerialExecutor)

    def test_unknown_backend_rejected(self):
        payload, _ = _payload()
        with pytest.raises(ValueError):
            make_executor(payload, 2, "threads")
