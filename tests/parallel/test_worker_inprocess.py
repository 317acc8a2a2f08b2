"""Worker entry points driven in-process.

The pool initializer, the shard entry point and the batch-boundary
telemetry normally run only inside spawned worker processes, where
neither a debugger nor a settrace coverage collector follows them.
Calling them here pins their contract directly: one context per
process, ``(outcomes, trace events, meta)`` per shard, build cost
reported once, and a heartbeat file plus ``heartbeat`` /
``resource_sample`` instants at every batch boundary.  The GDC
circuit cache is exercised through the in-process backend and
byte-compared against a plain serial run.
"""

import dataclasses
import os

import pytest

from repro.bench.generators import planted_network
from repro.core.config import BASIC, EXTENDED_GDC
from repro.core.substitution import substitute_network
from repro.network.blif import to_blif_str
from repro.obs.health import read_heartbeats
from repro.parallel import worker
from repro.parallel.engine import enumerate_candidate_pairs, shard_pairs
from repro.parallel.worker import make_payload
from repro.sim.signature import SignatureSimulator


def _network(name="inproc", seed=99):
    return planted_network(
        name, seed=seed, n_pis=7, n_divisors=3, n_targets=4
    )


@pytest.fixture
def pool_worker(monkeypatch, tmp_path):
    """Initialize this process as a traced, heartbeating pool worker;
    the module-level context is restored afterwards."""
    monkeypatch.setattr(worker, "_CONTEXT", None)
    network = _network()
    sim = SignatureSimulator(
        network, patterns=BASIC.sim_patterns, seed=BASIC.sim_seed
    )
    payload = make_payload(
        network,
        BASIC,
        sim.snapshot(),
        trace=True,
        heartbeat_dir=str(tmp_path),
    )
    worker._pool_init(payload)
    batches = shard_pairs(enumerate_candidate_pairs(network, BASIC), 4)
    assert len(batches) >= 2
    return worker._CONTEXT, batches, tmp_path


def test_pool_init_builds_one_filtered_context(pool_worker):
    context, _, heartbeat_dir = pool_worker
    assert context is worker._CONTEXT
    assert context.filter is not None
    assert context.tracer.enabled
    assert context.heartbeat_dir == str(heartbeat_dir)
    assert context.generation == 0


def test_pool_evaluate_returns_outcomes_events_and_meta(pool_worker):
    context, batches, _ = pool_worker
    outcomes, events, meta = worker._pool_evaluate(0, batches[0])
    assert outcomes
    assert {(o.f_name, o.d_name) for o in outcomes} <= set(batches[0])
    kinds = {event["kind"] for event in events}
    assert {"worker_batch", "pair", "heartbeat", "resource_sample"} <= kinds
    assert all(
        event["proc"] == f"worker-{os.getpid()}" for event in events
    )
    assert meta["build_seconds"] == context.build_seconds
    assert meta["eval_seconds"] >= 0.0
    assert meta["generation"] == 0.0
    assert meta["heartbeat"] == 1.0
    assert meta["pid"] == float(os.getpid())
    assert meta["pairs_done"] == float(len(batches[0]))
    # The tracer was drained into the shard result.
    assert context.tracer.drain() == []


def test_build_cost_is_reported_once(pool_worker):
    _, batches, _ = pool_worker
    _, _, first = worker._pool_evaluate(0, batches[0])
    _, _, second = worker._pool_evaluate(1, batches[1])
    assert first["build_seconds"] > 0.0
    assert second["build_seconds"] == 0.0
    assert second["pairs_done"] == float(len(batches[0]) + len(batches[1]))


def test_batch_boundary_writes_heartbeat_file(pool_worker):
    context, batches, heartbeat_dir = pool_worker
    worker._pool_evaluate(3, batches[0])
    beats = read_heartbeats(str(heartbeat_dir))
    assert len(beats) == 1
    beat = beats[0]
    assert beat["pid"] == os.getpid()
    assert beat["batch"] == 3
    assert beat["pairs_done"] == len(batches[0])
    assert beat["generation"] == context.generation
    # A later batch overwrites the same per-pid file.
    worker._pool_evaluate(4, batches[1])
    (beat,) = read_heartbeats(str(heartbeat_dir))
    assert beat["batch"] == 4


def test_mark_liveness_without_channels_is_silent(monkeypatch):
    monkeypatch.setattr(worker, "_CONTEXT", None)
    network = _network()
    worker._pool_init(make_payload(network, BASIC, None))
    context = worker._CONTEXT
    assert context.filter is None
    assert not context.tracer.enabled
    context._mark_liveness(0)
    assert context.tracer.drain() == []


def test_inprocess_gdc_matches_serial():
    """Global don't cares route every speculative pair through the
    worker's per-dividend analysis-circuit cache."""
    config = dataclasses.replace(EXTENDED_GDC, parallel_backend="serial")
    serial_net = _network("inproc_gdc", seed=1017)
    parallel_net = _network("inproc_gdc", seed=1017)
    serial_stats = substitute_network(serial_net, EXTENDED_GDC)
    stats = substitute_network(parallel_net, config, n_jobs=2)
    assert to_blif_str(parallel_net) == to_blif_str(serial_net)
    assert stats.accepted == serial_stats.accepted
    assert stats.parallel_pairs_evaluated > 0
