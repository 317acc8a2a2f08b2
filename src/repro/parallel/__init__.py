"""Process-parallel speculative evaluation for Boolean substitution.

* :mod:`repro.parallel.engine` — the persistent-pool driver, pipelined
  shard dispatch, and the deterministic commit protocol
  (:class:`SpeculativeStore`),
* :mod:`repro.parallel.delta` — incremental network deltas shipped to
  resident workers instead of fresh snapshots,
* :mod:`repro.parallel.executor` — the process-pool and in-process
  backends behind one persistent submit/reap interface,
* :mod:`repro.parallel.worker` — the pickle-safe worker entry points.

Enabled with ``DivisionConfig.n_jobs > 1`` (CLI: ``--jobs``); output is
byte-identical to the serial path by construction.
"""

from repro.parallel.delta import (
    DeltaRecord,
    NodeUpdate,
    apply_pending,
    apply_record,
    capture_states,
    cumulative_record,
    diff_network,
)
from repro.parallel.engine import (
    ShardDispatcher,
    SpeculativeEngine,
    SpeculativeStore,
    enumerate_candidate_pairs,
    shard_pairs,
)
from repro.parallel.executor import (
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    resolve_backend,
)
from repro.parallel.worker import PairOutcome, WorkerContext, make_payload

__all__ = [
    "DeltaRecord",
    "NodeUpdate",
    "apply_pending",
    "apply_record",
    "capture_states",
    "cumulative_record",
    "diff_network",
    "ShardDispatcher",
    "SpeculativeEngine",
    "SpeculativeStore",
    "enumerate_candidate_pairs",
    "shard_pairs",
    "ProcessExecutor",
    "SerialExecutor",
    "make_executor",
    "resolve_backend",
    "PairOutcome",
    "WorkerContext",
    "make_payload",
]
