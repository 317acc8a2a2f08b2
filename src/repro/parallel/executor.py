"""Executor backends for the speculative division engine.

Both backends are **persistent**: built once per ``substitute_network``
run, they hold their worker state (network copy, ``DivisorFilter``,
GDC circuit cache) across every pass.  Both consume the same pickled
base-snapshot payload, accept shards of (dividend, divisor) pairs with
a delta log (:mod:`repro.parallel.delta`), and return
:class:`~repro.parallel.worker.PairOutcome` lists — the engine above
them never knows which one it is talking to:

* :class:`ProcessExecutor` — a :class:`concurrent.futures.
  ProcessPoolExecutor` spawned once; the payload is unpickled once per
  worker process (pool initializer), shards travel as small name lists
  plus delta records, and results are reaped lazily so several shards
  stay in flight while the main process commits
  (:meth:`submit` / :meth:`result`).
* :class:`SerialExecutor` — the identical evaluation in-process against
  a private unpickled copy.  Used for ``parallel_backend="serial"``
  (debugging, commit-protocol tests) and as the automatic fallback
  when a process pool cannot be spawned.

Fault containment (the process backend's retry ladder):

1. every reaped future sits under ``try``; a lost worker, a broken
   pool, a pickling error or a worker-raised exception marks just that
   *shard* as failed and counts a ``worker_fault``;
2. failed shards are re-dispatched onto a **fresh** pool up to
   :data:`MAX_SHARD_RETRIES` times (``shards_redispatched``).  A crashed
   ``ProcessPoolExecutor`` poisons every outstanding future, so on
   failure the executor first drains everything in flight, then
   rebuilds the pool once for the whole failure wave; respawned
   workers start from the base snapshot and *replay the shard's full
   delta log* (records ride with every submission), which restores the
   exact generation the shard was aimed at;
3. shards that keep failing are evaluated in-process on a persistent
   :class:`~repro.parallel.worker.WorkerContext`
   (``degraded_to_serial``), which cannot lose a process and applies
   the same delta log.

Because speculative outcomes are *hints* — the commit protocol
validates each one against the live network — any recovery path yields
the same optimized network as a serial run; only the stats differ.

Both executors are context managers; ``__exit__`` shuts the backend
down (cancelling still-queued futures when an exception is unwinding)
so an error inside the engine can never leak a live process pool.
``close()`` is idempotent and ordered: it drops the in-flight table
*before* shutting the pool down and never re-enters a pool that a
``cancel_futures`` teardown already destroyed — the rung-3 fallback
path only ever touches the pool through ``_rebuild_pool``'s
``None``-guard, so a double-close cannot happen.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel.delta import DeltaRecord
from repro.parallel.worker import (
    PairOutcome,
    WorkerContext,
    _pool_evaluate,
    _pool_init,
)

Pair = Tuple[str, str]

#: Redispatches onto a fresh process pool a failed shard gets before
#: it degrades to in-process evaluation (rung 3 of the ladder).
MAX_SHARD_RETRIES = 2


@dataclasses.dataclass
class _Task:
    """One submitted shard: everything needed to re-dispatch it."""

    index: int
    pairs: List[Pair]
    deltas: Tuple[DeltaRecord, ...]
    retries: int = 0

    @property
    def generation(self) -> int:
        """The mutation generation the shard was aimed at (the last
        record of the log it shipped with; 0 = base snapshot)."""
        return self.deltas[-1].generation if self.deltas else 0


class SerialExecutor:
    """In-process executor over a private, persistent snapshot copy."""

    workers = 1
    worker_faults = 0
    shards_redispatched = 0
    degraded_to_serial = 0
    #: An in-process worker cannot stall behind a pipe.
    stalls = 0
    #: Evaluation happens inline during :meth:`submit`; the dispatcher
    #: uses a window of 1 (pipelining has nothing to overlap).
    concurrent = False

    def __init__(self, payload: bytes, injection=None):
        self._context = WorkerContext(payload, injection=injection)
        self._results: Dict[int, List[PairOutcome]] = {}
        #: Worker-recorded trace events (empty when tracing is off);
        #: the engine absorbs these into the main trace.
        self.trace_events: List[dict] = []
        self.worker_build_seconds = self._context.build_seconds
        self.evaluate_seconds = 0.0
        #: One liveness mark per evaluated shard, mirroring the
        #: process backend's piggybacked heartbeats, so ``health.*``
        #: reads consistently across backends.
        self.heartbeats = 0

    # -- persistent submit/reap API ------------------------------------
    def submit(
        self,
        index: int,
        pairs: Sequence[Pair],
        deltas: Sequence[DeltaRecord] = (),
    ) -> None:
        if self._context is None:
            raise RuntimeError("executor is closed")
        start = time.perf_counter()
        self._results[index] = self._context.evaluate(
            list(pairs), batch_index=index, deltas=tuple(deltas)
        )
        self.evaluate_seconds += time.perf_counter() - start
        self.heartbeats += 1
        self.trace_events.extend(self._context.tracer.drain())

    def result(self, index: int) -> List[PairOutcome]:
        return self._results.pop(index)

    def close(self, cancel: bool = False) -> None:
        self._context = None
        self._results.clear()

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(cancel=exc_type is not None)


class ProcessExecutor:
    """Persistent process-pool executor; one snapshot unpickle per
    worker process for the whole run.

    Failed shards climb the retry ladder described in the module doc.
    *injection* (tests only) is forwarded to the workers through the
    pool initializer; a transient plan (``persistent=False``) is
    disarmed when the pool is rebuilt, so a redispatch models recovery
    from a one-off fault.
    """

    #: Shards really run beside the main process: the dispatcher keeps
    #: a multi-shard window in flight to overlap the commit loop.
    concurrent = True

    def __init__(
        self,
        payload: bytes,
        n_jobs: int,
        injection=None,
        stall_timeout: Optional[float] = None,
    ):
        self.workers = n_jobs
        self.worker_faults = 0
        self.shards_redispatched = 0
        self.degraded_to_serial = 0
        #: Heartbeat marks piggybacked on reaped shard metas, and
        #: shards the watchdog flagged as silent past *stall_timeout*.
        self.heartbeats = 0
        self.stalls = 0
        self.trace_events: List[dict] = []
        self.worker_build_seconds = 0.0
        self.evaluate_seconds = 0.0
        self._payload = payload
        self._injection = injection
        self._watchdog = None
        if stall_timeout is not None:
            # Imported here (not at module top) to keep the worker
            # pickle graph identical with the watchdog disabled.
            from repro.obs.health import StallWatchdog

            self._watchdog = StallWatchdog(stall_timeout)
        #: Set when a stall made the live pool suspect: its teardown
        #: must not wait on a wedged worker (see ``_shutdown_pool``).
        self._pool_suspect = False
        self._tasks: Dict[int, _Task] = {}
        self._inflight: Dict[int, object] = {}
        self._failed: List[int] = []
        self._results: Dict[int, List[PairOutcome]] = {}
        self._fallback: Optional[WorkerContext] = None
        self._pool = self._spawn_pool()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _spawn_pool(self):
        # Imported lazily so the serial backend works even where
        # multiprocessing is unavailable (restricted sandboxes).
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_pool_init,
            initargs=(self._payload, self._injection),
        )

    def _shutdown_pool(self, pool, cancel: bool) -> None:
        """Tear one pool down; never block behind a worker.

        Every shard the engine needs has been reaped by the time a pool
        is closed, so joining the exiting workers would only add their
        exit latency (a few ms per run, a large share of a small run)
        to the caller's wall time: the pool's own management thread
        joins them in the background instead.  A pool flagged suspect
        by the stall watchdog may hold a worker that will not finish
        its task for an arbitrarily long time, so its worker processes
        are terminated directly.
        """
        if not self._pool_suspect:
            pool.shutdown(wait=False, cancel_futures=cancel)
            return
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        self._pool_suspect = False

    def _rebuild_pool(self) -> None:
        if self._pool is not None:
            self._shutdown_pool(self._pool, cancel=True)
            self._pool = None
        if self._injection is not None and not self._injection.persistent:
            self._injection = None
        self._pool = self._spawn_pool()

    def close(self, cancel: bool = False) -> None:
        # Ordering matters: forget the in-flight futures first, then
        # shut the pool down exactly once.  ``_pool`` goes ``None``
        # before anything that could re-enter (the fallback rung only
        # rebuilds through the same guard), so a close after a
        # ``cancel_futures`` teardown is a no-op, not a double-close.
        self._inflight.clear()
        self._failed.clear()
        self._fallback = None
        pool, self._pool = self._pool, None
        if pool is not None:
            self._shutdown_pool(pool, cancel=cancel)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(cancel=exc_type is not None)

    # ------------------------------------------------------------------
    # Persistent submit/reap with the retry ladder
    # ------------------------------------------------------------------
    def submit(
        self,
        index: int,
        pairs: Sequence[Pair],
        deltas: Sequence[DeltaRecord] = (),
    ) -> None:
        """Queue one shard onto the pool (non-blocking)."""
        if self._pool is None:
            raise RuntimeError("executor is closed")
        task = _Task(index, list(pairs), tuple(deltas))
        self._tasks[index] = task
        self._submit_task(task)

    def _submit_task(self, task: _Task) -> None:
        try:
            self._inflight[task.index] = self._pool.submit(
                _pool_evaluate, task.index, task.pairs, task.deltas
            )
        except Exception:
            # Pool already broken: defer to the next failure wave.
            self._failed.append(task.index)
            return
        if self._watchdog is not None:
            self._watchdog.note_dispatch(task.index)

    def result(self, index: int) -> List[PairOutcome]:
        """Block until shard *index* is done; climb the ladder if it
        (or the pool under it) failed."""
        while index not in self._results:
            self._step(index)
        return self._results.pop(index)

    def _reap(self, index: int, future) -> bool:
        """Wait for one future and record it; returns success.

        With the watchdog armed the wait is bounded: a shard silent
        past the threshold is flagged as a ``stall`` (counted, traced)
        and joins the failure wave like any other worker fault — the
        same ladder (redispatch on a fresh pool → in-process fallback)
        contains wedged workers exactly as it contains dead ones.
        """
        watchdog = self._watchdog
        timeout = None if watchdog is None else watchdog.threshold_seconds
        try:
            value = future.result(timeout=timeout)
        except TimeoutError:
            if watchdog is None:
                # No watchdog armed: a worker-raised TimeoutError is
                # just a worker fault like any other exception.
                self._failed.append(index)
                return False
            self.stalls += 1
            self._pool_suspect = True
            self.trace_events.append(
                watchdog.flag_stall(
                    index, retries=self._tasks[index].retries
                )
            )
            future.cancel()
            self._failed.append(index)
            return False
        except Exception:
            if watchdog is not None:
                watchdog.note_result(index)
            self._failed.append(index)
            return False
        if watchdog is not None:
            watchdog.note_result(index)
        self._record(index, value)
        return True

    def _step(self, index: int) -> None:
        future = self._inflight.pop(index, None)
        if future is not None:
            if self._reap(index, future):
                return
        elif index not in self._failed:
            raise KeyError(f"shard {index} was never submitted")
        self._run_failure_wave()

    def _record(self, index: int, value) -> None:
        outcomes, events, meta = value
        task = self._tasks.get(index)
        if task is not None and meta.get("generation", 0) > task.generation:
            # Deltas are not invertible, so a context that already
            # replayed a *newer* generation (possible only after a
            # failure wave reordered shards) evaluated this shard
            # against later state than the store pinned its validity
            # to.  Discard: the pairs simply evaluate live.
            outcomes = []
        self._results[index] = outcomes
        self.trace_events.extend(events)
        self.worker_build_seconds += meta.get("build_seconds", 0.0)
        self.evaluate_seconds += meta.get("eval_seconds", 0.0)
        self.heartbeats += int(meta.get("heartbeat", 0))

    def _run_failure_wave(self) -> None:
        """Handle every failure discovered so far in one sweep.

        A broken pool poisons all outstanding futures, so first drain
        everything in flight (successes are kept — their futures
        resolved before the crash), then rebuild the pool **once** and
        re-dispatch the whole failed set, falling back in-process for
        shards that exhausted their retries.
        """
        for other, future in list(self._inflight.items()):
            self._reap(other, future)
            del self._inflight[other]
        if not self._failed:
            return
        failed, self._failed = self._failed, []
        self.worker_faults += len(failed)
        retryable: List[int] = []
        exhausted: List[int] = []
        for index in sorted(failed):
            task = self._tasks[index]
            if task.retries < MAX_SHARD_RETRIES:
                retryable.append(index)
            else:
                exhausted.append(index)
        if retryable:
            try:
                self._rebuild_pool()
            except (ImportError, OSError):
                exhausted = sorted(exhausted + retryable)
                retryable = []
        for index in retryable:
            task = self._tasks[index]
            task.retries += 1
            self.shards_redispatched += 1
            self._submit_task(task)
        if exhausted:
            # Rung 3: evaluate the stubborn shards in-process on a
            # persistent fallback context.  The injection plan rides
            # along — its destructive hooks are pid-guarded and cannot
            # fire in the parent.  The full delta log travels with
            # each task, so the fallback replays to the right
            # generation no matter when it was built.
            self.degraded_to_serial += 1
            if self._fallback is None:
                self._fallback = WorkerContext(
                    self._payload, injection=self._injection
                )
                self.worker_build_seconds += self._fallback.build_seconds
            for index in exhausted:
                task = self._tasks[index]
                if self._fallback.generation > task.generation:
                    # Same guard as ``_record``: the persistent
                    # fallback cannot rewind to this shard's older
                    # generation, so its pairs evaluate live instead.
                    self._results[index] = []
                    continue
                start = time.perf_counter()
                self._results[index] = self._fallback.evaluate(
                    task.pairs, batch_index=index, deltas=task.deltas
                )
                self.evaluate_seconds += time.perf_counter() - start
            self.trace_events.extend(self._fallback.tracer.drain())


def resolve_backend(backend: str) -> str:
    """Resolve the ``"auto"`` backend to a concrete one.

    The process pool only pays off when the machine can actually run
    workers beside the main process; on a single-core host it adds
    scheduling overhead and nothing else, so ``"auto"`` selects the
    in-process engine there — same protocol, same output, none of the
    pool cost.
    """
    if backend != "auto":
        return backend
    return "process" if (os.cpu_count() or 1) > 1 else "serial"


def make_executor(
    payload: bytes,
    n_jobs: int,
    backend: str,
    injection=None,
    stall_timeout: Optional[float] = None,
):
    """Build the configured executor over a snapshot *payload*."""
    backend = resolve_backend(backend)
    if backend == "serial" or n_jobs == 1:
        return SerialExecutor(payload, injection=injection)
    if backend == "process":
        try:
            return ProcessExecutor(
                payload,
                n_jobs,
                injection=injection,
                stall_timeout=stall_timeout,
            )
        except (ImportError, OSError):
            # No usable multiprocessing (e.g. sandboxed /dev/shm):
            # degrade to the in-process engine, same results.
            return SerialExecutor(payload, injection=injection)
    raise ValueError(f"unknown parallel backend {backend!r}")
