"""Worker side of the speculative division engine.

A worker owns a private copy of the network, unpickled **once per
process lifetime** from the base snapshot payload (pool initializer,
or a plain in-process copy for the ``serial`` backend), plus an
optional :class:`DivisorFilter` whose signatures are restored from the
inline :meth:`~repro.sim.signature.SignatureSimulator.snapshot` dict
that rides in the same payload.

Across substitution passes the worker stays resident: instead of fresh
snapshot pickles it receives :class:`~repro.parallel.delta.DeltaRecord`
lists with each batch, applies the ones newer than its current
mutation generation, and refreshes its signatures incrementally
(:meth:`SignatureSimulator.refresh` — the generation-keyed caches in
the filter invalidate themselves).  The per-dividend GDC circuit cache
survives batches within a generation and is dropped when a delta
lands (global don't cares see the whole network, so any rewrite
invalidates every cached analysis circuit).

Every entry point here is module-level and operates on picklable data
only: that is the worker-serialization contract
(``tests/parallel/test_pickle_roundtrip.py`` guards the types it
rests on).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import DivisionConfig
from repro.core.division import (
    DivisionResult,
    build_analysis_circuit,
    enabled_attempts,
    evaluate_division,
)
from repro.network.network import Network
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.delta import DeltaRecord, apply_pending
from repro.resilience import inject
from repro.sim.filter import DivisorFilter
from repro.sim.signature import SignatureSimulator


@dataclasses.dataclass
class PairOutcome:
    """Speculative evaluation of one (dividend, divisor) pair.

    ``pruned`` means the worker's signature filter refuted every
    variant (the pair would be skipped outright); otherwise
    ``divide_calls``/``variants_pruned`` replay the serial loop's
    bookkeeping and ``result`` is what :func:`divide_node_pair` returned
    against the snapshot (``None`` = no profitable division).
    """

    f_name: str
    d_name: str
    pruned: bool
    divide_calls: int
    variants_pruned: int
    result: Optional[DivisionResult]


class WorkerContext:
    """Per-process evaluation state: network, config, filter, deltas.

    *injection* is an optional test-only
    :class:`~repro.resilience.inject.InjectionPlan` whose hooks fire on
    exact batch indices (see :mod:`repro.resilience.inject`); it is
    ``None`` in every production path.
    """

    def __init__(self, payload: bytes, injection=None):
        build_start = time.perf_counter()
        network, config, sim_snapshot, trace, heartbeat_dir = pickle.loads(
            payload
        )
        self.network: Network = network
        self.config: DivisionConfig = config
        self.injection = injection
        #: Liveness channel: when set, a per-pid heartbeat file in this
        #: directory is overwritten at every batch boundary (see
        #: :mod:`repro.obs.health`).
        self.heartbeat_dir: Optional[str] = heartbeat_dir
        self.batches_evaluated = 0
        self.pairs_done = 0
        self.filter: Optional[DivisorFilter] = None
        if sim_snapshot is not None:
            sim = SignatureSimulator.from_snapshot(network, sim_snapshot)
            self.filter = DivisorFilter(network, config, sim=sim)
        self._n_enabled = len(enabled_attempts(config))
        #: Mutation generation of the held network copy; batches carry
        #: the delta log and :meth:`apply_deltas` replays anything
        #: newer (0 = the base snapshot).
        self.generation = 0
        #: Deltas applied over the context's lifetime (observability).
        self.deltas_applied = 0
        #: Worker-local tracer: spans recorded here are drained after
        #: each batch and shipped back with the shard result, so the
        #: main process can merge one trace for the whole run.  The
        #: label stays unique even for the in-process serial backend
        #: (same pid, different label).
        self.tracer = (
            Tracer(proc=f"worker-{os.getpid()}") if trace else NULL_TRACER
        )
        # GDC analysis circuits are divisor-independent, so they are
        # cached per dividend for as long as the network generation
        # holds (dropped on every applied delta).
        self._circuits: Dict[str, object] = {}
        self.build_seconds = time.perf_counter() - build_start
        self._build_reported = False

    # ------------------------------------------------------------------
    # Delta replay
    # ------------------------------------------------------------------
    def apply_deltas(self, deltas: Sequence[DeltaRecord]) -> int:
        """Apply every record newer than the held generation, in order.

        Returns the number of records applied.  Idempotent: the full
        delta log travels with every batch, so a worker that already
        saw a pass's record skips it, while a freshly respawned worker
        replays the whole log from the base snapshot.
        """
        if not deltas:
            return 0
        before = self.generation
        with self.tracer.span(
            "delta_apply", from_generation=before
        ) as span:
            self.generation, roots = apply_pending(
                self.network, deltas, before
            )
            applied = sum(
                1 for record in deltas if record.generation > before
            )
            if applied:
                self._circuits.clear()
                if self.filter is not None:
                    self.filter.note_mutation(roots)
                self.deltas_applied += applied
            span.annotate(
                applied=applied,
                to_generation=self.generation,
                roots=len(roots),
            )
        return applied

    def evaluate(
        self,
        pairs: Sequence[Tuple[str, str]],
        batch_index: int = 0,
        deltas: Sequence[DeltaRecord] = (),
    ) -> List[PairOutcome]:
        inject.fire_batch_hooks(self.injection, batch_index)
        self.apply_deltas(deltas)
        network, config, tracer = self.network, self.config, self.tracer
        out: List[PairOutcome] = []
        #: Greedy short-circuit: once a dividend yields a profitable
        #: division, the commit loop will almost surely accept it and
        #: rewrite the dividend, invalidating every later outcome for
        #: the same dividend — so evaluating them here is wasted work
        #: (they would be re-evaluated live anyway).  The skip is
        #: per-shard state, keeping each shard's outcomes a pure
        #: function of (pairs, generation) — worker identity and
        #: history never leak into the results.
        skip_dividend: Optional[str] = None
        with tracer.span(
            "worker_batch",
            batch=batch_index,
            pairs=len(pairs),
            generation=self.generation,
        ):
            for f_name, d_name in pairs:
                if f_name == skip_dividend:
                    continue
                with tracer.span(
                    "pair", f=f_name, d=d_name, speculative=True
                ) as pair_span:
                    attempts = None
                    if self.filter is not None:
                        attempts = self.filter.viable_attempts(
                            f_name, d_name
                        )
                        if not attempts:
                            out.append(
                                PairOutcome(f_name, d_name, True, 0, 0, None)
                            )
                            pair_span.annotate(pruned=True)
                            continue
                    divide_calls = (
                        self._n_enabled if attempts is None else len(attempts)
                    )
                    variants_pruned = (
                        0
                        if attempts is None
                        else self._n_enabled - len(attempts)
                    )
                    circuit = None
                    if config.global_dc:
                        circuit = self._circuits.get(f_name)
                        if circuit is None:
                            circuit = build_analysis_circuit(
                                network, f_name, [], config
                            )
                            self._circuits[f_name] = circuit
                    result = evaluate_division(
                        network,
                        f_name,
                        d_name,
                        config,
                        attempts=attempts,
                        circuit=circuit,
                        tracer=tracer,
                    )
                    out.append(
                        PairOutcome(
                            f_name,
                            d_name,
                            False,
                            divide_calls,
                            variants_pruned,
                            result,
                        )
                    )
                    if result is not None:
                        skip_dividend = f_name
        inject.corrupt_outcomes(self.injection, batch_index, out)
        self.batches_evaluated += 1
        self.pairs_done += len(pairs)
        self._mark_liveness(batch_index)
        return out

    def _mark_liveness(self, batch_index: int) -> None:
        """Batch-boundary telemetry: heartbeat + resource sample.

        Both are pure observability — no control-flow influence — and
        both are batch-synchronous (no worker threads), so outcomes
        remain a pure function of (pairs, generation).
        """
        if self.heartbeat_dir is not None:
            # Imported lazily: obs.health is only needed on the
            # liveness path, never in the default pickle contract.
            from repro.obs.health import write_heartbeat

            write_heartbeat(
                self.heartbeat_dir,
                os.getpid(),
                batch=batch_index,
                pairs_done=self.pairs_done,
                generation=self.generation,
            )
        if self.tracer.enabled:
            from repro.obs.resource import sample_attrs

            self.tracer.instant(
                "heartbeat",
                batch=batch_index,
                pairs_done=self.pairs_done,
                generation=self.generation,
                pid=os.getpid(),
            )
            self.tracer.instant("resource_sample", **sample_attrs())

    def shard_meta(self, eval_seconds: float) -> Dict[str, float]:
        """Per-shard bookkeeping shipped back with the outcomes.

        ``build_seconds`` is reported once per context so the engine's
        phase accounting sums worker build cost without double counts.
        """
        build = 0.0 if self._build_reported else self.build_seconds
        self._build_reported = True
        return {
            "build_seconds": build,
            "eval_seconds": eval_seconds,
            "generation": float(self.generation),
            # Heartbeat mark piggybacked on the result channel: pid +
            # wall timestamp + cumulative progress.  The executor
            # counts these into ``health.heartbeats_recorded``.
            "heartbeat": 1.0,
            "pid": float(os.getpid()),
            "heartbeat_ts": time.time(),
            "pairs_done": float(self.pairs_done),
        }


def make_payload(
    network: Network,
    config: DivisionConfig,
    sim_snapshot,
    trace: bool = False,
    heartbeat_dir: Optional[str] = None,
) -> bytes:
    """Pickle the base snapshot shipped to every worker exactly once.

    *sim_snapshot* is ``None`` or a
    :meth:`~repro.sim.signature.SignatureSimulator.snapshot` dict.
    *trace* arms the workers' local tracers; their spans come back
    with each shard result (see :func:`_pool_evaluate`).
    *heartbeat_dir* arms the per-batch heartbeat files.
    """
    return pickle.dumps(
        (network, config, sim_snapshot, trace, heartbeat_dir),
        pickle.HIGHEST_PROTOCOL,
    )


# ----------------------------------------------------------------------
# Process-pool plumbing (module-level so it pickles by reference)
# ----------------------------------------------------------------------
_CONTEXT: Optional[WorkerContext] = None


def _pool_init(payload: bytes, injection=None) -> None:
    global _CONTEXT
    _CONTEXT = WorkerContext(payload, injection=injection)


def _pool_evaluate(
    batch_index: int,
    pairs: Sequence[Tuple[str, str]],
    deltas: Sequence[DeltaRecord] = (),
) -> Tuple[List[PairOutcome], List[dict], Dict[str, float]]:
    """Evaluate one shard; returns (outcomes, trace events, meta)."""
    assert _CONTEXT is not None, "worker used before initialization"
    start = time.perf_counter()
    outcomes = _CONTEXT.evaluate(pairs, batch_index=batch_index, deltas=deltas)
    meta = _CONTEXT.shard_meta(time.perf_counter() - start)
    return outcomes, _CONTEXT.tracer.drain(), meta
