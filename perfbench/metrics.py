"""Metric definitions: names, units, and what each should move.

End-to-end metrics come from the untraced passes; per-layer metrics
from the traced passes of the same run (``--trace 1``).  Each per-layer
metric names the end-to-end metric(s) it should move and the workload
where it does its work, so a later change can say beforehand which
numbers it expects to move.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, NamedTuple, Sequence, Tuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float


END_TO_END = [
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("job_p50_s", "s", "lower", 0.25),
    EndToEnd("job_tail_s", "s", "lower", 0.25),
    EndToEnd("cpu_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
    EndToEnd("literals_out", "count", "lower", 0.05),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    workload: str


PER_LAYER = [
    PerLayer("scripts.prep_s", "s", "lower", "job_tail_s, wall_s", "arith-simguided (about 0 on planted-*)"),
    PerLayer("network.blif_s", "s", "lower", "job_p50_s", "all, small"),
    PerLayer("core.substitute_s", "s", "lower", "wall_s, job_p50_s", "planted-ext"),
    PerLayer("core.divide_s", "s", "lower", "wall_s, job_p50_s", "planted-ext"),
    PerLayer("core.divide_calls", "count", "lower", "wall_s, job_p50_s", "planted-ext (0 on arith-simguided)"),
    PerLayer("core.vote_s", "s", "lower", "wall_s", "planted-ext"),
    PerLayer("core.accept_ratio", "ratio", "higher", "wall_s, literals_out", "planted-ext"),
    PerLayer("atpg.propagate_calls", "count", "lower", "wall_s", "planted-ext (light on arith-simguided)"),
    PerLayer("atpg.propagate_s", "s", "lower", "wall_s", "planted-ext"),
    PerLayer("atpg.learn_s", "s", "lower", "wall_s", "planted-ext"),
    PerLayer("atpg.incomplete", "count", "lower", "literals_out", "planted-ext"),
    PerLayer("sim.prune_ratio", "ratio", "higher", "wall_s", "planted-ext"),
    PerLayer("sim.cache_hit_ratio", "ratio", "higher", "wall_s", "planted-ext"),
    PerLayer("sim.resim_nodes", "count", "lower", "wall_s", "planted-ext"),
    PerLayer("resub.resyn_s", "s", "lower", "wall_s, job_tail_s", "arith-simguided"),
    PerLayer("resub.candidates", "count", "lower", "wall_s, literals_out", "arith-simguided"),
    PerLayer("resub.accept_ratio", "ratio", "higher", "wall_s, literals_out", "arith-simguided"),
    PerLayer("twolevel.espresso_calls", "count", "lower", "wall_s", "arith-simguided"),
    PerLayer("twolevel.espresso_s", "s", "lower", "wall_s", "arith-simguided"),
    PerLayer("twolevel.complement_s", "s", "lower", "wall_s", "arith-simguided"),
    PerLayer("bdd.odc_s", "s", "lower", "wall_s", "arith-simguided"),
    PerLayer("bdd.equiv_s", "s", "lower", "wall_s", "arith-simguided"),
    PerLayer("sat.solves", "count", "lower", "job_tail_s", "arith-simguided; final check elsewhere"),
    PerLayer("sat.conflicts", "count", "lower", "job_tail_s", "arith-simguided"),
    PerLayer("sat.solve_s", "s", "lower", "job_tail_s", "arith-simguided"),
    PerLayer("verify.final_s", "s", "lower", "job_p50_s", "all"),
    PerLayer("parallel.snapshot_ship_s", "s", "lower", "wall_s, cpu_s", "planted-ext's n_jobs=2 passes (0 elsewhere)"),
    PerLayer("parallel.worker_build_s", "s", "lower", "wall_s, cpu_s", "planted-ext's n_jobs=2 passes"),
    PerLayer("parallel.evaluate_s", "s", "lower", "wall_s, cpu_s", "planted-ext's n_jobs=2 passes"),
    PerLayer("parallel.dispatch_wait_s", "s", "lower", "wall_s, cpu_s", "planted-ext's n_jobs=2 passes"),
    PerLayer("parallel.reuse_ratio", "ratio", "higher", "wall_s", "planted-ext's n_jobs=2 passes"),
    PerLayer("parallel.pairs_invalidated", "count", "lower", "wall_s", "planted-ext's n_jobs=2 passes"),
    PerLayer("parallel.batch_bytes", "B", "lower", "wall_s", "planted-ext's n_jobs=2 passes"),
    PerLayer("parallel.retries", "count", "lower", "wall_s", "planted-ext's n_jobs=2 passes"),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "(keeps the traced numbers honest)", "all"),
]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / samples))) if samples else 50


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(setups: List[float], passes: List[dict], tail_pct: int) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, samples)`` from the untraced passes."""
    latencies = [t for p in passes for t in p["latencies"]]
    literals = sum(n for n in passes[0]["literals"] if n is not None)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(p["wall"] for p in passes), len(passes)),
        "job_p50_s": (statistics.median(latencies), len(latencies)),
        "job_tail_s": (percentile(latencies, tail_pct), len(latencies)),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), len(passes)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), len(passes)),
        "literals_out": (float(literals), 1),
    }


def per_layer(traced: List[dict], untraced: List[dict], parallel: List[dict]) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, samples)`` from the traced passes.

    Times are medians over the traced passes; counts are the (checked
    identical) values of the first traced pass.  The ``parallel.*``
    metrics come from the ``n_jobs=2`` passes when the workload has
    them (times: median; counts: checked identical), and are 0 otherwise.
    """
    n = len(traced)

    def self_s(layer: str) -> Tuple[float, int]:
        return statistics.median(p["self_time"].get(layer, 0.0) for p in traced), n

    stats = traced[0]["stats"]
    calls = traced[0]["calls"]
    counts = traced[0]["counts"]
    par = parallel or traced
    par_stats = par[0]["stats"]

    def count(value: float) -> Tuple[float, int]:
        return float(value), n

    def par_value(value: float) -> Tuple[float, int]:
        return float(value), len(par)

    def phase_s(phase: str) -> Tuple[float, int]:
        return statistics.median(p["phase_seconds"].get(phase, 0.0) for p in par), len(par)

    traced_wall = statistics.median(p["wall"] for p in traced)
    untraced_wall = statistics.median(p["wall"] for p in untraced)
    return {
        "scripts.prep_s": self_s("scripts.prep"),
        "network.blif_s": self_s("network.blif"),
        "core.substitute_s": self_s("core.substitute"),
        "core.divide_s": self_s("core.divide"),
        "core.divide_calls": count(stats["divide_calls"]),
        "core.vote_s": self_s("core.vote"),
        "core.accept_ratio": count(_ratio(stats["accepted"], stats["attempts"])),
        "atpg.propagate_calls": count(calls.get("atpg.propagate", 0)),
        "atpg.propagate_s": self_s("atpg.propagate"),
        "atpg.learn_s": self_s("atpg.learn"),
        "atpg.incomplete": count(stats["atpg_incomplete"]),
        "sim.prune_ratio": count(
            _ratio(stats["divisors_pruned"], stats["divisors_pruned"] + stats["attempts"])
        ),
        "sim.cache_hit_ratio": count(
            _ratio(stats["sim_cache_hits"], stats["sim_cache_hits"] + stats["sim_cache_misses"])
        ),
        "sim.resim_nodes": count(stats["resim_nodes"]),
        "resub.resyn_s": self_s("resub.resyn"),
        "resub.candidates": count(stats["resub_candidates"]),
        "resub.accept_ratio": count(_ratio(stats["resub_accepted"], stats["resub_candidates"])),
        "twolevel.espresso_calls": count(calls.get("twolevel.espresso", 0)),
        "twolevel.espresso_s": self_s("twolevel.espresso"),
        "twolevel.complement_s": self_s("twolevel.complement"),
        "bdd.odc_s": self_s("bdd.odc"),
        "bdd.equiv_s": self_s("bdd.equiv"),
        "sat.solves": count(calls.get("sat.solve", 0)),
        "sat.conflicts": count(counts["sat.conflicts"]),
        "sat.solve_s": self_s("sat.solve"),
        "verify.final_s": self_s("verify.final"),
        "parallel.snapshot_ship_s": phase_s("snapshot_ship"),
        "parallel.worker_build_s": phase_s("worker_build"),
        "parallel.evaluate_s": phase_s("evaluate"),
        "parallel.dispatch_wait_s": phase_s("dispatch_wait"),
        "parallel.reuse_ratio": par_value(
            _ratio(par_stats["parallel_pairs_reused"], par_stats["parallel_pairs_evaluated"])
        ),
        "parallel.pairs_invalidated": par_value(par_stats["parallel_pairs_invalidated"]),
        "parallel.batch_bytes": par_value(par_stats["parallel_batch_bytes"]),
        "parallel.retries": par_value(
            par_stats["worker_faults"] + par_stats["shards_redispatched"] + par_stats["degraded_to_serial"]
        ),
        "trace.overhead_ratio": (_ratio(traced_wall, untraced_wall), n),
    }
