"""One benchmark pass in a fresh interpreter.

Two modes, both started by ``run.py`` with ``PYTHONPATH=src``:

``job.py corpus WORKLOAD SEED``
    Set-up: import the generators, build the corpus, serialise it to
    BLIF.  Prints ``{"ready": <CLOCK_MONOTONIC when built>, "corpus":
    [...]}``.

``job.py run`` (request JSON on stdin)
    Runs every job of the corpus one after another, as ``repro
    optimize`` does for one file: parse BLIF, Script A, the method, the
    final exact check, write BLIF.  Prints per-job latencies, outputs,
    CPU, peak RSS and the summed ``SubstitutionStats`` counters; with
    ``"trace": true`` also the per-layer self times and call counts.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback


#: ``SubstitutionStats`` counters summed over the jobs of a pass.
STAT_COUNTERS = [
    "attempts",
    "accepted",
    "divide_calls",
    "divisors_pruned",
    "variants_pruned",
    "sim_cache_hits",
    "sim_cache_misses",
    "resim_nodes",
    "atpg_incomplete",
    "resub_candidates",
    "resub_accepted",
    "sat_solves",
    "sat_conflicts",
    "parallel_batches",
    "parallel_pairs_evaluated",
    "parallel_pairs_reused",
    "parallel_pairs_invalidated",
    "parallel_batch_bytes",
    "parallel_snapshot_bytes",
    "worker_faults",
    "shards_redispatched",
    "degraded_to_serial",
]


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _corpus(workload: str, seed: int) -> None:
    from corpus import build_corpus

    texts = build_corpus(workload, seed)
    ready = time.monotonic()
    json.dump({"ready": ready, "corpus": texts}, sys.stdout)


def _run(request: dict) -> None:
    blif = importlib.import_module("repro.network.blif")
    factor = importlib.import_module("repro.network.factor")
    flows = importlib.import_module("repro.scripts.flows")
    verify = importlib.import_module("repro.network.verify")
    recorder = None
    if request["trace"]:
        from layers import Recorder, install

        recorder = Recorder()
        install(recorder)

    method = request["method"]
    overrides = request["overrides"] or None
    stats_sum = dict.fromkeys(STAT_COUNTERS, 0)
    phase_seconds: dict = {}

    def one_job(text: str):
        # The steps and their order are those of ``repro optimize``.
        network = blif.read_blif(text)
        reference = network.copy("reference")
        factor.network_literals(network)
        flows.script_a(network)
        result = flows.run_method(network, method, config_overrides=overrides)
        equivalent = verify.exact_equivalent(reference, network, backend="auto")
        return result, equivalent, blif.to_blif_str(network)

    latencies, outputs, literals, errors = [], [], [], []
    cpu_start = _cpu_seconds()
    loop_start = time.perf_counter()
    for index, text in enumerate(request["corpus"]):
        start = time.perf_counter()
        output = error = None
        try:
            if recorder is None:
                result, equivalent, output = one_job(text)
            else:
                result, equivalent, output = recorder.job_span(
                    index, lambda: one_job(text)
                )
        except Exception:
            error = traceback.format_exc(limit=4)
        latencies.append(time.perf_counter() - start)
        if error is None:
            stats = result.get("stats") or {}
            budget = stats.get("budget_report")
            if not equivalent:
                error = "the program's own final check reported NOT equivalent"
            elif budget and budget.get("stopped"):
                error = f"stopped on a budget: {budget.get('reason')}"
            for key in STAT_COUNTERS:
                stats_sum[key] += int(stats.get(key, 0))
            for phase, seconds in (stats.get("parallel_phase_seconds") or {}).items():
                phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
            literals.append(int(result["literals"]))
        else:
            literals.append(None)
        outputs.append(output)
        errors.append(error)
    wall = time.perf_counter() - loop_start
    cpu = _cpu_seconds() - cpu_start
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    reply = {
        "wall": wall,
        "cpu": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "latencies": latencies,
        "literals": literals,
        "outputs": outputs,
        "errors": errors,
        "stats": stats_sum,
        "phase_seconds": phase_seconds,
    }
    if recorder is not None:
        reply["self_time"] = recorder.self_time
        reply["calls"] = recorder.calls
        reply["counts"] = recorder.counts
        if request.get("spans_path"):
            recorder.write(request["spans_path"])
    json.dump(reply, sys.stdout)


def main(argv) -> int:
    if argv[:1] == ["corpus"] and len(argv) == 3:
        _corpus(argv[1], int(argv[2]))
        return 0
    if argv == ["run"]:
        _run(json.load(sys.stdin))
        return 0
    print("usage: job.py corpus WORKLOAD SEED | job.py run < request.json", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
