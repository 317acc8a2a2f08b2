"""The repository's benchmark: ``repro optimize`` jobs, closed loop, one client.

Run from the repository root::

    python3 perfbench/run.py --workload planted-ext --seed 1 --seconds 20 --trace 0

A run builds the workload's corpus from ``--seed`` in fresh set-up
interpreters, then runs the whole corpus in fresh pass interpreters,
one job after another, until ``--seconds`` of passes have been measured
(at least :data:`MIN_PASSES`).  ``--trace 1`` adds a traced pass before
and after them: the end-to-end figures come from the untraced passes,
the per-layer figures from the traced ones, and their wall-time ratio
is the tracing overhead.

Every output is checked against its input by an independent oracle
(:mod:`oracle`), and the program-made counts and output literals must
repeat exactly between passes.  The last line of standard output is one
JSON object; the exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from corpus import WORKLOADS, sop_literals
from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer, tail_percentile
from oracle import OracleError, check_equivalent

HERE = Path(__file__).resolve().parent

#: Set-up interpreters per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Untraced passes per run at least; ``--trace 1`` adds two traced ones.
MIN_PASSES = 2
#: A run stops starting passes once another would end past this.
RUN_BUDGET_S = 150.0


class BenchError(RuntimeError):
    """A child interpreter failed; the run has no result."""


def _child(args: List[str], stdin: Optional[str], deadline: float) -> Tuple[dict, float]:
    """Run ``job.py ARGS`` in a fresh interpreter; its JSON reply and start time."""
    env = dict(os.environ, PYTHONPATH="src")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"job.py {' '.join(args)} ran past the run's time budget")
    finally:
        # Worker processes of a pass live in its session: none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"job.py {' '.join(args)} exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out), started


def _setup(workload: str, seed: int, deadline: float) -> Tuple[List[str], List[float]]:
    corpora, times = [], []
    for _ in range(SETUP_REPEATS):
        reply, started = _child(["corpus", workload, str(seed)], None, deadline)
        corpora.append(reply["corpus"])
        times.append(reply["ready"] - started)
    if any(c != corpora[0] for c in corpora):
        raise BenchError(f"corpus generation is not deterministic for seed {seed}")
    return corpora[0], times


def _pass(corpus: List[str], method: str, overrides: dict, trace: bool,
          spans_path: Optional[str], deadline: float) -> dict:
    request = {
        "corpus": corpus,
        "method": method,
        "overrides": overrides,
        "trace": trace,
        "spans_path": spans_path,
    }
    return _child(["run"], json.dumps(request), deadline)[0]


def _run_passes(workload: str, seed: int, corpus: List[str], seconds: float,
                trace: bool, deadline: float) -> Tuple[List[dict], List[dict], List[dict]]:
    spec = WORKLOADS[workload]
    spans_path = None
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = str(out_dir / f"{workload}-seed{seed}.spans.jsonl.gz")

    def one(traced: bool) -> dict:
        return _pass(corpus, spec.method, {}, traced, spans_path, deadline)

    # Traced passes bracket the untraced ones, so a drift in machine
    # speed during the run hits both kinds alike.
    traced = [one(True)] if trace else []
    untraced: List[dict] = []
    start = time.monotonic()
    longest = 0.0
    while len(untraced) < MIN_PASSES or (
        time.monotonic() - start < seconds
        and time.monotonic() + 4.5 * longest < deadline
    ):
        began = time.monotonic()
        untraced.append(one(False))
        longest = max(longest, time.monotonic() - began)
    parallel: List[dict] = []
    if trace:
        traced.append(one(True))
        if spec.parallel:
            # Two passes, so the parallel counts can be checked for repeats.
            parallel = [
                _pass(corpus, spec.method, spec.parallel, False, None, deadline)
                for _ in range(2)
            ]
    return untraced, traced, parallel


def _check_oracle(seed: int, corpus: List[str], passes: List[dict]) -> Tuple[int, int, Dict[str, int], List[str]]:
    """Oracle-check every job of every pass; (attempted, failed, checks, problems)."""
    verdicts: Dict[Tuple[int, str], Tuple[bool, str]] = {}
    checks: Dict[str, int] = {}
    problems: List[str] = []
    attempted = failed = 0
    for p in passes:
        for index, (output, error) in enumerate(zip(p["outputs"], p["errors"])):
            attempted += 1
            if error is not None:
                failed += 1
                problems.append(f"job {index}: {error.strip().splitlines()[-1]}")
                continue
            key = (index, output)
            if key not in verdicts:
                try:
                    verdicts[key] = check_equivalent(corpus[index], output, seed=seed * 1000 + index)
                except OracleError as exc:
                    verdicts[key] = (False, f"unreadable output: {exc}")
                checks[verdicts[key][1]] = checks.get(verdicts[key][1], 0) + 1
            ok, check = verdicts[key]
            if not ok:
                failed += 1
                problems.append(f"job {index}: oracle mismatch ({check})")
    return attempted, failed, checks, problems


def _check_repeats(passes: List[dict], traced: List[dict]) -> List[str]:
    """Program-made counts and output literals must repeat exactly."""
    problems = []
    first = passes[0]
    for p in passes[1:]:
        if p["literals"] != first["literals"]:
            problems.append("output literals differ between passes of one seed")
        if p["stats"] != first["stats"]:
            diff = sorted(k for k in first["stats"] if p["stats"][k] != first["stats"][k])
            problems.append(f"SubstitutionStats counts differ between passes: {', '.join(diff)}")
    for p in traced[1:]:
        for key in ("calls", "counts"):
            if p[key] != traced[0][key]:
                diff = sorted(k for k in traced[0][key] if p[key].get(k) != traced[0][key][k])
                problems.append(f"traced {key} differ between traced passes: {', '.join(diff)}")
    return problems


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit, so the running child's session is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not Path("src/repro/__init__.py").is_file():
        print("error: no src/repro package here; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    spec = WORKLOADS[args.workload]
    try:
        # Byte-compile first, so no pass pays for it.
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        corpus, setups = _setup(args.workload, args.seed, deadline)
        untraced, traced, parallel = _run_passes(
            args.workload, args.seed, corpus, args.seconds, bool(args.trace), deadline
        )
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, checks, problems = _check_oracle(
        args.seed, corpus, untraced + traced + parallel
    )
    problems += _check_repeats(untraced + traced, traced)
    if parallel:
        problems += _check_repeats(parallel, [])
    if parallel and parallel[0]["literals"] != untraced[0]["literals"]:
        problems.append("n_jobs=2 output literals differ from the serial passes")
    correct = not problems

    tail_pct = tail_percentile(MIN_PASSES * len(corpus))
    e2e = end_to_end(setups, untraced, tail_pct)
    layers = per_layer(traced, untraced, parallel) if traced else {}

    print(f"# workload {args.workload} seed {args.seed}: method {spec.method}, "
          f"{len(corpus)} jobs, "
          f"{sum(sop_literals(t) for t in corpus)} input SOP literals")
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced, "
          f"{len(parallel)} with n_jobs=2; "
          f"job_tail_s is p{tail_pct}; oracle checks: "
          + ", ".join(f"{n} {kind}" for kind, n in sorted(checks.items())))
    print(f"{'metric':28} {'value':>14} {'unit':6} {'n':>4}")
    units = {m.name: m.unit for m in END_TO_END}
    for name, (value, n) in e2e.items():
        print(f"{name:28} {_format(value):>14} {units[name]:6} {n:>4}")
    print(f"{'fail_ratio':28} {_format(failed / attempted):>14} {'ratio':6} {attempted:>4}")
    for m in PER_LAYER:
        if m.name in layers:
            value, n = layers[m.name]
            print(f"{m.name:28} {_format(value):>14} {m.unit:6} {n:>4}  "
                  f"moves {m.moves} on {m.workload}")
    if parallel:
        print(f"# n_jobs=2 passes: wall_s {_format(min(p['wall'] for p in parallel))} "
              f"to {_format(max(p['wall'] for p in parallel))} s, "
              f"cpu_s {_format(min(p['cpu'] for p in parallel))} "
              f"to {_format(max(p['cpu'] for p in parallel))} s")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    if args.trace:
        reported = {m.name: {"value": layers[m.name][0], "unit": m.unit} for m in PER_LAYER}
    else:
        reported = {m.name: {"value": e2e[m.name][0], "unit": m.unit} for m in END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
