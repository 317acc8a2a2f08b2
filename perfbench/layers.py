"""Outside-in layer tracing for the traced benchmark passes.

The program is not edited: :func:`install` wraps each layer's public
functions from here, patching every module attribute that holds the
original (so ``learn_implications`` is wrapped where ``core.extended``
looks it up, not only in ``atpg.learning``) and class attributes for
methods.  Each call records a span (layer, start, end, parent, job);
all spans of one job share its id.  A layer's self time is its span's
duration minus the time covered by its child spans.

Spans inside the final equivalence check are *folded* into
``verify.final``: they count as calls (``sat.solves``) but their time
stays with the final check, so ``bdd.equiv_s``/``sat.solve_s`` measure
the optimizer's own exact checks and ``verify.final_s`` the whole check
a ``repro optimize`` user waits for.

Spans are collected only in the process running the jobs; the worker
processes of the ``n_jobs=2`` workload report through
``SubstitutionStats`` instead.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional


class Target(NamedTuple):
    layer: str
    module: str
    name: str
    #: Class holding *name* as a method, or ``None`` for a function.
    cls: Optional[str] = None


TARGETS = [
    Target("scripts.prep", "repro.scripts.flows", "script_a"),
    Target("network.blif", "repro.network.blif", "read_blif"),
    Target("network.blif", "repro.network.blif", "to_blif_str"),
    Target("core.substitute", "repro.core.substitution", "substitute_network"),
    Target("core.divide", "repro.core.division", "boolean_divide"),
    Target("core.vote", "repro.core.extended", "build_vote_table"),
    Target("atpg.propagate", "repro.atpg.implication", "propagate", "ImplicationEngine"),
    Target("atpg.learn", "repro.atpg.learning", "learn_implications"),
    Target("resub.resyn", "repro.resub.resyn", "resynthesize_window"),
    Target("twolevel.espresso", "repro.twolevel.minimize", "espresso"),
    Target("twolevel.complement", "repro.twolevel.complement", "complement"),
    Target("bdd.odc", "repro.network.dontcares", "observability_dc", "DontCareComputer"),
    Target("bdd.equiv", "repro.network.verify", "networks_equivalent"),
    Target("sat.solve", "repro.sat.check", "sat_equivalent"),
    Target("verify.final", "repro.network.verify", "exact_equivalent"),
]

#: Modules that bind a target name at import time; imported before
#: patching so their bindings are found and replaced too.
_CALLERS = [
    "repro.scripts.flows",
    "repro.core.substitution",
    "repro.resub.engine",
    "repro.parallel.engine",
    "repro.resilience.checkpoint",
    "repro.sat.check",
]

_FOLDING_LAYER = "verify.final"


class Recorder:
    """Spans kept in memory, with self time and calls per layer."""

    def __init__(self) -> None:
        #: (layer, start, end, parent index or -1, job id, folded)
        self.spans: List[tuple] = []
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {"sat.conflicts": 0}
        self.job = -1
        self._stack: List[int] = []
        self._child_time: List[float] = []
        self._folding = 0

    def wrap(self, layer: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        child_time = self._child_time
        self_time = self.self_time
        calls = self.calls
        self_time.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)
        is_folding = layer == _FOLDING_LAYER
        is_sat = layer == "sat.solve"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            folded = self._folding > 0
            index = len(spans)
            spans.append(None)
            child_time.append(0.0)
            stack.append(index)
            if is_folding:
                self._folding += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_folding:
                    self._folding -= 1
                spans[index] = (layer, start, end, parent, self.job, folded)
                calls[layer] += 1
                if not folded:
                    duration = end - start
                    self_time[layer] += duration - child_time[index]
                    if parent >= 0:
                        child_time[parent] += duration
            if is_sat:
                self.counts["sat.conflicts"] += result.conflicts
            return result

        return traced

    def job_span(self, job: int, run: Callable[[], object]) -> object:
        """Run one job under a root span that carries its id."""
        self.job = job
        return self.wrap("job", run)()

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as handle:
            for index, (layer, start, end, parent, job, folded) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "job": job,
                            "folded": folded,
                        }
                    )
                    + "\n"
                )


def install(recorder: Recorder) -> None:
    """Wrap every target, wherever its callers look it up."""
    for module in _CALLERS:
        importlib.import_module(module)
    for target in TARGETS:
        module = importlib.import_module(target.module)
        if target.cls is not None:
            cls = getattr(module, target.cls)
            original = getattr(cls, target.name)
            setattr(cls, target.name, recorder.wrap(target.layer, original))
            continue
        original = getattr(module, target.name)
        wrapper = recorder.wrap(target.layer, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)
