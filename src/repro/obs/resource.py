"""Process resource telemetry: RSS, CPU split, GC pauses.

Emits schema-v1 ``resource_sample`` point events so resource data
rides the existing trace pipeline — same JSONL files, same merge
rules, same analysis tools.  Two delivery modes:

* :class:`ResourceSampler` — a daemon thread in the main process that
  samples every *period* seconds and hands each event to
  ``tracer.absorb`` (which forwards to any live sink/bus).  Sampler
  events carry their own ``proc`` label (``resource-<pid>``) and a
  private id counter, so they never collide with span ids in the
  merged ``(proc, id)`` key space.
* workers call :func:`sample_attrs` synchronously at batch boundaries
  and record the result with ``tracer.instant`` — worker samples then
  merge per-proc exactly like worker spans do.

Readers are zero-dependency: ``/proc/self/statm`` / ``/proc/self/
status`` where available (Linux), falling back to
``resource.getrusage``, falling back to zeros — a sample is never
worth an exception.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from typing import Callable, Dict, Optional

from repro.obs.tracer import TRACE_SCHEMA_VERSION, Tracer

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int:
    """Current resident set size, or 0 if unreadable."""
    try:
        with open("/proc/self/statm") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0


def peak_rss_bytes() -> int:
    """Peak resident set size (VmHWM), with a getrusage fallback."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        # ru_maxrss is kilobytes on Linux.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return 0


def cpu_split() -> Dict[str, float]:
    """User/system CPU seconds of this process (children excluded)."""
    times = os.times()
    return {"user": times.user, "system": times.system}


def gc_collections_total() -> int:
    """Total collections across all GC generations since start."""
    return sum(int(stat.get("collections", 0)) for stat in gc.get_stats())


class GcPauseMonitor:
    """Accumulates GC pause wall time via ``gc.callbacks``.

    Installed by the sampler (or explicitly); uninstall with
    :meth:`stop`.  Callbacks fire in whichever thread triggers the
    collection, so the accumulators are guarded.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._started_at: Optional[float] = None
        self.pause_seconds = 0.0
        self.collections = 0
        self._installed = False

    def _callback(self, phase: str, info: dict) -> None:
        with self._lock:
            if phase == "start":
                self._started_at = self._clock()
            elif phase == "stop" and self._started_at is not None:
                self.pause_seconds += self._clock() - self._started_at
                self.collections += 1
                self._started_at = None

    def start(self) -> "GcPauseMonitor":
        if not self._installed:
            gc.callbacks.append(self._callback)
            self._installed = True
        return self

    def stop(self) -> None:
        if self._installed:
            try:
                gc.callbacks.remove(self._callback)
            except ValueError:
                pass
            self._installed = False

    def __enter__(self) -> "GcPauseMonitor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


def sample_attrs(
    monitor: Optional[GcPauseMonitor] = None,
) -> Dict[str, object]:
    """One resource snapshot as a flat attrs dict (all JSON-ready)."""
    cpu = cpu_split()
    attrs: Dict[str, object] = {
        "rss_bytes": rss_bytes(),
        "peak_rss_bytes": peak_rss_bytes(),
        "cpu_user_seconds": cpu["user"],
        "cpu_system_seconds": cpu["system"],
        "gc_collections": gc_collections_total(),
    }
    if monitor is not None:
        attrs["gc_pause_seconds"] = monitor.pause_seconds
        attrs["gc_pauses_observed"] = monitor.collections
    return attrs


class ResourceSampler:
    """Background thread emitting periodic ``resource_sample`` events.

    Events go through ``tracer.absorb`` so they land in the in-memory
    trace *and* any streaming sink/bus, tagged with their own proc
    label.  The thread is a daemon and wakes via ``Event.wait`` so
    :meth:`stop` returns promptly regardless of the period.
    """

    def __init__(
        self,
        tracer: Tracer,
        period: float = 0.5,
        proc: Optional[str] = None,
        clock: Callable[[], float] = time.perf_counter,
        monitor_gc: bool = True,
    ):
        if period <= 0:
            raise ValueError(f"sample period must be positive: {period}")
        self.tracer = tracer
        self.period = period
        self.proc = proc or f"resource-{os.getpid()}"
        self.samples_taken = 0
        self._clock = clock
        self._next_id = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._monitor = GcPauseMonitor(clock=clock) if monitor_gc else None

    def _event(self) -> dict:
        now = self._clock()
        span_id = self._next_id
        self._next_id += 1
        return {
            "v": TRACE_SCHEMA_VERSION,
            "kind": "resource_sample",
            "id": span_id,
            "parent": -1,
            "proc": self.proc,
            "start": now,
            "end": now,
            "dur": 0.0,
            "cpu": 0.0,
            "attrs": sample_attrs(self._monitor),
        }

    def sample_once(self) -> dict:
        """Take and deliver one sample synchronously; returns the event."""
        event = self._event()
        self.tracer.absorb([event])
        self.samples_taken += 1
        return event

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            try:
                self.sample_once()
            except Exception:
                # Telemetry must never take the run down.
                break

    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            return self
        if self._monitor is not None:
            self._monitor.start()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_sample: bool = True) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        if final_sample:
            # One closing sample so short runs always record peaks.
            try:
                self.sample_once()
            except Exception:
                pass
        if self._monitor is not None:
            self._monitor.stop()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
