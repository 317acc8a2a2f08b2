"""Resource sampler: readers, GC pause monitor, sampler thread."""

import gc

import pytest

from repro.obs import resource
from repro.obs.resource import (
    GcPauseMonitor,
    ResourceSampler,
    cpu_split,
    gc_collections_total,
    peak_rss_bytes,
    rss_bytes,
    sample_attrs,
)
from repro.obs.tracer import Tracer, validate_trace_event


class TestReaders:
    def test_rss_is_positive_on_linux(self):
        assert rss_bytes() > 0

    def test_peak_rss_at_least_current(self):
        peak = peak_rss_bytes()
        assert peak > 0
        # VmHWM is a high-water mark; sampling jitter aside it must
        # not be wildly below the current RSS.
        assert peak >= rss_bytes() // 2

    def test_cpu_split_shape(self):
        split = cpu_split()
        assert set(split) == {"user", "system"}
        assert split["user"] >= 0.0
        assert split["system"] >= 0.0

    def test_gc_collections_total_counts_forced_collection(self):
        before = gc_collections_total()
        gc.collect()
        assert gc_collections_total() >= before + 1


class TestGcPauseMonitor:
    def test_observes_forced_collections(self):
        with GcPauseMonitor() as monitor:
            gc.collect()
            gc.collect()
        assert monitor.collections >= 2
        assert monitor.pause_seconds >= 0.0

    def test_stop_uninstalls_callback(self):
        monitor = GcPauseMonitor().start()
        monitor.stop()
        seen = monitor.collections
        gc.collect()
        assert monitor.collections == seen

    def test_double_start_installs_once(self):
        monitor = GcPauseMonitor()
        n_before = len(gc.callbacks)
        monitor.start()
        monitor.start()
        assert len(gc.callbacks) == n_before + 1
        monitor.stop()


class TestSampleAttrs:
    def test_flat_json_ready_dict(self):
        attrs = sample_attrs()
        assert set(attrs) == {
            "rss_bytes",
            "peak_rss_bytes",
            "cpu_user_seconds",
            "cpu_system_seconds",
            "gc_collections",
        }
        assert all(
            isinstance(value, (int, float)) for value in attrs.values()
        )

    def test_monitor_adds_pause_fields(self):
        with GcPauseMonitor() as monitor:
            gc.collect()
            attrs = sample_attrs(monitor)
        assert attrs["gc_pauses_observed"] >= 1
        assert attrs["gc_pause_seconds"] >= 0.0


class TestResourceSampler:
    def test_sample_once_emits_valid_schema_v1_instant(self):
        tracer = Tracer()
        sampler = ResourceSampler(tracer, period=60.0, monitor_gc=False)
        event = sampler.sample_once()
        validate_trace_event(event)
        assert event["kind"] == "resource_sample"
        assert event["dur"] == 0.0
        assert event["proc"].startswith("resource-")
        assert event["attrs"]["rss_bytes"] > 0
        assert tracer.events == [event]

    def test_own_proc_and_private_ids_never_collide_with_spans(self):
        tracer = Tracer()
        with tracer.span("pass", index=0):
            pass
        sampler = ResourceSampler(tracer, period=60.0, monitor_gc=False)
        sampler.sample_once()
        sampler.sample_once()
        keys = {(e["proc"], e["id"]) for e in tracer.events}
        assert len(keys) == len(tracer.events) == 3

    def test_samples_flow_through_the_sink(self):
        streamed = []
        tracer = Tracer(sink=streamed.append)
        sampler = ResourceSampler(tracer, period=60.0, monitor_gc=False)
        sampler.sample_once()
        assert len(streamed) == 1
        assert streamed[0]["kind"] == "resource_sample"

    def test_background_thread_samples_and_stop_is_prompt(self):
        tracer = Tracer()
        sampler = ResourceSampler(tracer, period=0.01, monitor_gc=False)
        sampler.start()
        import time

        deadline = time.monotonic() + 5.0
        while sampler.samples_taken < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        sampler.stop()
        assert sampler.samples_taken >= 3
        # stop() appended one final closing sample.
        kinds = {e["kind"] for e in tracer.events}
        assert kinds == {"resource_sample"}
        assert len(tracer.events) == sampler.samples_taken

    def test_stop_without_start_is_noop(self):
        sampler = ResourceSampler(Tracer(), period=1.0)
        sampler.stop()

    def test_context_manager_and_final_sample_flag(self):
        tracer = Tracer()
        with ResourceSampler(tracer, period=60.0, monitor_gc=False):
            pass
        # Even a zero-duration run records the closing sample.
        assert len(tracer.events) >= 1

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            ResourceSampler(Tracer(), period=0.0)


def test_readers_never_raise_with_broken_proc(monkeypatch):
    # Force the /proc readers down their fallback paths.
    real_open = open

    def broken_open(path, *args, **kwargs):
        if str(path).startswith("/proc/"):
            raise OSError("no procfs")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", broken_open)
    assert resource.rss_bytes() == 0
    assert resource.peak_rss_bytes() >= 0  # getrusage fallback
