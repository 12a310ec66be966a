"""Unit tests for the metrics registry: counters, histograms, timing hooks."""

import io
import json

import pytest

from repro.obs import Histogram, Registry
from repro.obs.registry import _NULL_SPAN, percentile
from repro.sim.metrics import percentile as metrics_percentile


class TestCounter:
    def test_inc_accumulates(self):
        reg = Registry()
        reg.inc("reads")
        reg.inc("reads", 4)
        assert reg.counter("reads").value == 5

    def test_counter_cannot_decrease(self):
        reg = Registry()
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)

    def test_handles_are_stable(self):
        reg = Registry()
        assert reg.counter("x") is reg.counter("x")


class TestHistogram:
    def test_summary_stats(self):
        reg = Registry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("latency", v)
        hist = reg.histogram("latency")
        assert hist.count == 3
        assert hist.total == 6.0
        assert (hist.min, hist.max) == (1.0, 3.0)
        assert hist.mean == 2.0

    def test_percentile_nearest_rank(self):
        reg = Registry()
        for v in range(1, 101):
            reg.observe("x", float(v))
        hist = reg.histogram("x")
        assert hist.percentile(0.5) == 50.0
        assert hist.percentile(1.0) == 100.0

    def test_percentile_small_windows_use_nearest_rank(self):
        # rank = ceil(fraction * n): p50 of 1..5 is the 3rd value and
        # p25 of 1..10 the 3rd, the same answers as repro.sim.metrics.
        five, ten = Histogram("five"), Histogram("ten")
        for v in range(1, 6):
            five.observe(float(v))
        for v in range(1, 11):
            ten.observe(float(v))
        assert five.percentile(0.5) == 3.0
        assert ten.percentile(0.25) == 3.0
        assert five.percentile(0.5) == metrics_percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5)
        assert ten.percentile(0.25) == metrics_percentile(
            [float(v) for v in range(1, 11)], 0.25
        )

    def test_one_percentile_implementation(self):
        assert metrics_percentile is percentile

    def test_percentile_on_empty_raises(self):
        with pytest.raises(ValueError):
            Registry().histogram("x").percentile(0.5)

    def test_sample_window_is_bounded(self):
        reg = Registry()
        hist = reg.histogram("x")
        for v in range(10000):
            hist.observe(float(v))
        assert len(hist._samples) <= 4096
        assert hist.count == 10000  # exact stats still track everything
        # the window keeps the most recent observations
        assert hist.percentile(1.0) == 9999.0


class TestTiming:
    def test_span_records_duration(self):
        reg = Registry()
        with reg.span("block"):
            pass
        hist = reg.histogram("block")
        assert hist.count == 1
        assert hist.min >= 0.0

    def test_timed_decorator(self):
        reg = Registry()

        @reg.timed("fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2
        assert reg.histogram("fn").count == 1

    def test_timed_records_on_exception(self):
        reg = Registry()

        @reg.timed("boom")
        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            boom()
        assert reg.histogram("boom").count == 1


class TestDisabled:
    def test_inc_and_observe_are_noops(self):
        reg = Registry(enabled=False)
        reg.inc("x")
        reg.observe("y", 1.0)
        assert reg.snapshot() == {"counters": {}, "histograms": {}}

    def test_span_returns_shared_null_span(self):
        reg = Registry(enabled=False)
        assert reg.span("x") is _NULL_SPAN  # no allocation on the fast path
        with reg.span("x"):
            pass
        assert reg.snapshot()["histograms"] == {}

    def test_timed_respects_toggle_per_call(self):
        reg = Registry(enabled=False)

        @reg.timed("fn")
        def fn():
            return 7

        assert fn() == 7
        assert reg.snapshot()["histograms"] == {}
        reg.enabled = True
        fn()
        assert reg.histogram("fn").count == 1


class TestExport:
    def test_snapshot_shape(self):
        reg = Registry()
        reg.inc("c", 2)
        reg.observe("h", 1.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["mean"] == 1.5

    def test_export_jsonl(self, tmp_path):
        reg = Registry()
        reg.inc("c")
        reg.observe("h", 2.0)
        out = io.StringIO()
        assert reg.export_jsonl(out) == 2
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        kinds = {r["metric"]: r["kind"] for r in records}
        assert kinds == {"c": "counter", "h": "histogram"}
        path = str(tmp_path / "metrics.jsonl")
        assert reg.export_jsonl(path) == 2
