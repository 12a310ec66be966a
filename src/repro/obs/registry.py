"""Counters, histograms and timing hooks.

Where the :class:`~repro.obs.bus.TraceBus` answers "what happened, in
order", the :class:`Registry` answers "how much, how fast": monotonically
increasing counters and bounded-memory histograms, named hierarchically
(``"server.commit_latency"``), with a JSON Lines export so benchmark and
experiment runs leave a machine-readable artifact.

Timing hooks: :meth:`Registry.span` wraps a code block and
:meth:`Registry.timed` wraps a function, both recording wall-clock
durations into a histogram.  When the registry is disabled both reduce to
a shared no-op context manager / a single branch, so hot paths can stay
instrumented permanently.
"""

from __future__ import annotations

import functools
import json
import math
import time
from typing import Callable, TextIO


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted list.

    The value at rank ``ceil(fraction * n)`` (1-based, at least 1): the
    smallest sample with at least ``fraction`` of the samples at or
    below it.

    Args:
        sorted_values: non-empty ascending values.
        fraction: in [0, 1].
    """
    if not sorted_values:
        raise ValueError("no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A bounded-memory distribution summary.

    Tracks exact count/sum/min/max and keeps a bounded sample window (the
    most recent ``sample_cap`` observations) for percentile estimates —
    enough fidelity for benchmark trajectories without unbounded growth.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_cap", "_next")

    def __init__(self, name: str, sample_cap: int = 4096):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._cap = sample_cap
        self._next = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self._cap:
            self._samples.append(value)
        else:  # ring overwrite: keep the most recent window
            self._samples[self._next] = value
            self._next = (self._next + 1) % self._cap


    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over the retained sample window."""
        if not self._samples:
            raise ValueError(f"histogram {self.name} is empty")
        return percentile(sorted(self._samples), fraction)

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.6g})"


class _NullSpan:
    """Context manager that does nothing (disabled-registry fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager timing one block into a histogram."""

    __slots__ = ("_hist", "_start")

    def __init__(self, hist: Histogram):
        self._hist = hist
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(time.perf_counter() - self._start)
        return None


class Registry:
    """A named collection of counters and histograms.

    Attributes:
        enabled: when False, :meth:`span` and :meth:`timed` are no-ops;
            direct counter/histogram handles keep working (callers who
            fetched them pay for what they use).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- handles ---------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Fetch (creating on first use) the counter called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        """Fetch (creating on first use) the histogram called ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name)
        return hist

    def inc(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n`` (no-op when disabled)."""
        if self.enabled:
            self.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (no-op when disabled)."""
        if self.enabled:
            self.histogram(name).observe(value)

    # -- timing hooks ----------------------------------------------------------

    def span(self, name: str) -> _Span | _NullSpan:
        """Time a ``with`` block into histogram ``name``.

        Disabled registries return a shared no-op span, so the call costs
        one branch and no allocation.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self.histogram(name))

    def timed(self, name: str) -> Callable:
        """Decorator timing each call of the wrapped function.

        The enabled check happens per call, so a registry may be toggled
        after decoration.
        """

        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.histogram(name).observe(time.perf_counter() - start)

            return wrapper

        return decorate

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """All metrics as plain data (counters: int; histograms: summary)."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "mean": h.mean,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def export_jsonl(self, dest: str | TextIO) -> int:
        """Write one JSON line per metric; returns the line count."""
        if isinstance(dest, (str, bytes)):
            with open(dest, "w", encoding="utf-8") as fh:
                return self.export_jsonl(fh)
        count = 0
        for name, counter in sorted(self._counters.items()):
            dest.write(
                json.dumps({"metric": name, "kind": "counter", "value": counter.value})
                + "\n"
            )
            count += 1
        for name, hist in sorted(self._histograms.items()):
            record = {
                "metric": name,
                "kind": "histogram",
                "count": hist.count,
                "sum": hist.total,
                "mean": hist.mean,
            }
            if hist.count:
                record["min"] = hist.min
                record["max"] = hist.max
            dest.write(json.dumps(record) + "\n")
            count += 1
        return count

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Registry({state}, counters={len(self._counters)}, "
            f"histograms={len(self._histograms)})"
        )
