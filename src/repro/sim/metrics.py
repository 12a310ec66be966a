"""Latency and load statistics for experiments.

Mean delay hides the paper's most interesting behaviour: under leases the
read-latency distribution is sharply bimodal (0 for cache hits, one round
trip for extensions, seconds for reads deferred behind blocked writes).
:class:`LatencySummary` captures the distribution; :func:`summarize_ops`
builds one from driver results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

# The one nearest-rank percentile, shared with repro.obs.Histogram and
# re-exported here for the experiment and benchmark code that imports it
# from this module.
from repro.obs.registry import percentile
from repro.sim.driver import OpResult


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of operation latencies (seconds).

    Attributes:
        count: operations summarized.
        mean: arithmetic mean.
        p50/p90/p99: percentiles (nearest-rank).
        max: worst case.
        zero_fraction: share of operations served with zero latency
            (pure cache hits — the lease dividend).
    """

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float
    zero_fraction: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={1e3 * self.mean:.3f}ms "
            f"p50={1e3 * self.p50:.3f}ms p90={1e3 * self.p90:.3f}ms "
            f"p99={1e3 * self.p99:.3f}ms max={1e3 * self.max:.3f}ms "
            f"hits={self.zero_fraction:.0%}"
        )


def summarize_latencies(latencies: Iterable[float]) -> LatencySummary:
    """Summarize a collection of latencies."""
    values = sorted(latencies)
    if not values:
        raise ValueError("no latencies to summarize")
    return LatencySummary(
        count=len(values),
        mean=sum(values) / len(values),
        p50=percentile(values, 0.50),
        p90=percentile(values, 0.90),
        p99=percentile(values, 0.99),
        max=values[-1],
        zero_fraction=sum(1 for v in values if v == 0.0) / len(values),
    )


def summarize_ops(results: Iterable[OpResult], ok_only: bool = True) -> LatencySummary:
    """Summarize completed operations from a simulation driver."""
    return summarize_latencies(
        r.latency for r in results if r.ok or not ok_only
    )
