"""Shared pieces: timing summaries, memory, the per-layer ledger, output.

Percentiles are the program's own nearest-rank
:func:`repro.sim.metrics.percentile`; a timing is reported as its p50
plus the highest of p90/p99/p99.9 that still has at least ten samples
beyond it, with the sample count.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import statistics
import sys
import time

from repro.sim.metrics import percentile

#: Tail percentiles tried, highest first.
TAILS = ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"))

#: Samples a tail percentile needs beyond it to be reported.
TAIL_MIN_BEYOND = 10


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports no numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def tail_of(sorted_values: list[float]) -> tuple[str, float] | None:
    """The highest tail percentile with >= 10 samples beyond it."""
    n = len(sorted_values)
    for fraction, label in TAILS:
        if n - _rank(fraction, n) >= TAIL_MIN_BEYOND:
            return label, percentile(sorted_values, fraction)
    return None


def _rank(fraction: float, n: int) -> int:
    """The nearest rank :func:`percentile` picks for ``fraction``."""
    return max(1, math.ceil(fraction * n))


def timing(values: list[float], scale: float = 1e3) -> dict:
    """p50, the reportable tail and the count of ``values`` (scaled)."""
    ordered = sorted(values)
    out = {"count": len(ordered)}
    if not ordered:
        return out
    out["p50"] = scale * percentile(ordered, 0.5)
    tail = tail_of(ordered)
    if tail is not None:
        out[tail[0]] = scale * tail[1]
    out["max"] = scale * ordered[-1]
    return out


#: Iterations of one reference slice (about 2 ms of CPU).
REFERENCE_ITERATIONS = 5_000


def reference_slice() -> float:
    """CPU seconds one fixed slice of pure-Python work takes right now.

    The host's speed drifts by up to ~2x over tens of seconds (other
    tenants share its cores).  A CPU cost divided by the median slice
    time measured alongside it is a cost in host-independent units:
    throughput is reported as ops per reference slice, which moves when
    the program's own cost moves and much less when the host's does.
    """
    cpu = time.process_time()
    table: dict[int, int] = {}
    digits = 0
    for i in range(REFERENCE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        digits += len(str(key))
    return time.process_time() - cpu


class ReferenceSampler:
    """Takes one reference slice every ``period`` seconds of wall time.

    Driven by ``SIGALRM``, so it samples the host's speed while the
    simulator or an event loop is busy, without touching either.
    """

    def __init__(self, period: float = 0.1) -> None:
        self.period = period
        self.samples: list[float] = []

    def __enter__(self) -> "ReferenceSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        self.samples.append(reference_slice())

    def take(self) -> list[float]:
        """The slices measured since the last call."""
        taken, self.samples = self.samples, []
        return taken


#: Fewest reference slices a speed is taken from.
MIN_SLICES = 3


def slice_speed(slices: list[float]) -> float:
    """The median of ``slices``, topped up with fresh slices if there are
    fewer than ``MIN_SLICES`` (a window shorter than a few sampling
    periods is a fast program, never a wrong one)."""
    slices = slices + [reference_slice() for _ in range(MIN_SLICES - len(slices))]
    return statistics.median(slices)


def in_slices(cpu_s: float, slices: list[float]) -> float:
    """A CPU time, less the slices taken inside it, in median slices."""
    return (cpu_s - sum(slices)) / slice_speed(slices)


#: CPU seconds one reference slice takes on an unloaded 2-CPU x86-64
#: Linux host (Python 3.11).  A time counted in slices, times this, reads
#: as seconds on that host.
REFERENCE_SLICE_S = 0.002


def at_reference_speed(seconds: float, slices: list[float]) -> float:
    """A time on this host as seconds at reference-slice speed.

    ``setup_s`` is reported this way: raw, it moved by 30% between two
    sets of runs half an hour apart on a shared host.
    """
    return seconds * REFERENCE_SLICE_S / slice_speed(slices)


def fmt(summary: dict) -> str:
    """One report line's ``key=value`` fields."""
    return "  ".join(
        f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}" for k, v in summary.items()
    )


# -- rt-tcp inputs, shared by the load process and the server child -------------

#: Files ``/f0 .. /f{N_FILES-1}`` (datum ids ``f0 ..``, content ``v0``).
N_FILES = 200
#: Lease term (s) and clock-uncertainty allowance of server and clients.
TERM = 2.0
EPSILON = 0.01


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- the per-layer ledger -------------------------------------------------------

#: Layer -> span names whose self time it owns.
LAYERS = {
    "kernel": ("kernel.run",),
    "network": ("network.send", "network.arrive", "network.deliver"),
    "driver": ("driver.deliver", "driver.timer", "driver.submit"),
    "oracle": ("oracle.check_read",),
    "server": ("server.handle_message", "server.handle_timer"),
    "client": (
        "client.read", "client.write", "client.handle_message", "client.handle_timer",
    ),
    "table": (
        "table.grant", "table.approve", "table.begin_write", "table.finish_write",
        "table.live_holders",
    ),
    "cache": ("cache.get", "cache.put", "cache.invalidate"),
    "store": ("store.read_datum", "store.commit_file_write"),
    "codec": ("codec.encode", "codec.decode"),
    "tcp": ("tcp.send", "tcp.recv"),
    "node": ("node.read", "node.write", "node.deliver", "node.timer", "node.send_soon"),
    "replica": ("replica.handle_message", "replica.handle_timer"),
    "paxos": ("paxos.start_round",),
}


#: The end-to-end figure each per-layer metric should move, keyed by
#: metric name or, failing that, by its layer (the part before the first
#: dot).  Gated metrics are named as in ``BENCHMARK.json``; the others
#: (``sim_ops_per_s``, ``sim_read_p99_ms``, ``failover_stall_*``,
#: ``fail_ratio``, ``rt_*``) are figures of the ``--trace 0`` report.  A
#: performance change claims its gain against these pairs.
MOVES = {
    "kernel": "sim_ops_per_s, ops_per_ref (DES)",
    "network": "sim_ops_per_s, ops_per_ref (DES)",
    "driver": "sim_ops_per_s, ops_per_ref (DES)",
    "oracle": "sim_ops_per_s, ops_per_ref (DES)",
    "server": "sim_ops_per_s, ops_per_ref (des-steady); rt_max_rate_ops_s (rt-tcp)",
    "server.lease_records": "peak_rss_mb (bounded server state)",
    "server.dedup_entries": "peak_rss_mb (bounded server state)",
    "server.known_clients": "peak_rss_mb (bounded server state)",
    "client": "sim_ops_per_s, ops_per_ref",
    "client.local_hit_ratio": "server_msgs_per_op, sim_read_p99_ms (des-steady)",
    "client.extends_per_read": "server_msgs_per_op, sim_read_p99_ms (des-steady)",
    "client.retransmits_per_op": "failover_stall_*, fail_ratio (des-failover)",
    "client.redirects_per_op": "failover_stall_*, fail_ratio (des-failover)",
    "table": "sim_ops_per_s, ops_per_ref (des-steady)",
    "cache": "server_msgs_per_op, rt_read_p50_ms",
    "store": "ops_per_ref",
    "pipeline": "rt_max_rate_ops_s, ops_per_ref (rt-tcp)",
    "codec": "rt_*, ops_per_ref (rt-tcp)",
    "tcp": "rt_*, ops_per_ref (rt-tcp)",
    "node": "rt_read_p99_ms, rt_write_p99_ms",
    "replica": "failover_stall_* (des-failover)",
    "paxos": "failover_stall_* (des-failover)",
    "trace": "none: reconciles the ledger against the run time",
}


def moves(metric: str) -> str:
    """The end-to-end figure a per-layer metric should move."""
    return MOVES.get(metric) or MOVES[metric.split(".")[0]]


def merge_summaries(*summaries: dict) -> dict:
    """Add span and counter totals of several tracers (processes)."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for summary in summaries:
        for name, row in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters}


def ledger(summary: dict, facts: dict, run_s: float, untraced_s: float) -> dict:
    """The per-layer metrics from merged span totals and workload facts.

    ``facts`` carries what the workload counted itself: ``ops``,
    ``kernel_events``, ``reads``, ``local_hits``, ``extend_requests``,
    ``retransmits``, ``redirects``, ``batches``, ``batched_ops``,
    ``node_wait_s``, ``gen_late_p99_ms`` and the quiet ``status`` counts.
    """
    spans = summary["spans"]
    counters = summary["counters"]

    def calls(*names: str) -> int:
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_s(layer: str) -> float:
        return self_s(*LAYERS[layer])

    ops = facts["ops"]
    legs = calls("network.arrive")
    deliveries = calls("driver.deliver")
    server_msgs = calls("server.handle_message")
    enc, dec = calls("codec.encode"), calls("codec.decode")
    frames = counters.get("tcp.frames", 0)
    rounds = calls("paxos.start_round")
    attributed = sum(layer_s(layer) for layer in LAYERS)
    events = facts.get("kernel_events", 0)
    return {
        "kernel.events": events,
        "kernel.self_s": layer_s("kernel"),
        "kernel.ns_per_event": 1e9 * ratio(layer_s("kernel"), events),
        "network.legs": legs,
        "network.self_s": layer_s("network"),
        "network.ns_per_leg": 1e9 * ratio(layer_s("network"), legs),
        "driver.deliveries": deliveries,
        "driver.self_s": layer_s("driver"),
        "oracle.checks": calls("oracle.check_read"),
        "oracle.self_s": layer_s("oracle"),
        "server.msgs": server_msgs,
        "server.timers": calls("server.handle_timer"),
        "server.self_s": layer_s("server"),
        "server.ns_per_msg": 1e9 * ratio(layer_s("server"), server_msgs),
        "client.self_s": layer_s("client"),
        "client.local_hit_ratio": ratio(facts.get("local_hits", 0), facts.get("reads", 0)),
        "client.extends_per_read": ratio(
            facts.get("extend_requests", 0), facts.get("reads", 0)
        ),
        "client.retransmits_per_op": ratio(facts.get("retransmits", 0), ops),
        "client.redirects_per_op": ratio(facts.get("redirects", 0), ops),
        "table.grant.calls": calls("table.grant"),
        "table.grant.self_s": self_s("table.grant"),
        "table.grants_per_extend": ratio(
            calls("table.grant"), facts.get("extend_requests", 0)
        ),
        "table.approve.calls": calls("table.approve"),
        "cache.lookups": calls("cache.get"),
        "cache.hit_ratio": ratio(counters.get("cache.hits", 0), calls("cache.get")),
        "cache.self_s": layer_s("cache"),
        "store.reads": calls("store.read_datum"),
        "store.commits": calls("store.commit_file_write"),
        "store.self_s": layer_s("store"),
        "pipeline.ops_per_frame": ratio(facts.get("batched_ops", 0), facts.get("batches", 0)),
        "codec.encode.calls": enc,
        "codec.encode.ns_per_call": 1e9 * ratio(self_s("codec.encode"), enc),
        "codec.decode.calls": dec,
        "codec.decode.ns_per_call": 1e9 * ratio(self_s("codec.decode"), dec),
        "codec.bytes_per_op": ratio(counters.get("tcp.bytes", 0), ops),
        "tcp.frames_per_op": ratio(frames, ops),
        "tcp.send.self_s": self_s("tcp.send"),
        "tcp.send.ns_per_frame": 1e9 * ratio(self_s("tcp.send"), calls("tcp.send")),
        "tcp.recv.self_s": self_s("tcp.recv"),
        "node.wait_s": facts.get("node_wait_s", 0.0),
        "node.gen_late_p99_ms": facts.get("gen_late_p99_ms", 0.0),
        "replica.msgs": calls("replica.handle_message"),
        "replica.self_s": layer_s("replica"),
        "paxos.rounds": rounds,
        "paxos.rounds_lost": rounds - counters.get("paxos.rounds_won", 0),
        "server.lease_records": facts["status"]["lease_records"],
        "server.dedup_entries": facts["status"]["dedup_entries"],
        "server.known_clients": facts["status"]["known_clients"],
        "trace.run_s": run_s,
        "trace.overhead": ratio(run_s, untraced_s),
        "trace.unattributed_share": 1.0 - ratio(attributed, run_s),
    }


def layer_table(summary: dict, run_s: float) -> list[str]:
    """Report lines: each layer's calls, self time and share of the run."""
    spans = summary["spans"]
    lines = [f"  {'layer':<10} {'calls':>10} {'self_s':>9} {'ns/call':>9} {'share':>7}"]
    for layer, names in LAYERS.items():
        n = sum(spans.get(s, {}).get("calls", 0) for s in names)
        t = sum(spans.get(s, {}).get("self_s", 0.0) for s in names)
        lines.append(
            f"  {layer:<10} {n:>10} {t:>9.4f} {1e9 * ratio(t, n):>9.0f} "
            f"{ratio(t, run_s):>7.1%}"
        )
    return lines


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    sys.stdout.flush()
