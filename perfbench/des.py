"""The two simulator workloads: ``des-steady`` and ``des-failover``.

Each run replays ``SCENARIOS`` distinct seeded sub-scenarios (sub-seed
``seed * 1000 + k``).  Their virtual-time results are pooled into the
latency and load metrics, which are therefore exact functions of the
seed.  Until ``--seconds`` of wall time have passed the sub-scenarios
are then replayed again; every replay must reproduce its first run's
fingerprint, and each run is one throughput sample.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import random
import time
from dataclasses import dataclass, field

from repro.errors import ConsistencyViolationError
from repro.lease.policy import FixedTermPolicy
from repro.protocol.client import ClientConfig
from repro.replica.sim import build_replicated_cluster
from repro.sim.driver import build_cluster
from repro.sim.network import NetworkParams
from repro.workload.models import WorkloadSpec, sample_events

from common import (
    CheckFailed, ReferenceSampler, at_reference_speed, check, fmt, in_slices, median,
    peak_rss_mb, timing,
)
from tracing import install

#: Distinct sub-scenarios pooled into one run's virtual-time metrics.
SCENARIOS = 8

TERM = 10.0


@dataclass(frozen=True)
class Shape:
    """One DES workload's inputs, apart from the seed."""

    n_clients: int
    n_files: int
    rate: float
    p_write: float
    duration: float
    #: Virtual seconds run past ``duration`` so every op completes and
    #: every lease expires and is swept.
    drain: float
    replicas: int = 0
    #: First crash, crash period, outage length, and the seeded jitter
    #: added to each crash time (``replicas`` > 0 only).
    crash_first: float = 0.0
    crash_period: float = 0.0
    crash_down: float = 0.0
    crash_jitter: float = 0.0
    client_config: ClientConfig = field(default_factory=ClientConfig)


STEADY = Shape(
    n_clients=100, n_files=300, rate=0.5, p_write=0.05, duration=120.0, drain=60.0
)

#: Clients keep retrying through an outage (8 retries would give reads
#: 16 s of patience, less than one election plus handoff), so a master
#: crash costs delay, never a failed op.  Crashes are 90 s apart: an
#: outage lasts about 40 s, and with crashes 60 s apart (jitter can bring
#: two within 45 s) the hottest file's write queue sometimes never
#: drained between them and reads queued behind it ran out of retries
#: (2 of 100 sub-seeds).
FAILOVER = Shape(
    n_clients=32, n_files=16, rate=0.5, p_write=0.3, duration=300.0, drain=300.0,
    replicas=3, crash_first=30.0, crash_period=90.0, crash_down=20.0,
    crash_jitter=15.0, client_config=ClientConfig(max_retries=40),
)

SHAPES = {"des-steady": STEADY, "des-failover": FAILOVER}


@dataclass
class Outcome:
    """What one sub-scenario produced."""

    ops: int
    failed: int
    reads: list[float]
    writes: list[float]
    server_msgs: int
    events: int
    setup_s: float
    run_s: float
    #: ``setup_s`` at reference-slice speed, and the run's CPU time in
    #: reference slices (both 0 without a sampler).
    setup_ref_s: float
    cpu_refs: float
    stalls: list[float]
    fingerprint: str
    facts: dict


def crash_times(shape: Shape, sub_seed: int) -> list[float]:
    rng = random.Random(f"perfbench/crashes/{sub_seed}")
    times = []
    t = shape.crash_first
    while t < shape.duration - shape.crash_down:
        times.append(t + rng.uniform(0.0, shape.crash_jitter))
        t += shape.crash_period
    return times


def run_scenario(shape: Shape, sub_seed: int, tracer=None, sampler=None) -> Outcome:
    """Build, drive and drain one sub-scenario; check what it returned.

    With a ``sampler``, set-up time and CPU time are also counted against
    the reference slices taken while the sub-scenario ran."""
    # The previous sub-scenario's cluster is cyclic garbage; collect it
    # here, or its collection lands at random in this one's timings.
    gc.collect()
    t0 = time.perf_counter()
    spec = WorkloadSpec(
        kind="zipf", alpha=1.1, n_files=shape.n_files, rate=shape.rate,
        p_write=shape.p_write,
    )
    events = sample_events(spec, shape.n_clients, shape.duration, sub_seed)

    def setup_store(store) -> None:
        for f in range(shape.n_files):
            store.create_file(f"/f{f}", b"v0")

    common = dict(
        n_clients=shape.n_clients, policy=FixedTermPolicy(TERM),
        network_params=NetworkParams(), client_config=shape.client_config,
        seed=sub_seed, strict_oracle=True, setup_store=setup_store,
    )
    if shape.replicas:
        cluster = build_replicated_cluster(shape.replicas, **common)
        servers = [r.host.name for r in cluster.replicas]
    else:
        cluster = build_cluster(**common)
        servers = [cluster.server.host.name]
    datums = [cluster.store.file_datum(f"/f{f}") for f in range(shape.n_files)]
    results: list[tuple[str, object]] = []

    def submit(op: int, kind: str, datum, client) -> None:
        if tracer is not None:
            tracer.op = op
        if kind == "read":
            client.read(datum, lambda r: results.append(("read", r)))
        else:
            content = f"{client.host.name}:{op}".encode()
            client.write(datum, content, lambda r: results.append(("write", r)))
        if tracer is not None:
            tracer.op = -1

    for op, (at, c, kind, f) in enumerate(events):
        cluster.schedule_op(
            at, c, lambda cl, op=op, kind=kind, d=datums[f]: submit(op, kind, d, cl)
        )
    crashes: list[float] = []
    if shape.replicas:
        for at in crash_times(shape, sub_seed):
            cluster.kernel.schedule_at(at, _crash_master, cluster, shape, crashes)
    t1 = time.perf_counter()
    setup_slices = sampler.take() if sampler is not None else []
    cpu = time.process_time()
    try:
        cluster.run(until=shape.duration + shape.drain)
    except ConsistencyViolationError as exc:
        raise CheckFailed(f"stale read (sub-seed {sub_seed}): {exc}") from exc
    cpu = time.process_time() - cpu
    t2 = time.perf_counter()
    setup_ref_s = cpu_refs = 0.0
    if sampler is not None:
        slices = sampler.take()
        cpu_refs = in_slices(cpu, slices)
        setup_ref_s = at_reference_speed(t1 - t0 - sum(setup_slices), slices)

    check(cluster.oracle.clean, f"oracle recorded violations (sub-seed {sub_seed})")
    check(
        len(results) == len(events),
        f"{len(events) - len(results)} ops never completed (sub-seed {sub_seed})",
    )
    check(len(crashes) == len(crash_times(shape, sub_seed)) if shape.replicas else True,
          f"a scheduled crash found no master (sub-seed {sub_seed})")
    ok = [(k, r) for k, r in results if r.ok]
    commits = sorted(t for d in datums for t, _v in cluster.oracle.history(d))
    stalls = []
    for at in crashes:
        i = bisect.bisect_right(commits, at)
        check(i < len(commits), f"no write committed after the crash at {at:.1f}s")
        stalls.append(commits[i] - at)
    digest = hashlib.sha256(cluster.oracle.history_fingerprint().encode())
    for kind, r in results:
        digest.update(f"{kind}{r.ok}{r.value!r}{r.completed_at!r};".encode())
    digest.update(str(cluster.kernel.executed).encode())
    metrics = [c.engine.metrics for c in cluster.clients]
    return Outcome(
        ops=len(results),
        failed=len(results) - len(ok),
        reads=[r.latency for k, r in ok if k == "read"],
        writes=[r.latency for k, r in ok if k == "write"],
        server_msgs=sum(cluster.network.stats[h].handled() for h in servers),
        events=cluster.kernel.executed,
        setup_s=t1 - t0,
        run_s=t2 - t1,
        setup_ref_s=setup_ref_s,
        cpu_refs=cpu_refs,
        stalls=stalls,
        fingerprint=digest.hexdigest(),
        facts={
            "ops": len(results),
            "kernel_events": cluster.kernel.executed,
            "reads": sum(m.reads for m in metrics),
            "local_hits": sum(m.local_hits for m in metrics),
            "extend_requests": sum(m.extend_requests for m in metrics),
            "retransmits": sum(m.retransmissions for m in metrics),
            "redirects": sum(m.redirects for m in metrics),
            "status": _quiet_status(cluster, shape),
        },
    )


def _crash_master(cluster, shape: Shape, crashes: list[float]) -> None:
    master = cluster.master_of()
    if master is None:
        return
    crashes.append(cluster.kernel.now)
    master.host.crash()
    cluster.kernel.schedule(shape.crash_down, master.host.restart)


def _quiet_status(cluster, shape: Shape) -> dict:
    """The serving engine's state counts once the run has gone quiet."""
    if shape.replicas:
        master = cluster.master_of()
        engine = master.engine.inner if master is not None else None
    else:
        engine = cluster.server.engine
    if engine is None:
        return {"lease_records": 0, "dedup_entries": 0, "known_clients": 0}
    return engine.status(cluster.kernel.now)


def measure(workload: str, seed: int, seconds: float, report) -> tuple[dict, int, int]:
    """The timed run: end-to-end metrics, attempted and failed op counts."""
    shape = SHAPES[workload]
    started = time.perf_counter()
    with ReferenceSampler() as sampler:
        first = [
            run_scenario(shape, seed * 1000 + k, sampler=sampler)
            for k in range(SCENARIOS)
        ]
        samples = list(first)
        k = 0
        while time.perf_counter() - started < seconds:
            again = run_scenario(shape, seed * 1000 + k % SCENARIOS, sampler=sampler)
            check(
                again.fingerprint == first[k % SCENARIOS].fingerprint,
                f"sub-scenario {k % SCENARIOS} replayed differently",
            )
            # Only the first pass's latencies are reported; keeping the
            # replays' would tie peak memory to how many replays ran.
            again.reads, again.writes = [], []
            samples.append(again)
            k += 1
    ops = sum(o.ops for o in first)
    failed = sum(o.failed for o in first)
    attempted = sum(o.ops for o in samples)
    reads = [x for o in first for x in o.reads]
    writes = [x for o in first for x in o.writes]
    stalls = [x for o in first for x in o.stalls]
    metrics = {
        "setup_s": median([o.setup_ref_s for o in samples]),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_ref": median([o.ops / o.cpu_refs for o in samples]),
        "server_msgs_per_op": sum(o.server_msgs for o in first) / ops,
    }
    report(f"{workload}: seed {seed}, {SCENARIOS} sub-scenarios, "
           f"{len(samples)} runs in {time.perf_counter() - started:.1f} s")
    report(f"  sim_ops_per_s        {median([o.ops / o.run_s for o in samples]):.1f} 1/s "
           f"(median of {len(samples)} runs); {metrics['ops_per_ref']:.4f} per "
           f"reference slice")
    report(f"  server_msgs_per_op   {metrics['server_msgs_per_op']:.4f} msgs/op")
    report(f"  sim_read_ms          {fmt(timing(reads))}")
    report(f"  sim_write_ms         {fmt(timing(writes))}")
    report(f"  fail_ratio           {failed / ops:.4f} ({failed} of {ops} ops)")
    report(f"  kernel_events        {sum(o.events for o in first)}")
    if shape.replicas:
        report(f"  failover_stall_p50_s {median(stalls):.3f} s")
        report(f"  failover_stall_max_s {max(stalls):.3f} s ({len(stalls)} crashes)")
    report(f"  peak_rss_mb          {metrics['peak_rss_mb']:.1f} MB")
    report(f"  setup_s              {metrics['setup_s']:.4f} s at reference speed "
           f"({median([o.setup_s for o in samples]):.4f} s on this host)")
    report(f"  quiet server state   {first[0].facts['status']}")
    return metrics, attempted, sum(o.failed for o in samples)


def trace(workload: str, seed: int, seconds: float, tracer):
    """Sub-scenario 0 untraced, then traced: facts, spans and run times.

    The untraced run is timed on a second replay: the first pays the
    process's one-off warm-up, which would make tracing look free."""
    shape = SHAPES[workload]
    run_scenario(shape, seed * 1000)
    plain = run_scenario(shape, seed * 1000)
    install(tracer)
    try:
        traced = run_scenario(shape, seed * 1000, tracer=tracer)
    finally:
        tracer.uninstall()
    check(traced.fingerprint == plain.fingerprint, "tracing changed the simulation")
    return (
        traced.facts,
        tracer.summary(),
        traced.setup_s + traced.run_s,
        plain.setup_s + plain.run_s,
        traced.ops,
        traced.failed,
    )
