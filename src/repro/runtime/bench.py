"""Asyncio load harness; emits/gates ``BENCH_runtime.json``.

The simulator benchmarks (``BENCH_core.json``, ``BENCH_sweep.json``)
measure the engines under the deterministic kernel.  This harness
measures the *runtime*: thousands of :class:`LeaseClientNode` instances
driving one :class:`LeaseServerNode` over the in-memory hub on a real
event loop, with the request pipeline on — the configuration the paper's
load claims are about (§3: leases amortize server traffic; batching
amortizes per-message cost).

The workload is a pinned, seeded schedule: every client issues a fixed
number of operations *concurrently* (so they coalesce into one
``BatchRequest`` frame per client), reads spread over a small pool of
shared files (first touch fetches a lease, later touches are local cache
hits — the lease economics under test) and writes go to a per-client
private file (no sharers, so the measurement is not dominated by
approval broadcasts; write-sharing behaviour is covered by the oracle
sweeps, not this throughput number).

Reported metrics: requests/sec over the whole run, p50/p99 per-op
latency (submission to completion, including queueing behind the other
clients — the number an application would feel), op failures (must be
zero), and the pipeline's batch counters.  ``--check`` gates
requests/sec against the committed ``BENCH_runtime.json`` exactly like
the other benches, including the machine-drift demotion
(:func:`repro.parallel.baseline.machine_drift`).

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime.py            # measure
    PYTHONPATH=src python benchmarks/bench_runtime.py --check    # CI gate
    PYTHONPATH=src python benchmarks/bench_runtime.py --pin      # re-pin
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import sys
import time

from repro.errors import ReproError
from repro.lease.policy import FixedTermPolicy
from repro.obs.registry import percentile
from repro.parallel.baseline import (
    BaselineComparison,
    load_report,
    machine_block,
    machine_drift,
    save_report,
)
from repro.protocol.client import ClientConfig, ClientEngine
from repro.protocol.server import ServerConfig
from repro.runtime.node import LeaseClientNode, LeaseServerNode
from repro.runtime.transport import InMemoryHub
from repro.shard import ShardedClientEngine, ShardedStore, shard_hosts
from repro.storage.store import FileStore
from repro.workload.models import PRESETS, bench_schedule, preset

#: Seed namespace of the pinned schedule (the paper's publication year).
PINNED_SEED = 1989

#: Pinned client count — the "10k concurrent clients" headline load.
PINNED_CLIENTS = 10_000

#: Operations issued (concurrently) by each client.
PINNED_OPS = 5

#: Shared read-pool size; small so leases actually amortize.
READ_FILES = 64

#: Fraction of ops that are writes (to the client's private file).
P_WRITE = 0.1

#: Allowed fractional requests/sec drop before the gate fails.  Wider
#: than the simulator benches: a wall-clock asyncio run on a shared CI
#: runner is noisier than the deterministic kernel.
TOLERANCE = 0.40

#: Default artifact path (committed at the repository root).
BASELINE_PATH = "BENCH_runtime.json"


def build_schedule(
    clients: int,
    ops: int,
    seed: int = PINNED_SEED,
    read_files: int = READ_FILES,
    p_write: float = P_WRITE,
) -> list[list[tuple]]:
    """The pinned workload: per-client op lists, deterministic in ``seed``.

    Each op is ``("read", pool_index)`` or ``("write",)`` — writes always
    target the issuing client's private file.
    """
    rng = random.Random(f"repro.runtime.bench/{seed}")
    return [
        [
            ("write",) if rng.random() < p_write else ("read", rng.randrange(read_files))
            for _ in range(ops)
        ]
        for _ in range(clients)
    ]


def _schedule_for(
    workload: str | None, clients: int, ops: int, seed: int
) -> tuple[list[list[tuple]], int]:
    """``(schedule, read_pool_size)`` — pinned or traffic-model workload.

    ``workload=None`` is the gated configuration and stays byte-identical
    to the committed ``mix_sha``; a named
    :data:`~repro.workload.models.PRESETS` model reshapes the read pool
    (Zipf/Pareto skew, flash crowds) via
    :func:`~repro.workload.models.bench_schedule`, for ungated A/B runs.
    """
    if workload is None:
        return build_schedule(clients, ops, seed), READ_FILES
    spec = preset(workload)
    return bench_schedule(spec, clients, ops, seed), spec.n_files


def schedule_sha(schedule: list[list[tuple]]) -> str:
    """SHA-256 over the canonical JSON of the schedule — the mix hash.

    Committed inside the baseline's ``job_mix`` block so a workload
    change shows up as a mix mismatch (stale baseline) instead of a
    phantom perf swing, mirroring ``pinned_mix_sha`` for the sim benches.
    """
    blob = json.dumps(schedule, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


async def _run_load(
    clients: int,
    ops: int,
    seed: int,
    batching: bool,
    max_batch: int,
    workload: str | None = None,
    shards: int = 1,
) -> dict:
    """Build the world, drive the schedule, return the raw metrics.

    ``shards > 1`` stands up one :class:`LeaseServerNode` per shard
    (hub endpoints ``s0 .. s{N-1}``, each over its own shard of a
    :class:`~repro.shard.store.ShardedStore`) and binds every client to
    a :class:`~repro.shard.client.ShardedClientEngine`; the hub reaches
    any endpoint by name, so no fan-out transport is needed here.
    """
    schedule, read_files = _schedule_for(workload, clients, ops, seed)
    hub = InMemoryHub()
    server_config = ServerConfig(
        epsilon=0.01, announce_period=60.0, sweep_period=600.0
    )
    if shards > 1:
        store = ShardedStore(shards)
        for shard_store in store.shards:
            shard_store.namespace.mkdir("/bench")
        servers = [
            LeaseServerNode(
                hub.endpoint(host),
                store.shards[k],
                FixedTermPolicy(300.0),
                config=server_config,
            )
            for k, host in enumerate(shard_hosts(shards))
        ]
    else:
        store = FileStore()
        store.namespace.mkdir("/bench")
        servers = [
            LeaseServerNode(
                hub.endpoint("server"),
                store,
                FixedTermPolicy(300.0),
                config=server_config,
            )
        ]
    for i in range(read_files):
        store.create_file(f"/bench/shared-{i}", b"s" * 64)
    read_pool = [store.file_datum(f"/bench/shared-{i}") for i in range(read_files)]
    own = []
    for i in range(clients):
        store.create_file(f"/bench/own-{i}", b"")
        own.append(store.file_datum(f"/bench/own-{i}"))

    # Generous timeouts: under full load an op legitimately queues behind
    # thousands of peers; a retransmission storm would only add noise.
    client_config = ClientConfig(
        epsilon=0.01,
        rpc_timeout=60.0,
        write_timeout=240.0,
        batching=batching,
        max_batch=max_batch,
    )
    nodes = [
        LeaseClientNode(
            hub.endpoint(f"c{i}"),
            shard_hosts(shards) if shards > 1 else "server",
            config=client_config,
            # Deterministic, disjoint dedup-id spaces (the default is a
            # random epoch, which would perturb the pinned run).
            id_base=(i + 1) * 1_000_000,
            engine_cls=ShardedClientEngine if shards > 1 else ClientEngine,
        )
        for i in range(clients)
    ]

    latencies: list[float] = []
    failures = 0

    async def do_op(node: LeaseClientNode, op: tuple, own_datum: str) -> None:
        nonlocal failures
        start = time.perf_counter()
        try:
            if op[0] == "write":
                await node.write(own_datum, b"w" * 32)
            else:
                await node.read(read_pool[op[1]])
        except ReproError:
            failures += 1
        latencies.append((time.perf_counter() - start) * 1000.0)

    async def run_client(i: int, node: LeaseClientNode) -> None:
        # Submitted concurrently on purpose: ops issued within one loop
        # instant coalesce into a single BatchRequest frame.
        await asyncio.gather(*(do_op(node, op, own[i]) for op in schedule[i]))

    start = time.perf_counter()
    await asyncio.gather(*(run_client(i, n) for i, n in enumerate(nodes)))
    wall_s = time.perf_counter() - start

    batches_sent = sum(n.engine.pipeline_stats()[0] for n in nodes)
    batched_ops = sum(n.engine.pipeline_stats()[1] for n in nodes)
    per_shard: list[int] | None = None
    if shards > 1:
        per_shard = [0] * shards
        for node in nodes:
            for k, count in enumerate(node.engine.shard_counts):
                per_shard[k] += count
    for node in nodes:
        await node.close()
    for server in servers:
        await server.close()

    latencies.sort()
    requests = len(latencies)

    metrics = {
        "requests": requests,
        "failures": failures,
        "dropped_frames": hub.dropped,
        "wall_s": wall_s,
        "requests_per_sec": requests / wall_s if wall_s else 0.0,
        "p50_ms": percentile(latencies, 0.50) if latencies else 0.0,
        "p99_ms": percentile(latencies, 0.99) if latencies else 0.0,
        "batches_sent": batches_sent,
        "batched_ops": batched_ops,
    }
    if per_shard is not None:
        # Ops routed to each shard — the load-spread the ring achieved.
        metrics["per_shard_requests"] = per_shard
    return metrics


def run_benchmark(
    clients: int = PINNED_CLIENTS,
    ops: int = PINNED_OPS,
    seed: int = PINNED_SEED,
    batching: bool = True,
    max_batch: int = 64,
    workload: str | None = None,
    shards: int = 1,
) -> dict:
    """Run the load once; return the ``BENCH_runtime.json`` report::

        {
          "benchmark": "runtime_load",
          "job_mix":  {"clients", "ops_per_client", "read_files",
                       "p_write", "seed", "batching", "max_batch",
                       "mix_sha"},
          "metrics":  {"requests", "failures", "dropped_frames",
                       "wall_s", "requests_per_sec", "p50_ms", "p99_ms",
                       "batches_sent", "batched_ops"},
          "machine":  {"cpus", "python", "platform"}   # informational
        }

    A single timed pass, not best-of-N: the run *is* the steady state
    (every client active at once), and at the pinned size one pass is
    already expensive enough for CI.

    ``workload`` swaps the pinned schedule for a named traffic model;
    the ``job_mix`` block then carries a ``workload`` key (absent in the
    default, so the committed baseline's mix hash is untouched) and the
    result is for A/B comparison, not the gate.  ``shards > 1`` likewise
    adds a ``shards`` key to ``job_mix`` and a ``per_shard_requests``
    breakdown to the metrics, and is never the gated configuration.
    """
    metrics = asyncio.run(
        _run_load(clients, ops, seed, batching, max_batch, workload, shards)
    )
    schedule, read_files = _schedule_for(workload, clients, ops, seed)
    job_mix = {
        "clients": clients,
        "ops_per_client": ops,
        "read_files": read_files,
        "p_write": P_WRITE,
        "seed": seed,
        "batching": batching,
        "max_batch": max_batch,
        "mix_sha": schedule_sha(schedule),
    }
    if workload is not None:
        job_mix["workload"] = workload
    if shards > 1:
        job_mix["shards"] = shards
    return {
        "benchmark": "runtime_load",
        "job_mix": job_mix,
        "metrics": metrics,
        "machine": machine_block(),
    }


def compare(
    current: dict, baseline: dict, tolerance: float = TOLERANCE
) -> BaselineComparison:
    """Gate a fresh report against the committed ``BENCH_runtime.json``.

    Fails when the job mix changed (stale baseline — re-pin), when any
    op failed or any frame was dropped (the hub is lossless, so either
    means the runtime broke under load), or when requests/sec dropped
    more than ``tolerance``.  Throughput drops are demoted to warnings
    when the ``machine`` block drifted from the baseline's; the
    correctness checks still fail hard.
    """
    verdict = BaselineComparison()
    drift = machine_drift(current, baseline)
    if drift:
        verdict.warn(
            f"{drift}: throughput deltas are suspect until the baseline is "
            "re-pinned on this runner with `python benchmarks/bench_runtime.py "
            "--pin`"
        )
    if current.get("job_mix") != baseline.get("job_mix"):
        verdict.fail(
            f"job mix changed (baseline {baseline.get('job_mix')}, "
            f"current {current.get('job_mix')}): re-pin with "
            "`python benchmarks/bench_runtime.py --pin`"
        )
        return verdict
    now = current["metrics"]
    then = baseline["metrics"]
    if now["failures"] or now["dropped_frames"]:
        verdict.fail(
            f"load run not clean: {now['failures']} op failures, "
            f"{now['dropped_frames']} dropped frames (expected 0/0)"
        )
    ratio = now["requests_per_sec"] / then["requests_per_sec"]
    verdict.ratios["requests_per_sec"] = ratio
    if ratio < 1.0 - tolerance:
        message = (
            f"requests/sec regressed {100 * (1 - ratio):.1f}% "
            f"({then['requests_per_sec']:.0f} -> "
            f"{now['requests_per_sec']:.0f}, "
            f"tolerance {100 * tolerance:.0f}%)"
        )
        if drift:
            verdict.warn(f"{message} — on a drifted machine; re-pin")
        else:
            verdict.fail(message)
    return verdict


def main(argv: list[str] | None = None) -> int:
    """CLI driver; exit 0 on success, 1 on gate failure or an unclean
    run (op failures / dropped frames), 2 on usage errors."""
    parser = argparse.ArgumentParser(
        prog="bench_runtime",
        description="Asyncio load benchmark: N concurrent pipelined clients "
        "against one server over the in-memory hub, with a baseline gate.",
    )
    parser.add_argument("--clients", type=int, default=PINNED_CLIENTS,
                        help=f"concurrent clients (gate requires the "
                        f"default {PINNED_CLIENTS})")
    parser.add_argument("--ops", type=int, default=PINNED_OPS,
                        help="concurrent ops per client "
                        f"(default {PINNED_OPS})")
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help="schedule seed (gate requires the default)")
    parser.add_argument("--no-batching", action="store_true",
                        help="run with the request pipeline off "
                        "(for comparison; not the gated configuration)")
    parser.add_argument("--workload", default=None, metavar="MODEL",
                        choices=sorted(PRESETS),
                        help="drive a traffic-model schedule "
                        f"({', '.join(sorted(PRESETS))}) instead of the "
                        "pinned mix (for comparison; not the gated "
                        "configuration)")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="lease-server shards (default 1; N>1 runs one "
                        "server node per shard with shard-aware clients — "
                        "for comparison, not the gated configuration)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the fresh report here")
    parser.add_argument("--baseline", default=BASELINE_PATH, metavar="PATH",
                        help=f"committed baseline (default {BASELINE_PATH})")
    parser.add_argument("--check", action="store_true",
                        help="compare against the baseline; exit 1 on "
                        f">{100 * TOLERANCE:.0f}%% requests/sec regression")
    parser.add_argument("--pin", action="store_true",
                        help="write the fresh report over the baseline "
                        "(commit the result)")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed fractional requests/sec drop for "
                        "--check")
    args = parser.parse_args(argv)

    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    report = run_benchmark(
        clients=args.clients,
        ops=args.ops,
        seed=args.seed,
        batching=not args.no_batching,
        workload=args.workload,
        shards=args.shards,
    )
    print(json.dumps(report, indent=2, sort_keys=True))

    if args.out:
        save_report(report, args.out)
    if args.pin:
        save_report(report, args.baseline)
        print(f"baseline pinned -> {args.baseline}", file=sys.stderr)

    metrics = report["metrics"]
    if metrics["failures"] or metrics["dropped_frames"]:
        # Even un-gated (the CI smoke run), a load run that lost or
        # failed ops is broken — refuse to report success.
        print(f"LOAD RUN NOT CLEAN: {metrics['failures']} op failures, "
              f"{metrics['dropped_frames']} dropped frames",
              file=sys.stderr)
        return 1

    if args.check:
        if not os.path.exists(args.baseline):
            print(f"no baseline at {args.baseline}; pin one with --pin",
                  file=sys.stderr)
            return 2
        verdict = compare(report, load_report(args.baseline),
                          tolerance=args.tolerance)
        for metric, ratio in sorted(verdict.ratios.items()):
            print(f"{metric}: {100 * ratio:.1f}% of baseline",
                  file=sys.stderr)
        for line in verdict.warnings:
            print(f"PERF GATE WARN: {line}", file=sys.stderr)
        if not verdict.ok:
            for line in verdict.regressions:
                print(f"PERF GATE FAIL: {line}", file=sys.stderr)
            return 1
        print("perf gate ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
