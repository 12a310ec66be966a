"""The ``rt-tcp`` workload: the asyncio runtime over TCP loopback.

The lease server runs in a child process (:mod:`rt_server`).  This
process runs two pipelined :class:`LeaseClientNode` clients, one TCP
connection each, and drives them open loop: each step is a seeded
Poisson schedule at a fixed offered rate, every op is launched when it
is due whether or not earlier ops have finished, and its latency is
timed from when it was due.  After priming and a warm-up, a long step
at a nominal rate below the knee gives the latency, cost and load
figures; a short ladder of rising rates follows, for the highest rate
that meets the latency limit.

Checks: every read returns a version at least as new as the newest
write to that file acknowledged before the read was due, with the
payload that version was written with; after the load, a read-back of
every written file returns its last acknowledged version.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

from repro.errors import ReproError
from repro.protocol.client import ClientConfig
from repro.runtime.node import LeaseClientNode
from repro.runtime.tcp import TcpClientTransport
from repro.types import DatumId
from repro.workload.models import WorkloadSpec, sample_events

from common import (
    EPSILON, MIN_SLICES, N_FILES, ReferenceSampler, at_reference_speed, check, fmt,
    in_slices, median, merge_summaries, percentile, reference_slice, timing,
)
from tracing import install

HERE = os.path.dirname(os.path.abspath(__file__))

CLIENTS = 2
CACHE_CAPACITY = 20
P_WRITE = 0.2
#: Latency limit on the p99 of all ops of a ladder step.
SLO_S = 0.100
#: Offered rates of the ladder (ops/s over both clients) and step length.
LADDER = (1300, 1900, 2700, 3800)
LADDER_STEP_S = 1.5
#: The rate the latency figures are measured at, below the knee, after
#: an unmeasured warm-up.
NOMINAL = 400
WARMUP_S = 2.0
#: The nominal step gets what the warm-up and ladder leave of
#: ``--seconds``, but at least this long (enough writes for a p99).
MIN_NOMINAL_S = 20.0
#: Server start-ups per run; the median is ``setup_s``.
SETUPS = 15
#: Most time a step may take to drain after its last op was launched.
DRAIN_S = 10.0


@dataclass
class Op:
    """One op of the schedule and what became of it."""

    due: float
    client: int
    kind: str
    file: int
    started: float = 0.0
    done: float = 0.0
    ok: bool = False
    version: int = 0
    payload: bytes = b""

    @property
    def latency(self) -> float:
        return self.done - self.due if self.ok else math.inf


class Server:
    """The server child process and its line protocol."""

    def __init__(self, trace_path: str = "") -> None:
        cmd = [sys.executable, os.path.join(HERE, "rt_server.py")]
        if trace_path:
            cmd += ["--trace", trace_path]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        #: The port, and the server's own set-up CPU time and speed.
        self.hello = self._line()
        self.port = self.hello["port"]

    def _line(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"server exited with status {self.proc.returncode}")
        return json.loads(line)

    def stats(self) -> dict:
        self.proc.stdin.write(b"stats\n")
        self.proc.stdin.flush()
        return self._line()

    def reset(self) -> None:
        """Drop the spans the server recorded so far (traced servers)."""
        self.proc.stdin.write(b"reset\n")
        self.proc.stdin.flush()

    def stop(self) -> dict:
        """Close the server; its final counters."""
        self.proc.stdin.close()
        try:
            final = self._line()
        finally:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
                raise
        check(self.proc.returncode == 0, f"server exited with {self.proc.returncode}")
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Rig:
    """A started server child and the clients connected to it."""

    def __init__(self, server: Server, clients: list[LeaseClientNode]) -> None:
        self.server = server
        self.clients = clients

    @classmethod
    async def start(cls, trace_path: str = "") -> "Rig":
        server = Server(trace_path)
        clients = []
        try:
            config = ClientConfig(
                epsilon=EPSILON, batching=True, cache_capacity=CACHE_CAPACITY
            )
            for i in range(CLIENTS):
                transport = TcpClientTransport(f"c{i}", "server")
                await transport.connect("127.0.0.1", server.port)
                clients.append(LeaseClientNode(transport, "server", config=config))
        except BaseException:
            for client in clients:
                await client.close()
            server.kill()
            raise
        return cls(server, clients)

    async def stop(self) -> dict:
        for client in self.clients:
            await client.close()
        return self.server.stop()


async def prime(rig: Rig) -> None:
    """Every client reads every file once.

    A client never drops a lease it has held (expired or evicted ones
    too), and extends all of them together, so its lease set grows until
    it covers the whole working set; latency and cost per op grow with
    it.  Priming reaches that steady state before anything is measured.
    """
    for client in rig.clients:
        await asyncio.gather(
            *(client.read(DatumId.file(f"f{f}")) for f in range(N_FILES))
        )


def schedule(seed: int, step: int, rate: float, seconds: float) -> list[Op]:
    spec = WorkloadSpec(
        kind="zipf", alpha=1.1, n_files=N_FILES, rate=rate / CLIENTS, p_write=P_WRITE
    )
    events = sample_events(spec, CLIENTS, seconds, seed * 1000 + step)
    return [Op(at, c, kind, f) for at, c, kind, f in events]


async def run_op(client: LeaseClientNode, op: Op, content: bytes) -> None:
    op.started = time.perf_counter()
    datum = DatumId.file(f"f{op.file}")
    try:
        if op.kind == "read":
            op.version, op.payload = await client.read(datum)
        else:
            op.version = await client.write(datum, content)
            op.payload = content
        op.ok = True
    except ReproError:
        op.ok = False
    op.done = time.perf_counter()


@dataclass
class Step:
    """One open-loop step's outcome."""

    rate: float
    ops: list[Op]
    late: list[float]
    backlog_mid: int
    backlog_end: int
    wall_s: float

    @property
    def p99_s(self) -> float:
        return percentile(sorted(op.latency for op in self.ops), 0.99)

    @property
    def growing(self) -> bool:
        """The queue grew by more than the limit's worth of arrivals."""
        return self.backlog_end - self.backlog_mid > self.rate * SLO_S

    @property
    def meets_limit(self) -> bool:
        return self.p99_s <= SLO_S and not self.growing


async def run_step(rig: Rig, ops: list[Op], rate: float, tag: str) -> Step:
    """Launch every op when due; wait for all of them to finish."""
    tasks: set[asyncio.Task] = set()
    late: list[float] = []
    errors: list[BaseException] = []
    finished = 0

    def on_done(task: asyncio.Task) -> None:
        nonlocal finished
        finished += 1
        tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            errors.append(task.exception())

    # The schedule and earlier steps' records live until the checks run:
    # keep the collector from rescanning them during the step.
    gc.collect()
    gc.freeze()
    loop = asyncio.get_running_loop()
    t0 = time.perf_counter() + 0.005
    backlog_mid = 0
    half = len(ops) // 2
    for i, op in enumerate(ops):
        op.due += t0
        delay = op.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(time.perf_counter() - op.due)
        content = f"{tag}:{i}".encode()
        task = loop.create_task(run_op(rig.clients[op.client], op, content))
        tasks.add(task)
        task.add_done_callback(on_done)
        if i == half:
            backlog_mid = i + 1 - finished
    backlog_end = len(ops) - finished
    end = time.perf_counter()
    if tasks:
        await asyncio.wait(set(tasks), timeout=DRAIN_S)
    check(not tasks, f"{len(tasks)} ops still running {DRAIN_S} s after step {tag}")
    if errors:
        raise errors[0]
    return Step(rate, ops, late, backlog_mid, backlog_end, end - t0)


def check_reads(ops: list[Op]) -> None:
    """Reads see every write acknowledged before they were due."""
    acked: dict[int, list[tuple[float, int]]] = {}
    written: dict[tuple[int, int], bytes] = {}
    for op in ops:
        if op.kind == "write" and op.ok:
            acked.setdefault(op.file, []).append((op.done, op.version))
            key = (op.file, op.version)
            check(key not in written, f"two writes acknowledged as f{op.file} v{op.version}")
            written[key] = op.payload
    newest: dict[int, tuple[list[float], list[int]]] = {}
    for file, acks in acked.items():
        acks.sort()
        times, running, best = [], [], 0
        for t, v in acks:
            best = max(best, v)
            times.append(t)
            running.append(best)
        newest[file] = (times, running)
    for op in ops:
        if op.kind != "read" or not op.ok:
            continue
        times, running = newest.get(op.file, ([], []))
        i = bisect.bisect_left(times, op.due)
        floor = running[i - 1] if i else 0
        check(
            op.version >= floor,
            f"stale read of f{op.file}: v{op.version} after v{floor} was acknowledged",
        )
        expected = written.get((op.file, op.version))
        if expected is not None:
            check(op.payload == expected, f"f{op.file} v{op.version} read wrong bytes")


async def read_back(rig: Rig, ops: list[Op]) -> None:
    """Every written file reads back as its last acknowledged version."""
    last: dict[int, Op] = {}
    for op in ops:
        if op.kind == "write" and op.ok:
            if op.file not in last or op.version > last[op.file].version:
                last[op.file] = op
    any_failed_write = any(op.kind == "write" and not op.ok for op in ops)
    for file, op in sorted(last.items()):
        version, payload = await rig.clients[0].read(DatumId.file(f"f{file}"))
        if any_failed_write:
            check(version >= op.version, f"f{file} read back v{version} < v{op.version}")
        else:
            check(
                (version, payload) == (op.version, op.payload),
                f"f{file} read back v{version}, last acknowledged v{op.version}",
            )


async def setup_time() -> tuple[float, float]:
    """Start the server and connect the clients, then tear down, ``SETUPS``
    times; the median set-up CPU time on this host and at reference speed.

    Set-up is the server's CPU from the end of its imports to listening
    (it measures and reports that itself, with its own reference slices)
    plus this process's CPU spawning it and connecting the clients.  CPU
    time, not wall time: the spawn's wall time is mostly interpreter
    start-up, imports and the host's scheduling, and spread by a third
    between runs.
    """
    times: list[float] = []
    ref_times: list[float] = []
    for _ in range(SETUPS):
        cpu = time.process_time()
        rig = await Rig.start()
        cpu = time.process_time() - cpu
        local = [reference_slice() for _ in range(MIN_SLICES)]
        hello = rig.server.hello
        times.append(hello["setup_cpu_s"] + cpu)
        ref_times.append(
            at_reference_speed(hello["setup_cpu_s"], hello["setup_slices"])
            + at_reference_speed(cpu, local)
        )
        await rig.stop()
    return median(times), median(ref_times)


async def load(rig: Rig, seed: int, seconds: float, report) -> dict:
    """Warm-up, the nominal step, then the ladder; checks; the steps."""
    nominal_s = max(MIN_NOMINAL_S, seconds - WARMUP_S - LADDER_STEP_S * len(LADDER))
    await prime(rig)
    all_ops = schedule(seed, 0, NOMINAL, WARMUP_S)
    await run_step(rig, all_ops, NOMINAL, "warmup")
    ops = schedule(seed, 1, NOMINAL, nominal_s)
    before = rig.server.stats()
    with ReferenceSampler() as sampler:
        cpu = time.process_time()
        nominal = await run_step(rig, ops, NOMINAL, "nominal")
        cpu = time.process_time() - cpu
    after = rig.server.stats()
    # Each process's CPU in reference slices it took during the step.
    slices = sampler.take()
    server_slices = after["reference_slices"]
    refs = in_slices(cpu, slices) + in_slices(after["cpu_s"] - before["cpu_s"], server_slices)
    all_ops += ops
    steps = []
    for k, rate in enumerate(LADDER):
        ops = schedule(seed, 2 + k, rate, LADDER_STEP_S)
        steps.append(await run_step(rig, ops, rate, f"s{k}"))
        all_ops += ops
    check_reads(all_ops)
    await read_back(rig, all_ops)
    for step in [nominal] + steps:
        report(
            f"  step {step.rate:>5} ops/s: n={len(step.ops):>5} "
            f"p99={1e3 * step.p99_s:9.2f} ms  late_p99="
            f"{1e3 * percentile(sorted(step.late), 0.99):7.2f} ms  backlog "
            f"mid={step.backlog_mid} end={step.backlog_end}"
            f"{'  GROWING' if step.growing else ''}"
            f"{'' if step.meets_limit else '  misses limit'}"
        )
    return {
        "steps": steps,
        "nominal": nominal,
        "ops": all_ops,
        "nominal_msgs": after["msgs"] - before["msgs"],
        "nominal_frames": after["frames"] - before["frames"],
        "nominal_cpu_s": cpu + after["cpu_s"] - before["cpu_s"],
        "nominal_refs": refs,
        "slice_ms": (1e3 * median(slices), 1e3 * median(server_slices)),
    }


def measure(workload: str, seed: int, seconds: float, report):
    return asyncio.run(_measure(seed, seconds, report))


async def _measure(seed: int, seconds: float, report):
    setup_s, setup_ref_s = await setup_time()
    rig = await Rig.start()
    try:
        result = await load(rig, seed, seconds, report)
    finally:
        final = await rig.stop()
    nominal: Step = result["nominal"]
    reads = [op.latency for op in nominal.ops if op.kind == "read"]
    writes = [op.latency for op in nominal.ops if op.kind == "write"]
    passing = [s.rate for s in result["steps"] if s.meets_limit]
    failed = sum(1 for op in result["ops"] if not op.ok)
    attempted = len(result["ops"])
    metrics = {
        "setup_s": setup_ref_s,
        "peak_rss_mb": final["rss_mb"],
        "ops_per_ref": len(nominal.ops) / result["nominal_refs"],
        "server_msgs_per_op": result["nominal_msgs"] / len(nominal.ops),
    }
    report(f"rt-tcp: seed {seed}, nominal {NOMINAL} ops/s for {nominal.wall_s:.1f} s")
    report(f"  rt_read_ms           {fmt(timing(reads))}")
    report(f"  rt_write_ms          {fmt(timing(writes))}")
    report(f"  rt_max_rate_ops_s    {max(passing, default=0)} 1/s (highest ladder rate "
           f"with p99 <= {1e3 * SLO_S:.0f} ms and no growing backlog)")
    report(f"  ops_per_cpu_s        {len(nominal.ops) / result['nominal_cpu_s']:.1f} 1/s "
           f"(nominal ops per CPU-second of both processes); "
           f"{metrics['ops_per_ref']:.4f} per reference slice")
    report(f"  reference slice      {result['slice_ms'][0]:.3f} ms (load process), "
           f"{result['slice_ms'][1]:.3f} ms (server process)")
    report(f"  server_msgs_per_op   {metrics['server_msgs_per_op']:.4f} msgs/op "
           f"({result['nominal_frames'] / len(nominal.ops):.4f} frames/op)")
    report(f"  fail_ratio           {failed / attempted:.4f} ({failed} of {attempted} ops)")
    report(f"  generator late       {fmt(timing(nominal.late))}")
    report(f"  peak_rss_mb          {metrics['peak_rss_mb']:.1f} MB (server process)")
    report(f"  setup_s              {setup_ref_s:.5f} s at reference speed "
           f"({setup_s:.5f} CPU s on this host; median of {SETUPS})")
    report(f"  server state at end  {final['status']}")
    return metrics, attempted, failed


#: Length of the traced (and of the matching untraced) schedule.
TRACE_S = 8.0


def trace(workload: str, seed: int, seconds: float, tracer):
    return asyncio.run(_trace(seed, tracer))


async def _cpu_run(seed: int, tracer=None, span_path: str = ""):
    """Prime, warm up, then one nominal-rate schedule of ``TRACE_S``; the
    schedule's CPU seconds in both processes and what it counted."""
    rig = await Rig.start(span_path)
    try:
        await prime(rig)
        await run_step(rig, schedule(seed, 0, NOMINAL, WARMUP_S), NOMINAL, "warmup")
        if tracer is not None:
            tracer.reset()
            rig.server.reset()
        engines = [c.engine for c in rig.clients]
        metrics0 = [dataclasses.replace(e.metrics) for e in engines]
        pipes0 = [e.pipeline_stats() for e in engines]
        server_cpu = rig.server.stats()["cpu_s"]
        cpu = time.process_time()
        ops = schedule(seed, 1, NOMINAL, TRACE_S)
        step = await run_step(rig, ops, NOMINAL, "trace")
        cpu = time.process_time() - cpu
        check_reads(ops)
        metrics = [_delta(e.metrics, m0) for e, m0 in zip(engines, metrics0)]
        pipes = [
            (e.pipeline_stats()[0] - p0[0], e.pipeline_stats()[1] - p0[1])
            for e, p0 in zip(engines, pipes0)
        ]
    finally:
        final = await rig.stop()
    cpu += final["cpu_s"] - server_cpu - sum(final["reference_slices"])
    facts = {
        "ops": len(ops),
        "reads": sum(m["reads"] for m in metrics),
        "local_hits": sum(m["local_hits"] for m in metrics),
        "extend_requests": sum(m["extend_requests"] for m in metrics),
        "retransmits": sum(m["retransmissions"] for m in metrics),
        "redirects": sum(m["redirects"] for m in metrics),
        "batches": sum(p[0] for p in pipes),
        "batched_ops": sum(p[1] for p in pipes),
        "gen_late_p99_ms": 1e3 * percentile(sorted(step.late), 0.99),
        "node_wall_s": sum(op.done - op.started for op in ops),
        "status": final["status"],
    }
    return step, cpu, facts, final


def _delta(now, before) -> dict:
    after, start = dataclasses.asdict(now), dataclasses.asdict(before)
    return {key: after[key] - start[key] for key in after}


async def _trace(seed: int, tracer):
    _step, plain_cpu, _facts, _final = await _cpu_run(seed)
    span_path = os.path.join(
        os.path.dirname(HERE), ".perfbench", f"spans-rt-tcp-{seed}-server.bin"
    )
    install(tracer)
    try:
        step, cpu, facts, final = await _cpu_run(seed, tracer, span_path)
    finally:
        tracer.uninstall()
    client = tracer.summary()
    client_busy = sum(row["self_s"] for row in client["spans"].values())
    facts["node_wait_s"] = max(0.0, facts.pop("node_wall_s") - client_busy)
    summary = merge_summaries(client, final["summary"])
    failed = sum(1 for op in step.ops if not op.ok)
    return facts, summary, cpu, plain_cpu, len(step.ops), failed
