"""Single-run core benchmark; emits and gates ``BENCH_core.json``.

``BENCH_sweep.json`` tracks the *sweep executor* (many scenarios, worker
pools).  This benchmark tracks the **single-run hot path** the PR-4 work
optimized, with two pinned workloads:

* ``core`` — synthetic storms that spend nearly all their time in the
  kernel and network layers: a lease-renewal timer churn (arm, cancel,
  re-arm — the wheel's worst customer) and a request/response ping-pong
  through the simulated network.  Both use only the API surface that
  predates the fast paths (``schedule``/``cancel``/``unicast``), so the
  same workload runs unchanged against any revision.
* ``scenario`` — the same 32-scenario pinned smoke mix as the sweep
  benchmark, run serially: the end-to-end number, diluted by the driver
  and oracle layers the hot-path work deliberately left alone.

Both workloads are deterministic: the gate checks the exact event counts
against the baseline before comparing throughput, so a semantic change
cannot masquerade as a perf swing.

Usage (also via ``benchmarks/bench_core.py``)::

    PYTHONPATH=src python -m repro.profile.core            # measure
    PYTHONPATH=src python -m repro.profile.core --check    # CI gate
    PYTHONPATH=src python -m repro.profile.core --pin      # re-pin
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.parallel.baseline import (
    PINNED_BASE_SEED,
    PINNED_JOBS,
    BaselineComparison,
    bench_job,
    load_report,
    machine_block,
    machine_drift,
    pinned_mix_sha,
    save_report,
)
from repro.sim.host import Host
from repro.sim.kernel import Kernel
from repro.sim.network import Network, NetworkParams

#: Allowed fractional events/sec drop before the gate fails.  Wider than
#: the sweep gate's 25 %: single-run numbers see more scheduler noise
#: than a 32-job aggregate.
TOLERANCE = 0.30

#: Committed baseline path (repository root).
BASELINE_PATH = "BENCH_core.json"

#: Timed passes per workload; the best is reported.  Best-of damps
#: box-load noise without the bias of averaging in a cold pass.
TRIALS = 5


def timer_storm(lines: int = 64, renewals: int = 400) -> int:
    """Lease-renewal churn: per line, arm a long expiry timer, then
    repeatedly cancel and re-arm it from a short-period renewal timer.

    This is the kernel's worst-case customer (the write-up in DESIGN.md
    §10): every renewal inserts twice and cancels once, so cancelled
    entries pile up and force periodic compaction, while the short
    timers hammer the draining bucket and the long ones the future
    slots.  Returns the kernel's executed-event count.
    """
    kernel = Kernel(seed=11)

    def renew(line: int, left: int, armed: list) -> None:
        if armed[0] is not None:
            armed[0].cancel()
        if left:
            armed[0] = kernel.schedule(30.0, expire, line)
            kernel.schedule(0.25 + (line % 7) * 0.01, renew, line, left - 1, armed)

    def expire(line: int) -> None:
        pass

    for line in range(lines):
        kernel.schedule((line % 13) * 0.003, renew, line, renewals, [None])
    kernel.run()
    return kernel.executed


def ping_storm(clients: int = 48, rounds: int = 300) -> int:
    """Request/response ping-pong through the simulated network.

    Every leg pays the paper's full timing model (send m_proc, m_prop,
    receive m_proc) with zero loss, so each one qualifies for the
    fault-free delivery fast path.  Returns the executed-event count.
    """
    kernel = Kernel(seed=13)
    net = Network(kernel, NetworkParams())
    server = Host("server", kernel)
    net.attach(server)
    remaining: dict[str, int] = {}

    def server_handler(payload, src):
        net.unicast("server", src, payload + 1, kind="pong")

    server.set_handler(server_handler)

    def attach_client(name: str) -> None:
        host = Host(name, kernel)
        net.attach(host)

        def handler(payload, src):
            if remaining[name]:
                remaining[name] -= 1
                net.unicast(name, "server", payload, kind="ping")

        host.set_handler(handler)

    for i in range(clients):
        name = f"c{i}"
        remaining[name] = rounds
        attach_client(name)
        kernel.schedule(0.001 * i, net.unicast, name, "server", 0, "ping")
    kernel.run()
    return kernel.executed


def core_workload() -> int:
    """The gated core workload: both storms; returns total events."""
    return timer_storm() + ping_storm()


def scenario_workload(jobs: int = PINNED_JOBS) -> int:
    """The pinned smoke mix, serial; returns total events."""
    return sum(bench_job(index)["events"] for index in range(jobs))


def _best_of(workload, trials: int) -> tuple[int, float]:
    """Run ``workload`` ``trials`` times; return (events, best wall_s).

    Event counts must agree across trials — these are deterministic
    simulations, and a drifting count means the harness is broken.
    """
    events = None
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        got = workload()
        wall = time.perf_counter() - start
        if events is None:
            events = got
        elif got != events:
            raise RuntimeError(
                f"non-deterministic workload: {events} then {got} events"
            )
        best = min(best, wall)
    return events, best


def run_benchmark(jobs: int = PINNED_JOBS, trials: int = TRIALS) -> dict:
    """Measure both workloads; return the ``BENCH_core.json`` report.

    Schema::

        {
          "benchmark": "core_hot_path",
          "job_mix":  {"base_seed", "jobs", "mode", "mix_sha"},
          "workers":  1,                     # single-run by definition
          "workloads": {
            "core":     {"events", "wall_s", "events_per_sec"},
            "scenario": {"events", "wall_s", "events_per_sec"}
          },
          "machine":  {"cpus", "python", "platform"}   # informational
        }

    The ``job_mix`` and ``machine`` blocks match ``BENCH_sweep.json``
    (same helpers), so the two baselines stay comparable side by side.
    """
    # Untimed warmup (imports, allocator growth), as in the sweep bench.
    core_workload()
    bench_job(0)

    report: dict = {
        "benchmark": "core_hot_path",
        "job_mix": {
            "base_seed": PINNED_BASE_SEED,
            "jobs": jobs,
            "mode": "smoke",
            "mix_sha": pinned_mix_sha(jobs),
        },
        "workers": 1,
        "workloads": {},
        "machine": machine_block(),
    }
    for name, workload in (
        ("core", core_workload),
        ("scenario", lambda: scenario_workload(jobs)),
    ):
        events, wall = _best_of(workload, trials)
        report["workloads"][name] = {
            "events": events,
            "wall_s": wall,
            "events_per_sec": events / wall,
        }
    return report


def compare(
    current: dict, baseline: dict, tolerance: float = TOLERANCE
) -> BaselineComparison:
    """Gate a fresh report against the committed ``BENCH_core.json``.

    Fails when the job mix changed (stale baseline — re-pin), when a
    workload's event count differs from the baseline's (the workloads
    are deterministic; a count change is a semantic change), or when a
    workload's events/sec dropped more than ``tolerance``.  Throughput
    drops are demoted to warnings when the ``machine`` block differs
    from the baseline's (see
    :func:`repro.parallel.baseline.machine_drift`); the event-count and
    mix checks still fail hard.
    """
    verdict = BaselineComparison()
    drift = machine_drift(current, baseline)
    if drift:
        verdict.warn(
            f"{drift}: throughput deltas are suspect until the baseline is "
            "re-pinned on this runner with `python benchmarks/bench_core.py "
            "--pin`"
        )
    if current.get("job_mix") != baseline.get("job_mix"):
        verdict.fail(
            f"job mix changed (baseline {baseline.get('job_mix')}, "
            f"current {current.get('job_mix')}): re-pin with "
            "`python benchmarks/bench_core.py --pin`"
        )
        return verdict
    for name, now in current.get("workloads", {}).items():
        then = baseline.get("workloads", {}).get(name)
        if then is None:
            verdict.fail(f"workload {name!r} missing from baseline: re-pin")
            continue
        if now["events"] != then["events"]:
            verdict.fail(
                f"{name} event count changed ({then['events']} -> "
                f"{now['events']}): deterministic workload diverged"
            )
            continue
        ratio = now["events_per_sec"] / then["events_per_sec"]
        verdict.ratios[name] = ratio
        if ratio < 1.0 - tolerance:
            message = (
                f"{name} events/sec regressed {100 * (1 - ratio):.1f}% "
                f"({then['events_per_sec']:.0f} -> "
                f"{now['events_per_sec']:.0f}, "
                f"tolerance {100 * tolerance:.0f}%)"
            )
            if drift:
                verdict.warn(f"{message} — on a drifted machine; re-pin")
            else:
                verdict.fail(message)
    return verdict


def main(argv: list[str] | None = None) -> int:
    """CLI driver; exit 0 on success, 1 on gate failure, 2 on usage."""
    parser = argparse.ArgumentParser(
        prog="bench_core",
        description="Single-run core hot-path benchmark: kernel/network "
        "storm and serial scenario-mix events/sec, with a baseline gate.",
    )
    parser.add_argument("--jobs", type=int, default=PINNED_JOBS,
                        help="scenario-mix size (gate requires the default)")
    parser.add_argument("--trials", type=int, default=TRIALS,
                        help=f"timed passes per workload (default {TRIALS})")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the fresh report here")
    parser.add_argument("--baseline", default=BASELINE_PATH, metavar="PATH",
                        help=f"committed baseline (default {BASELINE_PATH})")
    parser.add_argument("--check", action="store_true",
                        help="compare against the baseline; exit 1 on "
                        f">{100 * TOLERANCE:.0f}%% events/sec regression")
    parser.add_argument("--pin", action="store_true",
                        help="write the fresh report over the baseline "
                        "(commit the result)")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed fractional events/sec drop for --check")
    args = parser.parse_args(argv)

    report = run_benchmark(jobs=args.jobs, trials=args.trials)
    print(json.dumps(report, indent=2, sort_keys=True))

    if args.out:
        save_report(report, args.out)
    if args.pin:
        save_report(report, args.baseline)
        print(f"baseline pinned -> {args.baseline}", file=sys.stderr)
    if args.check:
        if not os.path.exists(args.baseline):
            print(f"no baseline at {args.baseline}; pin one with --pin",
                  file=sys.stderr)
            return 2
        verdict = compare(report, load_report(args.baseline),
                          tolerance=args.tolerance)
        for name, ratio in sorted(verdict.ratios.items()):
            print(f"{name}: {100 * ratio:.1f}% of baseline events/sec",
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
