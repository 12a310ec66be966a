"""The lease-service benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload des-steady --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``des-steady`` — the paper's regime on the deterministic simulator:
  one server, 100 clients, 10 s terms, V network timing, Poisson
  arrivals, Zipf reads over 300 shared files with 5% writes.
* ``des-failover`` — three PaxosLease replicas, 32 clients, 30% writes
  on 16 hot files; the master is crashed on a seeded schedule.
* ``rt-tcp`` — the asyncio runtime over TCP loopback: a server child
  process, two pipelined clients in this process, open-loop Poisson
  load at fixed rates over 200 files with a 20-entry cache.

``--trace 0`` is the timed run.  It prints a readable report with every
figure (virtual-time and wall-clock latency as p50 plus the highest
percentile with ten samples beyond it, fail ratio, failover stalls, the
open-loop ladder), then one JSON line with the end-to-end metrics:

* ``setup_s`` — median time to build the system and its inputs, scaled
  to reference-slice speed (:func:`common.at_reference_speed`); on
  ``rt-tcp`` the CPU time of starting the server (measured by the server
  itself) and connecting the clients;
* ``peak_rss_mb`` — peak resident memory of the process running the
  system under test (the server child on ``rt-tcp``);
* ``ops_per_ref`` — client ops completed per reference slice of CPU.
  The host's speed drifts by up to 2x within a minute, so CPU time is
  counted in :func:`common.reference_slice` units measured while the
  system runs, in each process that runs it;
* ``server_msgs_per_op`` — messages sent plus received by the server
  (or every replica) per op: the paper's consistency load.  On
  ``rt-tcp`` a batch counts as the ops or replies it carries, so the
  figure does not move with how the host's timing happened to batch.

``--trace 1`` runs the workload once untraced and once with the public
functions of every layer wrapped in spans (:mod:`tracing`), writes the
spans under ``.perfbench/``, and prints the per-layer ledger instead,
each metric with the end-to-end figure it should move
(:data:`common.MOVES`).
Its run time is wall time on the simulator and CPU time of both
processes on ``rt-tcp``, whose open-loop wall time is fixed by the
schedule.  Either way the outputs are checked first; a failed check
exits with status 1 and prints no numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from common import CheckFailed, emit, layer_table, ledger, moves  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("des-steady", "des-failover", "rt-tcp")


def units(section: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def report(line: str) -> None:
    print(line, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "rt-tcp":
        import rt as workload
    else:
        import des as workload

    try:
        if not args.trace:
            metrics, attempted, failed = workload.measure(
                args.workload, args.seed, args.seconds, report
            )
            wanted = units("end_to_end")
        else:
            tracer = tracing.Tracer()
            facts, summary, run_s, plain_s, attempted, failed = workload.trace(
                args.workload, args.seed, args.seconds, tracer
            )
            metrics = ledger(summary, facts, run_s, plain_s)
            path = os.path.join(
                ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.bin"
            )
            tracer.write(path)
            report(f"{args.workload}: traced {run_s:.3f} s vs untraced {plain_s:.3f} s; "
                   f"{tracer.span_count} spans in {os.path.relpath(path, ROOT)}")
            for line in layer_table(summary, run_s):
                report(line)
            wanted = units("per_layer")
            for name, unit in wanted.items():
                report(f"  {name:<27} {metrics[name]:>14.6g} {unit:<7} moves {moves(name)}")
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    missing = set(wanted) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    emit(True, attempted, failed, {k: metrics[k] for k in wanted}, wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
