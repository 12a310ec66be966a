"""Pinned sweep benchmark and baseline comparison — the CI perf gate.

The perf trajectory of the harness is tracked with one number: **events
per second** — simulation-kernel events executed per wall-clock second
over a *pinned job mix* (a fixed set of generated scenarios, so every
run measures the same work).  ``benchmarks/bench_sweep.py`` runs the mix
serially and through a :class:`~repro.parallel.pool.SweepPool`, emits
``BENCH_sweep.json``, and CI compares it against the committed baseline
at the repository root: a drop of more than :data:`TOLERANCE` in
events/sec (serial *or* parallel) fails the build.

Re-pinning: after an intentional perf change (or a runner-hardware
change), regenerate the committed baseline with::

    python benchmarks/bench_sweep.py --pin

and commit the updated ``BENCH_sweep.json`` alongside the change that
justified it.  The comparison also re-checks the parallel executor's
determinism contract — serial and parallel runs of the mix must produce
identical per-scenario oracle fingerprints — so the perf gate doubles as
an end-to-end equivalence check on every push.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field

from repro.check.generator import GeneratorConfig, ScenarioGenerator
from repro.check.runner import run_scenario
from repro.parallel.pool import SweepPool, resolve_workers

#: Seed namespace of the pinned mix (the paper's publication year).
PINNED_BASE_SEED = 1989

#: Scenarios in the pinned mix — enough work (~3 s serial on one
#: 2020s core) that multiprocessing overhead is amortized, small enough
#: for a per-push CI job.
PINNED_JOBS = 32

#: Allowed fractional drop in events/sec before the gate fails.
TOLERANCE = 0.25

#: Default artifact path (committed at the repository root).
BASELINE_PATH = "BENCH_sweep.json"


def machine_block() -> dict:
    """The informational ``machine`` metadata block shared by every
    committed benchmark baseline (``BENCH_sweep.json``,
    ``BENCH_core.json``).  Excluded from gate comparisons; it exists so a
    human reading a regression can spot a runner change at a glance."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def pinned_mix_sha(
    jobs: int = PINNED_JOBS,
    base_seed: int = PINNED_BASE_SEED,
    config: GeneratorConfig | None = None,
) -> str:
    """SHA-256 over the pinned mix's scenario digests.

    Committed inside each baseline's ``job_mix`` block: a generator or
    grammar change silently altering the workload shows up as a mix-hash
    mismatch (stale baseline, re-pin) instead of a phantom perf swing.
    """
    generator = ScenarioGenerator(base_seed, config or GeneratorConfig.smoke())
    acc = hashlib.sha256()
    for index in range(jobs):
        acc.update(generator.generate(index).digest().encode())
    return acc.hexdigest()


def bench_job(index: int) -> dict:
    """Run pinned scenario ``index``; return its work counters.

    The mix uses the smoke grammar without clock faults, so every
    scenario also doubles as a correctness probe: a non-``pass`` verdict
    here means the protocol or harness regressed, and the benchmark
    refuses to produce a number for broken work.
    """
    generator = ScenarioGenerator(PINNED_BASE_SEED, GeneratorConfig.smoke())
    result = run_scenario(generator.generate(index))
    if result.verdict != "pass":
        raise RuntimeError(
            f"pinned scenario {index} verdict={result.verdict}: "
            "refusing to benchmark a failing protocol"
        )
    return {
        "events": result.events_executed,
        "ops": result.ops_submitted,
        "reads": result.reads_checked,
        "fingerprint": result.fingerprint,
    }


def run_benchmark(
    workers: int | str | None = "auto", jobs: int = PINNED_JOBS
) -> dict:
    """Run the pinned mix serially and in parallel; return the report.

    The report is the ``BENCH_sweep.json`` schema::

        {
          "benchmark": "pinned_sweep",
          "job_mix":  {"base_seed", "jobs", "mode"},
          "events":   total kernel events executed by the mix,
          "deterministic": serial and parallel fingerprints identical,
          "serial":   {"wall_s", "events_per_sec"},
          "parallel": {"workers", "wall_s", "events_per_sec", "speedup"},
          "machine":  {"cpus", "python", "platform"}   # informational
        }

    The ``machine`` block is excluded from gate comparisons; it exists
    so a human reading a regression can spot a runner change at a
    glance.
    """
    workers = resolve_workers(workers)

    # Untimed warmup: pay one-time costs (lazy imports, allocator growth)
    # before either leg so serial-vs-parallel is an apples comparison.
    bench_job(0)

    start = time.perf_counter()
    serial_results = [bench_job(i) for i in range(jobs)]
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    with SweepPool(bench_job, workers=workers) as pool:
        parallel_results = pool.map(range(jobs))
    parallel_s = time.perf_counter() - start

    events = sum(r["events"] for r in serial_results)
    deterministic = [r["fingerprint"] for r in serial_results] == [
        r["fingerprint"] for r in parallel_results
    ]
    return {
        "benchmark": "pinned_sweep",
        "job_mix": {
            "base_seed": PINNED_BASE_SEED,
            "jobs": jobs,
            "mode": "smoke",
            "mix_sha": pinned_mix_sha(jobs),
        },
        "events": events,
        "deterministic": deterministic,
        "serial": {
            "wall_s": serial_s,
            "events_per_sec": events / serial_s,
        },
        "parallel": {
            "workers": workers,
            "wall_s": parallel_s,
            "events_per_sec": events / parallel_s,
            "speedup": serial_s / parallel_s,
        },
        "machine": machine_block(),
    }


@dataclass
class BaselineComparison:
    """The gate's verdict on a fresh report versus the committed baseline.

    Attributes:
        ok: True when no gated metric regressed beyond tolerance.
        regressions: human-readable description of each failure.
        warnings: suspect-but-not-failing observations (e.g. the baseline
            was pinned on different hardware, so throughput deltas are
            noise until it is re-pinned).
        ratios: current/baseline events-per-sec ratio per gated metric.
    """

    ok: bool = True
    regressions: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    ratios: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Record one gate failure."""
        self.ok = False
        self.regressions.append(message)

    def warn(self, message: str) -> None:
        """Record one non-failing warning."""
        self.warnings.append(message)


def machine_drift(current: dict, baseline: dict) -> str | None:
    """Describe a machine-metadata mismatch, or ``None`` when identical.

    The ``machine`` block is informational, but when it differs from the
    baseline's, every throughput delta is suspect: the runner changed
    (kernel upgrade, different instance type), not the code.  The gates
    therefore demote throughput regressions to warnings while drifted —
    a human re-pins the baseline on the new runner to restore the hard
    gate — but semantic failures (mix mismatch, determinism, changed
    event counts) still fail: those never depend on the hardware.
    """
    cur, base = current.get("machine"), baseline.get("machine")
    if cur == base:
        return None
    return f"machine metadata drifted (baseline {base}, current {cur})"


def compare(
    current: dict, baseline: dict, tolerance: float = TOLERANCE
) -> BaselineComparison:
    """Gate a fresh benchmark report against the committed baseline.

    Fails when serial or parallel events/sec dropped by more than
    ``tolerance``, when the parallel run was not byte-deterministic, or
    when the job mixes differ (a stale baseline — re-pin it).  When the
    ``machine`` block differs from the baseline's, throughput drops are
    demoted to warnings (see :func:`machine_drift`); the semantic checks
    still fail hard.

    Args:
        current: report from :func:`run_benchmark`.
        baseline: previously committed report.
        tolerance: allowed fractional events/sec drop (default 25 %).
    """
    verdict = BaselineComparison()
    drift = machine_drift(current, baseline)
    if drift:
        verdict.warn(
            f"{drift}: throughput deltas are suspect until the baseline is "
            "re-pinned on this runner with `python benchmarks/bench_sweep.py "
            "--pin`"
        )
    if current.get("job_mix") != baseline.get("job_mix"):
        verdict.fail(
            f"job mix changed (baseline {baseline.get('job_mix')}, "
            f"current {current.get('job_mix')}): re-pin the baseline with "
            "`python benchmarks/bench_sweep.py --pin`"
        )
        return verdict
    if not current.get("deterministic", False):
        verdict.fail(
            "parallel sweep was not deterministic: serial and parallel "
            "fingerprints differ"
        )
    single_cpu = current.get("parallel", {}).get("workers") == 1
    for metric in ("serial", "parallel"):
        if metric == "parallel" and single_cpu:
            # A one-worker pool is serial execution plus pool overhead:
            # "speedup" is pure noise on a single-cpu runner, so the
            # expectation is skipped — visibly, not silently.
            verdict.warn(
                "parallel events/sec check skipped: workers == 1 (single-cpu "
                "runner), so parallel throughput measures pool overhead, not "
                "speedup"
            )
            continue
        now = current[metric]["events_per_sec"]
        then = baseline[metric]["events_per_sec"]
        ratio = now / then
        verdict.ratios[metric] = ratio
        if ratio < 1.0 - tolerance:
            message = (
                f"{metric} events/sec regressed {100 * (1 - ratio):.1f}% "
                f"({then:.0f} -> {now:.0f}, tolerance {100 * tolerance:.0f}%)"
            )
            if drift:
                verdict.warn(f"{message} — on a drifted machine; re-pin")
            else:
                verdict.fail(message)
    return verdict


def load_report(path: str) -> dict:
    """Read a benchmark report/baseline JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_report(report: dict, path: str) -> None:
    """Write a benchmark report with stable formatting (committable)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    """CLI driver shared by ``python -m repro.parallel.baseline`` and
    ``benchmarks/bench_sweep.py``.

    Exit status: 0 on success (and a passing gate when ``--check``),
    1 when the gate fails, 2 on usage errors (e.g. missing baseline).
    """
    parser = argparse.ArgumentParser(
        prog="bench_sweep",
        description="Pinned sweep benchmark: serial vs parallel wall-clock, "
        "events/sec, and the baseline perf gate.",
    )
    parser.add_argument("--workers", default="auto", metavar="N|auto",
                        help="parallel leg worker count (default: auto)")
    parser.add_argument("--jobs", type=int, default=PINNED_JOBS,
                        help="pinned mix size (gate requires the default)")
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

    report = run_benchmark(workers=args.workers, jobs=args.jobs)
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
        for metric, ratio in sorted(verdict.ratios.items()):
            print(f"{metric}: {100 * ratio:.1f}% of baseline events/sec",
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
