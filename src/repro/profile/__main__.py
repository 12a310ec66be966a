"""CLI: profile a pinned workload and attribute time per subsystem.

Usage::

    PYTHONPATH=src python -m repro.profile                     # scenario mix
    PYTHONPATH=src python -m repro.profile --workload core     # kernel storms
    PYTHONPATH=src python -m repro.profile --out-dir profile_out

Writes ``profile.json`` (per-subsystem attribution) and
``profile.pstats`` (full dump; open with ``python -m pstats``) into
``--out-dir``, and prints the attribution table plus the heaviest
individual functions.

``--compare a.json b.json`` instead diffs two previously written
attribution artifacts (before -> after) and prints the per-subsystem
delta table — the before/after evidence for a perf change.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.profile import compare_reports, profile_run
from repro.profile.core import core_workload, scenario_workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="cProfile a pinned workload with per-subsystem "
        "(kernel/network/driver/protocol/lease/obs) attribution.",
    )
    parser.add_argument("--workload", choices=("scenarios", "core"),
                        default="scenarios",
                        help="scenarios: pinned smoke mix end to end; "
                        "core: kernel/network storms (default: scenarios)")
    parser.add_argument("--jobs", type=int, default=8,
                        help="scenario count for --workload scenarios "
                        "(default 8; profiling is ~3x slower than real)")
    parser.add_argument("--top", type=int, default=15,
                        help="individual functions to list (default 15)")
    parser.add_argument("--out-dir", default="profile_out", metavar="DIR",
                        help="artifact directory (default profile_out)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="diff two profile.json artifacts instead of "
                        "profiling (before after)")
    args = parser.parse_args(argv)

    if args.compare:
        before_path, after_path = args.compare
        with open(before_path, encoding="utf-8") as fh:
            before = json.load(fh)
        with open(after_path, encoding="utf-8") as fh:
            after = json.load(fh)
        print(compare_reports(before, after))
        return 0

    if args.workload == "core":
        label, workload = "core_storms", core_workload
    else:
        label = f"scenario_mix[{args.jobs}]"
        workload = lambda: scenario_workload(args.jobs)  # noqa: E731

    report = profile_run(workload, label, top=args.top)
    json_path, pstats_path = report.dump(args.out_dir)

    print(f"workload: {label}")
    print(report.table())
    print("\nheaviest functions:")
    for row in report.top_functions:
        print(f"  {row['tottime']:7.3f}s {row['subsystem']:<9} {row['where']}")
    print(f"\nartifacts: {json_path}, {pstats_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
