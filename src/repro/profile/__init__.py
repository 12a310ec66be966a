"""Hot-path profiling with per-subsystem attribution (``repro.profile``).

One number ("events per second") says *whether* the harness got slower;
it never says *where*.  This package wraps :mod:`cProfile` around the
pinned workloads and folds the flat function list into the subsystems a
reader of DESIGN.md already knows — kernel, network, driver, protocol,
lease, obs — so a perf regression report starts from "the kernel's share
grew from 21 % to 34 %" instead of a 300-row ``pstats`` dump.

Two entry points:

* ``python -m repro.profile`` — profile the pinned scenario mix (or the
  core storms), print the attribution table, and write both artifacts:
  ``profile.json`` (the attribution, machine-readable) and
  ``profile.pstats`` (the full :mod:`pstats` dump for drill-down with
  ``python -m pstats``).
* :mod:`repro.profile.core` — the single-run core benchmark behind
  ``benchmarks/bench_core.py`` and the committed ``BENCH_core.json``
  baseline.

Attribution is by *self time* (``tottime``): cumulative time would
charge the kernel for every callback it dispatches, making the loop look
like 100 % of the run.  Self time answers the actionable question —
which layer's own code burns the cycles.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
from dataclasses import dataclass, field
from typing import Any, Callable

#: Subsystem classification, checked in order against the profiled
#: filename; first match wins.  Fragments are matched against the path
#: normalized to forward slashes.
SUBSYSTEMS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("kernel", ("repro/sim/kernel.py",)),
    ("network", ("repro/sim/network.py", "repro/sim/host.py")),
    ("driver", (
        "repro/sim/driver.py",
        "repro/sim/faults.py",
        "repro/sim/oracle.py",
        "repro/sim/timeline.py",
    )),
    ("protocol", ("repro/protocol/",)),
    ("lease", ("repro/lease/",)),
    ("obs", ("repro/obs/",)),
    ("harness", ("repro/check/", "repro/parallel/", "repro/profile/")),
    ("support", (
        "repro/storage/",
        "repro/cache/",
        "repro/clock/",
        "repro/types.py",
        "repro/errors.py",
    )),
)


def classify(filename: str) -> str:
    """Map a profiled code object's filename onto a subsystem label.

    Anything outside the repo (stdlib frames, builtins — pstats reports
    those with ``~`` as the filename) lands in ``builtin``; repo files
    not claimed by :data:`SUBSYSTEMS` land in ``other``.
    """
    path = filename.replace("\\", "/")
    for name, fragments in SUBSYSTEMS:
        for fragment in fragments:
            if fragment in path:
                return name
    if "repro/" in path:
        return "other"
    return "builtin"


@dataclass
class ProfileReport:
    """One profiled run, reduced to per-subsystem shares.

    Attributes:
        label: workload name (e.g. ``"scenario_mix"``).
        total_tottime: summed self time across every profiled function.
        subsystems: per-subsystem ``{"tottime", "calls", "share"}``,
            sorted by descending self time.
        top_functions: the heaviest individual functions, each with its
            subsystem tag — the drill-down from table to line number.
        stats: the live :class:`pstats.Stats` (not serialized).
    """

    label: str
    total_tottime: float
    subsystems: dict[str, dict[str, float]]
    top_functions: list[dict[str, Any]]
    stats: pstats.Stats = field(repr=False)

    def to_dict(self) -> dict:
        """The JSON-artifact form (everything except the live stats)."""
        return {
            "label": self.label,
            "total_tottime": self.total_tottime,
            "subsystems": self.subsystems,
            "top_functions": self.top_functions,
        }

    def dump(self, out_dir: str, stem: str = "profile") -> tuple[str, str]:
        """Write ``<stem>.json`` and ``<stem>.pstats`` under ``out_dir``.

        Returns the two paths (json_path, pstats_path).
        """
        os.makedirs(out_dir, exist_ok=True)
        json_path = os.path.join(out_dir, f"{stem}.json")
        pstats_path = os.path.join(out_dir, f"{stem}.pstats")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.stats.dump_stats(pstats_path)
        return json_path, pstats_path

    def table(self) -> str:
        """The attribution as an aligned human-readable table."""
        lines = [f"{'subsystem':<10} {'self s':>8} {'share':>7} {'calls':>10}"]
        for name, row in self.subsystems.items():
            lines.append(
                f"{name:<10} {row['tottime']:>8.3f} {row['share']:>6.1%}"
                f" {int(row['calls']):>10}"
            )
        lines.append(f"{'total':<10} {self.total_tottime:>8.3f}")
        return "\n".join(lines)


def attribute(stats: pstats.Stats, label: str, top: int = 15) -> ProfileReport:
    """Fold a :class:`pstats.Stats` into a :class:`ProfileReport`."""
    per_sub: dict[str, dict[str, float]] = {}
    rows = []
    total = 0.0
    for (filename, line, name), (cc, nc, tt, ct, callers) in stats.stats.items():
        sub = classify(filename)
        bucket = per_sub.setdefault(sub, {"tottime": 0.0, "calls": 0.0})
        bucket["tottime"] += tt
        bucket["calls"] += nc
        total += tt
        rows.append((tt, nc, sub, filename, line, name))
    for bucket in per_sub.values():
        bucket["share"] = bucket["tottime"] / total if total else 0.0
    ordered = dict(
        sorted(per_sub.items(), key=lambda kv: kv[1]["tottime"], reverse=True)
    )
    rows.sort(reverse=True)
    top_functions = [
        {
            "tottime": tt,
            "calls": nc,
            "subsystem": sub,
            "where": f"{filename}:{line}:{name}",
        }
        for tt, nc, sub, filename, line, name in rows[:top]
    ]
    return ProfileReport(
        label=label,
        total_tottime=total,
        subsystems=ordered,
        top_functions=top_functions,
        stats=stats,
    )


def compare_reports(before: dict, after: dict) -> str:
    """Diff two ``profile.json`` attribution tables (before -> after).

    Returns an aligned table of per-subsystem self time and share for
    both runs with absolute deltas, sorted by the magnitude of the
    self-time change — the before/after report for a perf PR.
    """
    lines = [
        f"before: {before.get('label', '?')}"
        f"  total {before.get('total_tottime', 0.0):.3f}s",
        f"after:  {after.get('label', '?')}"
        f"  total {after.get('total_tottime', 0.0):.3f}s",
    ]
    a_subs: dict = before.get("subsystems", {})
    b_subs: dict = after.get("subsystems", {})
    names = sorted(
        set(a_subs) | set(b_subs),
        key=lambda n: abs(
            b_subs.get(n, {}).get("tottime", 0.0) - a_subs.get(n, {}).get("tottime", 0.0)
        ),
        reverse=True,
    )
    lines.append(
        f"{'subsystem':<10} {'before s':>9} {'after s':>9} {'delta s':>9}"
        f" {'before':>7} {'after':>7} {'dshare':>7}"
    )
    for name in names:
        a = a_subs.get(name, {})
        b = b_subs.get(name, {})
        at, bt = a.get("tottime", 0.0), b.get("tottime", 0.0)
        ash, bsh = a.get("share", 0.0), b.get("share", 0.0)
        lines.append(
            f"{name:<10} {at:>9.3f} {bt:>9.3f} {bt - at:>+9.3f}"
            f" {ash:>6.1%} {bsh:>6.1%} {bsh - ash:>+6.1%}"
        )
    return "\n".join(lines)


def profile_run(
    workload: Callable[[], Any], label: str, top: int = 15
) -> ProfileReport:
    """Run ``workload()`` under :mod:`cProfile` and attribute the result.

    Note the observer effect: cProfile adds per-call overhead (roughly
    3× wall time on this codebase's call-dense hot paths), inflating the
    apparent weight of call-heavy layers relative to loop-heavy ones.
    Shares are for *steering*; the committed throughput numbers come
    from the unprofiled ``benchmarks/bench_core.py``.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        workload()
    finally:
        profiler.disable()
    return attribute(pstats.Stats(profiler), label, top=top)
