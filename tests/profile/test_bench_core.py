"""Gate-semantics tests for the core benchmark (``BENCH_core.json``)."""

import json

import pytest

from repro.profile import core


def make_report(core_eps=400000.0, scenario_eps=120000.0,
                core_events=83504, scenario_events=41030,
                jobs=32, mix_sha="abc123"):
    """A structurally valid BENCH_core report with controllable metrics."""
    return {
        "benchmark": "core_hot_path",
        "job_mix": {
            "base_seed": 1989,
            "jobs": jobs,
            "mode": "smoke",
            "mix_sha": mix_sha,
        },
        "workers": 1,
        "workloads": {
            "core": {
                "events": core_events,
                "wall_s": core_events / core_eps,
                "events_per_sec": core_eps,
            },
            "scenario": {
                "events": scenario_events,
                "wall_s": scenario_events / scenario_eps,
                "events_per_sec": scenario_eps,
            },
        },
        "machine": {"cpus": 1, "python": "3.11.7", "platform": "test"},
    }


class TestCompare:
    def test_identical_reports_pass(self):
        verdict = core.compare(make_report(), make_report())
        assert verdict.ok
        assert verdict.ratios == {"core": 1.0, "scenario": 1.0}

    def test_drop_within_tolerance_passes(self):
        current = make_report(core_eps=300000.0, scenario_eps=90000.0)
        assert core.compare(current, make_report(), tolerance=0.30).ok

    def test_improvement_passes(self):
        current = make_report(core_eps=800000.0, scenario_eps=240000.0)
        assert core.compare(current, make_report()).ok

    def test_core_regression_fails(self):
        current = make_report(core_eps=200000.0)
        verdict = core.compare(current, make_report(), tolerance=0.30)
        assert not verdict.ok
        assert any("core" in r for r in verdict.regressions)

    def test_scenario_regression_fails(self):
        current = make_report(scenario_eps=60000.0)
        verdict = core.compare(current, make_report(), tolerance=0.30)
        assert not verdict.ok

    def test_event_count_change_fails_regardless_of_speed(self):
        """The workloads are deterministic: a different event count is a
        semantic divergence, not a perf result."""
        current = make_report(core_eps=900000.0, core_events=83505)
        verdict = core.compare(current, make_report())
        assert not verdict.ok
        assert any("event count changed" in r for r in verdict.regressions)

    def test_mix_hash_change_demands_repin(self):
        verdict = core.compare(make_report(mix_sha="drifted"), make_report())
        assert not verdict.ok
        assert any("re-pin" in r for r in verdict.regressions)
        assert verdict.ratios == {}  # metrics not compared on a stale mix

    def test_machine_drift_demotes_regression_to_warning(self):
        current = make_report(core_eps=100000.0)
        current["machine"] = dict(current["machine"], platform="other-kernel")
        verdict = core.compare(current, make_report(), tolerance=0.30)
        assert verdict.ok
        assert any("drifted" in w for w in verdict.warnings)
        assert any("regressed" in w for w in verdict.warnings)

    def test_machine_drift_does_not_mask_event_count_change(self):
        current = make_report(core_events=83505)
        current["machine"] = dict(current["machine"], platform="other-kernel")
        verdict = core.compare(current, make_report())
        assert not verdict.ok
        assert any("event count changed" in r for r in verdict.regressions)

    def test_workload_missing_from_baseline_fails(self):
        baseline = make_report()
        del baseline["workloads"]["core"]
        verdict = core.compare(make_report(), baseline)
        assert not verdict.ok


class TestWorkloads:
    def test_storms_are_deterministic(self):
        assert core.timer_storm(8, 50) == core.timer_storm(8, 50)
        assert core.ping_storm(4, 30) == core.ping_storm(4, 30)

    def test_best_of_rejects_nondeterminism(self):
        drift = iter((100, 101))

        def flaky():
            return next(drift)

        with pytest.raises(RuntimeError, match="non-deterministic"):
            core._best_of(flaky, trials=2)

    def test_best_of_returns_minimum_wall(self):
        events, wall = core._best_of(lambda: 7, trials=3)
        assert events == 7
        assert wall >= 0.0


class TestCli:
    def test_pin_then_check_passes(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_core.json"
        assert core.main([
            "--jobs", "2", "--trials", "1", "--pin",
            "--baseline", str(baseline),
        ]) == 0
        assert core.main([
            "--jobs", "2", "--trials", "1", "--check",
            "--baseline", str(baseline),
        ]) == 0
        assert "perf gate ok" in capsys.readouterr().err

    def test_check_without_baseline_exits_2(self, tmp_path, capsys):
        assert core.main([
            "--jobs", "2", "--trials", "1", "--check",
            "--baseline", str(tmp_path / "missing.json"),
        ]) == 2

    def test_gate_failure_exits_1(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_core.json"
        impossible = make_report(core_eps=1e12, scenario_eps=1e12, jobs=2)
        impossible["job_mix"]["mix_sha"] = core.pinned_mix_sha(2)
        # Real event counts for jobs=2 differ from the stub's; pin the
        # real ones so only the throughput comparison can fail.
        with open(baseline, "w", encoding="utf-8") as fh:
            json.dump(impossible, fh)
        rc = core.main([
            "--jobs", "2", "--trials", "1", "--check",
            "--baseline", str(baseline),
        ])
        assert rc == 1
        assert "PERF GATE FAIL" in capsys.readouterr().err

    def test_out_writes_stable_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert core.main([
            "--jobs", "2", "--trials", "1", "--out", str(out),
        ]) == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["benchmark"] == "core_hot_path"
        assert report["workers"] == 1
        assert set(report["workloads"]) == {"core", "scenario"}
