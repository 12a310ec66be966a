"""Benchmark baseline: report schema, the perf gate, and its CLI."""

import json

from repro.parallel import baseline


def make_report(serial_eps=1000.0, parallel_eps=1800.0, deterministic=True,
                jobs=baseline.PINNED_JOBS, workers=2):
    """A synthetic BENCH_sweep.json-shaped report for gate tests."""
    return {
        "benchmark": "pinned_sweep",
        "job_mix": {
            "base_seed": baseline.PINNED_BASE_SEED,
            "jobs": jobs,
            "mode": "smoke",
        },
        "events": 100_000,
        "deterministic": deterministic,
        "serial": {"wall_s": 1.0, "events_per_sec": serial_eps},
        "parallel": {
            "workers": workers,
            "wall_s": 0.5,
            "events_per_sec": parallel_eps,
            "speedup": 1.8,
        },
        "machine": {"cpus": 2, "python": "3.11.0", "platform": "test"},
    }


class TestCompare:
    def test_identical_reports_pass(self):
        verdict = baseline.compare(make_report(), make_report())
        assert verdict.ok
        assert verdict.ratios == {"serial": 1.0, "parallel": 1.0}

    def test_drop_within_tolerance_passes(self):
        current = make_report(serial_eps=800.0, parallel_eps=1500.0)
        verdict = baseline.compare(current, make_report(), tolerance=0.25)
        assert verdict.ok

    def test_improvement_passes(self):
        current = make_report(serial_eps=2000.0, parallel_eps=4000.0)
        assert baseline.compare(current, make_report()).ok

    def test_serial_regression_fails(self):
        current = make_report(serial_eps=500.0)
        verdict = baseline.compare(current, make_report(), tolerance=0.25)
        assert not verdict.ok
        assert any("serial" in r for r in verdict.regressions)

    def test_parallel_regression_fails(self):
        current = make_report(parallel_eps=900.0)
        verdict = baseline.compare(current, make_report(), tolerance=0.25)
        assert not verdict.ok
        assert any("parallel" in r for r in verdict.regressions)

    def test_job_mix_change_demands_repin(self):
        verdict = baseline.compare(make_report(jobs=8), make_report())
        assert not verdict.ok
        assert any("re-pin" in r for r in verdict.regressions)

    def test_nondeterministic_run_fails(self):
        verdict = baseline.compare(
            make_report(deterministic=False), make_report()
        )
        assert not verdict.ok
        assert any("deterministic" in r for r in verdict.regressions)


class TestMachineDrift:
    def test_identical_machines_no_drift(self):
        assert baseline.machine_drift(make_report(), make_report()) is None

    def test_drift_alone_warns_but_passes(self):
        current = make_report()
        current["machine"] = dict(current["machine"], platform="other-kernel")
        verdict = baseline.compare(current, make_report(), tolerance=0.25)
        assert verdict.ok
        assert any("drifted" in w for w in verdict.warnings)
        assert not verdict.regressions

    def test_drift_demotes_throughput_regression_to_warning(self):
        current = make_report(serial_eps=100.0, parallel_eps=100.0)
        current["machine"] = dict(current["machine"], platform="other-kernel")
        verdict = baseline.compare(current, make_report(), tolerance=0.25)
        assert verdict.ok
        assert any("regressed" in w for w in verdict.warnings)
        assert any("re-pin" in w for w in verdict.warnings)

    def test_drift_does_not_mask_semantic_failures(self):
        current = make_report(deterministic=False)
        current["machine"] = dict(current["machine"], platform="other-kernel")
        verdict = baseline.compare(current, make_report())
        assert not verdict.ok
        assert any("deterministic" in r for r in verdict.regressions)

    def test_same_machine_regression_still_fails(self):
        current = make_report(serial_eps=100.0)
        verdict = baseline.compare(current, make_report(), tolerance=0.25)
        assert not verdict.ok


class TestSingleCpuSkip:
    def test_workers_one_skips_parallel_check_with_warning(self):
        # One-worker "parallel" throughput measures pool overhead, not
        # speedup; the gate must skip it visibly and still check serial.
        current = make_report(parallel_eps=10.0, workers=1)
        verdict = baseline.compare(current, make_report(), tolerance=0.25)
        assert verdict.ok
        assert any("workers == 1" in w for w in verdict.warnings)
        assert "serial" in verdict.ratios
        assert "parallel" not in verdict.ratios

    def test_workers_one_serial_regression_still_fails(self):
        current = make_report(serial_eps=100.0, workers=1)
        verdict = baseline.compare(current, make_report(), tolerance=0.25)
        assert not verdict.ok

    def test_multi_worker_parallel_check_still_enforced(self):
        current = make_report(parallel_eps=10.0, workers=2)
        verdict = baseline.compare(current, make_report(), tolerance=0.25)
        assert not verdict.ok
        assert "parallel" in verdict.ratios


class TestRunBenchmark:
    def test_report_structure_and_consistency(self):
        report = baseline.run_benchmark(workers=2, jobs=4)
        assert report["benchmark"] == "pinned_sweep"
        assert report["job_mix"]["jobs"] == 4
        assert report["deterministic"] is True
        assert report["events"] > 0
        for leg in ("serial", "parallel"):
            assert report[leg]["wall_s"] > 0
            assert report[leg]["events_per_sec"] == (
                report["events"] / report[leg]["wall_s"]
            )
        assert report["parallel"]["workers"] == 2
        assert report["parallel"]["speedup"] == (
            report["serial"]["wall_s"] / report["parallel"]["wall_s"]
        )
        # A fresh report always passes the gate against itself.
        assert baseline.compare(report, report).ok


class TestCli:
    def test_pin_then_check_passes(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_sweep.json")
        assert baseline.main(
            ["--jobs", "3", "--workers", "2", "--pin", "--baseline", path]
        ) == 0
        pinned = baseline.load_report(path)
        assert pinned["job_mix"]["jobs"] == 3
        # A wide tolerance: this exercises the pin/check plumbing, and the
        # two timed runs happen seconds apart on a possibly loaded box.
        assert baseline.main(
            ["--jobs", "3", "--workers", "2", "--check", "--baseline", path,
             "--tolerance", "0.9"]
        ) == 0
        assert "perf gate ok" in capsys.readouterr().err

    def test_check_without_baseline_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert baseline.main(
            ["--jobs", "2", "--workers", "2", "--check", "--baseline", path]
        ) == 2
        assert "--pin" in capsys.readouterr().err

    def test_gate_failure_exits_1(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_sweep.json")
        impossible = make_report(serial_eps=1e12, parallel_eps=1e12, jobs=2)
        baseline.save_report(impossible, path)
        assert baseline.main(
            ["--jobs", "2", "--workers", "2", "--check", "--baseline", path]
        ) == 1
        assert "PERF GATE FAIL" in capsys.readouterr().err

    def test_out_writes_stable_json(self, tmp_path, capsys):
        path = str(tmp_path / "fresh.json")
        assert baseline.main(
            ["--jobs", "2", "--workers", "2", "--out", path]
        ) == 0
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text.endswith("\n")
        assert json.loads(text)["job_mix"]["jobs"] == 2
