"""The asyncio load harness (``repro.runtime.bench``) at test scale."""

import copy

from repro.runtime import bench


class TestSchedule:
    def test_same_seed_same_schedule(self):
        assert bench.build_schedule(20, 4) == bench.build_schedule(20, 4)
        assert bench.schedule_sha(bench.build_schedule(20, 4)) == bench.schedule_sha(
            bench.build_schedule(20, 4)
        )

    def test_seed_changes_schedule(self):
        assert bench.schedule_sha(
            bench.build_schedule(20, 4, seed=1)
        ) != bench.schedule_sha(bench.build_schedule(20, 4, seed=2))

    def test_ops_are_well_formed(self):
        for client_ops in bench.build_schedule(50, 5):
            assert len(client_ops) == 5
            for op in client_ops:
                assert op == ("write",) or (
                    op[0] == "read" and 0 <= op[1] < bench.READ_FILES
                )


class TestPercentile:
    """The bench reports the shared nearest-rank percentile (rank
    ``ceil(p * n)``), not one rank above it."""

    def test_p50_of_two_is_the_lower_value(self):
        assert bench.percentile([1.0, 2.0], 0.50) == 1.0

    def test_p99_of_one_to_hundred_is_99(self):
        assert bench.percentile([float(v) for v in range(1, 101)], 0.99) == 99.0


class TestRunBenchmark:
    def test_small_load_runs_clean_and_batches(self):
        report = bench.run_benchmark(clients=40, ops=4)
        metrics = report["metrics"]
        assert metrics["requests"] == 160
        assert metrics["failures"] == 0
        assert metrics["dropped_frames"] == 0
        assert metrics["requests_per_sec"] > 0
        assert metrics["p50_ms"] <= metrics["p99_ms"]
        # Every client's concurrent ops coalesced into one frame.
        assert metrics["batches_sent"] == 40
        assert metrics["batched_ops"] > 0
        assert report["job_mix"]["mix_sha"] == bench.schedule_sha(
            bench.build_schedule(40, 4)
        )
        # A fresh report always passes the gate against itself.
        assert bench.compare(report, report).ok

    def test_batching_off_still_clean(self):
        report = bench.run_benchmark(clients=20, ops=3, batching=False)
        assert report["metrics"]["failures"] == 0
        assert report["metrics"]["batches_sent"] == 0


class TestCompare:
    def setup_method(self):
        self.baseline = bench.run_benchmark(clients=10, ops=2)

    def fresh(self, **metric_overrides):
        report = copy.deepcopy(self.baseline)
        report["metrics"].update(metric_overrides)
        return report

    def test_regression_fails(self):
        slow = self.fresh(
            requests_per_sec=self.baseline["metrics"]["requests_per_sec"] * 0.1
        )
        verdict = bench.compare(slow, self.baseline, tolerance=0.40)
        assert not verdict.ok
        assert any("regressed" in r for r in verdict.regressions)

    def test_unclean_run_fails_even_when_fast(self):
        broken = self.fresh(failures=1)
        verdict = bench.compare(broken, self.baseline)
        assert not verdict.ok
        assert any("not clean" in r for r in verdict.regressions)

    def test_mix_change_demands_repin(self):
        other = copy.deepcopy(self.baseline)
        other["job_mix"]["mix_sha"] = "drifted"
        verdict = bench.compare(other, self.baseline)
        assert not verdict.ok
        assert any("re-pin" in r for r in verdict.regressions)

    def test_machine_drift_demotes_regression_to_warning(self):
        slow = self.fresh(
            requests_per_sec=self.baseline["metrics"]["requests_per_sec"] * 0.1
        )
        slow["machine"] = dict(slow["machine"], platform="other-kernel")
        verdict = bench.compare(slow, self.baseline, tolerance=0.40)
        assert verdict.ok
        assert any("drifted" in w for w in verdict.warnings)
        assert any("regressed" in w for w in verdict.warnings)


class TestCli:
    def test_pin_then_check_passes(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_runtime.json")
        args = ["--clients", "10", "--ops", "2", "--baseline", path]
        assert bench.main([*args, "--pin"]) == 0
        # Wide tolerance: two timed runs seconds apart on a loaded box.
        assert bench.main([*args, "--check", "--tolerance", "0.95"]) == 0
        assert "perf gate ok" in capsys.readouterr().err

    def test_check_without_baseline_exits_2(self, tmp_path, capsys):
        assert bench.main(
            ["--clients", "5", "--ops", "1", "--check",
             "--baseline", str(tmp_path / "missing.json")]
        ) == 2
        assert "--pin" in capsys.readouterr().err
