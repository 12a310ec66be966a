"""Oracle-checked adversarial scenario families.

Three production-shaped attack patterns, each driven by the workload
grammar and checked by the full invariant set (consistency oracle,
liveness, convergence):

* **flash-crowd** — a read storm converges on one installed file while
  clients crash and partitions cut through the burst (thundering-herd
  lease storms);
* **stampede** — a Zipf working set several times larger than the
  client cache, so every client evicts continuously while the server
  may crash mid-run (cache stampedes under capacity pressure);
* **herd** — a *guaranteed* server crash inside the flash window, so
  the whole crowd re-acquires leases against a freshly recovered server
  (flash crowd during server restart).

The fast tests here sweep a handful of seeds per family; the 100-seed
by-eviction matrix is the ``slow``-marked suite at the bottom (CI's
adversarial job runs the same families via ``python -m repro.check
--workload <kind>``).
"""

import dataclasses

import pytest

from repro.check import Explorer
from repro.check.generator import ADVERSARIAL_KINDS, adversarial_config
from repro.check.runner import build_scenario_cluster, run_scenario
from repro.check.scenario import Scenario

SMOKE_SEEDS = 5


def _replay(scenario: Scenario):
    """Run a scenario's ops and drain on a fresh cluster; return it."""
    cluster = build_scenario_cluster(scenario)
    datums = [cluster.store.file_datum(f"/file{i}")
              for i in range(scenario.n_files)]

    def make_submit(op):
        def submit(client):
            if op.kind == "read":
                client.read(datums[op.file])
            else:
                client.write(datums[op.file], scenario.content_for(op))
        return submit

    for op in scenario.ops:
        cluster.schedule_op(op.at, op.client, make_submit(op))
    cluster.run(until=scenario.duration + scenario.drain)
    return cluster


def _sweep(kind: str, *, eviction: str = "lru", base_seed: int = 0,
           n: int = SMOKE_SEEDS, workers: int = 1):
    config = adversarial_config(kind, eviction=eviction)
    explorer = Explorer(base_seed=base_seed, config=config, shrink=False)
    return explorer.explore(n, workers=workers)


class TestFamiliesAreCleanUnderOracles:
    @pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
    def test_smoke_sweep_passes(self, kind):
        report = _sweep(kind)
        assert report.ok, [o.result.failure_kinds for o in report.failures]
        assert report.scenarios == SMOKE_SEEDS

    @pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
    def test_smoke_sweep_passes_with_lru_lfu(self, kind):
        report = _sweep(kind, eviction="lru-lfu")
        assert report.ok, [o.result.failure_kinds for o in report.failures]


class TestDeterminism:
    def test_generation_is_pure_in_seed_and_index(self):
        for kind in ADVERSARIAL_KINDS:
            config = adversarial_config(kind)
            a = Explorer(base_seed=3, config=config).generator.generate(2)
            b = Explorer(base_seed=3, config=config).generator.generate(2)
            assert a.digest() == b.digest()
            assert a.dumps() == b.dumps()

    def test_scenarios_round_trip_through_json(self):
        for kind in ADVERSARIAL_KINDS:
            scenario = Explorer(
                base_seed=1, config=adversarial_config(kind)
            ).generator.generate(0)
            assert Scenario.loads(scenario.dumps()) == scenario

    @pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
    def test_parallel_sweep_matches_serial(self, kind):
        serial = _sweep(kind, n=4, workers=1)
        parallel = _sweep(kind, n=4, workers=2)
        assert serial.to_json() == parallel.to_json()


class TestFamilyStructure:
    """Each family must actually exercise what its name promises."""

    def test_flash_crowd_concentrates_reads_on_the_flash_file(self):
        scenario = Explorer(
            base_seed=0, config=adversarial_config("flash-crowd")
        ).generator.generate(0)
        spec = scenario.workload
        assert spec is not None and spec.has_flash
        start = spec.flash_at * scenario.duration
        end = start + spec.flash_width * scenario.duration
        window = [op for op in scenario.ops if start <= op.at < end]
        on_target = [op for op in window if op.file == spec.flash_file]
        assert len(on_target) > 0.8 * len(window)

    def test_herd_always_crashes_the_server_inside_the_flash(self):
        config = adversarial_config("herd")
        generator = Explorer(base_seed=0, config=config).generator
        for index in range(8):
            scenario = generator.generate(index)
            spec = scenario.workload
            crashes = [f for f in scenario.faults
                       if f.kind == "crash" and f.host == "server"]
            assert crashes, f"herd scenario {index} has no server crash"
            start = spec.flash_at * scenario.duration
            end = start + spec.flash_width * scenario.duration
            assert any(start <= f.at <= max(end, start + 0.2) for f in crashes), (
                f"herd scenario {index}: server crash at "
                f"{[f.at for f in crashes]} outside flash [{start}, {end}]"
            )

    def test_stampede_caches_actually_evict(self):
        """Capacity pressure is real: the scenario's cache is several
        times smaller than the working set, so clients must evict."""
        scenario = Explorer(
            base_seed=0, config=adversarial_config("stampede")
        ).generator.generate(0)
        assert scenario.cache_capacity < scenario.n_files
        cluster = _replay(scenario)
        evictions = sum(c.engine.cache.stats.evictions for c in cluster.clients)
        assert evictions > 0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown adversarial"):
            adversarial_config("meteor-shower")


class TestLeasesBoundedByCache:
    """Eviction drops the client's lease, so after every run each client
    holds at most one lease per cached datum plus its in-flight fetches.
    The cache is cut to at most a quarter of the files, so the
    flash-crowd family (which runs uncapped) evicts too."""

    @pytest.mark.parametrize("kind", ["stampede", "flash-crowd"])
    @pytest.mark.parametrize("eviction", ["lru", "lru-lfu"])
    def test_holdings_within_capacity(self, kind, eviction):
        generator = Explorer(
            base_seed=0, config=adversarial_config(kind, eviction=eviction)
        ).generator
        evictions = 0
        for index in range(10):
            scenario = generator.generate(index)
            scenario = dataclasses.replace(
                scenario,
                cache_capacity=min(scenario.cache_capacity, scenario.n_files // 4),
            )
            cluster = _replay(scenario)
            for client in cluster.clients:
                engine = client.engine
                if engine is None:  # crashed at the end of the run
                    continue
                status = engine.status(cluster.kernel.now)
                assert status["leases"] <= scenario.cache_capacity + status["fetching"], (
                    scenario.seed, client.name, status
                )
                evictions += status["evictions"]
        assert evictions > 0


class TestRunUnderBothEvictions:
    """One pinned scenario per family runs clean under both policies and
    produces the same *protocol* outcome (the oracle history fingerprint
    may differ — eviction changes refetch traffic — but verdicts and
    completion may not)."""

    @pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
    def test_verdicts_agree(self, kind):
        base = Explorer(
            base_seed=7, config=adversarial_config(kind)
        ).generator.generate(0)
        for eviction in ("lru", "lru-lfu"):
            scenario = dataclasses.replace(base, eviction=eviction)
            result = run_scenario(scenario)
            assert result.ok, (kind, eviction, result.failure_kinds)
            assert result.ops_completed == result.ops_submitted


# -- tier-2: the full adversarial matrix (pytest -m slow) ----------------------

pytest_slow = pytest.mark.slow


@pytest_slow
@pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
@pytest.mark.parametrize("eviction", ["lru", "lru-lfu"])
def test_hundred_seed_adversarial_matrix(kind, eviction):
    """The acceptance gate: >= 100 seeds per family x eviction, oracles
    on, zero invariant failures, byte-identical serial vs parallel."""
    config = adversarial_config(kind, eviction=eviction)
    serial = Explorer(base_seed=0, config=config, shrink=False).explore(100)
    assert serial.ok, [o.result.failure_kinds for o in serial.failures]
    parallel = Explorer(base_seed=0, config=config, shrink=False).explore(
        100, workers="auto"
    )
    assert serial.to_json() == parallel.to_json()
