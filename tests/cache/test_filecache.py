"""Tests for the client datum cache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import FileCache, TempFileStore
from repro.cache.eviction import LruLfuPolicy
from repro.types import DatumId

F1 = DatumId.file("f1")
F2 = DatumId.file("f2")


class TestBasics:
    def test_miss_on_empty(self):
        cache = FileCache()
        assert cache.get(F1) is None
        assert cache.stats.misses == 1

    def test_put_then_get(self):
        cache = FileCache()
        cache.put(F1, 1, b"data")
        entry = cache.get(F1)
        assert entry.version == 1
        assert entry.payload == b"data"
        assert cache.stats.hits == 1

    def test_put_updates_in_place(self):
        cache = FileCache()
        cache.put(F1, 1, b"old")
        cache.put(F1, 2, b"new")
        assert cache.get(F1).payload == b"new"
        assert len(cache) == 1

    def test_drop(self):
        cache = FileCache()
        cache.put(F1, 1, b"x")
        cache.drop(F1)
        assert F1 not in cache

    def test_clear(self):
        cache = FileCache()
        cache.put(F1, 1, b"x")
        cache.put(F2, 1, b"y")
        cache.clear()
        assert len(cache) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FileCache(capacity=0)

    def test_hit_rate(self):
        cache = FileCache()
        cache.put(F1, 1, b"x")
        cache.get(F1)
        cache.get(F2)
        assert cache.stats.hit_rate == 0.5


class TestInvalidation:
    def test_invalidated_entry_misses(self):
        cache = FileCache()
        cache.put(F1, 1, b"x")
        cache.invalidate(F1)
        assert cache.get(F1) is None
        assert cache.stats.invalidations == 1

    def test_invalidate_unknown_is_noop(self):
        cache = FileCache()
        cache.invalidate(F1)
        assert cache.stats.invalidations == 0

    def test_put_revalidates_with_newer_version(self):
        cache = FileCache()
        cache.put(F1, 1, b"old")
        cache.invalidate(F1)
        assert cache.put(F1, 2, b"new")
        assert cache.get(F1).payload == b"new"

    def test_stale_put_refused_after_invalidation(self):
        """The version floor: a late stale fetch must not resurrect data
        the client agreed to invalidate (write-approval race)."""
        cache = FileCache()
        cache.put(F1, 3, b"v3")
        cache.invalidate(F1)  # floor becomes 4
        assert not cache.put(F1, 3, b"v3-late")
        assert cache.get(F1) is None
        assert cache.stats.stale_rejects == 1

    def test_explicit_min_version_floor(self):
        cache = FileCache()
        cache.put(F1, 3, b"v3")
        cache.invalidate(F1, min_version=10)
        assert not cache.put(F1, 9, b"v9")
        assert cache.put(F1, 10, b"v10")

    def test_older_version_never_replaces_newer(self):
        cache = FileCache()
        cache.put(F1, 5, b"v5")
        assert not cache.put(F1, 4, b"v4")
        assert cache.get(F1).version == 5

    def test_tombstone_floor_without_prior_entry(self):
        """An approval can precede the first fetch; its floor must stick."""
        cache = FileCache()
        cache.invalidate(F1, min_version=2)
        assert not cache.put(F1, 1, b"stale")
        assert cache.get(F1) is None
        assert cache.put(F1, 2, b"fresh")
        assert cache.get(F1).payload == b"fresh"

    def test_floors_survive_repeated_invalidation(self):
        cache = FileCache()
        cache.put(F1, 1, b"x")
        cache.invalidate(F1, min_version=5)
        cache.invalidate(F1, min_version=3)  # must not lower the floor
        assert not cache.put(F1, 4, b"v4")

    def test_lower_floor_releases_a_dead_floor(self):
        """When the floored write is proven aborted, the floor comes down
        so live replies are admissible again (anti-livelock)."""
        cache = FileCache()
        cache.invalidate(F1, min_version=5)
        cache.lower_floor(F1, 2)
        assert not cache.put(F1, 1, b"v1")  # still below the lowered floor
        assert cache.put(F1, 2, b"v2")

    def test_lower_floor_never_raises(self):
        cache = FileCache()
        cache.invalidate(F1, min_version=2)
        cache.lower_floor(F1, 7)  # a no-op: lower only
        assert cache.put(F1, 2, b"v2")
        cache.lower_floor(F2, 7)  # no floor at all: also a no-op
        assert cache.put(F2, 1, b"v1")

    def test_lower_floor_to_equal_value_is_a_no_op(self):
        cache = FileCache()
        cache.invalidate(F1, min_version=3)
        cache.lower_floor(F1, 3)
        assert not cache.put(F1, 2, b"v2")
        assert cache.put(F1, 3, b"v3")

    def test_drop_discards_floor_so_lowering_after_is_inert(self):
        """drop() releases the floor entirely; a late lower_floor on the
        dropped datum must not resurrect admission control."""
        cache = FileCache()
        cache.put(F1, 1, b"x")
        cache.invalidate(F1, min_version=9)
        cache.drop(F1)
        assert cache.floor_of(F1) == 0
        cache.lower_floor(F1, 4)  # floor is 0: nothing to lower
        assert cache.put(F1, 1, b"reborn")

    def test_put_below_lowered_floor_still_refused(self):
        cache = FileCache()
        cache.invalidate(F1, min_version=10)
        cache.lower_floor(F1, 6)
        rejects_before = cache.stats.stale_rejects
        assert not cache.put(F1, 5, b"stale")
        assert cache.stats.stale_rejects == rejects_before + 1

    def test_invalidate_after_lower_floor_can_raise_again(self):
        """Lowering releases one dead write; a *new* approval may floor
        higher afterwards and must win."""
        cache = FileCache()
        cache.invalidate(F1, min_version=5)
        cache.lower_floor(F1, 2)
        cache.invalidate(F1, min_version=8)
        assert not cache.put(F1, 7, b"v7")
        assert cache.put(F1, 8, b"v8")

    def test_lower_floor_then_entry_version_still_guards(self):
        """The floor is one guard; the resident entry's version is the
        other.  Lowering the floor below a cached version must not let an
        older payload overwrite newer bytes."""
        cache = FileCache()
        cache.put(F1, 5, b"v5")
        cache.invalidate(F1, min_version=6)
        cache.lower_floor(F1, 1)
        assert not cache.put(F1, 3, b"v3")  # floor passed, entry version not
        assert cache.get(F1) is None  # still invalid until a fresh put
        assert cache.put(F1, 5, b"v5-again")
        assert cache.get(F1).payload == b"v5-again"


class TestLru:
    def test_eviction_removes_least_recent(self):
        cache = FileCache(capacity=2)
        cache.put(F1, 1, b"1")
        cache.put(F2, 1, b"2")
        cache.get(F1)  # F1 now most recent
        cache.put(DatumId.file("f3"), 1, b"3")
        assert F1 in cache
        assert F2 not in cache
        assert cache.stats.evictions == 1

    def test_peek_does_not_touch_lru(self):
        cache = FileCache(capacity=2)
        cache.put(F1, 1, b"1")
        cache.put(F2, 1, b"2")
        cache.peek(F1)
        cache.put(DatumId.file("f3"), 1, b"3")
        assert F1 not in cache  # peek did not refresh it

    def test_admission_floor_survives_eviction(self):
        """Regression (stampede adversarial family, seed gen-0-81): a
        crash-era duplicate commit produced a late v4 WriteReply after v5
        had been admitted *and evicted* under capacity pressure.  With the
        floor raised only by invalidations, eviction reopened the door and
        the stale bytes were served as local hits under a live lease.
        Successful admission now raises the floor too."""
        cache = FileCache(capacity=2)
        assert cache.put(F1, 5, b"v5")
        cache.put(F2, 1, b"2")
        cache.put(DatumId.file("f3"), 1, b"3")  # evicts F1 (LRU-oldest)
        assert F1 not in cache
        assert cache.floor_of(F1) == 5
        assert not cache.put(F1, 4, b"v4")
        assert cache.stats.stale_rejects == 1

    @given(ops=st.lists(st.integers(0, 9), max_size=60))
    def test_size_never_exceeds_capacity(self, ops):
        cache = FileCache(capacity=4)
        for i in ops:
            cache.put(DatumId.file(f"f{i}"), 1, b"")
        assert len(cache) <= 4


class TestEvictionHook:
    """``on_evict`` fires once per capacity victim and for nothing else."""

    def make(self, capacity=2, policy=None):
        evicted = []
        return FileCache(capacity, policy=policy, on_evict=evicted.append), evicted

    def test_fires_once_per_lru_victim(self):
        cache, evicted = self.make(capacity=2)
        for name in ("a", "b", "c", "d"):
            cache.put(DatumId.file(name), 1, b"")
        assert evicted == [DatumId.file("a"), DatumId.file("b")]
        assert cache.stats.evictions == 2

    def test_fires_once_per_lru_lfu_victim(self):
        cache, evicted = self.make(capacity=2, policy=LruLfuPolicy())
        cache.put(F1, 1, b"")
        cache.put(F2, 1, b"")
        for _ in range(5):
            cache.get(F1)  # F1 hot, F2 cold
        cache.put(DatumId.file("f3"), 1, b"")
        cache.put(DatumId.file("f4"), 1, b"")
        assert evicted == [F2, DatumId.file("f3")]
        assert all(d not in cache for d in evicted)

    def test_silent_on_drop_clear_refusal_and_overwrite(self):
        cache, evicted = self.make(capacity=2)
        cache.put(F1, 2, b"v2")
        cache.put(F2, 1, b"")
        assert not cache.put(F1, 1, b"v1")  # refused: below cached version
        cache.put(F1, 3, b"v3")  # overwrite in place
        cache.invalidate(F2)
        cache.drop(F2)
        cache.clear()
        assert evicted == []


class TestTempFileStore:
    def test_write_read_roundtrip(self):
        temp = TempFileStore()
        temp.write("/tmp/a", b"scratch")
        assert temp.read("/tmp/a") == b"scratch"

    def test_read_missing_is_none(self):
        assert TempFileStore().read("/tmp/ghost") is None

    def test_unlink(self):
        temp = TempFileStore()
        temp.write("/tmp/a", b"x")
        temp.unlink("/tmp/a")
        assert temp.read("/tmp/a") is None

    def test_counters(self):
        temp = TempFileStore()
        temp.write("/tmp/a", b"x")
        temp.read("/tmp/a")
        temp.read("/tmp/b")
        assert temp.writes == 1
        assert temp.reads == 2

    def test_clear(self):
        temp = TempFileStore()
        temp.write("/tmp/a", b"x")
        temp.clear()
        assert len(temp) == 0
