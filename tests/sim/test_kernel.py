"""Unit and property tests for the discrete-event kernel."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs import TraceBus
from repro.sim.kernel import _COMPACT_MIN, _FAR_CUTOFF, Kernel


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Kernel().now == 0.0

    def test_events_fire_in_time_order(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(3.0, fired.append, "c")
        kernel.schedule(1.0, fired.append, "a")
        kernel.schedule(2.0, fired.append, "b")
        kernel.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        kernel = Kernel()
        fired = []
        for tag in "abcde":
            kernel.schedule(1.0, fired.append, tag)
        kernel.run()
        assert fired == list("abcde")

    def test_now_advances_to_event_time(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(2.5, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [2.5]
        assert kernel.now == 2.5

    def test_events_can_schedule_events(self):
        kernel = Kernel()
        fired = []

        def first():
            fired.append(("first", kernel.now))
            kernel.schedule(1.0, second)

        def second():
            fired.append(("second", kernel.now))

        kernel.schedule(1.0, first)
        kernel.run()
        assert fired == [("first", 1.0), ("second", 2.0)]

    def test_schedule_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Kernel().schedule(-1.0, lambda: None)

    def test_schedule_at_rejects_past(self):
        kernel = Kernel()
        kernel.schedule(5.0, lambda: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.schedule_at(4.0, lambda: None)

    def test_zero_delay_runs_after_current_event(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, lambda: (fired.append("a"), kernel.schedule(0.0, fired.append, "b")))
        kernel.schedule(1.0, fired.append, "c")
        kernel.run()
        assert fired[0] == "a"
        assert set(fired) == {"a", "b", "c"}
        # zero-delay event at t=1 scheduled during the first event runs after
        # the already-queued same-time event
        assert fired == ["a", "c", "b"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        kernel = Kernel()
        fired = []
        handle = kernel.schedule(1.0, fired.append, "x")
        handle.cancel()
        kernel.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        kernel = Kernel()
        handle = kernel.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        kernel.run()

    def test_pending_excludes_cancelled(self):
        kernel = Kernel()
        keep = kernel.schedule(1.0, lambda: None)
        drop = kernel.schedule(2.0, lambda: None)
        drop.cancel()
        assert kernel.pending() == 1
        assert not keep.cancelled


class TestCompaction:
    """Regression tests: lazy cancellation must not leak heap entries.

    Before compaction existed, every cancelled handle sat in the heap
    until popped, so timer-churn workloads (arm + cancel per lease
    renewal) grew the heap without bound and ``pending()`` was O(heap).
    """

    def test_timer_churn_keeps_heap_bounded(self):
        kernel = Kernel()
        keepers = [kernel.schedule(1000.0 + i, lambda: None) for i in range(10)]
        for i in range(10_000):
            kernel.schedule(1.0 + i * 1e-4, lambda: None).cancel()
        # dead weight may never exceed the live count (plus the fixed floor)
        assert kernel._size() <= 2 * kernel.pending() + 64
        assert kernel.pending() == len(keepers)
        kernel.run()
        assert kernel._size() == 0

    def test_pending_is_maintained_incrementally(self):
        kernel = Kernel()
        handles = [kernel.schedule(float(i + 1), lambda: None) for i in range(100)]
        assert kernel.pending() == 100
        for h in handles[:40]:
            h.cancel()
        assert kernel.pending() == 60
        kernel.run()
        assert kernel.pending() == 0

    def test_compaction_preserves_firing_order(self):
        kernel = Kernel()
        fired = []
        for i in range(50):
            kernel.schedule(100.0 + i, fired.append, i)
        for _ in range(200):  # force at least one compaction
            kernel.schedule(1.0, lambda: None).cancel()
        kernel.run()
        assert fired == list(range(50))

    def test_cancel_after_fire_does_not_corrupt_counts(self):
        kernel = Kernel()
        handle = kernel.schedule(1.0, lambda: None)
        kernel.run()
        handle.cancel()  # too late: already popped and executed
        assert kernel.pending() == 0
        assert kernel._cancelled == 0

    def test_compaction_emits_kernel_event(self):
        bus = TraceBus(capacity=None)
        kernel = Kernel(obs=bus)
        kernel.schedule(1000.0, lambda: None)
        for _ in range(200):
            kernel.schedule(1.0, lambda: None).cancel()
        compactions = bus.events("kernel.compact")
        assert compactions
        assert all(e["removed"] > 0 for e in compactions)


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "a")
        kernel.schedule(10.0, fired.append, "b")
        kernel.run(until=5.0)
        assert fired == ["a"]
        assert kernel.now == 5.0

    def test_run_until_includes_boundary_event(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(5.0, fired.append, "edge")
        kernel.run(until=5.0)
        assert fired == ["edge"]

    def test_run_until_advances_time_with_no_events(self):
        kernel = Kernel()
        kernel.run(until=42.0)
        assert kernel.now == 42.0

    def test_resume_after_run_until(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(10.0, fired.append, "late")
        kernel.run(until=5.0)
        kernel.run()
        assert fired == ["late"]
        assert kernel.now == 10.0


class TestStep:
    def test_step_runs_one_event(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "a")
        kernel.schedule(2.0, fired.append, "b")
        assert kernel.step()
        assert fired == ["a"]

    def test_step_returns_false_when_empty(self):
        assert not Kernel().step()

    def test_step_skips_cancelled(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "a").cancel()
        kernel.schedule(2.0, fired.append, "b")
        assert kernel.step()
        assert fired == ["b"]


class TestDeterminism:
    def test_rng_is_seeded(self):
        a = [Kernel(seed=7).rng.random() for _ in range(3)]
        b = [Kernel(seed=7).rng.random() for _ in range(3)]
        assert a == b

    def test_different_seeds_differ(self):
        assert Kernel(seed=1).rng.random() != Kernel(seed=2).rng.random()

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time(self, delays):
        """Property: observed firing times are sorted regardless of schedule order."""
        kernel = Kernel()
        times = []
        for d in delays:
            kernel.schedule(d, lambda: times.append(kernel.now))
        kernel.run()
        assert times == sorted(times)
        assert len(times) == len(delays)


class TestExecutedCounter:
    def test_counts_fired_events(self):
        kernel = Kernel()
        for d in (1.0, 2.0, 3.0):
            kernel.schedule(d, lambda: None)
        kernel.run()
        assert kernel.executed == 3

    def test_cancelled_events_are_not_counted(self):
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None).cancel()
        kernel.run()
        assert kernel.executed == 1

    def test_step_increments_by_one(self):
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None)
        assert kernel.step()
        assert kernel.executed == 1
        assert kernel.step()
        assert kernel.executed == 2


class TestFarTier:
    """Deadlines at or past ``_FAR_CUTOFF`` (and ``inf``) bypass the wheel
    for the ``_far`` heap; they must interleave with near entries in
    strict ``(time, seq)`` order on every consumption path."""

    FAR = _FAR_CUTOFF

    def mixed_kernel(self, fired):
        """A kernel holding near and far entries, scheduled out of order,
        with same-time pairs on both tiers to pin the ``seq`` tie-break.
        Returns it with the expected firing order."""
        kernel = Kernel()
        plan = [
            (math.inf, "inf-a"),
            (self.FAR * 2, "far2"),
            (5.0, "near5-a"),
            (self.FAR, "cut-a"),
            (1.0, "near1"),
            (self.FAR + 1.0, "far1"),
            (math.inf, "inf-b"),
            (self.FAR, "cut-b"),
            (5.0, "near5-b"),
        ]
        for i, (time, tag) in enumerate(plan):
            # Alternate handle-bearing and handle-less insertion paths.
            if i % 2:
                kernel.schedule_at(time, lambda t=tag: fired.append((t, kernel.now)))
            else:
                kernel.post_at(time, lambda t=tag: fired.append((t, kernel.now)))
        assert len(kernel._far) == 6  # every deadline >= the cutoff
        order = sorted(range(len(plan)), key=lambda i: (plan[i][0], i))
        return kernel, [(plan[i][1], plan[i][0]) for i in order]

    def test_run_fires_both_tiers_in_time_seq_order(self):
        fired = []
        kernel, expected = self.mixed_kernel(fired)
        kernel.run()
        assert fired == expected
        assert kernel.now == math.inf
        assert kernel.pending() == 0
        assert kernel._size() == 0

    def test_run_until_stops_inside_the_far_tier(self):
        fired = []
        kernel, expected = self.mixed_kernel(fired)
        kernel.run(until=self.FAR)  # boundary entries included
        assert fired == expected[:5]
        assert kernel.now == self.FAR
        assert kernel.pending() == 4
        kernel.run(until=self.FAR + 0.5)
        assert fired == expected[:5]
        assert kernel.now == self.FAR + 0.5
        kernel.run(until=self.FAR * 2)
        assert fired == expected[:7]
        kernel.run()
        assert fired == expected
        assert kernel.pending() == 0

    def test_step_walks_both_tiers_one_event_at_a_time(self):
        fired = []
        kernel, expected = self.mixed_kernel(fired)
        for n in range(1, len(expected) + 1):
            assert kernel.step()
            assert fired == expected[:n]
            assert kernel.executed == n
            assert kernel.pending() == len(expected) - n
        assert not kernel.step()

    def test_callbacks_in_the_far_tier_keep_scheduling_in_order(self):
        kernel = Kernel()
        fired = []

        def at_cutoff():
            fired.append(("cut", kernel.now))
            kernel.schedule(0.0, lambda: fired.append(("same", kernel.now)))
            kernel.schedule(1.0, lambda: fired.append(("later", kernel.now)))

        kernel.schedule_at(self.FAR + 1.0, lambda: fired.append(("queued", kernel.now)))
        kernel.schedule_at(self.FAR, at_cutoff)
        kernel.run()
        assert fired == [
            ("cut", self.FAR),
            ("same", self.FAR),
            ("queued", self.FAR + 1.0),  # queued first: lower seq wins the tie
            ("later", self.FAR + 1.0),
        ]

    def test_cancelled_far_head_is_skipped(self):
        kernel = Kernel()
        fired = []
        kernel.schedule_at(self.FAR, fired.append, "dead").cancel()
        kernel.schedule_at(math.inf, fired.append, "dead-inf").cancel()
        kernel.schedule_at(self.FAR + 1.0, fired.append, "live")
        kernel.schedule(1.0, fired.append, "near")
        assert kernel.pending() == 2
        assert kernel._cancelled == 2  # below the compaction floor
        kernel.run()
        assert fired == ["near", "live"]
        assert kernel._cancelled == 0
        assert kernel._size() == 0

    def test_cancelled_far_entries_compact_without_reordering(self):
        bus = TraceBus(capacity=None)
        kernel = Kernel(obs=bus)
        fired = []
        live = 20
        # Live far entries scheduled in descending time order so the heap
        # is genuinely reshuffled, plus a few near ones.
        for i in reversed(range(live - 4)):
            kernel.schedule_at(self.FAR + i, lambda i=i: fired.append(
                (("far", i), kernel.pending())
            ))
        kernel.schedule_at(math.inf, lambda: fired.append((("inf",), kernel.pending())))
        for i in range(3):
            kernel.schedule(1.0 + i, lambda i=i: fired.append(
                (("near", i), kernel.pending())
            ))
        doomed = [
            kernel.schedule_at(self.FAR + 0.5 + i, lambda: fired.append("dead"))
            for i in range(_COMPACT_MIN + 40)
        ]
        for k, handle in enumerate(doomed, 1):
            handle.cancel()
            assert kernel.pending() == live + len(doomed) - k
        compactions = bus.events("kernel.compact")
        assert compactions
        assert kernel.pending() == live
        assert kernel._size() - kernel.pending() == kernel._cancelled
        kernel.run()
        assert "dead" not in fired
        tags = [tag for tag, _ in fired]
        assert tags == (
            [("near", i) for i in range(3)]
            + [("far", i) for i in range(live - 4)]
            + [("inf",)]
        )
        # pending() seen by each callback counts exactly the live rest.
        assert [pending for _, pending in fired] == list(range(live - 1, -1, -1))
        assert kernel._size() == 0


class TestDeferOverFarTier:
    """:meth:`Kernel.defer` must prove "nothing precedes" past the wheel:
    with only a far entry queued it runs inline, leaving ``now``,
    ``executed`` and the seq counter exactly as the queued event would."""

    FAR = _FAR_CUTOFF

    #: How the parent schedules its child: the queued reference and the
    #: two inline-capable entry points under test.
    SCHEDULE = {
        "post_at": lambda kernel, time, fn: kernel.post_at(time, fn),
        "defer": lambda kernel, time, fn: kernel.defer(time, fn),
        "defer_args": lambda kernel, time, fn: kernel.defer_args(time, fn, ()),
    }

    def run_case(self, how, parent_at, child_at, queued_far):
        """Run one parent callback that schedules a child via
        ``SCHEDULE[how]``; return the per-callback state trace, the final
        state, and whether the child ran inside the parent."""
        kernel = Kernel()
        trace = []
        depth = [0]

        def snapshot(tag):
            trace.append((tag, kernel.now, kernel.executed, kernel._seq, kernel.pending()))

        def child():
            snapshot("child")
            trace.append(("nested", depth[0]))

        def parent():
            depth[0] += 1
            snapshot("parent")
            self.SCHEDULE[how](kernel, child_at, child)
            depth[0] -= 1

        for time, cancelled in queued_far:
            handle = kernel.schedule_at(time, snapshot, ("far", time))
            if cancelled:
                handle.cancel()
        kernel.schedule_at(parent_at, parent)
        kernel.run()
        nested = [entry for entry in trace if entry[0] == "nested"]
        states = [entry for entry in trace if entry[0] != "nested"]
        final = (kernel.now, kernel.executed, kernel._seq, kernel.pending(),
                 kernel._cancelled, kernel._size())
        return states, final, nested == [("nested", 1)]

    @pytest.mark.parametrize("variant", ["defer", "defer_args"])
    def test_near_defer_inlines_when_only_far_entry_is_queued(self, variant):
        case = dict(parent_at=1.0, child_at=2.0, queued_far=[(self.FAR, False)])
        queued = self.run_case("post_at", **case)
        deferred = self.run_case(variant, **case)
        assert not queued[2]
        assert deferred[2], "defer did not run inline"
        assert deferred[:2] == queued[:2]

    @pytest.mark.parametrize("variant", ["defer", "defer_args"])
    def test_far_defer_prunes_cancelled_far_head_then_inlines(self, variant):
        case = dict(
            parent_at=self.FAR,
            child_at=self.FAR + 5.0,
            queued_far=[(self.FAR + 1.0, True), (math.inf, False)],
        )
        queued = self.run_case("post_at", **case)
        deferred = self.run_case(variant, **case)
        assert deferred[2], "defer did not run inline"
        assert deferred[:2] == queued[:2]

    @pytest.mark.parametrize("variant", ["defer", "defer_args"])
    def test_live_far_entry_ahead_forces_queueing(self, variant):
        case = dict(
            parent_at=self.FAR,
            child_at=self.FAR + 5.0,
            queued_far=[(self.FAR + 1.0, False), (math.inf, False)],
        )
        queued = self.run_case("post_at", **case)
        deferred = self.run_case(variant, **case)
        assert not deferred[2]
        assert deferred[:2] == queued[:2]
        tags = [state[0] for state in deferred[0]]
        assert tags == ["parent", ("far", self.FAR + 1.0), "child", ("far", math.inf)]
