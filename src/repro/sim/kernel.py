"""Discrete-event simulation kernel.

Events are ``(time, seq)``-ordered callbacks, where ``seq`` is a global
tie-breaker that makes same-instant events fire in schedule order.
Determinism is a hard requirement — the benchmark figures must be
reproducible — so all randomness flows through the kernel's seeded
:class:`random.Random` and nothing reads the wall clock.

Storage is a two-tier timer wheel (see DESIGN.md §10).  Entries are
plain tuples ``(time, seq, handle, fn, args)`` — ordering comparisons
never leave C, because ``(time, seq)`` is unique so tuple comparison
stops before reaching the payload.  The wheel buckets events by
``int(time / granularity)``: the bucket currently being drained is kept
as a sorted list consumed by index (``_due``/``_due_pos``), future
buckets are unsorted append-only lists adopted (and sorted once) in slot
order, and a plain heap (``_far``) catches deadlines past the wheel's
horizon (and ``inf``).  The golden-digest suite pins the resulting
event order byte for byte against the classic event heap the wheel
replaced.

Two scheduling fast paths exist for hot, never-cancelled events:
:meth:`Kernel.post_at` skips the :class:`EventHandle` allocation, and
:meth:`Kernel.defer` additionally *executes inline* — consuming a
``seq``, advancing ``now`` and incrementing ``executed`` exactly as a
queued event would — when it can prove no other pending event precedes
it (see the method docstring for the soundness argument).

Cancellation is lazy (a cancelled handle is skipped when consumed),
which keeps ``cancel`` O(1) — but cancelled entries must not be allowed
to pile up: a renewal-heavy run arms and cancels one timer per lease
extension, so the kernel compacts its queues whenever cancelled entries
outnumber the live ones.  Live/cancelled counts are maintained
incrementally, making :meth:`Kernel.pending` O(1).
"""

from __future__ import annotations

import gc
import random
from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError
from repro.obs.events import KERNEL_COMPACT

#: Minimum number of cancelled entries before compaction is considered;
#: below this the dead weight is cheaper than a rebuild.
_COMPACT_MIN = 64

#: Wheel bucket width in virtual seconds.  Sized for the lease workload:
#: network legs (sub-millisecond) land in the draining bucket, lease-term
#: timers (seconds to a minute) spread across future buckets instead of
#: churning a single heap.
_GRANULARITY = 0.05
_INV_GRANULARITY = 1.0 / _GRANULARITY

#: Absolute virtual time beyond which entries bypass the wheel and take
#: the fallback heap: keeps slot ids bounded and handles ``inf`` safely.
_FAR_CUTOFF = float(2**40)

#: Consumed-prefix length beyond which ``_due`` is trimmed before an
#: insort, so long single-bucket runs do not shift dead entries forever.
_DUE_TRIM = 512


class EventHandle:
    """A scheduled event's cancellation token.

    Cancelled events stay queued but are skipped when consumed (lazy
    deletion), which keeps cancellation O(1).  The owning kernel is
    notified so it can keep live/cancelled counts and compact when dead
    entries pile up.  The callback itself lives in the kernel's entry
    tuple, not here — hot paths that never cancel skip this object
    entirely (:meth:`Kernel.post_at`).
    """

    __slots__ = ("time", "seq", "cancelled", "_kernel")

    def __init__(self, time: float, seq: int):
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._kernel: "Kernel | None" = None

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        kernel = self._kernel
        if kernel is not None:  # still queued
            self._kernel = None
            kernel._note_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Kernel:
    """The simulation event loop.

    Attributes:
        rng: seeded random source shared by all stochastic components
            (workload generators, loss models) for reproducible runs.
        obs: optional :class:`~repro.obs.bus.TraceBus` receiving kernel
            events (queue compactions).
        executed: total events fired so far — the denominator of the
            harness's throughput metric (simulated events per wall
            second, see ``repro.parallel.baseline``).
    """

    def __init__(self, seed: int = 0, obs: Any = None):
        #: Current virtual time in seconds (plain attribute on purpose —
        #: it is read on every hot path; treat as read-only outside the
        #: kernel).
        self.now = 0.0
        self._seq = 0
        self._live = 0  # non-cancelled entries queued
        self._cancelled = 0  # cancelled entries still queued
        self.executed = 0
        self.rng = random.Random(seed)
        self.obs = obs
        # -- timer wheel state (see module docstring) --
        self._due: list[tuple] = []  # draining bucket, sorted
        self._due_pos = 0  # next index to consume in _due
        self._cur_slot = -1  # slot of the draining bucket
        self._buckets: dict[int, list[tuple]] = {}  # future slots, unsorted
        self._slots: list[int] = []  # heap of occupied future slot ids
        self._far: list[tuple] = []  # heap for beyond-horizon deadlines
        self._horizon: float | None = None  # run(until=...) bound
        self._in_run = False  # inside run()'s loop (defer may inline)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        handle = EventHandle(time, self._seq)
        handle._kernel = self
        # _insert body, inlined: schedule/cancel churn (one arm + cancel
        # per lease renewal) makes this the hottest handle-bearing entry
        # point, and the extra frame is measurable at that call volume.
        entry = (time, self._seq, handle, fn, args)
        self._seq += 1
        self._live += 1
        if time < _FAR_CUTOFF:
            slot = int(time * _INV_GRANULARITY)
            if slot > self._cur_slot:
                bucket = self._buckets.get(slot)
                if bucket is None:
                    self._buckets[slot] = [entry]
                    heappush(self._slots, slot)
                else:
                    bucket.append(entry)
                return handle
            pos = self._due_pos
            if pos > _DUE_TRIM:
                del self._due[:pos]
                self._due_pos = pos = 0
            insort(self._due, entry, lo=pos)
        else:
            heappush(self._far, entry)
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        handle = EventHandle(time, self._seq)
        handle._kernel = self
        self._insert(time, handle, fn, args)
        return handle

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule without a cancellation handle (hot never-cancelled paths).

        Identical ordering and counters to :meth:`schedule_at`; the only
        difference is that no :class:`EventHandle` is allocated, so the
        event cannot be cancelled.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        # _insert, inlined: this is the hottest scheduling entry point (every
        # network leg), and the extra frame is measurable at this call volume.
        entry = (time, self._seq, None, fn, args)
        self._seq += 1
        self._live += 1
        if time < _FAR_CUTOFF:
            slot = int(time * _INV_GRANULARITY)
            if slot > self._cur_slot:
                bucket = self._buckets.get(slot)
                if bucket is None:
                    self._buckets[slot] = [entry]
                    heappush(self._slots, slot)
                else:
                    bucket.append(entry)
                return
            pos = self._due_pos
            if pos > _DUE_TRIM:
                del self._due[:pos]
                self._due_pos = pos = 0
            insort(self._due, entry, lo=pos)
        else:
            heappush(self._far, entry)

    def defer(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`post_at`, executed inline when provably next.

        The head of the draining bucket answers the quiet question
        directly in the common cases (clearly later → quiet, live and not
        later → not quiet); only a cancelled head needs the pruning walk
        in :meth:`_quiet_until`.

        Inline execution consumes the next ``seq``, advances ``now`` to
        ``time`` and increments ``executed`` — byte-identical to queueing
        the event and consuming it on the next loop iteration.  That is
        sound only when nothing else may run in between, so it requires
        *all* of:

        * the kernel is inside :meth:`run` (``step()`` must return after
          one event, and its callers meter progress by call count);
        * ``time`` does not exceed the active ``until`` horizon (the
          queued event would have been left pending);
        * no queued entry precedes ``(time, next_seq)`` — since
          ``next_seq`` is larger than every queued seq, this reduces to
          ``head.time > time``.

        Otherwise it degrades to a normal handle-less insertion.
        """
        if self._in_run and time >= self.now:
            horizon = self._horizon
            if horizon is None or time <= horizon:
                due = self._due
                pos = self._due_pos
                if pos < len(due):
                    e = due[pos]
                    if e[0] > time:
                        quiet = True
                    else:
                        h = e[2]
                        if h is None or not h.cancelled:
                            quiet = False
                        else:
                            quiet = self._quiet_until(time)
                else:
                    quiet = self._quiet_until(time)
                if quiet:
                    self._seq += 1
                    self.now = time
                    self.executed += 1
                    fn(*args)
                    return
        self.post_at(time, fn, *args)

    def post_args(self, time: float, fn: Callable[..., Any], args: tuple) -> None:
        """:meth:`post_at` taking a prebuilt argument tuple.

        ``*args`` packing allocates a fresh tuple on every call; hot
        callers that carry one message through several hops (the
        network's send → arrive → deliver chain) build the tuple once
        and pool it across the hops instead.  Ordering and counters are
        identical to :meth:`post_at`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        entry = (time, self._seq, None, fn, args)
        self._seq += 1
        self._live += 1
        if time < _FAR_CUTOFF:
            slot = int(time * _INV_GRANULARITY)
            if slot > self._cur_slot:
                bucket = self._buckets.get(slot)
                if bucket is None:
                    self._buckets[slot] = [entry]
                    heappush(self._slots, slot)
                else:
                    bucket.append(entry)
                return
            pos = self._due_pos
            if pos > _DUE_TRIM:
                del self._due[:pos]
                self._due_pos = pos = 0
            insort(self._due, entry, lo=pos)
        else:
            heappush(self._far, entry)

    def defer_args(self, time: float, fn: Callable[..., Any], args: tuple) -> None:
        """:meth:`defer` taking a prebuilt argument tuple (see
        :meth:`post_args`).  The inline-execution soundness argument is
        :meth:`defer`'s, unchanged."""
        if self._in_run and time >= self.now:
            horizon = self._horizon
            if horizon is None or time <= horizon:
                due = self._due
                pos = self._due_pos
                if pos < len(due):
                    e = due[pos]
                    if e[0] > time:
                        quiet = True
                    else:
                        h = e[2]
                        if h is None or not h.cancelled:
                            quiet = False
                        else:
                            quiet = self._quiet_until(time)
                else:
                    quiet = self._quiet_until(time)
                if quiet:
                    self._seq += 1
                    self.now = time
                    self.executed += 1
                    fn(*args)
                    return
        self.post_args(time, fn, args)

    def _insert(
        self,
        time: float,
        handle: EventHandle | None,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        """Place one entry into the wheel tier its deadline belongs to."""
        entry = (time, self._seq, handle, fn, args)
        self._seq += 1
        self._live += 1
        if time < _FAR_CUTOFF:
            slot = int(time * _INV_GRANULARITY)
            if slot > self._cur_slot:
                bucket = self._buckets.get(slot)
                if bucket is None:
                    self._buckets[slot] = [entry]
                    heappush(self._slots, slot)
                else:
                    bucket.append(entry)
                return
            # lands in (or before) the draining bucket: keep _due sorted
            pos = self._due_pos
            if pos > _DUE_TRIM:
                del self._due[:pos]
                self._due_pos = pos = 0
            insort(self._due, entry, lo=pos)
        else:
            heappush(self._far, entry)

    # -- consumption ----------------------------------------------------------

    def _advance(self) -> tuple | None:
        """Expose the next live entry without consuming it.

        Prunes cancelled entries ahead of the first live one (mirroring
        the old heap's lazy pop-at-top) and adopts future buckets —
        sorting each exactly once — as the draining bucket empties.
        Returns the entry, or None when nothing live is queued.  After a
        non-None return the entry sits either at ``_due[_due_pos]`` or at
        ``_far[0]`` with ``_due`` exhausted; :meth:`_consume` takes it.
        """
        while True:
            due = self._due
            pos = self._due_pos
            n = len(due)
            while pos < n:
                entry = due[pos]
                handle = entry[2]
                if handle is None or not handle.cancelled:
                    self._due_pos = pos
                    return entry
                pos += 1
                self._cancelled -= 1
            self._due_pos = pos
            # draining bucket exhausted: adopt the next occupied slot
            slots = self._slots
            while slots:
                slot = heappop(slots)
                bucket = self._buckets.pop(slot, None)
                if bucket is None:  # emptied by compaction
                    continue
                bucket.sort()
                self._due = bucket
                self._due_pos = 0
                self._cur_slot = slot
                break
            else:
                far = self._far
                while far:
                    entry = far[0]
                    handle = entry[2]
                    if handle is None or not handle.cancelled:
                        return entry
                    heappop(far)
                    self._cancelled -= 1
                return None

    def _quiet_until(self, time: float) -> bool:
        """True when no live entry precedes ``(time, next_seq)``.

        Used by :meth:`defer`'s inline check.  Prunes cancelled entries
        strictly before the bound — exactly the set the run loop would
        have pruned before consuming a queued event at that key — and
        deliberately no further, so the live/cancelled counters (and
        hence compaction points) match the queued path while the inlined
        callback runs.
        """
        while True:
            due = self._due
            pos = self._due_pos
            n = len(due)
            while pos < n:
                entry = due[pos]
                if entry[0] > time:
                    self._due_pos = pos
                    return True
                handle = entry[2]
                if handle is None or not handle.cancelled:
                    self._due_pos = pos
                    return False
                pos += 1
                self._cancelled -= 1
            self._due_pos = pos
            slots = self._slots
            while slots:
                slot = heappop(slots)
                bucket = self._buckets.pop(slot, None)
                if bucket is None:
                    continue
                bucket.sort()
                self._due = bucket
                self._due_pos = 0
                self._cur_slot = slot
                break
            else:
                far = self._far
                while far:
                    entry = far[0]
                    if entry[0] > time:
                        return True
                    handle = entry[2]
                    if handle is None or not handle.cancelled:
                        return False
                    heappop(far)
                    self._cancelled -= 1
                return True

    def _consume(self, entry: tuple) -> None:
        """Take the entry :meth:`_advance` just exposed off its queue."""
        if self._due_pos < len(self._due):
            self._due_pos += 1
        else:
            heappop(self._far)
        handle = entry[2]
        if handle is not None:
            handle._kernel = None
        self._live -= 1
        self.now = entry[0]
        self.executed += 1

    def step(self) -> bool:
        """Run the next pending event.  Returns False if none remain.

        The draining-bucket fast path mirrors :meth:`run`'s; bucket
        adoption and the far heap fall back to _advance/_consume.
        """
        due = self._due
        pos = self._due_pos
        n = len(due)
        while pos < n:
            entry = due[pos]
            h = entry[2]
            if h is None or not h.cancelled:
                self._due_pos = pos + 1
                if h is not None:
                    h._kernel = None
                self._live -= 1
                self.now = entry[0]
                self.executed += 1
                entry[3](*entry[4])
                return True
            pos += 1
            self._cancelled -= 1
        self._due_pos = pos
        entry = self._advance()
        if entry is None:
            return False
        self._consume(entry)
        entry[3](*entry[4])
        return True

    def run(self, until: float | None = None) -> None:
        """Run events in order.

        Args:
            until: if given, stop once the next event lies beyond ``until``
                and advance ``now`` to exactly ``until``; if None, run until
                no events remain.
        """
        saved_run, saved_horizon = self._in_run, self._horizon
        self._in_run = True
        self._horizon = until
        # Event tuples die by refcount, so generational GC only finds the
        # cycle garbage (engines, handlers) — suppress the automatic
        # collections while draining; the deferred sweep happens when the
        # caller's gc state is restored below.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            advance = self._advance
            consume = self._consume
            # The common case — next live entry already sits in the draining
            # bucket — is handled inline; only bucket adoption and the far
            # heap go through _advance/_consume.  Callbacks may insert into
            # _due or trigger compaction, so _due/_due_pos are re-read from
            # self on every iteration; nothing is cached across a callback.
            while True:
                due = self._due
                pos = self._due_pos
                n = len(due)
                entry = None
                while pos < n:
                    e = due[pos]
                    h = e[2]
                    if h is None or not h.cancelled:
                        entry = e
                        break
                    pos += 1
                    self._cancelled -= 1
                if entry is not None:
                    time = entry[0]
                    if until is not None and time > until:
                        self._due_pos = pos
                        break
                    self._due_pos = pos + 1
                    handle = entry[2]
                    if handle is not None:
                        handle._kernel = None
                    self._live -= 1
                    self.now = time
                    self.executed += 1
                    entry[3](*entry[4])
                    continue
                self._due_pos = pos
                entry = advance()
                if entry is None or (until is not None and entry[0] > until):
                    break
                consume(entry)
                entry[3](*entry[4])
        finally:
            self._in_run = saved_run
            self._horizon = saved_horizon
            if gc_was_enabled:
                gc.enable()
        if until is not None and until > self.now:
            self.now = until

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    # -- internals -----------------------------------------------------------

    def _size(self) -> int:
        """Total stored entries, live and cancelled (test/debug hook)."""
        return (
            len(self._due)
            - self._due_pos
            + sum(len(b) for b in self._buckets.values())
            + len(self._far)
        )

    def _note_cancel(self) -> None:
        """A queued handle was cancelled; compact when dead weight wins.

        The threshold (more cancelled than live, past a fixed floor)
        bounds storage at roughly twice the live count, so timer-churn
        workloads — one set + cancel per lease renewal — run in O(live)
        memory instead of growing without bound.
        """
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > _COMPACT_MIN and self._cancelled > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from every tier, preserving order."""

        def alive(entry: tuple) -> bool:
            handle = entry[2]
            return handle is None or not handle.cancelled

        removed = self._cancelled
        self._due = [e for e in self._due[self._due_pos:] if alive(e)]
        self._due_pos = 0
        for slot in list(self._buckets):
            bucket = [e for e in self._buckets[slot] if alive(e)]
            if bucket:
                self._buckets[slot] = bucket
            else:
                del self._buckets[slot]  # stale slot id left in _slots
        self._far = [e for e in self._far if alive(e)]
        heapify(self._far)
        self._cancelled = 0
        obs = self.obs
        if obs is not None and obs.active:
            obs.emit(KERNEL_COMPACT, self.now, None, removed=removed, live=self._live)

    def __repr__(self) -> str:
        return f"Kernel(now={self.now:.6f}, pending={self.pending()})"
