"""Asyncio hosts for the sans-io protocol engines.

A node owns an engine, a transport and a clock.  Inbound messages and
timer firings are dispatched on the event loop (engines are synchronous,
so a single-threaded loop serializes them for free); effects are executed
as they are emitted: sends go to the transport, ``SetTimer`` becomes
``loop.call_later`` (re-arming replaces), and ``Complete`` resolves the
future returned by the client API.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
from typing import Any

from repro.clock.system import MonotonicClock
from repro.errors import ReproError
from repro.lease.installed import InstalledFileManager
from repro.lease.policy import TermPolicy
from repro.obs.bus import NULL_BUS
from repro.obs.events import NET_RECV, NET_SEND, TIMER_FIRE, TRANSPORT_DROP
from repro.protocol.client import ClientConfig, ClientEngine
from repro.protocol.effects import Broadcast, CancelTimer, Complete, Effect, Send, SetTimer
from repro.protocol.messages import Message
from repro.protocol.server import ServerConfig, ServerEngine
from repro.runtime.transport import Transport
from repro.storage.store import FileStore
from repro.types import DatumId, HostId


class _EngineNode:
    """Shared plumbing: effect execution, timers, message dispatch."""

    def __init__(self, transport: Transport, clock=None, obs=None):
        self.transport = transport
        self.clock = clock or MonotonicClock()
        #: The node-local :class:`~repro.obs.bus.TraceBus`.  The node emits
        #: the driver-level events (``net.send``/``net.recv``/``timer.fire``)
        #: here with the same schemas the simulator uses, and hands the bus
        #: to its engine, which emits the protocol-level events itself.
        self.obs = obs or NULL_BUS
        self._timers: dict[str, asyncio.TimerHandle] = {}
        # The loop is resolved lazily (see `_loop`): binding it here via the
        # deprecated get_event_loop() would capture the wrong loop when a
        # node is constructed before asyncio.run().
        self._bound_loop: asyncio.AbstractEventLoop | None = None
        self._send_tasks: set[asyncio.Task] = set()
        #: Sends whose transport call raised (dropped frames), counted
        #: whether or not tracing is on.
        self.send_failures = 0
        transport.set_handler(self._on_message)

    @property
    def name(self) -> HostId:
        return self.transport.name

    @property
    def _loop(self) -> asyncio.AbstractEventLoop:
        if self._bound_loop is None:
            self._bound_loop = asyncio.get_running_loop()
        return self._bound_loop

    # -- overridden by subclasses ------------------------------------------------

    def _engine(self):
        raise NotImplementedError

    def _on_complete(self, effect: Complete) -> None:
        raise ReproError(f"{type(self).__name__} got unexpected Complete")

    # -- plumbing -------------------------------------------------------------------

    def _on_message(self, message: Message, src: HostId) -> None:
        now = self.clock.now()
        if self.obs.active:
            self.obs.emit(
                NET_RECV, now, self.name, src=src, dst=self.name, kind=message.kind
            )
        self._run_effects(self._engine().handle_message(message, src, now))

    def _on_timer(self, key: str) -> None:
        self._timers.pop(key, None)
        now = self.clock.now()
        if self.obs.active:
            self.obs.emit(TIMER_FIRE, now, self.name, key=key)
        self._run_effects(self._engine().handle_timer(key, now))

    def _run_effects(self, effects: list[Effect]) -> None:
        for effect in effects:
            if isinstance(effect, Send):
                self._send_soon(effect.dst, effect.message)
            elif isinstance(effect, Broadcast):
                for dst in effect.dsts:
                    self._send_soon(dst, effect.message)
            elif isinstance(effect, SetTimer):
                self._set_timer(effect.key, effect.delay)
            elif isinstance(effect, CancelTimer):
                self._cancel_timer(effect.key)
            elif isinstance(effect, Complete):
                self._on_complete(effect)
            else:
                raise ReproError(f"cannot execute effect {effect!r}")

    def _send_soon(self, dst: HostId, message: Message) -> None:
        if self.obs.active:
            self.obs.emit(
                NET_SEND, self.clock.now(), self.name,
                src=self.name, dst=dst, kind=message.kind,
            )
        task = self._loop.create_task(self.transport.send(dst, message))
        self._send_tasks.add(task)
        task.add_done_callback(
            lambda t, dst=dst, kind=message.kind: self._send_done(t, dst, kind)
        )

    def _send_done(self, task: asyncio.Task, dst: HostId, kind: str) -> None:
        # A send cancelled during close() is not a failure, and calling
        # task.exception() on it would raise CancelledError right here in
        # the callback (unobserved-exception noise).  A send that failed
        # for real is a dropped frame: counted always, traced when a bus
        # is listening.
        self._send_tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            return
        self.send_failures += 1
        if self.obs.active:
            self.obs.emit(
                TRANSPORT_DROP, self.clock.now(), self.name,
                dst=dst, kind=kind, reason=type(exc).__name__,
            )

    def _set_timer(self, key: str, delay: float) -> None:
        self._cancel_timer(key)
        self._timers[key] = self._loop.call_later(
            max(0.0, delay), self._on_timer, key
        )

    def _cancel_timer(self, key: str) -> None:
        handle = self._timers.pop(key, None)
        if handle is not None:
            handle.cancel()

    async def close(self) -> None:
        """Cancel timers, reap in-flight sends, and close the transport."""
        for key in list(self._timers):
            self._cancel_timer(key)
        pending = [t for t in self._send_tasks if not t.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._send_tasks.clear()
        await self.transport.close()


class LeaseServerNode(_EngineNode):
    """A real-time lease file server."""

    def __init__(
        self,
        transport: Transport,
        store: FileStore,
        policy: TermPolicy,
        config: ServerConfig | None = None,
        installed: InstalledFileManager | None = None,
        clock=None,
        obs=None,
    ):
        super().__init__(transport, clock, obs=obs)
        self.store = store
        self.policy = policy
        self._config = config or ServerConfig()
        #: Models the small persistent record of the largest term granted —
        #: the §2 crash rule's one durable datum (mirrors SimServer).
        self._persisted_max_term = 0.0
        self.engine = ServerEngine(
            transport.name,
            store,
            policy,
            config=self._config,
            installed=installed,
            now=self.clock.now(),
            obs=self.obs,
        )
        self._run_effects(self.engine.startup_effects(self.clock.now()))

    def _engine(self) -> ServerEngine:
        return self.engine

    def restart(self) -> None:
        """Simulate a crash + reboot of the real-time server.

        Volatile state (lease table, timers, pending writes) is dropped;
        the one thing carried across — per the paper's §2 crash rule — is
        the largest term ever granted, which ``LeaseTable.clear()`` hands
        back and which becomes the new engine's ``recovery_delay``.  The
        restarted engine therefore refuses to commit writes until every
        lease granted by the previous incarnation has provably expired.
        """
        self._persisted_max_term = max(
            self._persisted_max_term, self.engine.table.clear()
        )
        if self.engine.installed is not None:
            self._persisted_max_term = max(
                self._persisted_max_term, self.engine.installed.term
            )
        installed = self.engine.installed
        for key in list(self._timers):
            self._cancel_timer(key)
        now = self.clock.now()
        self.engine = ServerEngine(
            self.transport.name,
            self.store,
            self.policy,
            config=dataclasses.replace(
                self._config, recovery_delay=self._persisted_max_term
            ),
            installed=installed,
            now=now,
            obs=self.obs,
        )
        self._run_effects(self.engine.startup_effects(now))


class LeaseClientNode(_EngineNode):
    """A real-time lease client cache with an async application API."""

    def __init__(
        self,
        transport: Transport,
        server: HostId,
        config: ClientConfig | None = None,
        clock=None,
        id_base: int | None = None,
        obs=None,
        engine_cls: type[ClientEngine] = ClientEngine,
    ):
        """Args:
            server: the server host name — or, with ``engine_cls`` set to
                :class:`~repro.shard.client.ShardedClientEngine`, the
                tuple of shard host names (pair it with a
                :class:`~repro.shard.transport.FanoutTransport` or a hub
                endpoint that reaches every shard).
            engine_cls: the sans-io engine to drive (the single-server
                :class:`~repro.protocol.client.ClientEngine` by default).
        """
        super().__init__(transport, clock, obs=obs)
        if id_base is None:
            # A fresh random epoch per process: two incarnations (or two
            # processes reusing one client name) must never collide in the
            # server's write-dedup space.
            id_base = random.getrandbits(44) << 16
        self.engine = engine_cls(
            transport.name, server, config=config, id_base=id_base, obs=self.obs
        )
        self._futures: dict[int, asyncio.Future] = {}
        self._run_effects(self.engine.startup_effects(self.clock.now()))

    def _engine(self) -> ClientEngine:
        return self.engine

    def _on_complete(self, effect: Complete) -> None:
        future = self._futures.pop(effect.op_id, None)
        if future is None or future.done():
            return
        if effect.ok:
            future.set_result(effect.value)
        else:
            future.set_exception(ReproError(effect.error or "operation failed"))

    def _submit(self, op_id: int, effects: list[Effect]) -> asyncio.Future:
        future = self._loop.create_future()
        self._futures[op_id] = future
        self._run_effects(effects)  # may resolve synchronously (cache hit)
        return future

    # -- application API ----------------------------------------------------------

    async def read(self, datum: DatumId) -> tuple[int, Any]:
        """Read a datum; returns ``(version, payload)``.

        Served locally with no I/O whenever the cached copy and its lease
        are valid.
        """
        op_id, effects = self.engine.read(datum, self.clock.now())
        return await self._submit(op_id, effects)

    async def write(
        self, datum: DatumId, content: bytes, cas: int | None = None
    ) -> int:
        """Write a file datum through to the server; returns the version.

        Args:
            cas: version this write was derived from (from a prior
                :meth:`read`); the server rejects the write if the datum
                has since moved past it.
        """
        op_id, effects = self.engine.write(datum, content, self.clock.now(), cas=cas)
        return await self._submit(op_id, effects)

    async def namespace_op(self, op_name: str, args: tuple) -> Any:
        """Submit a namespace mutation (bind/unbind/rename/mkdir)."""
        op_id, effects = self.engine.namespace_op(op_name, args, self.clock.now())
        return await self._submit(op_id, effects)

    def relinquish(self, datum: DatumId) -> None:
        """Voluntarily give up a lease (client option, §4)."""
        self._run_effects(self.engine.relinquish(datum))

    def write_temp(self, path: str, content: bytes) -> None:
        """Write a temporary file locally (never reaches the server)."""
        self.engine.write_temp(path, content)

    def read_temp(self, path: str) -> bytes | None:
        """Read a locally stored temporary file."""
        return self.engine.read_temp(path)
