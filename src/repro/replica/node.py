"""Asyncio host for the replicated lease authority (DESIGN.md §16).

:class:`ReplicaServerNode` drives one :class:`~repro.replica.engine.
ReplicaEngine` over a real transport, the same way
:class:`~repro.runtime.node.LeaseServerNode` drives a plain
:class:`~repro.protocol.server.ServerEngine`.  Point ``N`` of these at
the same shared :class:`~repro.storage.store.FileStore` (one hub, or one
fabric of sockets) and they elect a master among themselves; an
unmodified :class:`~repro.runtime.node.LeaseClientNode` given the tuple
of replica host names fails over between them on ``NotMaster`` redirects
and RPC timeouts.

The crash model is SIGKILL, not shutdown: :meth:`ReplicaServerNode.kill`
drops the engine and every timer on the floor with **no goodbye traffic**
— peers and clients learn of the death only by silence, exactly like the
simulator's crash fault.  Frames already handed to the transport may
still deliver (packets on the wire outlive the process).  A later
:meth:`~ReplicaServerNode.restart` builds a fresh engine behind the full
diskless abstention window (:func:`~repro.replica.engine.
restart_join_delay`): the reborn acceptor stays silent until everything
its predecessor may have promised has provably expired.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ReproError
from repro.lease.policy import TermPolicy
from repro.replica.engine import ReplicaConfig, ReplicaEngine, restart_join_delay
from repro.runtime.node import _EngineNode
from repro.runtime.transport import Transport
from repro.storage.store import FileStore
from repro.types import HostId


class ReplicaServerNode(_EngineNode):
    """A real-time replica of the replicated lease authority."""

    def __init__(
        self,
        transport: Transport,
        store: FileStore,
        policy: TermPolicy,
        config: ReplicaConfig,
        clock=None,
        obs=None,
    ):
        """Args:
            transport: this replica's endpoint; its name must equal
                ``config.hosts[config.index]``.
            store: the store shared by the whole replica group.
            policy: file-lease term policy for the inner server engine.
            config: the replica group shape and timing knobs.
        """
        super().__init__(transport, clock, obs=obs)
        self.store = store
        self.policy = policy
        self.config = config
        now = self.clock.now()
        self.engine: ReplicaEngine | None = ReplicaEngine(
            transport.name, store, policy, config, now=now, obs=self.obs
        )
        self._run_effects(self.engine.startup_effects(now))

    def _engine(self) -> ReplicaEngine:
        if self.engine is None:
            raise ReproError(f"replica {self.name!r} is down (killed)")
        return self.engine

    # -- dispatch guards: a killed replica is silent, not erroring ---------------

    def _on_message(self, message, src: HostId) -> None:
        if self.engine is None:
            return  # dead processes receive nothing
        super()._on_message(message, src)

    def _on_timer(self, key: str) -> None:
        if self.engine is None:
            self._timers.pop(key, None)
            return
        super()._on_timer(key)

    # -- crash / reboot ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        """False between :meth:`kill` and :meth:`restart`."""
        return self.engine is not None

    def kill(self) -> None:
        """SIGKILL: drop the engine and all timers abruptly, no goodbye.

        The transport stays open (the OS-level connection may even stay
        up for a moment — just like a killed process's sockets), but
        every inbound message and timer from here on is ignored, and no
        farewell or state transfer is ever sent.  Idempotent.
        """
        self.engine = None
        for key in list(self._timers):
            self._cancel_timer(key)

    def restart(self) -> None:
        """Reboot after :meth:`kill`: a fresh, abstaining incarnation.

        The new engine starts as a follower with ``join_delay`` set to
        :func:`~repro.replica.engine.restart_join_delay` — the diskless
        restart rule: an acceptor that forgot its promises must not
        answer Paxos traffic until every promise or lease it may have
        made has expired on every clock.
        """
        if self.engine is not None:
            self.kill()
        now = self.clock.now()
        config = dataclasses.replace(
            self.config, join_delay=restart_join_delay(self.config)
        )
        self.engine = ReplicaEngine(
            self.transport.name, self.store, self.policy, config,
            now=now, obs=self.obs,
        )
        self._run_effects(self.engine.startup_effects(now))

    # -- introspection -----------------------------------------------------------

    def is_master(self) -> bool:
        """True while this replica holds a currently valid master lease."""
        return self.engine is not None and self.engine.master_valid(self.clock.now())

    def status(self) -> dict:
        """Operational snapshot (``{"state": "down"}`` while killed)."""
        if self.engine is None:
            return {"state": "down"}
        return self.engine.status(self.clock.now())
