"""Span tracing for the traced run, installed from outside the program.

:class:`Tracer` replaces public functions of each layer with wrappers
that record one span per call (name, start, end, parent span, op) in
flat in-memory arrays, accumulate per-name call counts and self time
(duration minus child spans), and undo every replacement on
:meth:`Tracer.uninstall`.  Coroutine functions are timed slice by slice:
each resumption of the coroutine is one span, so interleaved tasks
never corrupt the span stack and only time spent running counts.

:func:`install` wraps the public functions of each layer; the program
itself is not modified.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import os
from time import perf_counter


class Tracer:
    """Records spans for wrapped functions; aggregates self time by name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        #: Free-form counters bumped by counting wrappers.
        self.counters: dict[str, float] = {}
        #: The op id stamped on spans opened while it is set (-1: unknown).
        self.op = -1
        # One entry per span, in open order.
        self._start = array.array("d")
        self._end = array.array("d")
        self._name = array.array("i")
        self._parent = array.array("i")
        self._op = array.array("q")
        # Open spans: [span index, name id, start, child time].
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _enter(self, nid: int) -> None:
        stack = self._stack
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(stack[-1][0] if stack else -1)
        self._op.append(self.op)
        self._end.append(0.0)
        t = perf_counter()
        self._start.append(t)
        stack.append([idx, nid, t, 0.0])

    def _exit(self, last: bool = True) -> None:
        """Close the innermost span; ``last=False`` for a coroutine slice
        that will be resumed (a call is counted once, at its last slice)."""
        t = perf_counter()
        stack = self._stack
        idx, nid, t0, child = stack.pop()
        self._end[idx] = t
        duration = t - t0
        if stack:
            stack[-1][3] += duration
        if last:
            self.calls[nid] += 1
        self.self_s[nid] += duration - child

    def reset(self) -> None:
        """Forget every span and total so far; the wrappers stay."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        for arr in (self._start, self._end, self._name, self._parent, self._op):
            del arr[:]
        for i in range(len(self.names)):
            self.calls[i], self.self_s[i] = 0, 0.0
        self.counters.clear()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @property
    def span_count(self) -> int:
        return len(self._start)

    # -- wrappers --------------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, span: str, on_result=None) -> None:
        """Record a ``span`` for every call of ``owner.attr``.

        ``on_result(result)``, when given, runs after each call (for
        counters that depend on what the call returned).
        """
        fn = vars(owner)[attr]
        nid = self.name_id(span)
        enter, leave = self._enter, self._exit
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                result = await _Sliced(fn(*args, **kwargs), enter, leave, nid)
                if on_result is not None:
                    on_result(result)
                return result

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                if on_result is not None:
                    on_result(result)
                return result

        self._replace(owner, attr, wrapper)

    def tally(self, owner, attr: str, on_result) -> None:
        """Call ``on_result(result)`` after every call; records no span."""
        fn = vars(owner)[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        self._replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every replaced function."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and seconds, plus the counters (JSON-ready)."""
        return {
            "spans": {
                name: {
                    "calls": self.calls[i],
                    "self_s": self.self_s[i],
                }
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
        }

    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw arrays.

        The arrays follow in header order (``start``/``end`` float64,
        ``name``/``parent`` int32, ``op`` int64), each ``count`` long.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = {
            "names": self.names,
            "count": self.span_count,
            "arrays": ["start:d", "end:d", "name:i", "parent:i", "op:q"],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self._start, self._end, self._name, self._parent, self._op):
                arr.tofile(out)


class _Sliced:
    """Await a coroutine, recording one span per resumption of it."""

    __slots__ = ("_coro", "_enter", "_leave", "_nid")

    def __init__(self, coro, enter, leave, nid):
        self._coro, self._enter, self._leave, self._nid = coro, enter, leave, nid

    def __await__(self):
        coro = self._coro
        value, error = None, None
        while True:
            self._enter(self._nid)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                self._leave()
                return stop.value
            except BaseException:
                self._leave()
                raise
            self._leave(False)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # re-raised inside the coroutine
                value, error = None, exc


def _frame_bytes(tracer: Tracer):
    def on_result(frame: bytes) -> None:
        tracer.count("tcp.frames")
        tracer.count("tcp.bytes", len(frame))

    return on_result


def _cache_hit(tracer: Tracer):
    def on_result(entry) -> None:
        if entry is not None:
            tracer.count("cache.hits")

    return on_result


def _paxos_outcome(tracer: Tracer):
    from repro.replica.paxos import ELECTED

    def on_result(outcome) -> None:
        if outcome.kind == ELECTED:
            tracer.count("paxos.rounds_won")

    return on_result


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports.

    Wrappers are installed on the classes and modules, so they must be in
    place before clusters, engines or nodes are built (some bind methods
    at construction).
    """
    from repro.cache.filecache import FileCache
    from repro.lease.table import LeaseTable
    from repro.protocol import codec
    from repro.protocol.client import ClientEngine
    from repro.protocol.server import ServerEngine
    from repro.replica.engine import ReplicaEngine
    from repro.replica.paxos import Proposer
    from repro.replica.sim import SimReplica
    from repro.runtime import tcp
    from repro.runtime.node import LeaseClientNode, _EngineNode
    from repro.sim import driver
    from repro.sim.kernel import Kernel
    from repro.sim.network import Network
    from repro.sim.oracle import ConsistencyOracle
    from repro.storage.store import FileStore

    wrap = tracer.wrap
    # sim.kernel — the event loop; everything below runs inside it.
    wrap(Kernel, "run", "kernel.run")
    # sim.network — send side and the two delivery legs it schedules.
    for attr in ("unicast", "multicast", "multisend"):
        wrap(Network, attr, "network.send")
    wrap(Network, "_arrive", "network.arrive")
    wrap(Network, "_deliver", "network.deliver")
    # sim.driver — the effect interpreters (message, timer, op submit).
    for cls in (driver.SimServer, driver.SimClient, SimReplica):
        wrap(cls, "_on_message", "driver.deliver")
    wrap(driver._TimerBank, "_fire", "driver.timer")
    for attr in ("read", "write"):
        wrap(driver.SimClient, attr, "driver.submit")
    # sim.oracle
    wrap(ConsistencyOracle, "check_read", "oracle.check_read")
    # protocol.server / protocol.client
    wrap(ServerEngine, "handle_message", "server.handle_message")
    wrap(ServerEngine, "handle_timer", "server.handle_timer")
    for attr in ("read", "write", "handle_message", "handle_timer"):
        wrap(ClientEngine, attr, f"client.{attr}")
    # lease.table
    for attr in ("grant", "approve", "begin_write", "finish_write", "live_holders"):
        wrap(LeaseTable, attr, f"table.{attr}")
    # cache.filecache
    wrap(FileCache, "get", "cache.get", on_result=_cache_hit(tracer))
    wrap(FileCache, "put", "cache.put")
    wrap(FileCache, "invalidate", "cache.invalidate")
    # storage.store
    wrap(FileStore, "read_datum", "store.read_datum")
    wrap(FileStore, "commit_file_write", "store.commit_file_write")
    # protocol.codec — patched where the transports look the names up too.
    for module in (codec, tcp):
        wrap(module, "encode_message", "codec.encode")
        wrap(module, "decode_message", "codec.decode")
    # runtime.tcp — send paths, the frame reader, and a frame/byte tally.
    wrap(tcp.TcpClientTransport, "send", "tcp.send")
    wrap(tcp.TcpServerTransport, "send", "tcp.send")
    wrap(tcp, "_read_frame", "tcp.recv")
    tracer.tally(tcp, "_frame", _frame_bytes(tracer))
    # runtime.node — the application API and the effect interpreter.
    wrap(LeaseClientNode, "read", "node.read")
    wrap(LeaseClientNode, "write", "node.write")
    wrap(_EngineNode, "_on_message", "node.deliver")
    wrap(_EngineNode, "_on_timer", "node.timer")
    wrap(_EngineNode, "_send_soon", "node.send_soon")
    # replica.engine / replica.paxos
    wrap(ReplicaEngine, "handle_message", "replica.handle_message")
    wrap(ReplicaEngine, "handle_timer", "replica.handle_timer")
    wrap(Proposer, "start_round", "paxos.start_round")
    tracer.tally(Proposer, "on_propose_reply", _paxos_outcome(tracer))
