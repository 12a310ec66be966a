"""The ``rt-tcp`` system under test: one lease server in its own process.

Started by :mod:`rt` as ``python3 rt_server.py [--trace PATH]``.  It
creates files ``/f0 .. /f{N_FILES-1}`` (datum ids ``f0 ..``, content
``v0``), serves them with a :class:`LeaseServerNode` over
:class:`TcpServerTransport` on an ephemeral loopback port, and prints
``{"port": P, "setup_cpu_s": S, "setup_slices": [...]}``: the CPU time
from the end of its imports to listening, and reference slices taken
right after, against which that time is scaled.  Then it answers each
``stats`` line on standard input with one JSON line of counters (with
the reference slices its :class:`common.ReferenceSampler` took since
the last line) and each ``reset`` line by dropping the spans recorded so
far, and on end of input closes the server and prints the final counters
(with the span summary when traced) before exiting.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.lease.policy import FixedTermPolicy  # noqa: E402
from repro.protocol.messages import BatchReply, BatchRequest  # noqa: E402
from repro.protocol.server import ServerConfig  # noqa: E402
from repro.runtime.node import LeaseServerNode  # noqa: E402
from repro.runtime.tcp import TcpServerTransport  # noqa: E402
from repro.storage.store import FileStore  # noqa: E402

import tracing  # noqa: E402
from common import (  # noqa: E402
    EPSILON, MIN_SLICES, N_FILES, TERM, ReferenceSampler, reference_slice,
)


def messages(message) -> int:
    """Protocol messages in one frame: a batch counts each op or reply,
    as the simulator's unbatched clients would have sent them, so the
    count is the paper's consistency load however ops were batched."""
    if isinstance(message, BatchRequest):
        return len(message.ops)
    if isinstance(message, BatchReply):
        return len(message.replies)
    return 1


class CountingTransport(TcpServerTransport):
    """The server transport, counting frames and messages in and out."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.frames = 0
        self.msgs = 0

    def set_handler(self, handler) -> None:
        def counted(message, src) -> None:
            self.frames += 1
            self.msgs += messages(message)
            handler(message, src)

        super().set_handler(counted)

    async def send(self, dst, message) -> None:
        self.frames += 1
        self.msgs += messages(message)
        await super().send(dst, message)


def snapshot(node: LeaseServerNode, sampler: ReferenceSampler) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "frames": node.transport.frames,
        "msgs": node.transport.msgs,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "status": node.engine.status(node.clock.now()),
        "reference_slices": sampler.take(),
    }


def say(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


async def serve(args, started: float) -> None:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    store = FileStore()
    for f in range(N_FILES):
        store.create_file(f"/f{f}", b"v0", file_id=f"f{f}")
    transport = CountingTransport("server")
    node = LeaseServerNode(
        transport,
        store,
        FixedTermPolicy(TERM),
        config=ServerConfig(epsilon=EPSILON),
    )
    sampler = ReferenceSampler()
    await transport.start("127.0.0.1", 0)
    setup_cpu_s = time.process_time() - started
    slices = [reference_slice() for _ in range(MIN_SLICES)]
    say({"port": transport.port, "setup_cpu_s": setup_cpu_s, "setup_slices": slices})

    loop = asyncio.get_running_loop()
    done = loop.create_future()
    buffered = bytearray()

    def on_stdin() -> None:
        chunk = os.read(sys.stdin.fileno(), 4096)
        if not chunk:
            loop.remove_reader(sys.stdin.fileno())
            if not done.done():
                done.set_result(None)
            return
        buffered.extend(chunk)
        while b"\n" in buffered:
            line, _, rest = bytes(buffered).partition(b"\n")
            buffered[:] = rest
            if line.strip() == b"stats":
                say(snapshot(node, sampler))
            elif line.strip() == b"reset" and tracer is not None:
                tracer.reset()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    with sampler:
        await done
    # The clients disconnect before standard input closes; let their read
    # loops end on their own before the server closes.
    deadline = loop.time() + 2.0
    while transport.connected_peers() and loop.time() < deadline:
        await asyncio.sleep(0.01)
    await asyncio.sleep(0.05)
    await node.close()
    final = snapshot(node, sampler)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)
        final["summary"] = tracer.summary()
    say(final)


def main() -> None:
    started = time.process_time()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", default="", help="span file; empty: untraced")
    asyncio.run(serve(parser.parse_args(), started))


if __name__ == "__main__":
    main()
