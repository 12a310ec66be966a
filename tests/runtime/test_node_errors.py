"""Error-path tests for the asyncio nodes."""

import asyncio

import pytest

from repro.errors import ReproError
from repro.lease.policy import FixedTermPolicy, ZeroTermPolicy
from repro.obs.bus import NULL_BUS, TraceBus
from repro.obs.events import TRANSPORT_DROP
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.runtime import InMemoryHub, LeaseClientNode, LeaseServerNode
from repro.storage.store import FileStore
from repro.types import DatumId


def run(coro):
    return asyncio.run(coro)


async def make_world(term=1.0, client_config=None):
    hub = InMemoryHub()
    store = FileStore()
    store.create_file("/doc", b"v1")
    server = LeaseServerNode(
        hub.endpoint("server"),
        store,
        FixedTermPolicy(term),
        config=ServerConfig(epsilon=0.01, announce_period=0.5, sweep_period=10.0),
    )
    client = LeaseClientNode(
        hub.endpoint("c0"),
        "server",
        config=client_config
        or ClientConfig(epsilon=0.01, rpc_timeout=0.1, write_timeout=0.1, max_retries=2),
    )
    return hub, store, server, client


class TestNodeErrors:
    def test_missing_datum_raises_repro_error(self):
        async def scenario():
            hub, store, server, client = await make_world()
            with pytest.raises(ReproError, match="no such datum"):
                await client.read(DatumId.file("file:404"))
            await client.close()
            await server.close()

        run(scenario())

    def test_unreachable_server_times_out(self):
        async def scenario():
            hub, store, server, client = await make_world()
            hub.isolate("c0")
            with pytest.raises(ReproError, match="timed out"):
                await asyncio.wait_for(client.read(store.file_datum("/doc")), 5.0)
            await client.close()
            await server.close()

        run(scenario())

    def test_namespace_error_propagates(self):
        async def scenario():
            hub, store, server, client = await make_world()
            with pytest.raises(ReproError):
                await client.namespace_op("unbind", ("/ghost",))
            await client.close()
            await server.close()

        run(scenario())

    def test_failed_op_does_not_poison_later_ops(self):
        async def scenario():
            hub, store, server, client = await make_world()
            with pytest.raises(ReproError):
                await client.read(DatumId.file("file:404"))
            version, payload = await client.read(store.file_datum("/doc"))
            assert payload == b"v1"
            await client.close()
            await server.close()

        run(scenario())

    def test_relinquish_then_read_revalidates(self):
        async def scenario():
            hub, store, server, client = await make_world(term=5.0)
            datum = store.file_datum("/doc")
            await client.read(datum)
            client.relinquish(datum)
            await asyncio.sleep(0.05)
            assert not server.engine.table.live_holders(
                datum, server.clock.now()
            )
            version, payload = await client.read(datum)
            assert payload == b"v1"
            await client.close()
            await server.close()

        run(scenario())

    def test_zero_term_server_still_serves(self):
        async def scenario():
            hub = InMemoryHub()
            store = FileStore()
            store.create_file("/doc", b"v1")
            server = LeaseServerNode(
                hub.endpoint("server"), store, ZeroTermPolicy(),
                config=ServerConfig(epsilon=0.01, announce_period=0.5, sweep_period=10.0),
            )
            client = LeaseClientNode(
                hub.endpoint("c0"), "server", config=ClientConfig(epsilon=0.01)
            )
            datum = store.file_datum("/doc")
            for _ in range(3):
                assert (await client.read(datum))[1] == b"v1"
            assert server.engine.table.lease_count() == 0
            await client.close()
            await server.close()

        run(scenario())


class _BrokenTransport:
    """A transport whose sends always explode (or hang, configurable)."""

    def __init__(self, name="c0", hang=False):
        self.name = name
        self.hang = hang
        self._handler = None

    def set_handler(self, handler):
        self._handler = handler

    async def send(self, dst, message):
        if self.hang:
            await asyncio.Event().wait()
        raise OSError("wire cut")

    async def close(self):
        pass


class TestSendFailureObservability:
    def test_failed_send_emits_transport_drop(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            client = LeaseClientNode(
                _BrokenTransport(), "server",
                config=ClientConfig(
                    epsilon=0.01, rpc_timeout=0.05, write_timeout=0.05, max_retries=1
                ),
                obs=bus,
            )
            with pytest.raises(ReproError):
                await client.read(DatumId.file("file:1"))
            drops = bus.events(TRANSPORT_DROP)
            assert drops
            assert all(e["reason"] == "OSError" for e in drops)
            assert drops[0]["dst"] == "server"
            assert client.send_failures == len(drops)
            await client.close()

        run(scenario())

    def test_failed_sends_are_counted_with_tracing_off(self):
        async def scenario():
            client = LeaseClientNode(
                _BrokenTransport(), "server",
                config=ClientConfig(
                    epsilon=0.01, rpc_timeout=0.05, write_timeout=0.05, max_retries=1
                ),
            )
            assert client.obs is NULL_BUS
            assert client.send_failures == 0
            with pytest.raises(ReproError):
                await client.read(DatumId.file("file:1"))
            await asyncio.sleep(0)  # let the last send's done-callback run
            # One initial send plus one retransmission, both dropped.
            assert client.send_failures == 2
            await client.close()

        run(scenario())

    def test_sends_cancelled_by_close_are_not_reported_as_drops(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            client = LeaseClientNode(
                _BrokenTransport(hang=True), "server",
                config=ClientConfig(epsilon=0.01, rpc_timeout=5.0),
                obs=bus,
            )
            read = asyncio.get_running_loop().create_task(
                client.read(DatumId.file("file:1"))
            )
            await asyncio.sleep(0.02)  # the send task is now parked
            assert client._send_tasks
            await client.close()  # cancels it; must not raise or emit
            read.cancel()
            with pytest.raises(asyncio.CancelledError):
                await read
            assert not bus.events(TRANSPORT_DROP)
            assert client.send_failures == 0
            assert not client._send_tasks

        run(scenario())

    def test_node_constructed_before_asyncio_run_binds_the_right_loop(self):
        # The loop is resolved lazily from inside the running loop; eager
        # binding via the deprecated get_event_loop() captured whatever
        # loop existed at construction time and broke under asyncio.run().
        hub = InMemoryHub()
        store = FileStore()
        store.create_file("/doc", b"v1")

        client = LeaseClientNode(  # constructed with NO loop running
            hub.endpoint("c0"), "server", config=ClientConfig(epsilon=0.01)
        )

        async def scenario():
            server = LeaseServerNode(
                hub.endpoint("server"), store, FixedTermPolicy(1.0),
                config=ServerConfig(epsilon=0.01, sweep_period=10.0),
            )
            assert await client.read(store.file_datum("/doc")) == (1, b"v1")
            await client.close()
            await server.close()

        run(scenario())
