"""Unit tests for the client engine, driven sans-io."""

import pytest

from repro.protocol.client import ClientConfig, ClientEngine
from repro.protocol.effects import Complete, Send, SetTimer
from repro.protocol.messages import (
    ApprovalReply,
    ApprovalRequest,
    ExtendGrant,
    ExtendReply,
    ExtendRequest,
    InstalledAnnounce,
    ReadReply,
    ReadRequest,
    WriteReply,
    WriteRequest,
)
from repro.types import DatumId

F1 = DatumId.file("f1")
F2 = DatumId.file("f2")


def make_client(**overrides):
    defaults = dict(epsilon=0.0, drift_bound=0.0)
    defaults.update(overrides)
    return ClientEngine("c0", "server", config=ClientConfig(**defaults))


def only(effects, cls):
    found = [e for e in effects if isinstance(e, cls)]
    assert len(found) == 1, f"expected one {cls.__name__}, got {found}"
    return found[0]


def fetch(client, datum=F1, version=1, payload=b"v1", term=10.0, now=0.0):
    """Drive the client through one full read RPC."""
    op_id, effects = client.read(datum, now)
    send = only(effects, Send)
    reply = ReadReply(
        send.message.req_id, datum, version=version, payload=payload, term=term
    )
    effects = client.handle_message(reply, "server", now)
    return op_id, effects


class TestReadPath:
    def test_first_read_sends_read_request(self):
        client = make_client()
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        assert isinstance(send.message, ReadRequest)
        assert send.dst == "server"
        assert only(effects, SetTimer).key == f"rpc:{send.message.req_id}"

    def test_read_reply_completes_and_caches(self):
        client = make_client()
        op_id, effects = fetch(client)
        complete = only(effects, Complete)
        assert complete.op_id == op_id
        assert complete.value == (1, b"v1")
        assert client.leases.valid(F1, 5.0)

    def test_cached_read_completes_locally(self):
        client = make_client()
        fetch(client)
        op_id, effects = client.read(F1, now=5.0)
        complete = only(effects, Complete)
        assert complete.value == (1, b"v1")
        assert not [e for e in effects if isinstance(e, Send)]
        assert client.metrics.local_hits == 1

    def test_expired_lease_triggers_batched_extension(self):
        client = make_client()
        fetch(client, F1)
        fetch(client, F2, payload=b"v2")
        op_id, effects = client.read(F1, now=20.0)  # both leases expired
        send = only(effects, Send)
        assert isinstance(send.message, ExtendRequest)
        covered = {item[0] for item in send.message.items}
        assert covered == {F1, F2}  # §3.1: extend everything held

    def test_extension_grant_completes_from_cache(self):
        client = make_client()
        fetch(client, F1)
        op_id, effects = client.read(F1, now=20.0)
        send = only(effects, Send)
        reply = ExtendReply(
            send.message.req_id, grants=(ExtendGrant(F1, 10.0, 1),)
        )
        effects = client.handle_message(reply, "server", now=20.001)
        complete = only(effects, Complete)
        assert complete.value == (1, b"v1")
        assert client.leases.valid(F1, 25.0)

    def test_extension_with_changed_payload_updates_cache(self):
        client = make_client()
        fetch(client, F1)
        op_id, effects = client.read(F1, now=20.0)
        send = only(effects, Send)
        reply = ExtendReply(
            send.message.req_id,
            grants=(ExtendGrant(F1, 10.0, 3, payload=b"v3", changed=True),),
        )
        effects = client.handle_message(reply, "server", now=20.001)
        complete = only(effects, Complete)
        assert complete.value == (3, b"v3")

    def test_denied_extension_falls_back_to_read(self):
        client = make_client()
        fetch(client, F1)
        op_id, effects = client.read(F1, now=20.0)
        send = only(effects, Send)
        reply = ExtendReply(send.message.req_id, denied=(F1,))
        effects = client.handle_message(reply, "server", now=20.001)
        follow_up = only(effects, Send)
        assert isinstance(follow_up.message, ReadRequest)
        assert not client.leases.valid(F1, 20.1)
        # the deferred read eventually answers
        reply = ReadReply(follow_up.message.req_id, F1, version=5, payload=b"v5", term=10.0)
        effects = client.handle_message(reply, "server", now=21.0)
        assert only(effects, Complete).value == (5, b"v5")

    def test_concurrent_reads_coalesce_into_one_request(self):
        client = make_client()
        op1, e1 = client.read(F1, now=0.0)
        op2, e2 = client.read(F1, now=0.0)
        assert [e for e in e1 if isinstance(e, Send)]
        assert e2 == []  # rides on the first request
        send = only(e1, Send)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=b"v1", term=10.0)
        effects = client.handle_message(reply, "server", now=0.01)
        completes = [e for e in effects if isinstance(e, Complete)]
        assert {c.op_id for c in completes} == {op1, op2}

    def test_zero_term_reply_gives_no_lease(self):
        client = make_client()
        fetch(client, term=0.0)
        assert not client.leases.valid(F1, 0.01)
        # next read goes remote again (check-on-use)
        op_id, effects = client.read(F1, now=0.02)
        send = only(effects, Send)
        assert isinstance(send.message, ReadRequest)
        assert send.message.cached_version == 1

    def test_unchanged_reply_completes_from_cached_payload(self):
        client = make_client(batch_extensions=False)
        fetch(client)
        op_id, effects = client.read(F1, now=20.0)
        send = only(effects, Send)
        assert isinstance(send.message, ReadRequest)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=None, term=10.0)
        effects = client.handle_message(reply, "server", now=20.001)
        assert only(effects, Complete).value == (1, b"v1")

    def test_error_reply_fails_op(self):
        client = make_client()
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, error="no such datum")
        effects = client.handle_message(reply, "server", now=0.01)
        complete = only(effects, Complete)
        assert not complete.ok
        assert complete.error == "no such datum"

    def test_duplicate_reply_ignored(self):
        client = make_client()
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=b"v1", term=10.0)
        client.handle_message(reply, "server", now=0.01)
        assert client.handle_message(reply, "server", now=0.02) == []


class TestLeasesBoundedByCache:
    """Eviction drops the lease: a client holds leases only on cached data."""

    def test_extension_lists_only_cached_datums(self):
        client = make_client(cache_capacity=3)
        files = [DatumId.file(f"f{i}") for i in range(10)]
        for datum in files:
            fetch(client, datum, payload=b"x")
        assert len(client.cache) == 3
        assert len(client.leases) == 3
        trigger = files[-1]
        _, effects = client.read(trigger, now=20.0)  # every lease expired
        request = only(effects, Send).message
        assert isinstance(request, ExtendRequest)
        items = {datum for datum, _ in request.items}
        assert items <= {d for d in files if d in client.cache} | {trigger}
        assert all(version > 0 for _, version in request.items)
        assert len(client.leases) <= 3 + len(client._datum_req)
        assert client.status(20.0)["evictions"] == 7

    def test_grant_does_not_resurrect_a_datum_evicted_by_the_same_reply(self):
        """An earlier changed grant's put evicts a later grant's datum: the
        later grant must leave that datum without a lease, else the next
        extension lists it with version 0 and pulls its payload back."""
        a, b, c = (DatumId.file(n) for n in "abc")
        client = make_client(cache_capacity=2)
        fetch(client, a, payload=b"a1")
        fetch(client, b, payload=b"b1")
        _, effects = client.read(b, now=20.0)  # extends a and b together
        extend = only(effects, Send).message
        assert [d for d, _ in extend.items] == [a, b]
        fetch(client, c, payload=b"c1", now=20.0)  # evicts a (LRU)
        assert a not in client.leases
        reply = ExtendReply(
            extend.req_id,
            grants=(
                ExtendGrant(a, 10.0, 2, payload=b"a2", changed=True),  # evicts b
                ExtendGrant(b, 10.0, 1),
            ),
        )
        effects = client.handle_message(reply, "server", now=20.001)
        assert b not in client.cache
        assert b not in client.leases
        refetch = only(effects, Send).message  # b's waiting read refetches
        assert isinstance(refetch, ReadRequest) and refetch.datum == b
        assert a in client.leases and a in client.cache
        assert client.leases.held_datums() <= {a, c}


class TestStatus:
    def test_fresh_client(self):
        status = make_client().status(0.0)
        assert status == {
            "now": 0.0,
            "leases": 0,
            "cache_entries": 0,
            "cache_floors": 0,
            "requests": 0,
            "fetching": 0,
            "pending_ops": 0,
            "evictions": 0,
        }

    def test_counts_track_activity(self):
        client = make_client(cache_capacity=2)
        for name in "abc":
            fetch(client, DatumId.file(name), payload=b"x")
        client.read(DatumId.file("d"), now=1.0)  # in flight
        status = client.status(1.0)
        assert status["leases"] == 2
        assert status["cache_entries"] == 2
        assert status["cache_floors"] == 3  # admission floors outlive eviction
        assert status["requests"] == 1
        assert status["fetching"] == 1
        assert status["pending_ops"] == 1
        assert status["evictions"] == 1


class TestLeaseExpiryBounds:
    def test_expiry_anchored_at_send_time_minus_epsilon(self):
        client = make_client(epsilon=0.1)
        op_id, effects = client.read(F1, now=100.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=b"x", term=10.0)
        client.handle_message(reply, "server", now=100.5)
        assert client.leases.expires_at(F1) == pytest.approx(109.9)  # 100 + 10 - 0.1

    def test_drift_bound_shrinks_term(self):
        client = make_client(drift_bound=0.01)
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=b"x", term=100.0)
        client.handle_message(reply, "server", now=0.5)
        assert client.leases.expires_at(F1) == pytest.approx(99.0)


class TestWritePath:
    def test_write_sends_request_with_seq(self):
        client = make_client()
        op_id, effects = client.write(F1, b"data", now=0.0)
        send = only(effects, Send)
        assert isinstance(send.message, WriteRequest)
        assert send.message.write_seq == 1

    def test_write_seqs_increase(self):
        client = make_client()
        _, e1 = client.write(F1, b"a", now=0.0)
        _, e2 = client.write(F1, b"b", now=0.0)
        assert only(e2, Send).message.write_seq == only(e1, Send).message.write_seq + 1

    def test_write_reply_completes_and_caches_content(self):
        client = make_client()
        op_id, effects = client.write(F1, b"data", now=0.0)
        send = only(effects, Send)
        reply = WriteReply(send.message.req_id, F1, version=4)
        effects = client.handle_message(reply, "server", now=0.01)
        assert only(effects, Complete).value == 4
        assert client.cache.peek(F1).payload == b"data"
        assert client.cache.peek(F1).version == 4

    def test_read_does_not_coalesce_onto_write(self):
        client = make_client()
        client.write(F1, b"data", now=0.0)
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        assert isinstance(send.message, ReadRequest)


class TestApprovals:
    def test_approval_invalidates_and_replies(self):
        client = make_client()
        fetch(client)
        effects = client.handle_message(ApprovalRequest(F1, 7, 2), "server", now=1.0)
        send = only(effects, Send)
        assert isinstance(send.message, ApprovalReply)
        assert send.message.write_id == 7
        assert client.cache.get(F1) is None  # invalidated
        assert client.leases.valid(F1, 1.5)  # lease kept

    def test_stale_fetch_after_approval_is_refused_and_refetched(self):
        client = make_client()
        # A read is in flight; an approval for version 2 lands first.
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        client.handle_message(ApprovalRequest(F1, 7, 2), "server", now=0.001)
        stale = ReadReply(send.message.req_id, F1, version=1, payload=b"old", term=10.0)
        effects = client.handle_message(stale, "server", now=0.002)
        follow_up = only(effects, Send)
        assert isinstance(follow_up.message, ReadRequest)
        assert not [e for e in effects if isinstance(e, Complete)]
        fresh = ReadReply(follow_up.message.req_id, F1, version=2, payload=b"new", term=10.0)
        effects = client.handle_message(fresh, "server", now=0.01)
        assert only(effects, Complete).value == (2, b"new")

    def test_aborted_approved_write_releases_the_floor(self):
        """Regression: an approval raises the cache floor to the write's
        future version; if the server then aborts that write (writer
        partitioned / deadline), the version never commits and every
        fresh reply used to be refused as stale — an infinite refetch
        loop (seed gen-0-67).  A post-approval reply that grants a lease
        proves no write is pending, so the dead floor must come down."""
        client = make_client()
        fetch(client)  # v1 cached, lease held
        client.handle_message(ApprovalRequest(F1, 7, 2), "server", now=1.0)
        assert client.cache.floor_of(F1) == 2
        # The write aborts server-side; a later read still finds v1.
        op_id, effects = client.read(F1, now=2.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=b"v1", term=10.0)
        effects = client.handle_message(reply, "server", now=2.003)
        assert only(effects, Complete).value == (1, b"v1")
        assert client.cache.floor_of(F1) == 1
        assert client.cache.get(F1).payload == b"v1"

    def test_unfulfilled_write_submit_floor_releases(self):
        """Regression (stampede adversarial family, seed gen-0-31): the
        submit-time invalidate of ``write()`` raises a floor anticipating
        our own commit, but never recorded the raise — so when the write
        failed to advance the server (crash-era retry/dedup confusion),
        ``_floor_write_aborted`` could not prove the floor dead and the
        client refetch-livelocked behind its own prophecy."""
        client = make_client()
        fetch(client)  # v1 cached, lease held
        op_id, effects = client.write(F1, b"mine", now=1.0)
        only(effects, Send)  # the WriteRequest — swallow it (never commits)
        assert client.cache.floor_of(F1) == 2
        # A later read: the server still serves v1 and grants a lease,
        # proving no write is pending — the floor must come down.
        op_id, effects = client.read(F1, now=2.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=b"v1", term=10.0)
        effects = client.handle_message(reply, "server", now=2.003)
        assert only(effects, Complete).value == (1, b"v1")
        assert client.cache.floor_of(F1) == 1

    def test_leaseless_reply_does_not_release_the_floor(self):
        """Without a lease grant the server proves nothing about pending
        writes, so the floor stays and the client refetches."""
        client = make_client()
        fetch(client)
        client.handle_message(ApprovalRequest(F1, 7, 2), "server", now=1.0)
        op_id, effects = client.read(F1, now=2.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=b"v1", term=0.0)
        effects = client.handle_message(reply, "server", now=2.003)
        follow_up = only(effects, Send)
        assert isinstance(follow_up.message, ReadRequest)
        assert not [e for e in effects if isinstance(e, Complete)]
        assert client.cache.floor_of(F1) == 2


class TestAnnouncements:
    def test_announce_extends_covered_leases(self):
        client = make_client(announce_delay_bound=0.0)
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(
            send.message.req_id, F1, version=1, payload=b"x", term=5.0, cover="bin"
        )
        client.handle_message(reply, "server", now=0.01)
        client.handle_message(InstalledAnnounce(("bin",), 10.0), "server", now=4.0)
        assert client.leases.valid(F1, 13.0)

    def test_announce_subtracts_delivery_bound(self):
        client = make_client(announce_delay_bound=0.5)
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(
            send.message.req_id, F1, version=1, payload=b"x", term=5.0, cover="bin"
        )
        client.handle_message(reply, "server", now=0.01)
        client.handle_message(InstalledAnnounce(("bin",), 10.0), "server", now=4.0)
        assert client.leases.expires_at(F1) == pytest.approx(13.5)

    def test_covered_datums_excluded_from_extension_batches(self):
        client = make_client()
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(
            send.message.req_id, F1, version=1, payload=b"x", term=5.0, cover="bin"
        )
        client.handle_message(reply, "server", now=0.01)
        fetch(client, F2, payload=b"y")
        op_id, effects = client.read(F2, now=20.0)
        send = only(effects, Send)
        assert isinstance(send.message, ExtendRequest)
        covered = {item[0] for item in send.message.items}
        assert F1 not in covered


class TestRetransmission:
    def test_timeout_resends_same_message(self):
        client = make_client()
        op_id, effects = client.read(F1, now=0.0)
        original = only(effects, Send).message
        effects = client.handle_timer(f"rpc:{original.req_id}", now=2.0)
        resend = only(effects, Send)
        assert resend.message is original
        assert client.metrics.retransmissions == 1

    def test_retries_exhaust_into_failure(self):
        client = make_client(max_retries=2)
        op_id, effects = client.read(F1, now=0.0)
        req_id = only(effects, Send).message.req_id
        client.handle_timer(f"rpc:{req_id}", now=2.0)
        client.handle_timer(f"rpc:{req_id}", now=4.0)
        effects = client.handle_timer(f"rpc:{req_id}", now=6.0)
        complete = only(effects, Complete)
        assert not complete.ok
        assert client.metrics.failures == 1

    def test_timeout_of_closed_request_is_noop(self):
        client = make_client()
        fetch(client)
        assert client.handle_timer("rpc:1", now=5.0) == []


class TestAnticipatory:
    def test_anticipate_timer_armed_at_startup(self):
        client = make_client(anticipatory=True)
        effects = client.startup_effects(0.0)
        assert only(effects, SetTimer).key == "anticipate"

    def test_anticipate_renews_expiring_leases(self):
        client = make_client(anticipatory=True, anticipate_margin=5.0)
        fetch(client, term=10.0)
        effects = client.handle_timer("anticipate", now=7.0)  # expires at 10
        sends = [e for e in effects if isinstance(e, Send)]
        assert len(sends) == 1
        assert isinstance(sends[0].message, ExtendRequest)

    def test_anticipate_idles_with_fresh_leases(self):
        client = make_client(anticipatory=True, anticipate_margin=2.0)
        fetch(client, term=100.0)
        effects = client.handle_timer("anticipate", now=1.0)
        assert not [e for e in effects if isinstance(e, Send)]
        assert only(effects, SetTimer).key == "anticipate"


class TestTempFiles:
    def test_temp_files_never_touch_server(self):
        client = make_client()
        client.write_temp("/tmp/scratch", b"intermediate")
        assert client.read_temp("/tmp/scratch") == b"intermediate"
        assert client.outstanding_requests() == 0

    def test_relinquish_drops_holding(self):
        client = make_client()
        fetch(client)
        client.relinquish(F1)
        assert not client.leases.valid(F1, 0.1)


class TestOwnWriteRaces:
    """Regressions found by ``repro.check`` sweeps: races between a
    client's own in-flight writes and its cache under message loss."""

    def test_stale_write_reply_does_not_revalidate_superseded_bytes(self):
        """A retransmitted older write can be answered (via server dedup)
        *after* a newer own write committed; caching its bytes would let
        a valid lease serve them as stale local hits."""
        client = make_client()
        fetch(client)
        _, e1 = client.write(F1, b"A", now=1.0)
        _, e2 = client.write(F1, b"B", now=1.1)
        req_a = only(e1, Send).message
        req_b = only(e2, Send).message

        # The dedup answer for A lands while B is still outstanding.
        client.handle_message(WriteReply(req_a.req_id, F1, version=2), "server", 2.0)
        entry = client.cache.peek(F1)
        assert entry is None or not entry.valid

        # B's reply carries the bytes that are actually current.
        client.handle_message(WriteReply(req_b.req_id, F1, version=3), "server", 2.1)
        entry = client.cache.peek(F1)
        assert entry.valid and entry.version == 3 and entry.payload == b"B"

    def test_superseded_reply_floor_releases_when_newer_write_dies(self):
        """Regression (herd adversarial family, seed gen-0-40): the
        superseded-reply branch raises the floor to the *newer* write's
        future version, but never recorded the raise — if that write then
        died at the server, ``_floor_write_aborted`` could not prove the
        floor dead and every refetch was refused as stale forever."""
        client = make_client()
        fetch(client)
        _, e1 = client.write(F1, b"A", now=1.0)
        _, e2 = client.write(F1, b"B", now=1.1)
        req_a = only(e1, Send).message
        only(e2, Send)  # B's request — lost, never commits
        client.handle_message(WriteReply(req_a.req_id, F1, version=2), "server", 2.0)
        assert client.cache.floor_of(F1) == 3
        # B died at the server; a later lease-granting read still carries
        # v2, proving v3 will never commit — the floor must come down.
        _, effects = client.read(F1, now=3.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, version=2, payload=b"A", term=10.0)
        effects = client.handle_message(reply, "server", now=3.003)
        assert only(effects, Complete).value == (2, b"A")
        assert client.cache.floor_of(F1) == 2

    def test_local_hits_suspended_while_own_write_unresolved(self):
        """The server exempts the writer from approval callbacks, trusting
        the WriteReply to update its cache — so while that reply may be
        lost, a valid-lease copy of the datum cannot be served locally."""
        client = make_client()
        _, effects = client.write(F1, b"mine", now=0.0)
        write_req = only(effects, Send).message

        # A concurrent read refetches the pre-write data mid-write...
        fetch(client, version=1, payload=b"v1", now=1.0)
        assert client.cache.peek(F1).valid

        # ...but further reads must go to the server, not hit locally:
        # our write may already have committed with the reply in flight.
        _, effects = client.read(F1, now=2.0)
        assert not [e for e in effects if isinstance(e, Complete)]
        only(effects, Send)
        assert client.metrics.local_hits == 0

        # Once the write resolves, local hits resume with its bytes.
        client.handle_message(WriteReply(write_req.req_id, F1, version=2), "server", 3.0)
        _, effects = client.read(F1, now=3.5)
        assert only(effects, Complete).value == (2, b"mine")
        assert client.metrics.local_hits == 1
