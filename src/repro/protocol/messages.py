"""Protocol messages.

All messages are frozen dataclasses.  Requests carry a client-chosen
``req_id`` echoed in the reply so retransmitted requests and duplicate
replies can be matched and deduplicated; writes additionally carry a
per-client ``write_seq`` so a retransmitted write commits at most once.

Message *kind* strings (used for the server-load accounting that Figure 1
measures) are derived from the class: ``lease/read``, ``lease/extend``,
``lease/write``, ``lease/approve``, ``lease/announce``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.types import DatumId, Version


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for all protocol messages.

    ``kind`` — the traffic-accounting category — is a per-class string
    attribute declared in each class body, so reading it on the send path
    is one attribute lookup with no per-message dict or property-call
    overhead.  (:data:`KIND_BY_TYPE` at the bottom of this module is
    derived from the classes, not the other way round, so each kind is
    declared exactly once, next to its message.)
    """

    kind: ClassVar[str] = "msg"


@dataclass(frozen=True, slots=True)
class ReadRequest(Message):
    """Fetch a datum (and a lease over it).

    Attributes:
        req_id: client-unique request id, echoed in the reply.
        datum: what to read.
        cached_version: version of the client's (possibly stale) cached
            copy, or None; lets the server omit the payload when the copy
            is still current.
    """

    kind: ClassVar[str] = "lease/read"

    req_id: int
    datum: DatumId
    cached_version: Version | None = None


@dataclass(frozen=True, slots=True)
class ReadReply(Message):
    """Reply to :class:`ReadRequest`.

    Attributes:
        version: current committed version.
        payload: datum contents, or None when ``cached_version`` was
            already current.
        term: lease term granted (0 = no lease).
        cover: installed-files cover lease id, or None for a per-client
            lease; covered datums are extended by multicast announcements.
        error: error string, or None on success.
    """

    kind: ClassVar[str] = "lease/read"

    req_id: int
    datum: DatumId
    version: Version = 0
    payload: object = None
    term: float = 0.0
    cover: str | None = None
    error: str | None = None


@dataclass(frozen=True, slots=True)
class ExtendRequest(Message):
    """Batched lease extension (§3.1: extend all held leases together).

    Attributes:
        items: tuple of (datum, cached_version) pairs.
    """

    kind: ClassVar[str] = "lease/extend"

    req_id: int
    items: tuple[tuple[DatumId, Version], ...]


@dataclass(frozen=True, slots=True)
class ExtendGrant:
    """One granted extension inside an :class:`ExtendReply`.

    ``payload`` is None when the client's cached version is still current
    (the common case — this is what makes extension cheap).  ``cover``
    migrates the holding onto an installed cover lease when the datum was
    promoted since the client last fetched it (§4/§7).
    """

    datum: DatumId
    term: float
    version: Version
    payload: object = None
    changed: bool = False
    cover: str | None = None


@dataclass(frozen=True, slots=True)
class ExtendReply(Message):
    """Reply to :class:`ExtendRequest`.

    Attributes:
        grants: extensions granted.
        denied: datums on which no lease was granted (write pending — the
            starvation guard; the client falls back to a ReadRequest, which
            the server will defer behind the write).
    """

    kind: ClassVar[str] = "lease/extend"

    req_id: int
    grants: tuple[ExtendGrant, ...] = ()
    denied: tuple[DatumId, ...] = ()


@dataclass(frozen=True, slots=True)
class WriteRequest(Message):
    """Write-through of a file datum.

    The requester's lease (if any) carries implicit approval, so the server
    never calls back the writer itself.

    Attributes:
        write_seq: per-client monotonically increasing sequence number for
            exactly-once commit under retransmission.
        cas: compare-and-set guard — the version the writer read before
            producing ``content``, or None for an unconditional write.
            The server rejects the write (``error="cas mismatch..."``)
            if the datum's committed version no longer matches, so
            concurrent in-flight writers cannot silently clobber each
            other once requests are pipelined.
    """

    kind: ClassVar[str] = "lease/write"

    req_id: int
    datum: DatumId
    content: bytes
    write_seq: int = 0
    cas: Version | None = None


@dataclass(frozen=True, slots=True)
class WriteReply(Message):
    """Reply to :class:`WriteRequest` once the write has committed."""

    kind: ClassVar[str] = "lease/write"

    req_id: int
    datum: DatumId
    version: Version = 0
    error: str | None = None


@dataclass(frozen=True, slots=True)
class ApprovalRequest(Message):
    """Server-to-leaseholder callback: may this write proceed?"""

    kind: ClassVar[str] = "lease/approve"

    datum: DatumId
    write_id: int
    new_version: Version


@dataclass(frozen=True, slots=True)
class ApprovalReply(Message):
    """Leaseholder's approval (it has invalidated its cached copy)."""

    kind: ClassVar[str] = "lease/approve"

    datum: DatumId
    write_id: int


@dataclass(frozen=True, slots=True)
class NamespaceRequest(Message):
    """A namespace mutation: a *write* to directory datum(s).

    Attributes:
        op: one of ``"bind"``, ``"unbind"``, ``"rename"``, ``"mkdir"``.
        args: operation arguments (paths, and content for ``bind``).
    """

    kind: ClassVar[str] = "lease/namespace"

    req_id: int
    op: str
    args: tuple = ()
    write_seq: int = 0


@dataclass(frozen=True, slots=True)
class NamespaceReply(Message):
    """Reply to :class:`NamespaceRequest`."""

    kind: ClassVar[str] = "lease/namespace"

    req_id: int
    op: str
    error: str | None = None
    result: object = None


@dataclass(frozen=True, slots=True)
class InstalledAnnounce(Message):
    """Periodic multicast extension of installed-file cover leases (§4)."""

    kind: ClassVar[str] = "lease/announce"

    covers: tuple[str, ...]
    term: float
    seq: int = 0


@dataclass(frozen=True, slots=True)
class RelinquishRequest(Message):
    """Voluntarily give up leases (client option, §4).

    Fire-and-forget: no reply is needed — the worst a lost relinquish
    costs is waiting out the term, which is the default anyway.  The
    server drops its records and, crucially, removes the client from any
    write's awaiting set, unblocking writers immediately.
    """

    kind: ClassVar[str] = "lease/relinquish"

    datums: tuple[DatumId, ...]


# -- write-back extension (§2: non-write-through caches; §6: MFS/Echo tokens) --


@dataclass(frozen=True, slots=True)
class WriteLeaseRequest(Message):
    """Acquire an exclusive *write lease* on a datum.

    A write lease lets the holder buffer writes locally (write-back).
    Granting it requires the approval or expiry of every read lease, like
    a write does.
    """

    kind: ClassVar[str] = "lease/wlease"

    req_id: int
    datum: DatumId
    cached_version: Version | None = None


@dataclass(frozen=True, slots=True)
class WriteLeaseReply(Message):
    """Reply to :class:`WriteLeaseRequest` once exclusivity is achieved."""

    kind: ClassVar[str] = "lease/wlease"

    req_id: int
    datum: DatumId
    version: Version = 0
    payload: object = None
    term: float = 0.0
    error: str | None = None


@dataclass(frozen=True, slots=True)
class RecallRequest(Message):
    """Server-to-owner callback: surrender the write lease (flush dirty
    data).  Sent when another client needs the datum."""

    kind: ClassVar[str] = "lease/recall"

    datum: DatumId
    recall_id: int


@dataclass(frozen=True, slots=True)
class RecallReply(Message):
    """Owner's response to a recall: the dirty contents, or None if the
    cached copy was clean.  The write lease is relinquished either way."""

    kind: ClassVar[str] = "lease/recall"

    datum: DatumId
    recall_id: int
    dirty: bytes | None = None


@dataclass(frozen=True, slots=True)
class FlushRequest(Message):
    """Voluntary write-back of dirty data by the write-lease owner
    (e.g. ahead of lease expiry).  The lease is retained."""

    kind: ClassVar[str] = "lease/flush"

    req_id: int
    datum: DatumId
    content: bytes
    write_seq: int = 0


# -- replicated lease authority (PaxosLease master lease; repro.replica) --


@dataclass(frozen=True, slots=True)
class PrepareRequest(Message):
    """PaxosLease phase 1: ask acceptors to promise ballot ``ballot``.

    Ballots are globally unique per proposer (``round * n_replicas +
    node_index + 1``) and strictly positive; 0 is the "empty" ballot.
    """

    kind: ClassVar[str] = "paxos/prepare"

    ballot: int


@dataclass(frozen=True, slots=True)
class PrepareReply(Message):
    """Acceptor's answer to :class:`PrepareRequest`.

    Attributes:
        ballot: the prepare ballot this answers (echoed for matching).
        promised: True if the acceptor promised the ballot; False is an
            explicit reject (a higher ballot was already promised).
        accepted_ballot: ballot of the acceptor's unexpired accepted
            lease, or 0 if none.
        accepted_holder: holder of that accepted lease, or None.
        accepted_expires_in: *remaining* validity of the accepted lease on
            the acceptor's clock at reply time — a duration, never an
            instant, so clocks need not be synchronized (§5 discipline).
        ever_accepted: True if this acceptor has accepted *any* lease in
            its lifetime, even an expired one.  A prepare majority of
            never-accepted acceptors proves the group never had a master
            (the restart rule keeps amnesiac acceptors silent until any
            forgotten history is moot), letting a cold-start election
            skip the handoff wait-out.
    """

    kind: ClassVar[str] = "paxos/prepare"

    ballot: int
    promised: bool
    accepted_ballot: int = 0
    accepted_holder: str | None = None
    accepted_expires_in: float = 0.0
    ever_accepted: bool = False


@dataclass(frozen=True, slots=True)
class ProposeRequest(Message):
    """PaxosLease phase 2: ask acceptors to accept ``holder``'s master
    lease of duration ``term`` under ``ballot``."""

    kind: ClassVar[str] = "paxos/propose"

    ballot: int
    holder: str
    term: float


@dataclass(frozen=True, slots=True)
class ProposeReply(Message):
    """Acceptor's answer to :class:`ProposeRequest`."""

    kind: ClassVar[str] = "paxos/propose"

    ballot: int
    accepted: bool


@dataclass(frozen=True, slots=True)
class NotMaster(Message):
    """A non-master replica's redirect for a client request.

    Attributes:
        req_id: the redirected request's id (so the client can match it
            to an outstanding request), or 0 for id-less messages.
        master: the replica this node believes is master, or ``""`` when
            it does not know (election in progress) — the client then
            tries the next replica in its list.
    """

    kind: ClassVar[str] = "lease/notmaster"

    req_id: int
    master: str = ""


# -- pipelining (batched frames; memproxy-style client pipeline) --


@dataclass(frozen=True, slots=True)
class BatchRequest(Message):
    """Several client requests coalesced into one frame.

    The pipeline layer buffers every request a client issues within one
    event-loop tick (or one simulated instant) and ships them as a single
    batch, generalizing §3.1's batched lease extensions to *all* request
    traffic.  Each inner op keeps its own ``req_id``, so replies match up
    exactly as if the ops had been sent individually; the batch itself
    adds a ``batch_id`` for tracing.  Batches never nest.
    """

    kind: ClassVar[str] = "lease/batch"

    batch_id: int
    ops: tuple[Message, ...]


@dataclass(frozen=True, slots=True)
class BatchReply(Message):
    """The immediate replies to a :class:`BatchRequest`.

    Contains one reply per inner op that the server could answer at once.
    Ops the server defers (e.g. a read parked behind a pending write) are
    answered later as ordinary unbatched messages, so ``replies`` may be
    shorter than the request's ``ops``.
    """

    kind: ClassVar[str] = "lease/batch"

    batch_id: int
    replies: tuple[Message, ...]


#: Message kind strings for traffic accounting, derived from the class
#: bodies; all lease-protocol messages share the ``lease/`` prefix so
#: experiments can separate consistency traffic with one prefix filter.
KIND_BY_TYPE: dict[str, str] = {
    cls.__name__: cls.kind
    for cls in (
        ReadRequest,
        ReadReply,
        ExtendRequest,
        ExtendReply,
        WriteRequest,
        WriteReply,
        ApprovalRequest,
        ApprovalReply,
        NamespaceRequest,
        NamespaceReply,
        InstalledAnnounce,
        RelinquishRequest,
        WriteLeaseRequest,
        WriteLeaseReply,
        RecallRequest,
        RecallReply,
        FlushRequest,
        PrepareRequest,
        PrepareReply,
        ProposeRequest,
        ProposeReply,
        NotMaster,
        BatchRequest,
        BatchReply,
    )
}
