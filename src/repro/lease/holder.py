"""Client-side lease holdings.

A cache must hold a *valid* lease on a datum (besides the datum itself)
before serving a read or accepting a write.  :class:`LeaseSet` tracks the
client's conservative view of each lease's expiry — computed with
:func:`repro.clock.sync.safe_local_expiry` from the request's send time —
and supports the batching rule of §3.1: "a cache should extend together all
leases over all files that it still holds".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import DatumId


@dataclass
class Holding:
    """The client's record of one lease.

    Attributes:
        datum: covered datum.
        expires_local: local-clock time after which the lease must not be
            used (already includes the epsilon/drift safety margins).
        cover: id of the installed-files cover lease this datum rides on,
            or None for an ordinary per-client lease.
    """

    datum: DatumId
    expires_local: float
    cover: str | None = None


class LeaseSet:
    """All leases a client currently knows about."""

    def __init__(self) -> None:
        self._holdings: dict[DatumId, Holding] = {}
        self._covers: dict[str, set[DatumId]] = {}

    def add(self, datum: DatumId, expires_local: float, cover: str | None = None) -> Holding:
        """Record a granted or extended lease.

        Extension never moves expiry backward: a shorter re-grant keeps the
        longer previously promised validity (mirrors ``Lease.renew``).
        """
        holding = self._holdings.get(datum)
        if holding is None:
            holding = Holding(datum, expires_local, cover)
            self._holdings[datum] = holding
        else:
            holding.expires_local = max(holding.expires_local, expires_local)
            if cover is not None:
                holding.cover = cover
        if holding.cover is not None:
            self._covers.setdefault(holding.cover, set()).add(datum)
        return holding

    def valid(self, datum: DatumId, now: float) -> bool:
        """True when the client may rely on its lease over ``datum``."""
        holding = self._holdings.get(datum)
        return holding is not None and now < holding.expires_local

    def expires_at(self, datum: DatumId) -> float | None:
        """Local expiry of the holding, or None if unknown datum."""
        holding = self._holdings.get(datum)
        return None if holding is None else holding.expires_local

    def drop(self, datum: DatumId) -> None:
        """Forget a lease (relinquish, or server told us it is void)."""
        holding = self._holdings.pop(datum, None)
        if holding is not None and holding.cover is not None:
            members = self._covers.get(holding.cover)
            if members:
                members.discard(datum)
                if not members:
                    del self._covers[holding.cover]

    def clear(self) -> None:
        """Forget everything — the client's volatile state on crash."""
        self._holdings.clear()
        self._covers.clear()

    # -- batching support (§3.1) ------------------------------------------------

    def held_datums(self) -> set[DatumId]:
        """Every datum with a holding, valid or expired."""
        return set(self._holdings)

    def extension_batch(self, now: float) -> list[DatumId]:
        """Datums to extend together: all currently *held* leases.

        Per §3.1, when one lease must be extended, the cache extends all the
        leases it still holds in one request, amortizing the round trip.
        The client engine drops a holding when its datum is evicted, so the
        batch covers only cached data.  Cover-held (installed) datums are
        excluded: the server extends those by multicast and explicit
        requests would defeat the optimization.
        """
        return sorted(
            (d for d, h in self._holdings.items() if h.cover is None),
            key=str,
        )

    def expiring_before(self, deadline: float) -> list[DatumId]:
        """Datums whose holdings expire before ``deadline``.

        Used by the anticipatory-extension option (§4) to renew ahead of
        need.
        """
        return sorted(
            (d for d, h in self._holdings.items() if h.expires_local < deadline),
            key=str,
        )

    # -- installed-file covers ------------------------------------------------------

    def extend_cover(self, cover: str, expires_local: float) -> int:
        """Extend every datum riding on ``cover`` (multicast announce).

        Returns the number of holdings extended.
        """
        members = self._covers.get(cover, ())
        for datum in members:
            holding = self._holdings[datum]
            holding.expires_local = max(holding.expires_local, expires_local)
        return len(members)

    def cover_members(self, cover: str) -> set[DatumId]:
        """Datums this client holds under ``cover``."""
        return set(self._covers.get(cover, ()))

    def __len__(self) -> int:
        return len(self._holdings)

    def __contains__(self, datum: DatumId) -> bool:
        return datum in self._holdings
