"""UDP sockets for simulated nodes, with multicast group membership.

The API intentionally mirrors the small slice of the BSD socket interface
that service discovery protocols need: bind to a port, join multicast
groups, send datagrams, receive them through a callback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .addressing import ANY, Endpoint, is_multicast, validate_port
from .errors import NotBoundError, PortInUseError, SocketClosedError

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node


#: Sentinel returned by :meth:`FrameMemo.lookup` when no usable entry
#: exists (``None`` is a legitimate stored value: "this payload does not
#: decode").
MEMO_MISS = object()


class FrameMemo:
    """Shared per-frame decode results (parse-once fan-out delivery).

    One multicast frame fans out to K co-segment sockets; every receiver
    that decodes the same bytes the same way (an INDISS monitor's parser, a
    native SLP endpoint's wire decoder, an SSDP device's datagram parse, a
    Jini discovery listener) pays the decode once and the other
    K-1 reuse the stored result.  The memo lives on the
    :class:`Datagram` — per frame, not a global cache — so results can
    never outlive the frame or leak between frames.

    Each entry stores the payload it was computed from, and ``lookup``
    compares it with bytes equality before reuse: even if two distinct
    payloads ever shared a key (hash collision, or a hand-built datagram
    reusing another frame's memo), the stale result is not served.  Two
    protocols sharing a (group, port) pair can never cross-serve each
    other either: their decoders use distinct memo keys, so each key holds
    only results computed by that protocol's own codec.
    """

    __slots__ = ("_entries", "hits", "collisions")

    def __init__(self) -> None:
        self._entries: dict = {}
        self.hits = 0
        self.collisions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key, payload: bytes):
        """The stored result for ``key``, or :data:`MEMO_MISS`."""
        entry = self._entries.get(key)
        if entry is None:
            return MEMO_MISS
        stored_payload, value = entry
        if stored_payload != payload:
            self.collisions += 1
            return MEMO_MISS
        self.hits += 1
        return value

    def store(self, key, payload: bytes, value) -> None:
        self._entries[key] = (payload, value)


class NullFrameMemo(FrameMemo):
    """A memo that never remembers: every lookup misses, stores drop.

    :class:`~repro.net.network.Network` attaches the singleton
    :data:`NULL_MEMO` to every frame when built with ``parse_once=False``,
    which turns all sharing and seeding off without touching any receive
    path — the A/B knob the benchmarks use to price the memo machinery.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return 0

    def lookup(self, key, payload: bytes):
        return MEMO_MISS

    def store(self, key, payload: bytes, value) -> None:
        return None


#: Shared no-op memo (see :class:`NullFrameMemo`); safe as a singleton
#: because it holds no state.
NULL_MEMO = NullFrameMemo()


class ParseCounter:
    """Per-protocol decode accounting, one observation per (receiver, frame).

    Every receiver that handles a frame registers exactly one of:

    * ``decoded`` — it ran the protocol codec over the payload;
    * ``shared`` — it reused a result another receiver (or the sender's
      seed) left in the frame's :class:`FrameMemo`.

    ``seeded`` counts sender-side seeds (``decode_hint``) — frames whose
    first receiver never decodes at all.  Senders report seeds through
    :meth:`note_seed`, which is a no-op when the owning network runs with
    ``parse_once=False`` (hints are dropped there, so counting them would
    claim seeds that never reached a frame).  Instances live in
    :attr:`repro.net.network.Network.parse_stats`, keyed by protocol, so
    benchmarks can attribute the parse-once win per SDP.
    """

    __slots__ = ("decoded", "shared", "seeded", "count_seeds")

    def __init__(self, count_seeds: bool = True) -> None:
        self.decoded = 0
        self.shared = 0
        self.seeded = 0
        self.count_seeds = count_seeds

    def note_seed(self) -> None:
        if self.count_seeds:
            self.seeded += 1

    @property
    def observations(self) -> int:
        return self.decoded + self.shared

    @property
    def dedup_rate(self) -> float:
        total = self.decoded + self.shared
        return self.shared / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"ParseCounter(decoded={self.decoded}, shared={self.shared}, "
            f"seeded={self.seeded})"
        )


def shared_decode(memo, key, payload: bytes, codec, counter=None):
    """The parse-once lookup/decode/store sequence every protocol shares.

    ``codec`` maps payload bytes to a decoded value, returning ``None``
    for bytes that are not its protocol (negative results are stored and
    shared like any other).  ``memo`` is the delivering frame's
    :class:`FrameMemo` or ``None``; ``counter`` an optional
    :class:`ParseCounter` receiving exactly one decoded/shared
    observation per call.
    """
    if memo is not None:
        cached = memo.lookup(key, payload)
        if cached is not MEMO_MISS:
            if counter is not None:
                counter.shared += 1
            return cached
    value = codec(payload)
    if counter is not None:
        counter.decoded += 1
    if memo is not None:
        memo.store(key, payload, value)
    return value


class Datagram:
    """A delivered UDP datagram.

    One is built per frame sent, so it is a slotted plain class: a frozen
    dataclass pays an ``object.__setattr__`` per field.  Equality, hash
    and repr cover ``payload``, ``source`` and ``destination`` only, as a
    frozen dataclass with ``memo`` and ``owner`` excluded would; no field
    is reassigned once the frame is built (``ensure_memo`` fills an empty
    memo once).
    """

    __slots__ = ("payload", "source", "destination", "memo", "owner")

    def __init__(
        self,
        payload: bytes,
        source: Endpoint,
        destination: Endpoint,
        memo: Optional[FrameMemo] = None,
        owner: object = None,
    ) -> None:
        self.payload = payload
        self.source = source
        self.destination = destination
        #: Per-frame decode memo shared by every socket this frame
        #: reaches; excluded from equality/hash (two equal frames are
        #: equal regardless of what receivers decoded so far).  Created
        #: lazily by :meth:`ensure_memo` — frames nobody memoizes
        #: (single-receiver traffic without a decode hint) never allocate
        #: one.
        self.memo = memo
        #: The sending socket's :attr:`UdpSocket.owner` tag (``None`` for
        #: untagged sockets and for frames rebuilt at a district
        #: boundary); excluded from equality/hash.
        self.owner = owner

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.payload, self.source, self.destination) == (
            other.payload,
            other.source,
            other.destination,
        )

    def __hash__(self) -> int:
        return hash((self.payload, self.source, self.destination))

    def __repr__(self) -> str:
        return (
            f"Datagram(payload={self.payload!r}, source={self.source!r}, "
            f"destination={self.destination!r})"
        )

    def ensure_memo(self) -> FrameMemo:
        """The frame's memo, created on first demand.

        The instance is shared by every receiver of the frame, so the
        first decoder's memo is visible to all later ones.
        """
        memo = self.memo
        if memo is None:
            memo = self.memo = FrameMemo()
        return memo

    @property
    def multicast(self) -> bool:
        return is_multicast(self.destination.host)

    def __len__(self) -> int:
        return len(self.payload)


DatagramHandler = Callable[[Datagram], None]


class UdpSocket:
    """A UDP socket bound (or bindable) on one simulated node."""

    def __init__(self, node: "Node"):
        self._node = node
        self._port: int | None = None
        self._groups: set[str] = set()
        self._closed = False
        #: Set by :meth:`repro.net.udp.UdpStack.crash`: the owning process
        #: crash-stopped, so sends from stale timers that still hold this
        #: socket silently vanish instead of raising (a dead process cannot
        #: raise into a survivor's event loop).
        self._crashed = False
        self._handler: Optional[DatagramHandler] = None
        #: The bound source endpoint, built once at bind time.
        self._source: Endpoint | None = None
        #: Opaque tag stamped on every frame this socket sends
        #: (:attr:`Datagram.owner`).  An INDISS instance tags its own
        #: sockets with its monitor, so the monitor can skip its own
        #: traffic without keeping any per-socket state.
        self.owner: object = None
        #: Datagrams delivered before a handler was attached (tests read this).
        self.inbox: list[Datagram] = []
        self.sent_count = 0
        self.received_count = 0

    # -- configuration -----------------------------------------------------

    @property
    def node(self) -> "Node":
        return self._node

    @property
    def port(self) -> int | None:
        return self._port

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def groups(self) -> frozenset[str]:
        return frozenset(self._groups)

    def bind(self, port: int, reuse: bool = False) -> "UdpSocket":
        """Bind to ``port``.  ``reuse`` mirrors SO_REUSEADDR: several sockets
        (typically multicast listeners) may share the port."""
        self._ensure_open()
        if self._port is not None:
            raise PortInUseError(f"socket already bound to {self._port}")
        validate_port(port)
        self._node.udp.register(self, port, reuse)
        self._port = port
        self._source = Endpoint(self._node.address, port)
        for group in self._groups:
            self._index_membership(group)
        return self

    def join_group(self, group: str) -> "UdpSocket":
        """Join a multicast group (must be a 224/4 address)."""
        self._ensure_open()
        if not is_multicast(group):
            raise ValueError(f"not a multicast group: {group!r}")
        if group not in self._groups:
            self._groups.add(group)
            if self._port is not None:
                self._index_membership(group)
        return self

    def leave_group(self, group: str) -> None:
        if group in self._groups:
            self._groups.discard(group)
            if self._port is not None:
                self._unindex_membership(group)

    # -- per-segment membership index (batched multicast delivery) ----------

    def _index_membership(self, group: str) -> None:
        for segment in self._node.segments:
            segment.index_group_member(self, group, self._port)

    def _unindex_membership(self, group: str) -> None:
        for segment in self._node.segments:
            segment.unindex_group_member(self, group, self._port)

    def on_datagram(self, handler: DatagramHandler) -> "UdpSocket":
        """Attach the receive callback; queued datagrams are flushed to it."""
        self._handler = handler
        if self.inbox:
            pending, self.inbox = self.inbox, []
            for datagram in pending:
                handler(datagram)
        return self

    # -- I/O ----------------------------------------------------------------

    def sendto(
        self, payload: bytes, destination: Endpoint, decode_hint: tuple | None = None
    ) -> None:
        """Send ``payload`` to a unicast or multicast endpoint.

        ``decode_hint`` is an optional ``(memo_key, decoded_form)`` pair:
        a sender that just *encoded* a structured message can seed the
        frame's :class:`FrameMemo` with it, so no receiver ever pays the
        decode (parse-once carried to the producer side).
        """
        if self._crashed:
            return
        if self._closed:
            raise SocketClosedError("operation on closed UDP socket")
        if self._port is None:
            # Match OS behaviour: sending auto-binds to an ephemeral port.
            self.bind(self._node.udp.ephemeral_port())
        node = self._node
        node.network.send_datagram(
            node, self._source, destination, bytes(payload), decode_hint, self.owner
        )
        self.sent_count += 1

    def deliver(self, datagram: Datagram) -> None:
        """Called by the network when a datagram arrives for this socket."""
        if self._closed:
            return
        self.received_count += 1
        handler = self._handler
        if handler is not None:
            handler(datagram)
        else:
            self.inbox.append(datagram)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._port is not None:
            self._node.udp.unregister(self, self._port)
            for group in self._groups:
                self._unindex_membership(group)
        self._groups.clear()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SocketClosedError("operation on closed UDP socket")


class UdpStack:
    """The per-node UDP port table."""

    #: First ephemeral port handed out by :meth:`ephemeral_port`; the range
    #: ends at 65535 and wraps around to here.
    EPHEMERAL_BASE = 49152

    def __init__(self, node: "Node"):
        self._node = node
        self._ports: dict[int, list[UdpSocket]] = {}
        self._reusable: set[int] = set()
        self._next_ephemeral = self.EPHEMERAL_BASE

    def socket(self) -> UdpSocket:
        return UdpSocket(self._node)

    def register(self, sock: UdpSocket, port: int, reuse: bool) -> None:
        holders = self._ports.get(port, [])
        if holders and not (reuse and port in self._reusable):
            raise PortInUseError(f"port {port} already bound on {self._node.name}")
        if reuse:
            self._reusable.add(port)
        self._ports.setdefault(port, []).append(sock)

    def unregister(self, sock: UdpSocket, port: int) -> None:
        holders = self._ports.get(port)
        if holders and sock in holders:
            holders.remove(sock)
            if not holders:
                del self._ports[port]
                self._reusable.discard(port)

    def ephemeral_port(self) -> int:
        """The next unbound port of the ephemeral range, wrapping around
        to :attr:`EPHEMERAL_BASE` after 65535."""
        for _ in range(65536 - self.EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral = port + 1 if port < 65535 else self.EPHEMERAL_BASE
            if port not in self._ports:
                return port
        raise NotBoundError("ephemeral port space exhausted")

    def sockets_for(self, port: int) -> list[UdpSocket]:
        return list(self._ports.get(port, ()))

    def sockets_for_group(self, group: str, port: int) -> list[UdpSocket]:
        """Sockets bound to ``port`` that joined multicast ``group``."""
        return [s for s in self._ports.get(port, ()) if group in s.groups]

    def multicast_members(self):
        """Every (group, port, socket) membership on this node.

        Segments index these when a node is attached after its sockets
        already exist (bridging a gateway onto an additional LAN).
        """
        for port, sockets in self._ports.items():
            for sock in sockets:
                for group in sock.groups:
                    yield group, port, sock

    def bound_ports(self) -> list[int]:
        return sorted(self._ports)

    def crash(self) -> None:
        """Crash-stop teardown: every bound socket closes *as crashed*.

        Closing unregisters ports and unindexes multicast memberships, so
        frames already scheduled for delivery to these sockets are
        swallowed by :meth:`UdpSocket.deliver`'s closed guard — dropped
        exactly once, never delivered to a post-restart successor.  The
        crashed flag additionally makes sends from stale timers that still
        hold a dead socket vanish silently: a crashed process cannot raise
        into the surviving event loop.
        """
        for holders in list(self._ports.values()):
            for sock in list(holders):
                sock._crashed = True
                sock.close()


__all__ = [
    "UdpSocket",
    "UdpStack",
    "Datagram",
    "FrameMemo",
    "NullFrameMemo",
    "NULL_MEMO",
    "ParseCounter",
    "shared_decode",
    "MEMO_MISS",
    "ANY",
]
