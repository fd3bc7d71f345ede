"""SDP units: parser + composer + coordination FSM (paper §2.2-§2.3).

A unit "implements event-based interoperability for a specific SDP by (i)
translating to and from semantic events ... and (ii) implementing
coordination processes over the events according to the behaviour of the
SDP functions".  The base class here provides the plumbing every unit
shares:

* a :class:`UnitRuntime` giving node I/O (an ephemeral UDP socket whose
  replies feed back into the unit, HTTP requests, timers) plus the INDISS
  processing-cost charges;
* embedded parsers with ``SDP_C_PARSER_SWITCH`` handling;
* listener registration (the bridge and any application-layer tracer);
* the hosted :class:`~repro.core.fsm.StateMachine`.

Protocol behaviour lives in the SDP-specific subclasses
(:mod:`repro.units`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..net import Endpoint, MEMO_MISS, Node
from ..sdp.upnp.http import Headers
from ..sdp.upnp.httpclient import http_request
from .composer import SdpComposer
from .events import (
    Event,
    SDP_C_PARSER_SWITCH,
)
from .fsm import StateMachine, StateMachineDefinition
from .parser import NetworkMeta, SdpParser
from .session import TranslationSession


@dataclass
class IndissTimings:
    """INDISS's own processing costs, charged in virtual time.

    The paper's §4.3 analysis attributes almost all translated-path latency
    to the native stacks; INDISS's event parsing/composition is tens of
    microseconds.  These defaults keep that shape; the calibrated profile
    lives with the rest in ``repro.bench.calibration``.
    """

    parse_us: int = 30
    compose_us: int = 40
    dispatch_us: int = 5
    xml_parse_us: int = 150
    cache_lookup_us: int = 10


StreamListener = Callable[[list[Event], NetworkMeta], None]


class UnitRuntime:
    """Node-facing I/O for one unit."""

    def __init__(self, node: Node, timings: IndissTimings | None = None,
                 owner: object = None):
        self.node = node
        self.timings = timings if timings is not None else IndissTimings()
        #: Tag for every socket this runtime sends from
        #: (:attr:`repro.net.UdpSocket.owner`): INDISS passes its monitor,
        #: which then skips the frames these sockets send.
        self.owner = owner
        self._socket = node.udp.socket()
        self._socket.owner = owner
        self._socket.on_datagram(self._dispatch_datagram)
        self._datagram_handler: Optional[Callable[[bytes, NetworkMeta], None]] = None
        self.messages_sent = 0

    @property
    def address(self) -> str:
        return self.node.address

    @property
    def now_us(self) -> int:
        return self.node.now_us

    def on_datagram(self, handler: Callable[[bytes, NetworkMeta], None]) -> None:
        self._datagram_handler = handler

    def _dispatch_datagram(self, datagram) -> None:
        if self._datagram_handler is not None:
            self._datagram_handler(datagram.payload, NetworkMeta.from_datagram(datagram))

    def send_udp(
        self, payload: bytes, destination: Endpoint, decode_hint: tuple | None = None
    ) -> None:
        self._socket.sendto(payload, destination, decode_hint=decode_hint)
        self.messages_sent += 1

    def send_udp_from_new_socket(
        self, payload: bytes, destination: Endpoint, decode_hint: tuple | None = None
    ) -> None:
        """Fire-and-forget from a throwaway socket (replies not expected).

        The socket is closed right after the send, so its ephemeral port
        goes back to the node's port table.
        """
        socket = self.node.udp.socket()
        socket.owner = self.owner
        socket.sendto(payload, destination, decode_hint=decode_hint)
        socket.close()
        self.messages_sent += 1

    def http(
        self,
        method: str,
        url: str,
        body: bytes = b"",
        headers: Headers | None = None,
        on_response: Callable | None = None,
        on_error: Callable[[Exception], None] | None = None,
    ) -> None:
        http_request(
            self.node, method, url, headers=headers, body=body,
            on_response=on_response, on_error=on_error,
        )
        self.messages_sent += 1

    def schedule(self, delay_us: int, callback: Callable[[], None]) -> None:
        self.node.schedule(delay_us, callback)


class Unit:
    """Base class for SDP units."""

    sdp_id: str = ""

    def __init__(
        self,
        runtime: UnitRuntime,
        parsers: dict[str, SdpParser],
        composer: SdpComposer,
        fsm_definition: StateMachineDefinition,
        default_syntax: str,
    ):
        if default_syntax not in parsers:
            raise ValueError(f"default syntax {default_syntax!r} not among parsers")
        self.runtime = runtime
        self.parsers = parsers
        self.composer = composer
        #: Per-protocol decode accounting shared network-wide; the unit
        #: registers one observation per frame it handles (stream-level
        #: shares here, wire-level decodes inside the parsers).
        self.parse_counter = runtime.node.network.parse_counter(self.sdp_id)
        for parser in parsers.values():
            parser.parse_counter = self.parse_counter
        self.machine = StateMachine(fsm_definition, trace=True)
        self._default_syntax = default_syntax
        self.current_syntax = default_syntax
        self._listeners: list[StreamListener] = []
        #: Sessions this unit is currently driving as the *target* side.
        self.active_sessions: dict[int, TranslationSession] = {}
        self.streams_parsed = 0
        #: Streams obtained from another receiver's parse of the same frame
        #: (the per-frame memo), rather than parsed here.
        self.streams_shared = 0
        self.streams_dispatched = 0
        runtime.on_datagram(self._on_native_datagram)

    # -- listeners (event-based architecture: units are generators/listeners) --

    def add_listener(self, listener: StreamListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: StreamListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify(self, stream: list[Event], meta: NetworkMeta) -> None:
        self.streams_dispatched += 1
        for listener in self._listeners:
            listener(stream, meta)

    # -- parsing with parser-switch handling ------------------------------------

    @property
    def parser(self) -> SdpParser:
        return self.parsers[self.current_syntax]

    def switch_parser(self, syntax: str) -> None:
        if syntax not in self.parsers:
            raise KeyError(f"unit {self.sdp_id!r} has no parser for syntax {syntax!r}")
        self.current_syntax = syntax

    def reset_parser(self) -> None:
        self.current_syntax = self._default_syntax

    def parse_raw(self, raw: bytes, meta: NetworkMeta) -> list[Event] | None:
        """Parse with the current parser, honouring SDP_C_PARSER_SWITCH.

        When the parser emits a switch event (Fig. 4 step 3: the SSDP parser
        meets an XML body), the unit re-parses the remaining payload with
        the requested parser and splices the streams.

        When the frame carries a decode memo (multicast fan-out), the first
        unit to parse it stores the event stream and every later receiver —
        typically the same unit type on another gateway hearing the same
        backbone frame — gets a shallow copy instead of re-parsing.  Events
        are immutable, so sharing them across instances is safe; the list
        is copied so no receiver can alias another's stream.
        """
        memo = meta.memo if meta is not None else None
        if memo is None:
            return self._parse_raw_uncached(raw, meta)
        key = ("indiss", self.sdp_id, self.current_syntax)
        cached = memo.lookup(key, raw)
        if cached is not MEMO_MISS:
            self.streams_shared += 1
            self.parse_counter.shared += 1
            return None if cached is None else list(cached)
        stream = self._parse_raw_uncached(raw, meta)
        memo.store(key, raw, None if stream is None else list(stream))
        return stream

    def _parse_raw_uncached(self, raw: bytes, meta: NetworkMeta) -> list[Event] | None:
        stream = self.parser.try_parse(raw, meta)
        if stream is None:
            return None
        self.streams_parsed += 1
        out: list[Event] = []
        for index, event in enumerate(stream):
            if event.type is SDP_C_PARSER_SWITCH:
                target = event.get("syntax", "")
                remainder = event.get("payload", b"")
                out.append(event)
                self.switch_parser(target)
                switched = self.parser.try_parse(remainder, meta)
                self.reset_parser()
                if switched is not None:
                    # splice, dropping the inner brackets
                    out.extend(switched[1:-1])
                out.extend(stream[index + 1:])
                return out
            out.append(event)
        return out

    # -- environment-facing entry points (overridden by subclasses) ------------------

    def handle_environment_message(self, raw: bytes, meta: NetworkMeta) -> list[Event] | None:
        """Raw data from the monitor: parse and publish the stream."""
        stream = self.parse_raw(raw, meta)
        if stream is not None:
            self._notify(stream, meta)
        return stream

    def handle_foreign_request(self, stream: list[Event], session: TranslationSession) -> None:
        """Drive this SDP's native discovery on behalf of a foreign request.

        Subclasses compose the native request(s), await replies on the
        runtime socket, and finally call ``session.complete_with(stream)``.
        """
        raise NotImplementedError

    def compose_reply(self, stream: list[Event], session: TranslationSession) -> None:
        """Assemble and send the native reply to the original requester."""
        raise NotImplementedError

    def advertise_record(self, record) -> None:
        """Announce a foreign-learnt service in this SDP (active mode)."""
        raise NotImplementedError

    def resolve_advertisement(self, stream: list[Event], on_record) -> None:
        """Complete an advertisement that lacks a service URL.

        Default: nothing to resolve.  The UPnP unit overrides this to fetch
        the description document behind a NOTIFY's LOCATION.
        """
        return None

    def _on_native_datagram(self, raw: bytes, meta: NetworkMeta) -> None:
        """Unicast replies to requests this unit issued; subclasses route
        them into the session they belong to."""
        raise NotImplementedError


__all__ = ["Unit", "UnitRuntime", "IndissTimings", "StreamListener"]
