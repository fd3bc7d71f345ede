"""IPv4-style addressing for the simulated LAN.

Addresses are dotted-quad strings (``"192.168.1.10"``); endpoints pair an
address with a port.  The helpers here validate addresses and classify the
multicast range (224.0.0.0/4), which is what SDP detection relies on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import AddressError

#: Start of the IPv4 multicast block (224.0.0.0/4).
_MULTICAST_FIRST_OCTET_LOW = 224
_MULTICAST_FIRST_OCTET_HIGH = 239

#: Loopback address, usable on every node.
LOOPBACK = "127.0.0.1"

#: Wildcard bind address.
ANY = "0.0.0.0"

#: Broadcast to all nodes on the LAN segment.
BROADCAST = "255.255.255.255"


@lru_cache(maxsize=65536)
def parse_ipv4(address: str) -> tuple[int, int, int, int]:
    """Parse and validate a dotted-quad address, returning its four octets.

    Raises :class:`AddressError` for anything that is not a well-formed IPv4
    literal.  Results are memoized: the delivery hot path classifies the
    same few thousand host/group strings millions of times, so each parses
    once (failures are not cached and re-raise).
    """
    if not isinstance(address, str):
        raise AddressError(f"address must be a string, got {type(address).__name__}")
    parts = address.split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address: {address!r}")
    octets = []
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise AddressError(f"malformed IPv4 octet {part!r} in {address!r}")
        value = int(part)
        if value > 255:
            raise AddressError(f"IPv4 octet out of range in {address!r}")
        octets.append(value)
    return tuple(octets)  # type: ignore[return-value]


def is_valid_ipv4(address: str) -> bool:
    """True when ``address`` parses as a dotted-quad IPv4 literal."""
    try:
        parse_ipv4(address)
    except AddressError:
        return False
    return True


def is_multicast(address: str) -> bool:
    """True when ``address`` falls within 224.0.0.0/4."""
    first = parse_ipv4(address)[0]
    return _MULTICAST_FIRST_OCTET_LOW <= first <= _MULTICAST_FIRST_OCTET_HIGH


def is_loopback(address: str) -> bool:
    """True for the 127.0.0.0/8 block."""
    return parse_ipv4(address)[0] == 127


#: Destination classes returned by :func:`destination_kind`.
KIND_UNICAST = 0
KIND_MULTICAST = 1
KIND_BROADCAST = 2
KIND_LOOPBACK = 3


@lru_cache(maxsize=65536)
def destination_kind(address: str) -> int:
    """Classify a destination address for delivery, in the order the
    network routes it: :data:`KIND_MULTICAST` (224.0.0.0/4), then
    :data:`KIND_BROADCAST`, then :data:`KIND_LOOPBACK` (127.0.0.0/8),
    else :data:`KIND_UNICAST`.

    One memoized call per frame replaces the separate multicast,
    broadcast and loopback tests; a malformed address raises
    :class:`AddressError` exactly as :func:`is_multicast` does.
    """
    first = parse_ipv4(address)[0]
    if _MULTICAST_FIRST_OCTET_LOW <= first <= _MULTICAST_FIRST_OCTET_HIGH:
        return KIND_MULTICAST
    if address == BROADCAST:
        return KIND_BROADCAST
    if first == 127:
        return KIND_LOOPBACK
    return KIND_UNICAST


def validate_port(port: int) -> int:
    """Validate a UDP/TCP port number and return it."""
    if not isinstance(port, int) or isinstance(port, bool):
        raise AddressError(f"port must be an int, got {port!r}")
    if not 0 < port <= 65535:
        raise AddressError(f"port out of range: {port}")
    return port


class Endpoint(NamedTuple):
    """An (address, port) pair; the unit of source/destination on the LAN."""

    host: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse ``"host:port"`` into an Endpoint."""
        host, sep, port = text.rpartition(":")
        if not sep or not port.isdigit():
            raise AddressError(f"malformed endpoint: {text!r}")
        parse_ipv4(host)
        return cls(host, validate_port(int(port)))

    @property
    def is_multicast(self) -> bool:
        return is_multicast(self.host)


class AddressAllocator:
    """Hands out sequential host addresses for test topologies.

    A three-octet prefix (``"192.168.1"``) allocates a /24 — 254 hosts, the
    classic home-LAN segment.  A two-octet prefix (``"10.7"``) allocates a
    /16 — enough for the multi-thousand-node metro scenarios, where a /24
    per segment is the binding constraint.
    """

    def __init__(self, prefix: str = "192.168.1"):
        parts = prefix.split(".")
        if len(parts) not in (2, 3) or not all(
            p.isdigit() and int(p) <= 255 for p in parts
        ):
            raise AddressError(f"prefix must be two or three octets, got {prefix!r}")
        self._prefix = prefix
        self._wide = len(parts) == 2
        self._next_host = 1

    @property
    def capacity(self) -> int:
        """Total hosts this allocator can hand out."""
        return 255 * 254 if self._wide else 254

    @property
    def remaining(self) -> int:
        """Hosts still available."""
        return self.capacity - (self._next_host - 1)

    def allocate(self) -> str:
        """Return the next unused address in the subnet."""
        if self.remaining <= 0:
            mask = "0.0/16" if self._wide else "0/24"
            raise AddressError(f"subnet {self._prefix}.{mask} exhausted")
        if self._wide:
            hi, lo = divmod(self._next_host - 1, 254)
            address = f"{self._prefix}.{hi}.{lo + 1}"
        else:
            address = f"{self._prefix}.{self._next_host}"
        self._next_host += 1
        return address


__all__ = [
    "Endpoint",
    "AddressAllocator",
    "LOOPBACK",
    "ANY",
    "BROADCAST",
    "parse_ipv4",
    "is_valid_ipv4",
    "is_multicast",
    "is_loopback",
    "destination_kind",
    "KIND_UNICAST",
    "KIND_MULTICAST",
    "KIND_BROADCAST",
    "KIND_LOOPBACK",
    "validate_port",
]
