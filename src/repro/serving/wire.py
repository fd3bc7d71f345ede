"""JSON-ish wire codec for the discovery query RPC (serving tier).

The serving protocol is a deliberately boring request/response exchange
over the simulated UDP stack: one datagram per request, one per response,
canonical JSON (``sort_keys=True``) so identical messages are identical
bytes — the property every byte-reproducibility gate in this repo leans
on.  The codec lives apart from the gossip wire format on purpose: gossip
moves *cache state* between gateways, this protocol moves *answers* to
clients, and the two evolve independently.

Request kinds (``"kind"`` field):

* ``"type"``  — lookup-by-normalized-type (``st``), optional attribute
  predicate ``where`` ({name: value} exact match) and ``prefix`` flag
  (``st`` matched as a normalized-type prefix).
* ``"url"``   — lookup-by-url (``url``).
* ``"batch"`` — batched multi-target lookup: ``targets`` is a list of
  service types resolved in one round trip.
* ``"districts"`` — "which districts have X": ``st`` again, the answer
  maps district ids to record counts.
* Any request may carry ``scope`` — ``{"districts": [...], "hops": n}``
  bounds: answers are filtered to records whose service URL resolves into
  one of the named districts, and ``hops`` declares the client's
  forwarding budget (echoed, never exceeded).

Responses carry ``status`` (``"ok"`` | ``"miss"`` | ``"error"``), the
matched records, the serving index ``ver`` (cache version at answer
time), and the honesty stamp ``staleness_us`` — see
:mod:`repro.serving.frontend` for the contract.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

from ..sdp.base import ServiceRecord

#: The frontend's well-known UDP port.  Gossip owns 4610; the serving
#: tier sits next to it on the gateway, one port up the block.
SERVING_PORT = 4620

#: Wire-format version, bumped on incompatible change.
WIRE_VERSION = 1

REQUEST_KINDS = ("type", "url", "batch", "districts")


#: One encoder and one decoder for every message: ``json.dumps`` with a
#: keyword builds a fresh ``JSONEncoder`` per call.  The encoder's
#: settings are those of ``json.dumps(message, sort_keys=True)``, so the
#: bytes are identical.
_ENCODER = json.JSONEncoder(sort_keys=True)
_DECODER = json.JSONDecoder()


def encode(message: Mapping[str, Any]) -> bytes:
    """Canonical-JSON encode: same message, same bytes, every run."""
    return _ENCODER.encode(message).encode("utf-8")


def decode(payload: bytes) -> Optional[dict]:
    """Best-effort decode; None for anything that is not a JSON object."""
    try:
        message = _DECODER.decode(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(message, dict):
        return None
    return message


def record_to_wire(record: ServiceRecord, staleness_us: int) -> dict:
    """One matched record plus its per-record staleness (µs since the
    record's implied observation at the origin)."""
    wire = {
        "t": record.service_type,
        "u": record.url,
        "l": record.lifetime_s,
        "s": record.source_sdp,
        "stale_us": staleness_us,
    }
    if record.attributes:
        wire["a"] = dict(record.attributes)
    if record.location:
        wire["loc"] = record.location
    return wire


def request(kind: str, rid: int, **fields: Any) -> dict:
    base = {"v": WIRE_VERSION, "kind": kind, "rid": rid}
    base.update(fields)
    return base


def response(
    rid: int,
    status: str,
    *,
    records: Optional[list] = None,
    staleness_us: int = 0,
    ver: int = 0,
    served_by: str = "",
    **fields: Any,
) -> dict:
    base = {
        "v": WIRE_VERSION,
        "kind": "resp",
        "rid": rid,
        "status": status,
        "staleness_us": staleness_us,
        "ver": ver,
        "served_by": served_by,
    }
    if records is not None:
        base["records"] = records
    base.update(fields)
    return base


__all__ = [
    "SERVING_PORT",
    "WIRE_VERSION",
    "REQUEST_KINDS",
    "encode",
    "decode",
    "record_to_wire",
    "request",
    "response",
]
