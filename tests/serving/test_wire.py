"""The serving codec: canonical bytes, and decode of anything else."""

import json

import pytest

from repro.serving import wire

MESSAGES = [
    {},
    wire.request("type", 7, st="service:printer", where={"zone": "b", "duplex": "yes"}),
    wire.request("batch", 8, targets=["service:a", "service:b"], scope={"districts": [2, 0]}),
    wire.response(
        3,
        "ok",
        records=[
            {"t": "service:clock", "u": "service:clock:soap://10.0.0.1:80", "l": 1800,
             "s": "upnp", "stale_us": 0, "a": {"z": "1", "a": "2"}},
            {"t": "service:x", "u": "service:x://h", "l": 1.5, "s": "slp",
             "stale_us": 12, "loc": "http://h/d.xml"},
        ],
        staleness_us=12,
        ver=4,
        served_by="gw-0",
        stale=True,
    ),
    {"text": "naïve café — 日本語 ☃ \u0000 \"quoted\" \\ \n", "ключ": "значение"},
    {"f": -0.0, "g": 0.1, "h": 1e300, "i": -2.5e-7, "inf": float("inf")},
    {"b": [True, False, None], "nested": {"z": {"y": [1, {"x": None}]}, "a": []}},
]


@pytest.mark.parametrize("message", MESSAGES)
def test_encode_is_byte_identical_to_sorted_json_dumps(message):
    assert wire.encode(message) == json.dumps(message, sort_keys=True).encode()


@pytest.mark.parametrize("message", MESSAGES)
def test_decode_inverts_encode(message):
    assert wire.decode(wire.encode(message)) == json.loads(
        json.dumps(message, sort_keys=True)
    )


@pytest.mark.parametrize(
    "payload",
    [b"", b"\xff\xfe", b"not json", b"[1, 2]", b"42", b'"str"', b'{"a": 1} trailing',
     "\ufeff{}".encode()],
)
def test_decode_rejects_everything_but_a_json_object(payload):
    assert wire.decode(payload) is None
