"""The per-frame ``Datagram``: value semantics and the shared decode memo."""

from dataclasses import dataclass, field
from typing import Optional

import pytest

from repro.net import Datagram, Endpoint, FrameMemo, LatencyModel, Network


@dataclass(frozen=True)
class _DataclassDatagram:
    """The frozen-dataclass form the slotted class must behave like."""

    payload: bytes
    source: Endpoint
    destination: Endpoint
    memo: Optional[FrameMemo] = field(default=None, compare=False, repr=False)


SRC = Endpoint("192.168.1.1", 5000)
DST = Endpoint("239.255.255.250", 1900)
FRAMES = [
    (b"x", SRC, DST),
    (b"x", SRC, Endpoint("192.168.1.2", 1900)),
    (b"y", SRC, DST),
    (b"x", Endpoint("192.168.1.1", 5001), DST),
    (b"", SRC, DST),
]


@pytest.mark.parametrize("a", FRAMES)
@pytest.mark.parametrize("b", FRAMES)
def test_equality_and_hash_match_the_dataclass(a, b):
    assert (Datagram(*a) == Datagram(*b)) == (_DataclassDatagram(*a) == _DataclassDatagram(*b))
    assert (Datagram(*a) != Datagram(*b)) == (_DataclassDatagram(*a) != _DataclassDatagram(*b))
    assert hash(Datagram(*a)) == hash(_DataclassDatagram(*a))


def test_memo_owner_and_repr():
    memo = FrameMemo()
    tagged = Datagram(b"x", SRC, DST, memo, owner=object())
    plain = Datagram(b"x", SRC, DST)
    assert tagged == plain and hash(tagged) == hash(plain)
    assert len({tagged, plain}) == 1
    assert repr(plain) == repr(_DataclassDatagram(b"x", SRC, DST)).replace(
        "_DataclassDatagram", "Datagram"
    )
    assert plain != (b"x", SRC, DST)
    assert plain.__eq__(_DataclassDatagram(b"x", SRC, DST)) is NotImplemented
    assert len(plain) == 1 and plain.multicast
    assert not hasattr(plain, "__dict__")


def test_ensure_memo_is_created_once():
    frame = Datagram(b"x", SRC, DST)
    assert frame.memo is None
    memo = frame.ensure_memo()
    assert frame.memo is memo and frame.ensure_memo() is memo


def test_every_receiver_of_a_frame_shares_one_memo():
    net = Network(latency=LatencyModel(jitter_us=0))
    sender = net.add_node("sender")
    seen = []
    for i in range(3):
        sock = net.add_node(f"rx{i}").udp.socket().bind(1900, reuse=True)
        sock.join_group(DST.host)
        sock.on_datagram(lambda d: seen.append((d, d.ensure_memo())))
    # Two sockets sharing the unicast port on one host.
    target = net.add_node("target")
    for _ in range(2):
        sock = target.udp.socket().bind(7000, reuse=True)
        sock.on_datagram(lambda d: seen.append((d, d.ensure_memo())))
    out = sender.udp.socket()
    out.sendto(b"multicast", DST)
    out.sendto(b"unicast", Endpoint(target.address, 7000))
    net.run()
    by_payload = {}
    for frame, memo in seen:
        by_payload.setdefault(frame.payload, []).append((frame, memo))
    assert sorted(len(v) for v in by_payload.values()) == [2, 3]
    for receipts in by_payload.values():
        frames = {id(frame) for frame, _ in receipts}
        memos = {id(memo) for _, memo in receipts}
        assert len(frames) == 1 and len(memos) == 1
