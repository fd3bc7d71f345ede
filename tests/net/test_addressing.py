"""Tests for IPv4 addressing helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addressing import (
    AddressAllocator,
    KIND_BROADCAST,
    KIND_LOOPBACK,
    KIND_MULTICAST,
    KIND_UNICAST,
    Endpoint,
    destination_kind,
    is_loopback,
    is_multicast,
    is_valid_ipv4,
    parse_ipv4,
    validate_port,
)
from repro.net.errors import AddressError


class TestParse:
    def test_valid(self):
        assert parse_ipv4("192.168.1.10") == (192, 168, 1, 10)
        assert parse_ipv4("0.0.0.0") == (0, 0, 0, 0)
        assert parse_ipv4("255.255.255.255") == (255, 255, 255, 255)

    @pytest.mark.parametrize(
        "bad",
        ["", "1.2.3", "1.2.3.4.5", "a.b.c.d", "256.1.1.1", "01.2.3.4", "1.2.3.-4", "1..2.3", None, 42],
    )
    def test_invalid(self, bad):
        with pytest.raises(AddressError):
            parse_ipv4(bad)  # type: ignore[arg-type]

    def test_is_valid_predicate(self):
        assert is_valid_ipv4("10.0.0.1")
        assert not is_valid_ipv4("10.0.0")


class TestClassification:
    def test_multicast_range(self):
        assert is_multicast("224.0.0.1")
        assert is_multicast("239.255.255.250")  # UPnP/SSDP
        assert is_multicast("239.255.255.253")  # SLP
        assert not is_multicast("192.168.1.1")
        assert not is_multicast("223.255.255.255")
        assert not is_multicast("240.0.0.1")

    def test_loopback(self):
        assert is_loopback("127.0.0.1")
        assert is_loopback("127.1.2.3")
        assert not is_loopback("128.0.0.1")

    def test_broadcast(self):
        assert destination_kind("255.255.255.255") == KIND_BROADCAST
        assert destination_kind("255.255.255.0") == KIND_UNICAST

    @given(st.tuples(*[st.integers(0, 255)] * 4))
    def test_destination_kind_agrees_with_the_predicates(self, octets):
        address = ".".join(map(str, octets))
        expected = (
            KIND_MULTICAST if is_multicast(address)
            else KIND_BROADCAST if address == "255.255.255.255"
            else KIND_LOOPBACK if is_loopback(address)
            else KIND_UNICAST
        )
        assert destination_kind(address) == expected

    def test_destination_kind_rejects_malformed_addresses(self):
        with pytest.raises(AddressError):
            destination_kind("1.2.3")


class TestPort:
    def test_valid_ports(self):
        assert validate_port(1) == 1
        assert validate_port(427) == 427
        assert validate_port(65535) == 65535

    @pytest.mark.parametrize("bad", [0, -1, 65536, "427", 1.5, True])
    def test_invalid_ports(self, bad):
        with pytest.raises(AddressError):
            validate_port(bad)  # type: ignore[arg-type]


class TestEndpoint:
    def test_parse_round_trip(self):
        ep = Endpoint.parse("239.255.255.250:1900")
        assert ep == Endpoint("239.255.255.250", 1900)
        assert str(ep) == "239.255.255.250:1900"
        assert ep.is_multicast

    @pytest.mark.parametrize("bad", ["1.2.3.4", "host:80", "1.2.3.4:", "1.2.3.4:x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(AddressError):
            Endpoint.parse(bad)

    def test_unicast_endpoint_not_multicast(self):
        assert not Endpoint("192.168.1.4", 427).is_multicast


class TestAllocator:
    def test_sequential(self):
        alloc = AddressAllocator("10.0.0")
        assert alloc.allocate() == "10.0.0.1"
        assert alloc.allocate() == "10.0.0.2"

    def test_exhaustion(self):
        alloc = AddressAllocator()
        for _ in range(254):
            alloc.allocate()
        with pytest.raises(AddressError):
            alloc.allocate()

    def test_bad_prefix(self):
        with pytest.raises(AddressError):
            AddressAllocator("1")
        with pytest.raises(AddressError):
            AddressAllocator("1.2.3.4")
        with pytest.raises(AddressError):
            AddressAllocator("1.999")

    def test_wide_prefix_allocates_a_16(self):
        alloc = AddressAllocator("10.7")
        assert alloc.allocate() == "10.7.0.1"
        assert alloc.capacity == 255 * 254
        for _ in range(253):
            alloc.allocate()
        # 254 hosts exhaust the first /24 slice; the next rolls over.
        assert alloc.allocate() == "10.7.1.1"
        assert alloc.remaining == alloc.capacity - 255
        assert is_valid_ipv4(alloc.allocate())


@given(st.tuples(*(st.integers(0, 255) for _ in range(4))))
def test_parse_accepts_all_canonical_quads(octets):
    text = ".".join(str(o) for o in octets)
    assert parse_ipv4(text) == octets


@given(st.integers(224, 239), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_entire_224_4_block_is_multicast(a, b, c, d):
    assert is_multicast(f"{a}.{b}.{c}.{d}")
