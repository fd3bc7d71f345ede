"""Validation and edge-case tests for latency/loss models and traffic."""

import pytest

from repro.net import Endpoint, LatencyModel, LossModel, Network, NotBoundError
from repro.net.tcp import TcpStack
from repro.net.traffic import TrafficMonitor
from repro.net.udp import UdpStack


class TestLatencyModel:
    def test_transmission_time(self):
        model = LatencyModel(bandwidth_bps=10_000_000, jitter_us=0)
        # 12,500 bytes = 100,000 bits -> 10 ms at 10 Mb/s
        assert model.transmission_us(12_500) == 10_000

    def test_infinite_bandwidth(self):
        model = LatencyModel(bandwidth_bps=None)
        assert model.transmission_us(10_000_000) == 0

    def test_zero_size(self):
        assert LatencyModel().transmission_us(0) == 0

    def test_loopback_ignores_size_and_jitter(self):
        model = LatencyModel(jitter_us=1000, loopback_latency_us=15)
        assert model.delay_us(1_000_000, loopback=True) == 15

    def test_delay_is_at_least_one(self):
        model = LatencyModel(lan_latency_us=0, bandwidth_bps=None, jitter_us=0)
        assert model.delay_us(0, loopback=False) == 1

    def test_reseed_reproduces(self):
        model = LatencyModel(jitter_us=500, seed=9)
        first = [model.delay_us(100, False) for _ in range(5)]
        model.reseed(9)
        second = [model.delay_us(100, False) for _ in range(5)]
        assert first == second


class TestLossModel:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            LossModel(rate=1.0)
        with pytest.raises(ValueError):
            LossModel(rate=-0.1)
        LossModel(rate=0.0)

    def test_counters(self):
        model = LossModel(rate=0.5, seed=3)
        for _ in range(100):
            model.should_drop()
        assert model.dropped + model.delivered == 100
        assert model.dropped > 10

    def test_zero_rate_never_drops(self):
        model = LossModel(rate=0.0)
        assert not any(model.should_drop() for _ in range(50))
        assert model.dropped == 0


class TestTrafficMonitor:
    def test_window_larger_than_retention_rejected(self):
        monitor = TrafficMonitor(bandwidth_bps=10_000_000, window_us=1_000)
        with pytest.raises(ValueError):
            monitor.bytes_in_window(0, 2_000)

    def test_zero_window_rejected(self):
        monitor = TrafficMonitor(bandwidth_bps=10_000_000)
        with pytest.raises(ValueError):
            monitor.utilization(0, window_us=0)

    def test_no_bandwidth_means_zero_utilization(self):
        monitor = TrafficMonitor(bandwidth_bps=None)
        monitor.record(0, 80, 100, "udp", False)
        assert monitor.utilization(0) == 0.0

    def test_old_samples_evicted(self):
        monitor = TrafficMonitor(bandwidth_bps=10_000_000, window_us=1_000)
        monitor.record(0, 80, 100, "udp", False)
        monitor.record(10_000, 80, 100, "udp", False)
        # After eviction only the recent sample remains in the window.
        assert monitor.bytes_in_window(10_000, 1_000) == 100
        # Cumulative counters keep everything.
        assert monitor.port(80).bytes == 200

    def test_ports_seen(self):
        monitor = TrafficMonitor(bandwidth_bps=10_000_000)
        monitor.record(0, 427, 10, "udp", True)
        monitor.record(0, 1900, 10, "udp", True)
        assert monitor.ports_seen() == [427, 1900]


class TestEphemeralPorts:
    def test_udp_ephemeral_skips_bound(self):
        net = Network(latency=LatencyModel(jitter_us=0))
        node = net.add_node("n")
        node.udp.socket().bind(49152)  # squat on the first ephemeral port
        sock = node.udp.socket()
        sock.sendto(b"x", Endpoint("192.168.1.99", 9))
        assert sock.port == 49153

    def test_tcp_ephemeral_monotonic(self):
        net = Network(latency=LatencyModel(jitter_us=0))
        node = net.add_node("n")
        first = node.tcp.ephemeral_port()
        second = node.tcp.ephemeral_port()
        assert second == first + 1

    def test_udp_ephemeral_wraps_past_closed_sockets(self):
        """Throwaway sockets closed after one send give their ports back:
        a node can send from more of them than the range holds."""
        net = Network(latency=LatencyModel(jitter_us=0))
        node = net.add_node("n")
        held = node.udp.socket().bind(UdpStack.EPHEMERAL_BASE + 1)
        span = 65536 - UdpStack.EPHEMERAL_BASE
        ports = []
        for _ in range(span + 2):
            sock = node.udp.socket()
            sock.sendto(b"x", Endpoint("192.168.1.99", 9))
            ports.append(sock.port)
            sock.close()
        assert held.port not in ports
        assert sorted(ports[: span - 1]) == [
            p for p in range(UdpStack.EPHEMERAL_BASE, 65536) if p != held.port
        ]
        # Wrapped: back to the base, skipping the still-bound port.
        assert ports[span - 1 :] == [
            UdpStack.EPHEMERAL_BASE,
            UdpStack.EPHEMERAL_BASE + 2,
            UdpStack.EPHEMERAL_BASE + 3,
        ]
        assert node.udp.bound_ports() == [held.port]

    def test_udp_ephemeral_exhaustion_raises(self):
        net = Network(latency=LatencyModel(jitter_us=0))
        node = net.add_node("n")
        for port in range(UdpStack.EPHEMERAL_BASE, 65536):
            node.udp.socket().bind(port)
        with pytest.raises(NotBoundError):
            node.udp.ephemeral_port()

    def test_tcp_ephemeral_wraps_and_skips_held_ports(self):
        net = Network(latency=LatencyModel(jitter_us=0))
        client, server = net.add_node("c"), net.add_node("s")
        server.tcp.listen(80, lambda conn: None)
        conns = []
        client.tcp.connect(Endpoint(server.address, 80), conns.append)
        net.run()
        connected = conns[0].local.port
        assert connected == TcpStack.EPHEMERAL_BASE
        listening = client.tcp.ephemeral_port()
        client.tcp.listen(listening, lambda conn: None)
        span = 65536 - TcpStack.EPHEMERAL_BASE
        lap = [client.tcp.ephemeral_port() for _ in range(span - 2)]
        assert sorted(lap) == list(range(listening + 1, 65536))
        # Wrapped: the open connection's and the listener's ports are
        # skipped until they are released.
        assert client.tcp.ephemeral_port() == listening + 1
        conns[0].close()
        again = [client.tcp.ephemeral_port() for _ in range(span - 2)]
        assert again[-1] == connected and listening not in again
