import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicevpn.cryptokey import EncryptedEnvelope, PlainPacket, generate_keypair, CryptokeyRoutingTable
from slicevpn.transport import (
    Datagram,
    Endpoint,
    InMemoryBackend,
    MAX_DATAGRAM,
    TransportError,
    UdpBackend,
)
from slicevpn.vimsim import SimClock

EP_A = Endpoint("192.168.100.1", 51820)
EP_B = Endpoint("192.168.100.2", 51820)
EP_C = Endpoint("192.168.100.3", 40000)


def _closing(backend):
    """`backend`, with every handle bound on it closed when the test ends."""
    handles = []
    bind = backend.bind

    def bind_and_keep(endpoint, scope=""):
        handles.append(bind(endpoint, scope))
        return handles[-1]

    backend.bind = bind_and_keep
    yield backend
    for handle in handles:
        handle.close()  # a no-op for a handle the test closed itself


@pytest.fixture(params=["mem", "udp"])
def backend(request):
    yield from _closing(InMemoryBackend(SimClock()) if request.param == "mem" else UdpBackend())


@pytest.fixture
def udp():
    yield from _closing(UdpBackend())


def _recv(handle, backend):
    timeout = 2.0 if isinstance(handle.backend, UdpBackend) else None
    return handle.recv(timeout)


class TestContract:
    """Operations the two backends must expose identically."""

    def test_bind_twice_same_endpoint(self, backend):
        backend.bind(EP_A)
        with pytest.raises(TransportError, match="already bound"):
            backend.bind(EP_A)

    def test_send_to_self(self, backend):
        handle = backend.bind(EP_A)
        handle.send(EP_A, b"loop")
        datagram = _recv(handle, backend)
        assert datagram == Datagram(EP_A, EP_A, b"loop")

    def test_zero_byte_payload_delivered(self, backend):
        a = backend.bind(EP_A)
        b = backend.bind(EP_B)
        a.send(EP_B, b"")
        assert _recv(b, backend).data == b""

    def test_oversize_rejected(self, backend):
        a = backend.bind(EP_A)
        with pytest.raises(TransportError, match="exceeds"):
            a.send(EP_B, b"x" * (MAX_DATAGRAM + 1))

    def test_source_is_senders_bound_endpoint(self, backend):
        a = backend.bind(EP_A)
        b = backend.bind(EP_B)
        a.send(EP_B, b"hi")
        assert _recv(b, backend).src == EP_A

    def test_rebind_reports_new_source(self, backend):
        # drives roaming: the receiver sees the sender's current endpoint
        a = backend.bind(EP_A)
        b = backend.bind(EP_B)
        a.send(EP_B, b"from-a")
        assert _recv(b, backend).src == EP_A
        a.close()
        a2 = backend.bind(EP_C)
        a2.send(EP_B, b"from-c")
        assert _recv(b, backend).src == EP_C

    def test_closed_handle(self, backend):
        a = backend.bind(EP_A)
        a.close()
        with pytest.raises(TransportError, match="closed"):
            a.recv(0.01)
        with pytest.raises(TransportError, match="closed"):
            a.send(EP_B, b"x")

    def test_close_twice_is_a_no_op(self, backend):
        a = backend.bind(EP_A)
        a.close()
        a.close()
        again = backend.bind(EP_A)  # the endpoint is free
        a.close()  # and closing the old handle leaves the new binding alone
        again.send(EP_A, b"still bound")
        assert _recv(again, backend).data == b"still bound"

    def test_unbound_destination_is_silent_drop(self, backend):
        a = backend.bind(EP_A)
        a.send(EP_C, b"ghost")  # nobody bound at EP_C; must not raise

    def test_cryptokey_round_trip_rides_either_backend(self, backend):
        # swap-in property: the encrypted datapath is backend-agnostic
        west = CryptokeyRoutingTable(generate_keypair(b"\x01" * 32), tunnel_address="10.100.0.1")
        east = CryptokeyRoutingTable(generate_keypair(b"\x02" * 32), tunnel_address="10.100.0.2")
        west.add_peer(east.public_key, ["10.100.0.2/32"], EP_B)
        east.add_peer(west.public_key, ["10.100.0.1/32"], EP_A)
        a = backend.bind(EP_A)
        b = backend.bind(EP_B)
        packet = PlainPacket("10.100.0.1", "10.100.0.2", b"through the tunnel")
        envelope, destination = west.send(packet)
        a.send(destination, envelope.to_bytes())
        datagram = _recv(b, backend)
        received = east.receive(EncryptedEnvelope.from_bytes(datagram.data), datagram.src)
        assert received == packet


class TestInMemory:
    def test_empty_queue_returns_none(self):
        backend = InMemoryBackend(SimClock())
        handle = backend.bind(EP_A)
        assert handle.recv() is None

    def test_latency_advances_sim_clock(self):
        clock = SimClock()
        backend = InMemoryBackend(clock, latency_s=Fraction(1, 2000))  # 0.5 ms
        a = backend.bind(EP_A)
        b = backend.bind(EP_B)
        a.send(EP_B, b"x")
        send_ts = clock.now
        b.recv()
        assert clock.now == send_ts + Fraction(1, 2000)

    def test_deterministic_under_seed(self):
        def run():
            backend = InMemoryBackend(SimClock(), loss_rate=0.3, seed=11)
            a = backend.bind(EP_A)
            b = backend.bind(EP_B)
            out = []
            for i in range(30):
                a.send(EP_B, bytes([i]))
            while (d := b.recv()) is not None:
                out.append(d.data)
            return out
        assert run() == run()

    def test_loss_injection_drops_some(self):
        backend = InMemoryBackend(SimClock(), loss_rate=0.5, seed=3)
        a = backend.bind(EP_A)
        b = backend.bind(EP_B)
        for i in range(100):
            a.send(EP_B, bytes([i]))
        received = 0
        while b.recv() is not None:
            received += 1
        assert 0 < received < 100

    def test_scopes_isolate_domains(self):
        backend = InMemoryBackend(SimClock())
        a1 = backend.bind(EP_A, scope="ns-1.tunnel")
        b1 = backend.bind(EP_B, scope="ns-1.tunnel")
        backend.bind(EP_A, scope="ns-2.tunnel")  # same address plan, other domain
        b2 = backend.bind(EP_B, scope="ns-2.tunnel")
        a1.send(EP_B, b"one")
        assert b1.recv().data == b"one"
        assert b2.recv() is None  # never crosses domains

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=20))
    def test_fifo_per_flow(self, payloads):
        backend = InMemoryBackend(SimClock(), latency_s=Fraction(1, 1000))
        a = backend.bind(EP_A)
        b = backend.bind(EP_B)
        for p in payloads:
            a.send(EP_B, p)
        received = []
        while (d := b.recv()) is not None:
            received.append(d.data)
        assert received == payloads

    def test_reorder_injection_exercises_replay_rejection(self):
        # the knob exists to surface the high-watermark policy: a datagram
        # overtaken by a later one arrives with a stale counter
        from slicevpn.cryptokey import ReplayRejected
        backend = InMemoryBackend(SimClock(), latency_s=Fraction(1, 1000),
                                  reorder_rate=0.5, seed=2)
        west = CryptokeyRoutingTable(generate_keypair(b"\x01" * 32), tunnel_address="10.100.0.1")
        east = CryptokeyRoutingTable(generate_keypair(b"\x02" * 32), tunnel_address="10.100.0.2")
        west.add_peer(east.public_key, ["10.100.0.2/32"], EP_B)
        east.add_peer(west.public_key, ["10.100.0.1/32"], EP_A)
        a = backend.bind(EP_A)
        b = backend.bind(EP_B)
        for i in range(40):
            envelope, destination = west.send(PlainPacket("10.100.0.1", "10.100.0.2", bytes([i])))
            a.send(destination, envelope.to_bytes())
        accepted = rejected = 0
        while (d := b.recv()) is not None:
            try:
                east.receive(EncryptedEnvelope.from_bytes(d.data), d.src)
                accepted += 1
            except ReplayRejected:
                rejected += 1
        assert accepted + rejected == 40
        assert rejected > 0  # reordering produced stale counters
        assert accepted > 0


class TestUdp:
    def test_recv_timeout_returns_none(self, udp):
        handle = udp.bind(EP_A)
        assert handle.recv(0.05) is None

    def test_scopes_isolate_domains(self, udp):
        a1 = udp.bind(EP_A, scope="ns-1.tunnel")
        b1 = udp.bind(EP_B, scope="ns-1.tunnel")
        udp.bind(EP_A, scope="ns-2.tunnel")
        b2 = udp.bind(EP_B, scope="ns-2.tunnel")
        a1.send(EP_B, b"one")
        assert b1.recv(2.0).data == b"one"
        assert b2.recv(0.05) is None

    def test_port_validation(self):
        with pytest.raises(TransportError, match="port"):
            Endpoint("10.0.0.1", 0)
        with pytest.raises(TransportError, match="port"):
            Endpoint("10.0.0.1", 70000)

    def test_endpoint_parse(self):
        assert Endpoint.parse("10.0.0.1:51820") == Endpoint("10.0.0.1", 51820)
        with pytest.raises(TransportError):
            Endpoint.parse("10.0.0.1")


def test_importing_transport_loads_neither_the_vim_nor_yaml_nor_cryptography():
    code = ("import sys, slicevpn.transport; "
            "print([m for m in ('slicevpn.vimsim', 'yaml', 'cryptography') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
