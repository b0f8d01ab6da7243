"""Datagram delivery between gateway endpoints.

Two backends with one contract: a deterministic in-memory backend driven by
the simulated clock (single-stepped, FIFO per flow, optional loss/reorder
injection) and a UDP backend that moves the same bytes over real loopback
sockets. Virtual endpoints map onto 127.0.0.0/8 sockets in the UDP backend,
so the outer source seen on receive is always the sender's bound endpoint.

Like a WireGuard interface, each bound ``Handle`` owns its receive port:
its delivery heap on the in-memory backend, its socket on the UDP backend.
A backend keeps only the address maps that route a send to a port, never
the handles it gave out, so dropping a handle needs no cycle collector,
and closing one (once or twice) releases its port.
"""

from __future__ import annotations

import heapq
import ipaddress
import random
import socket
from dataclasses import dataclass
from fractions import Fraction

from slicevpn.errors import SliceVpnError

MAX_DATAGRAM = 65_507  # UDP payload over IPv4


class TransportError(SliceVpnError):
    """Bind conflicts and failures, oversize sends, closed handles."""


def parse_decimal(text: str) -> int:
    """`text` as an integer: ASCII digits, with an optional leading ``-``.
    ``int()`` would also take ``_`` separators, surrounding whitespace, a
    ``+`` sign and non-ASCII digits; a refusal reads as ``int()``'s."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def ipv4_int(text) -> int:
    """IPv4 address `text` as an integer, accepting and refusing exactly what
    ``ipaddress.IPv4Address`` does, with its ``ValueError``. A ``str`` that
    ``socket.inet_pton`` takes and ``inet_ntoa`` gives back unchanged is the
    canonical dotted quad, and becomes an integer with no ``ipaddress`` object."""
    if type(text) is str:
        try:
            packed = socket.inet_pton(socket.AF_INET, text)
        except (OSError, ValueError):  # refused, or not a C string (a NUL, a lone surrogate)
            pass
        else:
            if socket.inet_ntoa(packed) == text:
                return int.from_bytes(packed, "big")
    return int(ipaddress.IPv4Address(text))


@dataclass(frozen=True, order=True)
class Endpoint:
    ip: str
    port: int

    def __post_init__(self):
        try:
            ipv4_int(self.ip)
        except ValueError as exc:
            raise TransportError(f"not an IPv4 address: {self.ip!r}") from exc
        if not 0 < self.port < 65536:
            raise TransportError(f"port out of range: {self.port}")

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """``ip:port``; every refusal reads ``expected ip:port, got '<text>'``."""
        host, _, port = text.rpartition(":")
        try:
            return cls(host, parse_decimal(port))
        except (ValueError, TransportError) as exc:
            raise TransportError(f"expected ip:port, got {text!r}") from exc


@dataclass(frozen=True)
class Datagram:
    src: Endpoint
    dst: Endpoint
    data: bytes


class Handle:
    """A bound endpoint and the receive port it owns. Exclusive-access.

    A scope names one transport domain (one tunnel network): endpoints are
    unique per scope and datagrams never cross scopes, the same way two
    isolated L2 networks can reuse the same private address plan.
    """

    def __init__(self, backend, endpoint: Endpoint, scope: str, port):
        self.backend = backend
        self.endpoint = endpoint
        self.scope = scope
        self.port = port  # the in-memory delivery heap, or the UDP socket
        self.closed = False

    def send(self, dst: Endpoint, data: bytes):
        if self.closed:
            raise TransportError("send on closed handle")
        if len(data) > MAX_DATAGRAM:
            raise TransportError(f"datagram of {len(data)} bytes exceeds {MAX_DATAGRAM}")
        self.backend.send_datagram(self, dst, data)

    def recv(self, timeout_s: float | None = None) -> Datagram | None:
        if self.closed:
            raise TransportError("recv on closed handle")
        return self.backend.recv_datagram(self, timeout_s)

    def close(self):
        if not self.closed:
            self.closed = True
            self.backend.unbind(self)


class InMemoryBackend:
    """Deterministic single-stepped delivery on the simulated clock.

    Datagrams are queued with delivery timestamp = send timestamp + the
    configured one-way latency; receiving a future datagram advances the
    clock (anything with ``now`` and ``advance_to``, such as
    ``vimsim.SimClock``) to its delivery time. Sends to unbound endpoints
    are silently dropped (UDP parity). loss_rate/reorder_rate default off
    and draw from a seeded generator, so injected faults replay identically.
    """

    def __init__(self, clock, latency_s=0, loss_rate: float = 0.0,
                 reorder_rate: float = 0.0, seed: int = 0):
        self.clock = clock
        self.latency_s = Fraction(latency_s)
        self.loss_rate = loss_rate
        self.reorder_rate = reorder_rate
        self._rng = random.Random(seed)
        self._queues: dict[tuple[str, Endpoint], list] = {}  # each bound handle's heap
        self._seq = 0

    def bind(self, endpoint: Endpoint, scope: str = "") -> Handle:
        key = (scope, endpoint)
        if key in self._queues:
            raise TransportError(f"endpoint {endpoint} already bound")
        queue = self._queues[key] = []
        return Handle(self, endpoint, scope, queue)

    def unbind(self, handle: Handle):
        del self._queues[(handle.scope, handle.endpoint)]

    def send_datagram(self, handle: Handle, dst: Endpoint, data: bytes):
        queue = self._queues.get((handle.scope, dst))
        if queue is None:
            return  # silent drop, like UDP to a dead port
        if self.loss_rate and self._rng.random() < self.loss_rate:
            return
        delivery = self.clock.now + self.latency_s
        if self.reorder_rate and self._rng.random() < self.reorder_rate:
            delivery += self.latency_s if self.latency_s else Fraction(1, 1000)
        self._seq += 1
        heapq.heappush(queue, (delivery, self._seq, Datagram(handle.endpoint, dst, data)))

    def recv_datagram(self, handle: Handle, timeout_s: float | None = None) -> Datagram | None:
        queue = handle.port
        if not queue:
            return None
        delivery, _, datagram = heapq.heappop(queue)
        self.clock.advance_to(delivery)
        return datagram


class UdpBackend:
    """Real datagrams over loopback sockets.

    Virtual endpoints (the addresses descriptors and tables speak) map to
    real 127.0.0.1 sockets with kernel-assigned ports; the map translates
    outer addresses both ways, so payload bytes travel the host UDP stack
    bit-exact while the cryptokey layer keeps seeing its own address plan.
    """

    def __init__(self):
        self._virtual_to_real: dict[tuple[str, Endpoint], tuple[str, int]] = {}
        self._real_to_virtual: dict[tuple[str, int], Endpoint] = {}

    def bind(self, endpoint: Endpoint, scope: str = "") -> Handle:
        key = (scope, endpoint)
        if key in self._virtual_to_real:
            raise TransportError(f"endpoint {endpoint} already bound")
        sock = None
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for opt in (socket.SO_RCVBUF, socket.SO_SNDBUF):
                sock.setsockopt(socket.SOL_SOCKET, opt, 1 << 20)  # capped by rmem_max
            sock.bind(("127.0.0.1", 0))
            real = sock.getsockname()
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise TransportError(f"cannot bind {endpoint} on loopback UDP: {exc.strerror or exc}") from exc
        self._virtual_to_real[key] = real
        self._real_to_virtual[real] = endpoint
        return Handle(self, endpoint, scope, sock)

    def unbind(self, handle: Handle):
        real = self._virtual_to_real.pop((handle.scope, handle.endpoint))
        del self._real_to_virtual[real]
        handle.port.close()

    def send_datagram(self, handle: Handle, dst: Endpoint, data: bytes):
        real = self._virtual_to_real.get((handle.scope, dst))
        if real is None:
            return  # unbound destination: silent drop
        handle.port.sendto(data, real)

    def recv_datagram(self, handle: Handle, timeout_s: float | None = None) -> Datagram | None:
        sock = handle.port
        sock.settimeout(timeout_s)
        try:
            data, real_src = sock.recvfrom(65_535)
        except socket.timeout:
            return None
        src = self._real_to_virtual.get(real_src)
        if src is None:
            src = Endpoint(real_src[0], real_src[1])
        return Datagram(src, handle.endpoint, data)
