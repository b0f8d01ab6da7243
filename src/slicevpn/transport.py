"""Datagram delivery between gateway endpoints.

Two backends with one contract: a deterministic in-memory backend driven by
the simulated clock (single-stepped, FIFO per flow, optional loss/reorder
injection) and a UDP backend that moves the same bytes over real loopback
sockets. Virtual endpoints map onto 127.0.0.0/8 sockets in the UDP backend,
so the outer source seen on receive is always the sender's bound endpoint.
"""

from __future__ import annotations

import heapq
import ipaddress
import random
import socket
import threading
from dataclasses import dataclass
from fractions import Fraction

from slicevpn.errors import SliceVpnError
from slicevpn.vimsim import SimClock

MAX_DATAGRAM = 65_507  # UDP payload over IPv4


class TransportError(SliceVpnError):
    """Bind conflicts, oversize sends, closed handles."""


@dataclass(frozen=True, order=True)
class Endpoint:
    ip: str
    port: int

    def __post_init__(self):
        try:
            ipaddress.IPv4Address(self.ip)
        except (ipaddress.AddressValueError, ValueError) as exc:
            raise TransportError(f"not an IPv4 address: {self.ip!r}") from exc
        if not 0 < self.port < 65536:
            raise TransportError(f"port out of range: {self.port}")

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        host, sep, port = text.rpartition(":")
        if not sep:
            raise TransportError(f"expected ip:port, got {text!r}")
        try:
            return cls(host, int(port))
        except ValueError as exc:
            raise TransportError(f"expected ip:port, got {text!r}") from exc


@dataclass(frozen=True)
class Datagram:
    src: Endpoint
    dst: Endpoint
    data: bytes


class Handle:
    """A bound endpoint on some backend. Exclusive-access.

    A scope names one transport domain (one tunnel network): endpoints are
    unique per scope and datagrams never cross scopes, the same way two
    isolated L2 networks can reuse the same private address plan.
    """

    def __init__(self, backend, endpoint: Endpoint, scope: str = ""):
        self.backend = backend
        self.endpoint = endpoint
        self.scope = scope
        self.closed = False

    def send(self, dst: Endpoint, data: bytes):
        self.backend.send_datagram(self, dst, data)

    def recv(self, timeout_s: float | None = None) -> Datagram | None:
        return self.backend.recv_datagram(self, timeout_s)

    def close(self):
        self.backend.unbind(self)


class InMemoryBackend:
    """Deterministic single-stepped delivery on the simulated clock.

    Datagrams are queued with delivery timestamp = send timestamp + the
    configured one-way latency; receiving a future datagram advances the
    clock to its delivery time. Sends to unbound endpoints are silently
    dropped (UDP parity). loss_rate/reorder_rate default off and draw from
    a seeded generator, so injected faults replay identically.
    """

    def __init__(self, clock: SimClock | None = None, latency_s=0,
                 loss_rate: float = 0.0, reorder_rate: float = 0.0, seed: int = 0):
        self.clock = clock or SimClock()
        self.latency_s = Fraction(latency_s)
        self.loss_rate = loss_rate
        self.reorder_rate = reorder_rate
        self._rng = random.Random(seed)
        self._handles: dict[tuple[str, Endpoint], Handle] = {}
        self._queues: dict[tuple[str, Endpoint], list] = {}
        self._seq = 0

    def bind(self, endpoint: Endpoint, scope: str = "") -> Handle:
        key = (scope, endpoint)
        if key in self._handles:
            raise TransportError(f"endpoint {endpoint} already bound")
        handle = Handle(self, endpoint, scope)
        self._handles[key] = handle
        self._queues[key] = []
        return handle

    def unbind(self, handle: Handle):
        handle.closed = True
        key = (handle.scope, handle.endpoint)
        self._handles.pop(key, None)
        self._queues.pop(key, None)

    def send_datagram(self, handle: Handle, dst: Endpoint, data: bytes):
        if handle.closed:
            raise TransportError("send on closed handle")
        if len(data) > MAX_DATAGRAM:
            raise TransportError(f"datagram of {len(data)} bytes exceeds {MAX_DATAGRAM}")
        key = (handle.scope, dst)
        if key not in self._queues:
            return  # silent drop, like UDP to a dead port
        if self.loss_rate and self._rng.random() < self.loss_rate:
            return
        delivery = self.clock.now + self.latency_s
        if self.reorder_rate and self._rng.random() < self.reorder_rate:
            delivery += self.latency_s if self.latency_s else Fraction(1, 1000)
        self._seq += 1
        heapq.heappush(self._queues[key], (delivery, self._seq, Datagram(handle.endpoint, dst, data)))

    def recv_datagram(self, handle: Handle, timeout_s: float | None = None) -> Datagram | None:
        if handle.closed:
            raise TransportError("recv on closed handle")
        queue = self._queues[(handle.scope, handle.endpoint)]
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
        self._lock = threading.Lock()
        self._virtual_to_real: dict[tuple[str, Endpoint], tuple[str, int]] = {}
        self._real_to_virtual: dict[tuple[str, int], Endpoint] = {}
        self._sockets: dict[tuple[str, Endpoint], socket.socket] = {}

    def bind(self, endpoint: Endpoint, scope: str = "") -> Handle:
        key = (scope, endpoint)
        with self._lock:
            if key in self._sockets:
                raise TransportError(f"endpoint {endpoint} already bound")
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for opt in (socket.SO_RCVBUF, socket.SO_SNDBUF):
                sock.setsockopt(socket.SOL_SOCKET, opt, 1 << 20)  # capped by rmem_max
            sock.bind(("127.0.0.1", 0))
            real = sock.getsockname()
            self._sockets[key] = sock
            self._virtual_to_real[key] = real
            self._real_to_virtual[real] = endpoint
        return Handle(self, endpoint, scope)

    def unbind(self, handle: Handle):
        key = (handle.scope, handle.endpoint)
        with self._lock:
            handle.closed = True
            sock = self._sockets.pop(key, None)
            real = self._virtual_to_real.pop(key, None)
            if real is not None:
                self._real_to_virtual.pop(real, None)
        if sock is not None:
            sock.close()

    def send_datagram(self, handle: Handle, dst: Endpoint, data: bytes):
        if handle.closed:
            raise TransportError("send on closed handle")
        if len(data) > MAX_DATAGRAM:
            raise TransportError(f"datagram of {len(data)} bytes exceeds {MAX_DATAGRAM}")
        with self._lock:
            sock = self._sockets.get((handle.scope, handle.endpoint))
            real = self._virtual_to_real.get((handle.scope, dst))
        if sock is None:
            raise TransportError("send on closed handle")
        if real is None:
            return  # unbound destination: silent drop
        sock.sendto(data, real)

    def recv_datagram(self, handle: Handle, timeout_s: float | None = None) -> Datagram | None:
        with self._lock:
            sock = self._sockets.get((handle.scope, handle.endpoint))
        if sock is None:
            raise TransportError("recv on closed handle")
        sock.settimeout(timeout_s)
        try:
            data, real_src = sock.recvfrom(65_535)
        except socket.timeout:
            return None
        except OSError as exc:
            if handle.closed:
                raise TransportError("recv on closed handle") from exc
            raise
        with self._lock:
            src = self._real_to_virtual.get(real_src)
        if src is None:
            src = Endpoint(real_src[0], real_src[1])
        return Datagram(src, handle.endpoint, data)
