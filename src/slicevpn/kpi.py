"""Service-creation KPI measurement and tunnel benchmarks.

KPIs come off the instance record: the on-boarding delay (OPD) is the
infrastructure deployment span in the event log, and the deployment delay
(DPD) is the initial-configuration span plus the first add-peer round, the
point at which the service is actually able to carry traffic. Both are exact
simulated-clock quantities.

Benchmarks drive real traffic through the live tunnel: every byte counted
was sealed by one gateway table and authenticated by the other — there is no
plaintext shortcut. One single-threaded harness serves both backends; they
differ only in the clock it reads (``TunnelPair.now``). Over the in-memory
backend results are simulated and deterministic: an echo takes twice the
one-way latency, and goodput is exactly one window of ``_WINDOW`` packets per
data-plus-ack round trip, ``_WINDOW * payload * 8 / (2 * latency)`` bit/s.
Over the UDP backend they are honest wall-clock measurements of this host,
and absolute numbers carry no contract.
"""

from __future__ import annotations

import statistics
import struct
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from slicevpn.cryptokey import (
    CryptokeyError,
    CryptokeyRoutingTable,
    EncryptedEnvelope,
    PlainPacket,
)
from slicevpn.errors import SliceVpnError
from slicevpn.lifecycle import NetworkServiceInstance, Orchestrator
from slicevpn.transport import Handle, InMemoryBackend
from slicevpn.vimsim import format_seconds

_ECHO = struct.Struct(">Q8x")  # sequence number, zero-padded to a 16-byte probe


class KpiError(SliceVpnError):
    """Measurement preconditions not met (no events, tunnel not established)."""


@dataclass(frozen=True)
class KpiRecord:
    opd_s: Fraction
    dpd_s: Fraction
    per_action: dict[str, Fraction] = field(default_factory=dict)

    @property
    def total_s(self) -> Fraction:
        return self.opd_s + self.dpd_s


@dataclass(frozen=True)
class BenchResult:
    kind: str  # "throughput" | "latency"
    bytes_transferred: int
    duration_s: float
    latency_count: int = 0
    latency_mean_ms: float = 0.0
    latency_min_ms: float = 0.0
    latency_max_ms: float = 0.0
    latency_stddev_ms: float = 0.0
    timeouts: int = 0
    latency_p50_ms: float = 0.0
    latency_p90_ms: float = 0.0
    latency_p99_ms: float = 0.0

    @property
    def throughput_bps(self) -> float:
        if not self.duration_s:
            return 0.0
        return 8 * self.bytes_transferred / self.duration_s

    @classmethod
    def from_latency_samples(cls, samples_ms: list[float], timeouts: int,
                             bytes_transferred: int, duration_s: float) -> "BenchResult":
        # percentile q is cuts[q - 1], interpolated linearly between samples
        cuts = (statistics.quantiles(samples_ms, n=100, method="inclusive") if len(samples_ms) > 1
                else (samples_ms or [0.0]) * 99)
        return cls(
            kind="latency",
            bytes_transferred=bytes_transferred,
            duration_s=duration_s,
            latency_count=len(samples_ms),
            latency_mean_ms=statistics.fmean(samples_ms) if samples_ms else 0.0,
            latency_min_ms=min(samples_ms) if samples_ms else 0.0,
            latency_max_ms=max(samples_ms) if samples_ms else 0.0,
            latency_stddev_ms=statistics.stdev(samples_ms) if len(samples_ms) > 1 else 0.0,
            timeouts=timeouts,
            latency_p50_ms=cuts[49],
            latency_p90_ms=cuts[89],
            latency_p99_ms=cuts[98],
        )


# --- KPI measurement ------------------------------------------------------------


def measure_kpis(instance: NetworkServiceInstance) -> KpiRecord:
    """KPIs for one instance.

    OPD is the deploy-start..deploy-complete span. DPD is the span of the
    initial-config-primitive phase plus the first add-peer round (the
    per-member first add-peer durations overlap in parallel accounting, so
    the round contributes their maximum). Spans missing from a partial
    (Failed) log contribute zero.
    """
    if not instance.events:
        raise KpiError(f"instance {instance.id} has no events")
    ro_start = _event_ts(instance, "RO", "deploy-start")
    ro_end = _event_ts(instance, "RO", "deploy-complete")
    opd = (ro_end - ro_start) if ro_start is not None and ro_end is not None else Fraction(0)

    starts = []
    ends = []
    for record in instance.vnf_records:
        for prim in record.executed_primitives[:record.initial_count]:
            starts.append(prim.started_at)
            ends.append(prim.finished_at)
    initial_span = (max(ends) - min(starts)) if starts else Fraction(0)

    add_peer_durations = []
    per_action: dict[str, Fraction] = {}
    for record in instance.vnf_records:
        first = record.first_action("add-peer")
        if first is not None:
            add_peer_durations.append(first.duration)
        for prim in record.executed_primitives[record.initial_count:]:
            if prim.name not in per_action:  # a duration is a Fraction subtraction: only the first is kept
                per_action[prim.name] = prim.duration
    dpd = initial_span + (max(add_peer_durations) if add_peer_durations else Fraction(0))
    return KpiRecord(opd_s=opd, dpd_s=dpd, per_action=per_action)


def _event_ts(instance: NetworkServiceInstance, source: str, message: str) -> Fraction | None:
    for e in instance.events:
        if e.source == source and e.message == message:
            return e.ts
    return None


# --- tunnel harness -------------------------------------------------------------


@dataclass
class TunnelSide:
    table: CryptokeyRoutingTable
    handle: Handle
    inner_ip: str  # address this side sources echo traffic from


@dataclass
class TunnelPair:
    """The two live gateway datapaths a benchmark drives traffic between."""

    a: TunnelSide
    b: TunnelSide
    backend: object

    @classmethod
    def from_instance(cls, orch: Orchestrator, instance_id: str,
                      member_a: int | None = None, member_b: int | None = None) -> "TunnelPair":
        instance = orch.instances.get(instance_id)
        if instance is None:
            raise KpiError(f"instance not found: {instance_id}")
        spare = (r.member_index for r in instance.vnf_records
                 if r.table is not None and r.member_index not in (member_a, member_b))
        sides = []
        for member in (member_a, member_b):
            if member is None and (member := next(spare, None)) is None:
                raise KpiError(f"instance {instance_id} has fewer than two gateways")
            rec = instance.record(member)
            if rec.table is None:
                raise KpiError(f"member {rec.member_index} is not a gateway")
            if rec.handle is None:
                raise KpiError(f"member {rec.member_index} has no bound transport (start-wg not run?)")
            sides.append(TunnelSide(rec.table, rec.handle, rec.table.tunnel_address))
        return cls(a=sides[0], b=sides[1], backend=orch.backend)

    @property
    def simulated(self) -> bool:
        return isinstance(self.backend, InMemoryBackend)

    def now(self):
        """The benchmark clock: the exact simulated time (a Fraction) on the
        in-memory backend, wall time otherwise. Receives on the in-memory
        backend never block; they advance this clock instead."""
        return self.backend.clock.now if self.simulated else time.perf_counter()


def _deliver(side: TunnelSide, packet: PlainPacket):
    envelope, endpoint = side.table.send(packet)
    side.handle.send(endpoint, envelope.to_bytes())


def _open(side: TunnelSide, timeout_s) -> PlainPacket | None:
    """Receive one datagram on a side and authenticate it: the inner packet,
    or None on a receive timeout (an empty queue in the simulation) or a
    datagram the table rejects."""
    datagram = side.handle.recv(timeout_s)
    if datagram is None:
        return None
    try:
        return side.table.receive(EncryptedEnvelope.from_bytes(datagram.data), datagram.src)
    except CryptokeyError:
        return None


def _echo(pair: TunnelPair, seq: int, t0, timeout_s: float) -> PlainPacket | None:
    """One echo sent at t0, A -> B -> A and reflected inline at B: the reply
    carrying seq, or None if the request or the reply is lost, rejected or
    not back by t0 + timeout_s. Stale replies to earlier requests are skipped."""
    _deliver(pair.a, PlainPacket(pair.a.inner_ip, pair.b.inner_ip, _ECHO.pack(seq)))
    request = _open(pair.b, timeout_s)
    if request is None:
        return None
    _deliver(pair.b, PlainPacket(request.dst_ip, request.src_ip, request.payload))
    while (remaining := timeout_s - (pair.now() - t0)) > 0:
        reply = _open(pair.a, remaining)
        if reply is None:
            return None
        if len(reply.payload) >= _ECHO.size and _ECHO.unpack_from(reply.payload)[0] == seq:
            return reply
    return None


def run_latency(pair: TunnelPair, n_requests: int, timeout_s: float = 2.0) -> BenchResult:
    """Round-trip n echo requests through the tunnel, one at a time."""
    samples_ms: list[float] = []
    timeouts = 0
    bytes_ok = 0
    started = pair.now()
    for seq in range(n_requests):
        t0 = pair.now()
        reply = _echo(pair, seq, t0, timeout_s)
        if reply is None:
            timeouts += 1
            continue
        samples_ms.append(float(pair.now() - t0) * 1000.0)
        bytes_ok += len(reply.payload)
    duration = float(pair.now() - started)
    return BenchResult.from_latency_samples(samples_ms, timeouts, bytes_ok, duration)


def _probe(pair: TunnelPair):
    """One echo round-trip; raises if the tunnel is not established."""
    try:
        result = run_latency(pair, 1, timeout_s=2.0)
    except CryptokeyError as exc:
        raise KpiError(f"tunnel not established: {exc}") from exc
    if result.latency_count != 1:
        raise KpiError("tunnel not established (echo probe got no authenticated reply)")


_WINDOW = 8  # packets per burst; bursts must fit the receive buffer or they drop
_WAIT_S = 0.2  # wall-clock wait for each datagram of a window and for its ack


def run_throughput(pair: TunnelPair, duration_s: float = 10.0,
                   payload_size: int = 8192) -> BenchResult:
    """Stream traffic one way through the tunnel and report the authenticated
    goodput at the receiver.

    A sends a window of _WINDOW packets, B receives them and answers with
    one authenticated ack, and A waits for the ack before the next window,
    so goodput measures the datapath instead of kernel buffer drop patterns.
    A lost ack costs one wait; a window that delivers nothing ends the run.
    """
    _probe(pair)
    if pair.simulated and pair.backend.latency_s <= 0:
        raise KpiError("simulated throughput needs a backend latency > 0 to carry time")
    packet = PlainPacket(pair.a.inner_ip, pair.b.inner_ip, bytes(payload_size))
    ack = PlainPacket(pair.b.inner_ip, pair.a.inner_ip, b"ack")
    # the exact sim clock against the decimal duration: Fraction(0.2) > 1/5
    # would run one window past 0.2 s
    limit = Fraction(str(duration_s)) if pair.simulated else duration_s
    received = 0
    started = pair.now()
    while pair.now() - started < limit:
        for _ in range(_WINDOW):
            _deliver(pair.a, packet)
        window = [_open(pair.b, _WAIT_S) for _ in range(_WINDOW)]
        delivered = sum(len(p.payload) for p in window if p is not None)
        if not delivered:
            break
        received += delivered
        _deliver(pair.b, ack)
        _open(pair.a, _WAIT_S)
    elapsed = float(pair.now() - started)
    return BenchResult(kind="throughput", bytes_transferred=received, duration_s=elapsed)


# --- reporting ------------------------------------------------------------------


class Report(NamedTuple):
    text: str
    fields: dict[str, str]  # the --json record


def _fmt_ms(value: float) -> str:
    return f"{value:.3f}"


def report(record: KpiRecord | BenchResult) -> Report:
    """Human text plus the machine record's string fields, in a stable
    order; equal records give equal reports."""
    if isinstance(record, KpiRecord):
        lines = [
            "service creation KPIs",
            f"  OPD: {format_seconds(record.opd_s)} s",
            f"  DPD: {format_seconds(record.dpd_s)} s",
            f"  total: {format_seconds(record.total_s)} s",
        ]
        fields = {
            "opd_s": format_seconds(record.opd_s),
            "dpd_s": format_seconds(record.dpd_s),
            "total_s": format_seconds(record.total_s),
        }
        for name in sorted(record.per_action):
            lines.append(f"  action {name}: {format_seconds(record.per_action[name])} s")
            fields[f"action.{name}"] = format_seconds(record.per_action[name])
        return Report("\n".join(lines), fields)
    if isinstance(record, BenchResult):
        lines = [
            f"benchmark: {record.kind}",
            f"  samples: {record.latency_count}",
            f"  timeouts: {record.timeouts}",
            f"  bytes: {record.bytes_transferred}",
            f"  duration: {record.duration_s:.3f} s",
            f"  throughput: {record.throughput_bps:.0f} bit/s",
            "  latency mean/min/max/stddev: "
            f"{_fmt_ms(record.latency_mean_ms)}/{_fmt_ms(record.latency_min_ms)}/"
            f"{_fmt_ms(record.latency_max_ms)}/{_fmt_ms(record.latency_stddev_ms)} ms",
            "  latency p50/p90/p99: "
            f"{_fmt_ms(record.latency_p50_ms)}/{_fmt_ms(record.latency_p90_ms)}/"
            f"{_fmt_ms(record.latency_p99_ms)} ms",
        ]
        fields = {
            "kind": record.kind,
            "samples": str(record.latency_count),
            "timeouts": str(record.timeouts),
            "bytes": str(record.bytes_transferred),
            "duration_s": f"{record.duration_s:.6f}",
            "throughput_bps": f"{record.throughput_bps:.3f}",
            "latency_mean_ms": _fmt_ms(record.latency_mean_ms),
            "latency_min_ms": _fmt_ms(record.latency_min_ms),
            "latency_max_ms": _fmt_ms(record.latency_max_ms),
            "latency_stddev_ms": _fmt_ms(record.latency_stddev_ms),
            "latency_p50_ms": _fmt_ms(record.latency_p50_ms),
            "latency_p90_ms": _fmt_ms(record.latency_p90_ms),
            "latency_p99_ms": _fmt_ms(record.latency_p99_ms),
        }
        return Report("\n".join(lines), fields)
    raise KpiError(f"cannot report a {type(record).__name__}")
