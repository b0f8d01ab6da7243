"""Seeded workloads for the slicevpn benchmark.

Every workload builds a fixture (the set-up), then drives it from one thread
through three phases, interleaved in one-second rounds, each phase taking a
fixed share of every round:

* closed-loop 64-byte echoes A -> B -> A (``rtt_*``);
* a one-way windowed stream at 1400 and 8192 bytes with one authenticated
  ack per 8-packet window, as in ``kpi.run_throughput`` (``goodput_*``);
* a seeded mix of in-process ``slicevpn.cli.main`` calls against the
  fixture's store (``cli_*``).

The fixtures differ in size, so that each optimisation has a workload that
exercises it and one that does not:

* ``tunnel-udp``: the sample wg-vpn service on ``UdpBackend`` (2-peer tables,
  host loopback sockets) and a one-instance store;
* ``control-plane``: a store of 100 peered wg-vpn instances on
  ``InMemoryBackend``. The west gateway of ns-1 is a hub with 1024 spokes
  (2048 prefixes) that carries the packets, with route churn every 64th
  round trip, and every CLI call rebuilds it.

The program sees only the generated inputs; the harness checks every output.
"""

from __future__ import annotations

import gc
import io
import json
import random
import shutil
import statistics
import time
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from slicevpn import cli
from slicevpn.cryptokey import (
    CryptokeyError,
    CryptokeyRoutingTable,
    EncryptedEnvelope,
    PlainPacket,
    generate_keypair,
)
from slicevpn.descriptors import parse_descriptor
from slicevpn.kpi import TunnelPair, TunnelSide
from slicevpn.lifecycle import ADMIN, Orchestrator
from slicevpn.store import STATE_FILE, Store
from slicevpn.transport import Endpoint, UdpBackend

SAMPLE_FILES = ("vnfd-wireguard-gateway.yaml", "vnfd-test-host.yaml", "nsd-wireguard-vpn.yaml",
                "nsd-consumer.yaml", "nst-vpn-slice.yaml")
WEST_ALLOWED = "10.100.0.1/32,10.0.1.0/24"  # what the east gateway routes to the west one
EAST_ALLOWED = "10.100.0.2/32,10.0.2.0/24"
KPI_LINES = ("  OPD: 159 s", "  DPD: 107 s", "  total: 266 s")

ECHO_SIZE = 64
STREAM_SIZES = (1400, 8192)
WINDOW = 8  # data packets per authenticated ack, as in kpi.run_throughput
CHUNK_WINDOWS = 16  # goodput is the median over chunks of this many windows
CHURN_EVERY = 64
HUB_SPOKES = 1024
CP_INSTANCES = 100
CLI_ROUND = 4  # new instances per CLI round; the store is reset between rounds
SETUP_REPEATS = 3
PAYLOAD_POOL = 256
ROUND_S = 1.0
MIN_ROUND_ECHOES = 100  # a round's echoes enter rtt_p99_us only if there are this many

# share of the run each phase gets: echo, stream 1400, stream 8192, CLI
SHARES = {
    "tunnel-udp": (0.4, 0.2, 0.2, 0.2),
    "control-plane": (0.1, 0.05, 0.05, 0.8),
}


class Ledger:
    """Operations attempted and failed in one pass, receive drops by exception
    class, and correctness-gate violations."""

    def __init__(self, on_request: Callable[[str, int], None] | None = None):
        self.attempted = 0
        self.failed = 0
        self.timeouts = 0
        self.drops: Counter[str] = Counter()
        self.violations: list[str] = []
        self.state_bytes: list[int] = []
        self._on_request = on_request

    def begin(self, kind: str):
        self.attempted += 1
        if self._on_request is not None:
            self._on_request(kind, self.attempted)

    def violate(self, message: str):
        if len(self.violations) < 20:
            self.violations.append(message)
        else:
            self.violations[-1] = f"... and more, last: {message}"


# --- packet path ------------------------------------------------------------------


def push(side: TunnelSide, packet: PlainPacket):
    envelope, endpoint = side.table.send(packet)
    side.handle.send(endpoint, envelope.to_bytes())


def pull(side: TunnelSide, ledger: Ledger, timeout_s: float) -> PlainPacket | None:
    """One datagram, authenticated; None on a receive timeout. A rejected
    datagram raises its CryptokeyError."""
    datagram = side.handle.recv(timeout_s)
    if datagram is None:
        ledger.timeouts += 1
        return None
    return side.table.receive(EncryptedEnvelope.from_bytes(datagram.data), datagram.src)


def _drop(ledger: Ledger, exc: CryptokeyError):
    ledger.drops[type(exc).__name__] += 1
    ledger.failed += 1


def round_trip(a: TunnelSide, b: TunnelSide, dst_ip: str, payload: bytes,
               ledger: Ledger, timeout_s: float) -> bool:
    """Echo payload a -> b -> a. True only if the reply is byte-equal and comes
    from the inner address it was sent to."""
    ledger.begin("echo")
    try:
        push(a, PlainPacket(a.inner_ip, dst_ip, payload))
        request = pull(b, ledger, timeout_s)
        reply = None
        if request is not None:
            push(b, PlainPacket(request.dst_ip, request.src_ip, request.payload))
            reply = pull(a, ledger, timeout_s)
    except CryptokeyError as exc:
        _drop(ledger, exc)
        return False
    if reply is None:
        ledger.failed += 1
        return False
    if reply.payload != payload or reply.src_ip != dst_ip:
        ledger.violate(f"echo to {dst_ip} came back altered or from {reply.src_ip}")
        ledger.failed += 1
        return False
    return True


def _accept(side: TunnelSide, expected: bytes, ledger: Ledger, timeout_s: float) -> int:
    """Receive one stream datagram; returns the payload bytes `receive` returned."""
    ledger.begin("stream")
    try:
        packet = pull(side, ledger, timeout_s)
    except CryptokeyError as exc:
        _drop(ledger, exc)
        return 0
    if packet is None:
        ledger.failed += 1
        return 0
    if packet.payload != expected:
        ledger.violate(f"stream datagram to {packet.dst_ip} altered")
        ledger.failed += 1
        return 0
    return len(packet.payload)


# --- control plane ----------------------------------------------------------------


@dataclass
class CliStep:
    kind: str  # "write" | "read"
    argv: list[str]
    expect: tuple[str, ...]  # substrings the output must contain
    peered: str | None = None  # instance id that is fully peered after this step


class CliMix:
    """A seeded operator session against one store.

    Per new instance: ns-create, get-public-key on both gateways and add-peer
    both ways; per round, one del-peer + add-peer re-peering of an existing
    instance. Every write is followed by a read of a random fully peered
    instance, kpi and ns-show in turn. After CLI_ROUND new instances the
    store is reset to its set-up snapshot outside the timed calls, so the
    store stays within CLI_ROUND instances of its set-up size all run.
    """

    def __init__(self, store_dir: Path, work_dir: Path, rng: random.Random,
                 peers: dict[str, tuple[str, str]], endpoints: tuple[str, str]):
        self.store_dir = store_dir
        self.state_path = store_dir / STATE_FILE
        self.snapshot = self.state_path.read_bytes()
        state = json.loads(self.snapshot)
        self.secrets = {
            record["table"]["private-key-hex"]
            for instance in state["instances"] for record in instance["vnf-records"]
            if record["table"] is not None
        }
        self.initial_peered = sorted(peers)
        west_ep, east_ep = endpoints
        steps: list[CliStep] = []
        for slot in range(CLI_ROUND):
            ns = f"ns-{state['next-ns'] + slot}"
            west, east = generate_keypair(rng.randbytes(32)), generate_keypair(rng.randbytes(32))
            self.secrets.update((west.private.hex(), east.private.hex()))
            config = work_dir / f"config-{slot}.yaml"
            config.write_text(f'member.1.key-seed: "{west.private.hex()}"\n'
                              f'member.2.key-seed: "{east.private.hex()}"\n', encoding="utf-8")
            steps += [
                CliStep("write", ["ns-create", "wg-vpn", "--config", str(config)],
                        (f"created {ns} (state Running)",)),
                CliStep("write", ["ns-action", ns, "1", "get-public-key"], (west.public_b64,)),
                CliStep("write", ["ns-action", ns, "2", "get-public-key"], (east.public_b64,)),
                CliStep("write", _add_peer(ns, 1, east.public_b64, EAST_ALLOWED, east_ep), ("ok ",)),
                CliStep("write", _add_peer(ns, 2, west.public_b64, WEST_ALLOWED, west_ep), ("ok ",),
                        peered=ns),
            ]
        target = rng.choice(self.initial_peered)
        east_key = peers[target][1]
        steps += [
            CliStep("write", ["ns-action", target, "1", "del-peer", "--param", f"public-key={east_key}"],
                    ("ok ",)),
            CliStep("write", _add_peer(target, 1, east_key, EAST_ALLOWED, east_ep), ("ok ",)),
        ]
        self.round = steps
        self.rng = rng
        self._next = 0
        self._peered = list(self.initial_peered)

    def _read_step(self, count: int) -> CliStep:
        ns = self.rng.choice(self._peered)
        if count % 2 == 0:
            return CliStep("read", ["kpi", ns], KPI_LINES)
        return CliStep("read", ["ns-show", ns], (f"instance {ns} nsd=wg-vpn state=Running",))

    def call(self, step: CliStep, ledger: Ledger) -> float:
        """Run one CLI command in-process; returns its wall time in ms."""
        ledger.begin("cli")
        out, err = io.StringIO(), io.StringIO()
        argv = ["--store", str(self.store_dir), *step.argv]
        with redirect_stdout(out), redirect_stderr(err):
            started = time.perf_counter()
            try:
                status = cli.main(argv)
            except SystemExit as exc:  # argparse usage error
                status = exc.code
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.check(step, status, out.getvalue() + err.getvalue(), ledger)
        if step.kind == "write":
            ledger.state_bytes.append(self.state_path.stat().st_size)
        return elapsed_ms

    def check(self, step: CliStep, status, output: str, ledger: Ledger):
        if status != 0:
            ledger.failed += 1
            return
        missing = [text for text in step.expect if text not in output]
        if missing:
            ledger.violate(f"`{' '.join(step.argv[:3])}` output lacks {missing[0]!r}")
        if any(secret in output for secret in self.secrets):
            ledger.violate(f"`{' '.join(step.argv[:3])}` output contains a private key")

    def run(self, deadline: float, ledger: Ledger, writes: list[float], reads: list[float]):
        """Run write+read pairs, resuming the session where it stopped, until
        `deadline`; at least one pair."""
        while True:
            if self._next == 0:
                self.state_path.write_bytes(self.snapshot)
                self._peered = list(self.initial_peered)
            step = self.round[self._next]
            self._next = (self._next + 1) % len(self.round)
            writes.append(self.call(step, ledger))
            if step.peered:
                self._peered.append(step.peered)
            reads.append(self.call(self._read_step(len(reads)), ledger))
            if time.perf_counter() >= deadline:
                return


def _add_peer(ns: str, member: int, key: str, allowed: str, endpoint: str) -> list[str]:
    return ["ns-action", ns, str(member), "add-peer", "--param", f"public-key={key}",
            "--param", f"allowed-ips={allowed}", "--param", f"endpoint={endpoint}"]


# --- fixtures ---------------------------------------------------------------------

Route = tuple[TunnelSide, TunnelSide, str]  # sender, reflector, inner destination


@dataclass
class Fixture:
    orch: Orchestrator
    pick: Callable[[random.Random], Route]
    store_dir: Path
    cli: CliMix
    timeout_s: float
    churn: Callable[[random.Random], None] | None = None
    instances: list[str] = field(default_factory=list)

    def close(self):
        for ns in self.instances:
            self.orch.ns_delete(ADMIN, ns)  # closes the gateways' sockets


def _orchestrator(root: Path, backend=None) -> Orchestrator:
    orch = Orchestrator(backend=backend)
    for name in SAMPLE_FILES:
        orch.onboard_package(parse_descriptor((root / "samples" / name).read_text(encoding="utf-8")))
    return orch


def _peered_vpn(orch: Orchestrator, rng: random.Random) -> tuple[str, tuple[str, str]]:
    """One wg-vpn instance with seeded keys, peered both ways by Day-2 add-peer."""
    seeds = rng.randbytes(32).hex(), rng.randbytes(32).hex()
    ns = orch.ns_create(ADMIN, "wg-vpn", {"member.1.key-seed": seeds[0], "member.2.key-seed": seeds[1]})
    west = orch.ns_action(ADMIN, ns, 1, "get-public-key").output["public-key"]
    east = orch.ns_action(ADMIN, ns, 2, "get-public-key").output["public-key"]
    instance = orch.instances[ns]
    west_ep, east_ep = (str(instance.record(m).table.listen_endpoint) for m in (1, 2))
    for member, key, allowed, endpoint in ((1, east, EAST_ALLOWED, east_ep),
                                           (2, west, WEST_ALLOWED, west_ep)):
        result = orch.ns_action(ADMIN, ns, member, "add-peer",
                                {"public-key": key, "allowed-ips": allowed, "endpoint": endpoint})
        if result.status != "ok":
            raise RuntimeError(f"set-up add-peer failed on {ns}: {result.message}")
    return ns, (west, east)


def _warm(routes: list[Route], payload: bytes, ledger: Ledger, timeout_s: float):
    for a, b, dst in routes:
        if not round_trip(a, b, dst, payload, ledger, timeout_s):
            raise RuntimeError(f"set-up warm-up round trip to {dst} failed")


def _finish(orch: Orchestrator, work: Path, rng: random.Random, peers: dict, pick, timeout_s: float,
            instances: list[str], churn=None) -> Fixture:
    store_dir = work / "store"
    Store(store_dir).save(orch)
    record = orch.instances["ns-1"]
    endpoints = tuple(str(record.record(m).table.listen_endpoint) for m in (1, 2))
    mix = CliMix(store_dir, work, rng, peers, endpoints)
    return Fixture(orch, pick, store_dir, mix, timeout_s, churn, instances)


def setup_tunnel_udp(root: Path, work: Path, rng: random.Random, ledger: Ledger) -> Fixture:
    orch = _orchestrator(root, UdpBackend())
    ns, keys = _peered_vpn(orch, rng)
    pair = TunnelPair.from_instance(orch, ns)
    route = (pair.a, pair.b, pair.b.inner_ip)
    try:
        _warm([route] * 200, bytes(ECHO_SIZE), ledger, 1.0)
        return _finish(orch, work, rng, {ns: keys}, lambda _rng: route, 1.0, [ns])
    except BaseException:
        orch.ns_delete(ADMIN, ns)
        raise


def _site(index: int) -> str:
    return f"10.{128 + (index >> 8)}.{index & 255}"


def setup_control_plane(root: Path, work: Path, rng: random.Random, ledger: Ledger) -> Fixture:
    """100 peered instances; ns-1's west gateway is a hub for HUB_SPOKES spokes."""
    orch = _orchestrator(root)
    peers = dict(_peered_vpn(orch, rng) for _ in range(CP_INSTANCES))
    pair = TunnelPair.from_instance(orch, "ns-1")
    hub = pair.a
    scope = orch.instances["ns-1"].record(1).transport_scope
    spokes = [(pair.b, "10.0.2")]  # the instance's own east gateway is spoke 0
    for index in range(1, HUB_SPOKES):
        keypair = generate_keypair(rng.randbytes(32))
        endpoint = Endpoint(f"172.16.{index >> 8}.{index & 255}", 51820)
        tunnel_ip = f"10.101.{index >> 8}.{index & 255}"
        table = CryptokeyRoutingTable(keypair, listen_endpoint=endpoint, tunnel_address=tunnel_ip)
        table.add_peer(hub.table.public_key, WEST_ALLOWED.split(","), hub.table.listen_endpoint)
        handle = orch.backend.bind(endpoint, scope)
        result = orch.ns_action(ADMIN, "ns-1", 1, "add-peer", {
            "public-key": keypair.public_b64,
            "allowed-ips": f"{tunnel_ip}/32,{_site(index)}.0/24",
            "endpoint": str(endpoint)})
        if result.status != "ok":
            raise RuntimeError(f"set-up add-peer of spoke {index} failed: {result.message}")
        spokes.append((TunnelSide(table, handle, tunnel_ip), _site(index)))

    def pick(rng: random.Random) -> Route:
        spoke, site = spokes[rng.randrange(len(spokes))]
        return hub, spoke, f"{site}.{rng.randrange(1, 255)}"

    def churn(rng: random.Random):
        spoke, _ = spokes[rng.randrange(len(spokes))]
        key = spoke.table.public_key
        entry = hub.table.peers[key]
        allowed, endpoint = list(entry.allowed_ips), entry.endpoint
        hub.table.del_peer(key)
        hub.table.add_peer(key, allowed, endpoint)

    _warm([(hub, spoke, f"{site}.1") for spoke, site in spokes], bytes(ECHO_SIZE), ledger, 0.0)
    return _finish(orch, work, rng, peers, pick, 0.0, [], churn)


SETUPS = {
    "tunnel-udp": setup_tunnel_udp,
    "control-plane": setup_control_plane,
}


# --- measurement ------------------------------------------------------------------


def percentile(samples: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99), by linear interpolation between samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Driver:
    """Runs the three phases against a fixture in interleaved rounds of
    ROUND_S seconds, each phase taking its workload share of every round, so
    that each metric samples the whole run rather than one stretch of it."""

    def __init__(self, fx: Fixture, workload: str, rng: random.Random, ledger: Ledger):
        self.fx = fx
        self.shares = SHARES[workload]
        self.rng = rng
        self.ledger = ledger
        self.payloads = [rng.randbytes(ECHO_SIZE) for _ in range(PAYLOAD_POOL)]
        self.streams = {size: rng.randbytes(size) for size in STREAM_SIZES}
        self.echoes = 0
        self.rtt_us = array("d")  # unboxed, so peak RSS does not grow with the sample count
        self.rtt_round_p99: list[float] = []
        self.goodput: dict[int, list[float]] = {size: [] for size in STREAM_SIZES}
        self.cli_write_ms: list[float] = []
        self.cli_read_ms: list[float] = []

    def echo(self, deadline: float):
        fx, rng, ledger = self.fx, self.rng, self.ledger
        while time.perf_counter() < deadline:
            self.echoes += 1
            if fx.churn is not None and self.echoes % CHURN_EVERY == 0:
                ledger.begin("churn")
                try:
                    fx.churn(rng)
                except CryptokeyError as exc:
                    _drop(ledger, exc)
            a, b, dst = fx.pick(rng)
            payload = self.payloads[self.echoes % PAYLOAD_POOL]
            started = time.perf_counter_ns()
            ok = round_trip(a, b, dst, payload, ledger, fx.timeout_s)
            elapsed = time.perf_counter_ns() - started
            if ok:
                self.rtt_us.append(elapsed / 1000.0)

    def stream(self, size: int, deadline: float):
        """Goodput in Mbit/s of each chunk of CHUNK_WINDOWS windows: payload
        bytes returned by `receive` over the chunk's wall time."""
        fx, rng, ledger = self.fx, self.rng, self.ledger
        payload = self.streams[size]
        while time.perf_counter() < deadline:
            received = 0
            started = time.perf_counter()
            for _ in range(CHUNK_WINDOWS):
                a, b, dst = fx.pick(rng)
                packet = PlainPacket(a.inner_ip, dst, payload)
                try:
                    for _ in range(WINDOW):
                        push(a, packet)
                    for _ in range(WINDOW):
                        received += _accept(b, payload, ledger, fx.timeout_s)
                    push(b, PlainPacket(b.inner_ip, a.inner_ip, b"ack"))
                    _accept(a, b"ack", ledger, fx.timeout_s)
                except CryptokeyError as exc:  # send side: NoPeer, NoEndpoint
                    ledger.begin("stream")
                    _drop(ledger, exc)
            self.goodput[size].append(received * 8 / (time.perf_counter() - started) / 1e6)

    def round(self, span: float):
        """One round of `span` seconds: every phase for its share of it."""
        echo_share, s1400_share, s8192_share, cli_share = self.shares
        mark = time.perf_counter() + echo_share * span
        first = len(self.rtt_us)
        self.echo(mark)
        if len(self.rtt_us) - first >= MIN_ROUND_ECHOES:
            self.rtt_round_p99.append(percentile(self.rtt_us[first:], 99))
        mark += s1400_share * span
        self.stream(STREAM_SIZES[0], mark)
        mark += s8192_share * span
        self.stream(STREAM_SIZES[1], mark)
        self.fx.cli.run(mark + cli_share * span, self.ledger, self.cli_write_ms, self.cli_read_ms)

    def run(self, seconds: float):
        end = time.perf_counter() + seconds
        gc.collect()
        while (now := time.perf_counter()) < end:
            self.round(min(ROUND_S, end - now))

    def metrics(self) -> dict[str, float]:
        """The end-to-end metrics other than set-up time and memory."""
        samples = self.sample_counts()
        empty = [name for name, count in samples.items() if not count]
        if empty:
            raise RuntimeError(f"no successful {empty[0]} sample in the run; give it more --seconds")
        return {
            "rtt_p50_us": statistics.median(self.rtt_us),
            # the median round's tail: a burst of host interference in a few
            # rounds moves a pooled p99 from run to run, the median round's not
            "rtt_p99_us": statistics.median(self.rtt_round_p99),
            "goodput_1400_mbps": statistics.median(self.goodput[1400]),
            "goodput_8192_mbps": statistics.median(self.goodput[8192]),
            "cli_write_p50_ms": statistics.median(self.cli_write_ms),
            "cli_write_p90_ms": percentile(self.cli_write_ms, 90),
            "cli_read_p50_ms": statistics.median(self.cli_read_ms),
            "cli_read_p90_ms": percentile(self.cli_read_ms, 90),
        }

    def sample_counts(self) -> dict[str, int]:
        return {"rtt": len(self.rtt_us), "rtt_p99_rounds": len(self.rtt_round_p99),
                "goodput_1400_chunks": len(self.goodput[1400]),
                "goodput_8192_chunks": len(self.goodput[8192]),
                "cli_write": len(self.cli_write_ms), "cli_read": len(self.cli_read_ms)}


def build(workload: str, root: Path, work: Path, seed: int, ledger: Ledger,
          repeats: int | None = None) -> tuple[Fixture, float]:
    """Set the workload up `repeats` (default SETUP_REPEATS) times from the
    same seed; keeps the last fixture and returns it with the median set-up
    time in seconds."""
    times = []
    fixture = None
    for attempt in range(repeats or SETUP_REPEATS):
        if fixture is not None:
            fixture.close()
            shutil.rmtree(fixture.store_dir.parent)
        attempt_dir = work / f"setup-{attempt}"
        attempt_dir.mkdir(parents=True)
        gc.collect()
        started = time.perf_counter()
        fixture = SETUPS[workload](root, attempt_dir, random.Random(f"{workload}:{seed}"), ledger)
        times.append(time.perf_counter() - started)
    return fixture, statistics.median(times)
