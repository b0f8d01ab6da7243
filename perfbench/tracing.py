"""Span tracing of slicevpn's public entry points, from the benchmark side.

Nothing under ``src/`` is edited: `Tracer.install` wraps each entry point at
run time (class methods on their class; module functions under every module
attribute that holds them, since e.g. ``generate_keypair`` is imported by
name into ``store`` and ``lifecycle``) and `Tracer.uninstall` puts the
originals back. Every call is counted. The calls of every set-up step and
CLI command, and of every SAMPLE_EVERY-th packet operation, also become spans
``(name, start_ns, end_ns, parent, request)`` kept in memory; ``request``
names the benchmark operation (one round trip, stream datagram or CLI
command) the span belongs to. Sampling keeps a long traced run to a few
hundred thousand spans. Tracing is single-threaded: install it only while
one thread calls into the program.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from slicevpn import cli, cryptokey, descriptors, kpi
from slicevpn.cryptokey import CryptokeyRoutingTable, EncryptedEnvelope, PlainPacket
from slicevpn.lifecycle import Orchestrator
from slicevpn.store import Store
from slicevpn.transport import Handle
from slicevpn.vimsim import Vim

# span name -> (owner, attribute, unit of the per-call metric)
ENTRY_POINTS = {
    "cryptokey.send": (CryptokeyRoutingTable, "send", "us"),
    "cryptokey.receive": (CryptokeyRoutingTable, "receive", "us"),
    "cryptokey.packet_new": (PlainPacket, "__init__", "us"),
    "cryptokey.envelope_encode": (EncryptedEnvelope, "to_bytes", "us"),
    "cryptokey.envelope_decode": (EncryptedEnvelope, "from_bytes", "us"),
    "cryptokey.lookup_by_ip": (CryptokeyRoutingTable, "lookup_by_ip", "us"),
    "cryptokey.add_peer": (CryptokeyRoutingTable, "add_peer", "us"),
    "cryptokey.del_peer": (CryptokeyRoutingTable, "del_peer", "us"),
    "cryptokey.dh": (cryptokey, "dh", "us"),
    "cryptokey.keygen": (cryptokey, "generate_keypair", "us"),
    "transport.send": (Handle, "send", "us"),
    "transport.recv": (Handle, "recv", "us"),
    "lifecycle.ns_create": (Orchestrator, "ns_create", "ms"),
    "lifecycle.ns_action": (Orchestrator, "ns_action", "ms"),
    "vimsim.boot_vdus": (Vim, "boot_vdus", "us"),
    "vimsim.create_network": (Vim, "create_network", "us"),
    "descriptors.parse": (descriptors, "parse_descriptor", "ms"),
    "descriptors.load_strict_yaml": (descriptors, "load_strict_yaml", "ms"),
    "descriptors.validate": (descriptors, "validate_catalog", "ms"),
    "store.load": (Store, "load", "ms"),
    "store.save": (Store, "save", "ms"),
    "kpi.measure_kpis": (kpi, "measure_kpis", "us"),
    "cli.main": (cli, "main", "ms"),
}

# per-call timings reported as p50 plus a call count
TIMED = ("cryptokey.send", "cryptokey.receive", "cryptokey.packet_new", "cryptokey.envelope_encode",
         "cryptokey.envelope_decode", "cryptokey.lookup_by_ip", "cryptokey.add_peer",
         "cryptokey.del_peer", "transport.send", "transport.recv", "lifecycle.ns_create",
         "lifecycle.ns_action", "vimsim.boot_vdus", "vimsim.create_network", "descriptors.parse",
         "descriptors.validate", "store.load", "store.save", "kpi.measure_kpis")

DROP_CLASSES = ("UnknownPeer", "AuthFailure", "ReplayRejected", "SourceAddressViolation",
                "MalformedEnvelope", "NoPeer", "NoEndpoint")

_SCALE_NS = {"us": 1e3, "ms": 1e6}
SAMPLE_EVERY = 8


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, str] | None] = []
        self.calls: Counter[str] = Counter()
        self.request = "setup"
        self.recording = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def set_request(self, kind: str, number: int):
        self.request = f"{kind}:{number}"
        self.recording = kind not in ("echo", "stream") or number % SAMPLE_EVERY == 0

    def _wrap(self, name: str, fn):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        return traced

    def _patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for name, (owner, attr, _unit) in ENTRY_POINTS.items():
            raw = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(owner, attr, self._wrap(name, raw))
                continue
            wrapped = self._wrap(name, raw)
            for module in list(sys.modules.values()):
                if module is not None and getattr(module, "__dict__", {}).get(attr) is raw:
                    self._patch(module, attr, wrapped)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self, ledger) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans and the pass's ledger."""
        durations: dict[str, list[int]] = defaultdict(list)
        child_ns: dict[int, int] = defaultdict(int)
        cli_yaml = 0
        for span in self.spans:
            name, start, end, parent, request = span
            durations[name].append(end - start)
            if parent >= 0:
                child_ns[parent] += end - start
            if name == "descriptors.load_strict_yaml" and request.startswith("cli:"):
                cli_yaml += 1
        cli_self = [end - start - child_ns[index]
                    for index, (name, start, end, _, _) in enumerate(self.spans) if name == "cli.main"]
        out: dict[str, tuple[float, str]] = {}
        calls = self.calls
        for name in TIMED:
            unit = ENTRY_POINTS[name][2]
            samples = durations[name]
            out[f"{name}_{unit}"] = (statistics.median(samples) / _SCALE_NS[unit] if samples else 0.0, unit)
            out[f"{name}_calls"] = (float(calls[name]), "count")
        # lookups per packet hop: the send-side lookup plus the receive-side source check
        del out["cryptokey.lookup_by_ip_calls"]
        out["cryptokey.lookup_calls"] = (calls["cryptokey.lookup_by_ip"] / max(calls["cryptokey.send"], 1),
                                         "calls/hop")
        out["cryptokey.dh_calls"] = (float(calls["cryptokey.dh"]), "count")
        out["cryptokey.keygen_calls"] = (float(calls["cryptokey.keygen"]), "count")
        for cls in DROP_CLASSES:
            out[f"cryptokey.drops.{cls}"] = (float(ledger.drops[cls]), "count")
        out["transport.recv_timeouts"] = (float(ledger.timeouts), "count")
        cli_calls = calls["cli.main"]
        out["descriptors.yaml_loads"] = (cli_yaml / max(cli_calls, 1), "calls/cmd")
        out["store.state_bytes"] = (statistics.median(ledger.state_bytes) if ledger.state_bytes else 0.0,
                                    "bytes")
        out["cli.self_ms"] = (statistics.median(cli_self) / 1e6 if cli_self else 0.0, "ms")
        out["cli.main_calls"] = (float(cli_calls), "count")
        return out

    def dump(self, path: Path, header: dict):
        """Write every span, gzip-compressed JSON: a header plus one array per column."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = dict(header, span_names=names, columns=["name", "start_ns", "end_ns", "parent", "request"],
                   spans=[[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))
