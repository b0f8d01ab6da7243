"""Plain-file persistence for multi-command operator sessions.

A store directory holds the onboarded catalog as descriptor YAML files plus
one ``state.json`` with the VIM, instances, and actors. Simulated timestamps
serialize as exact fraction strings, so a reloaded store continues on the
same clock. Gateway private keys live in this state file (it is the
artifact's disk, like a real gateway's config directory) and are never
echoed into reports, logs, or command output.

Loading decodes the VIM, counters, actors and slices up front, but an
instance only when a command first reads it (``LazyInstances``), so a
command's decode cost follows the instances it touches, not the store's
size. Saving writes ``state.json`` as compact, key-sorted JSON: an untouched
instance's document goes back as it was loaded, and a catalog file is
rewritten only when its descriptor differs from the one that was loaded. A
corrupt instance document fails only the commands that touch it, and
``--backend udp`` binds only the touched instances' gateway sockets.

One CLI invocation at a time per store: an advisory ``flock`` on the
persistent ``.lock`` file makes concurrent invocations fail fast, and the
kernel drops it when its holder exits, even by ``kill -9``.
"""

from __future__ import annotations

import fcntl
import ipaddress
import json
import os
from collections.abc import MutableMapping
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from slicevpn.cryptokey import CryptokeyRoutingTable, PeerEntry, generate_keypair
from slicevpn.descriptors import Descriptor, parse_descriptor, serialize_descriptor
from slicevpn.errors import SliceVpnError
from slicevpn.lifecycle import (
    Actor,
    Event,
    ExecutedPrimitive,
    NetworkServiceInstance,
    Orchestrator,
    SliceInstance,
    VnfRecord,
)
from slicevpn.transport import Endpoint
from slicevpn.vimsim import (
    SimClock,
    TimingProfile,
    VduInstance,
    VduInterface,
    Vim,
    VirtualNetwork,
)

STATE_FILE = "state.json"
CATALOG_DIR = "catalog"
LOCK_FILE = ".lock"


class StoreError(SliceVpnError):
    """Store directory problems (locked, corrupt state)."""


def _frac(value: Fraction) -> str:
    return str(value if isinstance(value, Fraction) else Fraction(value))


def _unfrac(text: str) -> Fraction:
    numerator, _, denominator = text.partition("/")
    return Fraction(int(numerator), int(denominator or 1))


def _endpoint(ep: Endpoint | None) -> str | None:
    return str(ep) if ep is not None else None


def _unendpoint(text: str | None) -> Endpoint | None:
    return Endpoint.parse(text) if text else None


def _profile_to_doc(profile: TimingProfile) -> dict:
    return {
        "base-boot-s": _frac(profile.base_boot_s),
        "package-install-s": {k: _frac(v) for k, v in profile.package_install_s.items()},
        "primitive-exec-s": {k: _frac(v) for k, v in profile.primitive_exec_s.items()},
        "preinstalled-packages": sorted(profile.preinstalled_packages),
    }


def _profile_from_doc(doc: dict) -> TimingProfile:
    return TimingProfile(
        base_boot_s=_unfrac(doc["base-boot-s"]),
        package_install_s={k: _unfrac(v) for k, v in doc["package-install-s"].items()},
        primitive_exec_s={k: _unfrac(v) for k, v in doc["primitive-exec-s"].items()},
        preinstalled_packages=frozenset(doc["preinstalled-packages"]),
    )


def _table_to_doc(table: CryptokeyRoutingTable) -> dict:
    return {
        "interface-name": table.interface_name,
        "private-key-hex": table.local_keypair.private.hex(),
        "listen-endpoint": _endpoint(table.listen_endpoint),
        "tunnel-address": table.tunnel_address,
        "tx-counters": {table_key.hex(): count for table_key, count in table.tx_counters.items()},
        "peers": [
            {
                "public-key-hex": entry.public_key.hex(),
                "allowed-ips": [str(n) for n in entry.allowed_ips],
                "endpoint": _endpoint(entry.endpoint),
                "rx-watermark": entry.rx_counter_high_watermark,
            }
            for entry in table.peers.values()
        ],
    }


def _table_from_doc(doc: dict) -> CryptokeyRoutingTable:
    table = CryptokeyRoutingTable(
        local_keypair=generate_keypair(bytes.fromhex(doc["private-key-hex"])),
        interface_name=doc["interface-name"],
        listen_endpoint=_unendpoint(doc["listen-endpoint"]),
        tunnel_address=doc["tunnel-address"],
    )
    for peer in doc["peers"]:
        key = bytes.fromhex(peer["public-key-hex"])
        if peer["allowed-ips"]:
            table.add_peer(key, peer["allowed-ips"], _unendpoint(peer["endpoint"]))
        else:
            # a peer may own no prefixes after exact-prefix reassignment
            table.peers[key] = PeerEntry(public_key=key, allowed_ips=[],
                                         endpoint=_unendpoint(peer["endpoint"]))
        table.peers[key].rx_counter_high_watermark = peer["rx-watermark"]
    table.tx_counters = {bytes.fromhex(k): v for k, v in doc["tx-counters"].items()}
    return table


def _record_to_doc(record: VnfRecord) -> dict:
    return {
        "member-index": record.member_index,
        "vnfd-id": record.vnfd_id,
        "vdu-ids": list(record.vdu_ids),
        "mgmt-address": record.mgmt_address,
        "transport-scope": record.transport_scope,
        "bound": record.handle is not None and not record.handle.closed,
        "initial-count": record.initial_count,
        "table": _table_to_doc(record.table) if record.table is not None else None,
        "executed-primitives": [
            {
                "name": p.name,
                "params": p.params,
                "started-at": _frac(p.started_at),
                "finished-at": _frac(p.finished_at),
                "result": p.result,
            }
            for p in record.executed_primitives
        ],
    }


def _record_from_doc(doc: dict) -> tuple[VnfRecord, bool]:
    record = VnfRecord(
        member_index=doc["member-index"],
        vnfd_id=doc["vnfd-id"],
        vdu_ids=list(doc["vdu-ids"]),
        mgmt_address=doc["mgmt-address"],
        transport_scope=doc["transport-scope"],
        initial_count=doc["initial-count"],
        table=_table_from_doc(doc["table"]) if doc["table"] is not None else None,
        executed_primitives=[
            ExecutedPrimitive(
                name=p["name"],
                params=dict(p["params"]),
                started_at=_unfrac(p["started-at"]),
                finished_at=_unfrac(p["finished-at"]),
                result=p["result"],
            )
            for p in doc["executed-primitives"]
        ],
    )
    return record, doc["bound"]


def _instance_to_doc(instance: NetworkServiceInstance) -> dict:
    return {
        "id": instance.id,
        "nsd-id": instance.nsd_id,
        "state": instance.state,
        "released": instance.released,
        "wall-seconds": instance.wall_seconds,
        "params": instance.params,
        "networks": instance.networks,
        "profile": _profile_to_doc(instance.profile),
        "events": [[_frac(e.ts), e.source, e.message] for e in instance.events],
        "vnf-records": [_record_to_doc(r) for r in instance.vnf_records],
    }


def _vim_to_doc(vim: Vim) -> dict:
    return {
        "clock": _frac(vim.clock.now),
        "next-vdu": vim._next_vdu,
        "networks": [
            {
                "name": n.name,
                "cidr": str(n.cidr),
                "allocations": {ref: str(ip) for ref, ip in n.allocations.items()},
            }
            for n in vim._networks.values()
        ],
        "vdus": [
            {
                "id": v.id,
                "image": v.image,
                "state": v.state,
                "interfaces": [[i.name, i.network, i.ip] for i in v.interfaces],
                "installed-packages": sorted(v.installed_packages),
                "boot-started-at": _frac(v.boot_started_at),
                "ready-at": _frac(v.ready_at),
                "forwarding-enabled": v.forwarding_enabled,
            }
            for v in vim._vdus.values()
        ],
    }


def _vim_from_doc(doc: dict) -> Vim:
    vim = Vim(SimClock(_unfrac(doc["clock"])))
    vim._next_vdu = doc["next-vdu"]
    for n in doc["networks"]:
        network = VirtualNetwork(name=n["name"], cidr=ipaddress.IPv4Network(n["cidr"]))
        network.allocations = {
            ref: ipaddress.IPv4Address(ip) for ref, ip in n["allocations"].items()
        }
        vim._networks[n["name"]] = network
    for v in doc["vdus"]:
        vim._vdus[v["id"]] = VduInstance(
            id=v["id"],
            image=v["image"],
            state=v["state"],
            interfaces=tuple(VduInterface(*i) for i in v["interfaces"]),
            installed_packages=frozenset(v["installed-packages"]),
            boot_started_at=_unfrac(v["boot-started-at"]),
            ready_at=_unfrac(v["ready-at"]),
            forwarding_enabled=v["forwarding-enabled"],
        )
    return vim


def _instance_from_doc(doc: dict) -> tuple[NetworkServiceInstance, list[VnfRecord]]:
    """The instance, and the gateway records that were bound when it was saved."""
    instance = NetworkServiceInstance(
        id=doc["id"],
        nsd_id=doc["nsd-id"],
        state=doc["state"],
        released=doc["released"],
        wall_seconds=doc.get("wall-seconds", 0.0),
        params=dict(doc["params"]),
        networks=dict(doc["networks"]),
        profile=_profile_from_doc(doc["profile"]),
        events=[Event(_unfrac(ts), source, message) for ts, source, message in doc["events"]],
    )
    bound_records = []
    for rdoc in doc["vnf-records"]:
        record, bound = _record_from_doc(rdoc)
        if bound and record.table is not None:
            bound_records.append(record)
        instance.vnf_records.append(record)
    return instance, bound_records


# what decoding a malformed document raises
_DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError)


class LazyInstances(MutableMapping):
    """``Orchestrator.instances`` for a loaded store: instance id to
    instance, in state-file order. An instance stays the JSON document it
    was loaded as until it is first read; only then are its tables, events
    and primitives decoded and its bound gateways re-bound on the backend.

    Holds the backend and the state path, never the orchestrator, so that
    dropping the orchestrator frees the loaded documents without waiting
    for the cycle collector.
    """

    def __init__(self, docs: list[dict], backend, state_path: Path):
        # id -> the document as loaded, or the instance once decoded or created
        self._entries: dict[str, dict | NetworkServiceInstance] = {doc["id"]: doc for doc in docs}
        self._backend = backend
        self._state_path = state_path

    def __getitem__(self, instance_id: str) -> NetworkServiceInstance:
        entry = self._entries[instance_id]
        if isinstance(entry, dict):
            entry = self._entries[instance_id] = self._decode(instance_id, entry)
        return entry

    def __setitem__(self, instance_id: str, instance: NetworkServiceInstance):
        self._entries[instance_id] = instance

    def __delitem__(self, instance_id: str):
        del self._entries[instance_id]

    def __contains__(self, instance_id) -> bool:
        return instance_id in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def documents(self) -> list[dict]:
        """Every instance's state document; an untouched one as loaded."""
        return [entry if isinstance(entry, dict) else _instance_to_doc(entry)
                for entry in self._entries.values()]

    def _decode(self, instance_id: str, doc: dict) -> NetworkServiceInstance:
        # a StoreError, never a KeyError: Mapping.get would report a corrupt
        # instance as a missing one
        try:
            instance, bound_records = _instance_from_doc(doc)
        except _DECODE_ERRORS as exc:
            raise StoreError(f"corrupt state file {self._state_path}: instance {instance_id}: "
                             f"{type(exc).__name__}: {exc}") from exc
        # outside the try: an OSError from re-binding a socket is not a fault of the file
        for record in bound_records:
            record.handle = self._backend.bind(record.table.listen_endpoint, record.transport_scope)
        return instance


def _orchestrator_from_doc(state: dict, backend, state_path: Path) -> Orchestrator:
    orch = Orchestrator(
        vim=_vim_from_doc(state["vim"]), backend=backend,
        profile=_profile_from_doc(state["default-profile"]))
    orch._next_ns = state["next-ns"]
    orch._next_slice = state["next-slice"]
    orch._next_slice_net = state["next-slice-net"]
    for a in state["actors"]:
        orch.register_actor(Actor(a["name"], a["role"], frozenset(a["permitted"])))
    orch.instances = LazyInstances(state["instances"], orch.backend, state_path)
    for sdoc in state.get("slices", []):
        orch.slices[sdoc["id"]] = SliceInstance(
            id=sdoc["id"], nst_id=sdoc["nst-id"],
            ns_instance_ids=list(sdoc["ns-instance-ids"]),
            networks=dict(sdoc["networks"]))
    return orch


class Store:
    """One operator state directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        # catalog file name -> the descriptor that file is known to hold
        self._catalog_files: dict[str, Descriptor] = {}

    @contextmanager
    def lock(self):
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / LOCK_FILE, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StoreError(f"store {self.root} is in use by another invocation") from None
            yield self
        finally:
            os.close(fd)  # releases the lock

    def save(self, orch: Orchestrator):
        self.root.mkdir(parents=True, exist_ok=True)
        catalog_dir = self.root / CATALOG_DIR
        catalog_dir.mkdir(exist_ok=True)
        for descriptor in orch.catalog.descriptors():
            name = f"{descriptor.kind}-{descriptor.id}.yaml"
            if self._catalog_files.get(name) != descriptor:
                (catalog_dir / name).write_text(serialize_descriptor(descriptor), encoding="utf-8")
                self._catalog_files[name] = descriptor
        state = {
            "version": 1,
            "vim": _vim_to_doc(orch.vim),
            "next-ns": orch._next_ns,
            "next-slice": orch._next_slice,
            "next-slice-net": orch._next_slice_net,
            "default-profile": _profile_to_doc(orch.default_profile),
            "actors": [
                {"name": a.name, "role": a.role, "permitted": sorted(a.permitted)}
                for a in orch.actors.values()
            ],
            "instances": (orch.instances.documents() if isinstance(orch.instances, LazyInstances)
                          else [_instance_to_doc(i) for i in orch.instances.values()]),
            "slices": [
                {
                    "id": s.id,
                    "nst-id": s.nst_id,
                    "ns-instance-ids": list(s.ns_instance_ids),
                    "networks": s.networks,
                }
                for s in orch.slices.values()
            ],
        }
        path = self.root / STATE_FILE
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(state, sort_keys=True, separators=(",", ":")), encoding="utf-8")
        os.replace(tmp, path)  # crash-safe swap

    def load(self, backend=None) -> Orchestrator:
        """Rebuild the orchestrator. Instances are decoded on first access
        (see ``LazyInstances``); gateways that were bound re-bind their
        listen endpoints on the supplied backend then."""
        state_path = self.root / STATE_FILE
        if not state_path.exists():
            orch = Orchestrator(backend=backend)
        else:
            try:
                state = json.loads(state_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:  # ValueError covers json.JSONDecodeError
                raise StoreError(f"corrupt state file {state_path}: {exc}") from exc
            try:
                orch = _orchestrator_from_doc(state, backend, state_path)
            except _DECODE_ERRORS as exc:
                raise StoreError(f"corrupt state file {state_path}: {type(exc).__name__}: {exc}") from exc
        self._load_catalog(orch)
        return orch

    def _load_catalog(self, orch: Orchestrator):
        catalog_dir = self.root / CATALOG_DIR
        if not catalog_dir.is_dir():
            return
        for path in sorted(catalog_dir.glob("*.yaml")):
            descriptor = parse_descriptor(path.read_text(encoding="utf-8"))
            orch.catalog.add(descriptor)
            self._catalog_files[path.name] = descriptor
