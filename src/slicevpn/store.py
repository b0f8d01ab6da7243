"""Plain-file persistence for multi-command operator sessions.

A store directory holds the onboarded catalog as descriptor YAML files plus
one ``state.json`` with the VIM, instances, and actors. Simulated timestamps
serialize as exact fraction strings, so a reloaded store continues on the
same clock. Gateway private keys live in this state file (it is the
artifact's disk, like a real gateway's config directory) and are never
echoed into reports, logs, or command output.

``state.json`` is compact JSON with one document per line: each instance,
VIM network and VIM VDU on a line of its own, its key (``"id"`` or
``"name"``) first, between skeleton lines that hold the global fields.
Loading parses only the skeleton, found from the file's ends; a document
stays in the loaded bytes, and a catalog file unparsed, until a command
looks it up (``LazyDocuments``), and a lookup finds its line by key with
one backward search (``_StateFile.find``). Only a lookup that misses, or
adding, deleting or listing documents (``ns-create``, ``ns-delete``),
indexes the whole file. A file out of the line layout is parsed whole, and
the next save rewrites it in the layout. Saving splices the re-encoded
touched lines into the loaded bytes (after indexing, it writes each line)
and writes a catalog file only for a descriptor onboarded since loading.
Each file is written under a temporary name and renamed over the old one,
catalog files before ``state.json``, so a save cut off midway leaves every
file whole, old or new. A VNF record keeps the Day-2 primitives its VNFD
declares, so ``ns-action`` reads no catalog file. A corrupt document line
or catalog file fails only the commands that touch it (a line whose key
cannot be read, only those that index the file), and ``--backend udp``
binds only the touched instances' gateway sockets.

One CLI invocation at a time per store: an advisory ``flock`` on the
persistent ``.lock`` file makes concurrent invocations fail fast, and the
kernel drops it when its holder exits, even by ``kill -9``.
"""

from __future__ import annotations

import fcntl
import functools
import ipaddress
import json
import os
from collections.abc import Callable, Iterable, Iterator, Mapping, MutableMapping
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from slicevpn.cryptokey import CryptokeyRoutingTable, PeerEntry, generate_keypair
from slicevpn.descriptors import (Descriptor, DescriptorError, PrimitiveParam, PrimitiveSpec,
                                  parse_descriptor, serialize_descriptor)
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
        "bound": record.handle is not None,
        "initial-count": record.initial_count,
        # each primitive's params as "name:type" words, in order: a record line parses to few objects
        "config-primitives": None if record.config_primitives is None else {
            p.name: " ".join(f"{q.name}:{q.type}" for q in p.params) for p in record.config_primitives},
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
    primitives = doc.get("config-primitives")  # None in an older store; ns_action fills it
    record = VnfRecord(
        member_index=doc["member-index"],
        vnfd_id=doc["vnfd-id"],
        vdu_ids=list(doc["vdu-ids"]),
        mgmt_address=doc["mgmt-address"],
        transport_scope=doc["transport-scope"],
        initial_count=doc["initial-count"],
        config_primitives=None if primitives is None else tuple(
            PrimitiveSpec(name, tuple(PrimitiveParam(*word.split(":")) for word in params.split()))
            for name, params in primitives.items()),
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
        "params": instance.params,
        "networks": instance.networks,
        "profile": _profile_to_doc(instance.profile),
        "events": [[_frac(e.ts), e.source, e.message] for e in instance.events],
        "vnf-records": [_record_to_doc(r) for r in instance.vnf_records],
    }


def _instance_from_doc(doc: dict, backend) -> NetworkServiceInstance:
    """The instance, with the gateways that were bound when it was saved
    re-bound on `backend` once all of it has decoded."""
    records = [_record_from_doc(rdoc) for rdoc in doc["vnf-records"]]
    instance = NetworkServiceInstance(
        id=doc["id"],
        nsd_id=doc["nsd-id"],
        state=doc["state"],
        released=doc["released"],
        params=dict(doc["params"]),
        networks=dict(doc["networks"]),
        profile=_profile_from_doc(doc["profile"]),
        events=[Event(_unfrac(ts), source, message) for ts, source, message in doc["events"]],
        vnf_records=[record for record, _ in records],
    )
    for record, bound in records:
        if bound and record.table is not None:
            record.handle = backend.bind(record.table.listen_endpoint, record.transport_scope)
    return instance


def _network_to_doc(network: VirtualNetwork) -> dict:
    return {
        "name": network.name,
        "cidr": str(network.cidr),
        "allocations": {ref: str(ip) for ref, ip in network.allocations.items()},
    }


def _network_from_doc(doc: dict) -> VirtualNetwork:
    return VirtualNetwork(
        name=doc["name"],
        cidr=ipaddress.IPv4Network(doc["cidr"]),
        allocations={ref: ipaddress.IPv4Address(ip) for ref, ip in doc["allocations"].items()},
    )


def _vdu_to_doc(vdu: VduInstance) -> dict:
    return {
        "id": vdu.id,
        "image": vdu.image,
        "state": vdu.state,
        "interfaces": [[i.name, i.network, i.ip] for i in vdu.interfaces],
        "installed-packages": sorted(vdu.installed_packages),
        "boot-started-at": _frac(vdu.boot_started_at),
        "ready-at": _frac(vdu.ready_at),
        "forwarding-enabled": vdu.forwarding_enabled,
    }


def _vdu_from_doc(doc: dict) -> VduInstance:
    return VduInstance(
        id=doc["id"],
        image=doc["image"],
        state=doc["state"],
        interfaces=tuple(VduInterface(*i) for i in doc["interfaces"]),
        installed_packages=frozenset(doc["installed-packages"]),
        boot_started_at=_unfrac(doc["boot-started-at"]),
        ready_at=_unfrac(doc["ready-at"]),
        forwarding_enabled=doc["forwarding-enabled"],
    )


# what keys the instance, VIM network and VIM VDU lines, and how each line starts
_KEYS = ("id", "name", "id")
_PREFIXES = tuple(b'{"' + key.encode("ascii") + b'":"' for key in _KEYS)


def _encode(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")


def _line(doc: dict, key: str) -> bytes:
    """`doc` as one compact line: `key` first, for ``_key``, then the rest sorted."""
    rest = _encode({k: v for k, v in doc.items() if k != key})
    return b"".join((b'{"', key.encode("ascii"), b'":', _encode(doc[key]),
                     b"," if rest != b"{}" else b"", rest[1:]))


def _key(line: bytes, prefix: bytes) -> str:
    """The key at the start of a document line that should start with `prefix`."""
    if not line.startswith(prefix):
        raise ValueError(f"a document line does not start with {prefix.decode()}")
    return json.decoder.scanstring(line.decode("utf-8"), len(prefix))[0]


def _lists(state: dict) -> tuple:
    return state["instances"], state["vim"]["networks"], state["vim"]["vdus"]


def _document(line: bytes) -> bytes:
    """A document line without the comma that separates it from the next."""
    return line.rstrip(b" \t\r").removesuffix(b",")


def _parse_whole(data: bytes) -> tuple[dict, list[dict[str, bytes]]]:
    """The state, and its documents encoded as lines by key."""
    state = json.loads(data)
    return state, [{_key(line, prefix): line for line in (_line(doc, key) for doc in docs)}
                   for docs, key, prefix in zip(_lists(state), _KEYS, _PREFIXES)]


def _index(data: bytes) -> list[dict[str, bytes]]:
    """Every document line of a file ``_read_state`` found in the line layout,
    by key; the whole file parsed, if it holds a line out of the layout."""
    skeleton, groups = [], [[], [], []]
    for line in data.split(b"\n"):
        group = len(skeleton) - 1  # the group a document line here would belong to
        if 0 <= group < len(groups) and line.startswith(_PREFIXES[group]):
            groups[group].append(_document(line))
        else:
            skeleton.append(line)
    if len(skeleton) != 4:  # not just the four lines ``_read_state`` checked
        return _parse_whole(data)[1]
    return [{_key(line, prefix): line for line in lines} for lines, prefix in zip(groups, _PREFIXES)]


class _StateFile:
    """A loaded ``state.json``: its bytes, each group's byte range, and
    where each line found by key lies. The whole file is indexed only when
    a lookup by key misses or a group is listed; a file parsed whole comes
    indexed."""

    def __init__(self, data: bytes, bounds: list[tuple[int, int]], path: Path, index=None):
        self.data = data
        self.bounds = bounds  # per group: its first line's \n to its closing line's \n
        self.path = path
        self.spans = ({}, {}, {})  # per group: key -> (start, end) of each line found by key
        self.index = index  # per group: key -> line, once indexed

    def find(self, group: int, key) -> bytes | None:
        """The last line of `group` to start with its key prefix and `key`, or the index's."""
        if self.index is None:
            lo, hi = self.bounds[group]
            needle = b"\n" + _PREFIXES[group][:-1] + _encode(key)
            at = self.data.rfind(needle, lo, hi)
            if at >= 0 and self.data[at + len(needle)] in b",}":
                line = _document(self.data[at + 1:self.data.find(b"\n", at + 1)])
                self.spans[group][key] = (at + 1, at + 1 + len(line))
                return line
        return self.lines(group).get(key)

    def lines(self, group: int) -> dict[str, bytes]:
        if self.index is None:
            try:
                self.index = _index(self.data)
            except _DECODE_ERRORS as exc:
                raise StoreError(f"corrupt state file {self.path}: {type(exc).__name__}: {exc}") from exc
            self.data = b""  # the index holds each line
        return self.index[group]

    def splice(self, skeleton: tuple[bytes, ...], groups: list[list[tuple[str, bytes]]]) -> Iterator:
        """The loaded bytes with `skeleton` in place of the skeleton lines,
        and each (key, line) of `groups` in place of the line found by key."""
        view = memoryview(self.data)
        yield skeleton[0]
        for (at, hi), spans, lines, closing in zip(self.bounds, self.spans, groups, skeleton[1:]):
            for start, end, line in sorted(spans[key] + (line,) for key, line in lines):
                yield from (view[at:start], line)
                at = end
            yield from (view[at:hi], b"\n" + closing)


class _Group(NamedTuple):
    """A group of a ``_StateFile``'s lines, as ``LazyDocuments`` reads them."""
    file: _StateFile
    group: int

    def get(self, key) -> bytes | None:
        return self.file.find(self.group, key)

    def items(self):
        return self.file.lines(self.group).items()


def _read_state(data: bytes, path: Path) -> tuple[dict, _StateFile]:
    """The state's global fields, and its documents. Only the skeleton is
    parsed: the first line and the last three that start with ``]``. A file
    not in the line layout is parsed whole, and so is one holding ``\\r``,
    whose loaded bytes a save must not splice back."""
    closing = [len(data)]  # where each closing line starts: at the \n before it
    for _ in range(3):
        closing.insert(0, data.rfind(b"\n]", 0, max(closing[0], 0)))
    if closing[0] >= 0 and b"\r" not in data:
        opening = [data.find(b"\n"), *(data.find(b"\n", at + 1) for at in closing[:2])]  # where each ends
        skeleton = (data[:opening[0]], *(data[at + 1:end] for at, end in zip(closing, opening[1:])),
                    data[closing[2] + 1:])
        try:  # a marker in place of each group: the state must hold each in its list
            state = json.loads(b"%b0%b1%b2%b" % skeleton)
            if list(_lists(state)) == [[0], [1], [2]]:
                return state, _StateFile(data, list(zip(opening, closing)), path)
        except (ValueError, KeyError, TypeError):
            pass
    state, index = _parse_whole(data)
    return state, _StateFile(b"", [], path, index)


def _skeleton(orch: Orchestrator) -> tuple[bytes, ...]:
    """The lines around the document lines: the state with ``_read_state``'s markers in place of
    the three lists' documents, split there (no other list in it sits under their keys)."""
    text = _encode({
        "version": 1,
        "vim": {"clock": _frac(orch.vim.clock.now), "networks": [1], "vdus": [2]},
        "next-ns": orch._next_ns,
        "next-slice": orch._next_slice,
        "next-slice-net": orch._next_slice_net,
        "actors": [{"name": a.name, "role": a.role, "permitted": sorted(a.permitted)}
                   for a in orch.actors.values()],
        "instances": [0],
        "slices": [{"id": s.id, "nst-id": s.nst_id, "ns-instance-ids": list(s.ns_instance_ids),
                    "networks": s.networks} for s in orch.slices.values()],
    })
    lines = []
    for marker in (b'"instances":[0', b'"networks":[1', b'"vdus":[2'):
        head, _, text = text.partition(marker)
        lines.append(head + marker[:-1])
    return (*lines, text)


def _layout(skeleton: tuple[bytes, ...], groups: list[list[bytes]]) -> Iterator[bytes]:
    """Each skeleton line, then the document lines of the group it opens."""
    yield skeleton[0]
    for lines, closing in zip(groups, skeleton[1:]):
        for i, line in enumerate(lines):
            yield (b",\n" if i else b"\n") + line
        yield b"\n" + closing


def _catalog_name(kind: str, id_: str) -> str:
    return f"{kind}-{id_}.yaml"


def _write_atomic(path: Path, pieces: Iterable[bytes]):
    """Replace `path` with the joined `pieces` so that a reader, or a process
    killed mid-write, sees the old file or the new one, never a torn one. The
    temporary name ends in ``.tmp``, so no ``*.yaml`` glob picks it up."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb", buffering=1 << 16) as f:  # ~20, not ~170, write calls per MB of lines
        f.writelines(pieces)
    os.replace(tmp, path)


# what decoding a malformed document or catalog file raises
_DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError,
                  DescriptorError)


class LazyDocuments(MutableMapping):
    """A mapping whose loaded entries stay as loaded (a ``state.json`` line,
    a catalog file's path) until first read; only then does ``decode`` turn
    one into its object. ``Store.load`` keeps the instances, the VIM's
    networks and VDUs, and the catalog in these, so a command decodes only
    what it touches.

    ``loaded`` finds one loaded entry (``get``) or lists them (``items``);
    the mapping lists them only once a key is missing, added or deleted, or
    the mapping is iterated or sized.

    A malformed document raises ``StoreError`` naming ``describe(key)``,
    never a ``KeyError``, which ``Mapping.get`` would report as a missing
    entry. An error that is not the document's fault, such as an ``OSError``
    from re-binding a gateway socket, passes through. The mapping holds its
    documents and callables, never the orchestrator, so that dropping the
    orchestrator frees the loaded documents without the cycle collector.
    """

    def __init__(self, loaded, decode: Callable, describe: Callable[[object], str]):
        self.loaded = loaded
        # key -> the object once decoded or set; once listed, also each other loaded entry
        self._entries = {}
        self._undecoded = set()
        self._listed = False
        self._decode = decode
        self._describe = describe

    def _list(self) -> dict:
        if not self._listed:
            entries = dict(self.loaded.items())
            self._undecoded = entries.keys() - self._entries.keys()
            entries.update(self._entries)
            self._entries, self._listed = entries, True
        return self._entries

    def _find(self, key):
        """The loaded entry under `key`, not decoded yet, or None."""
        if not self._listed:
            entry = self.loaded.get(key)
            if entry is not None:
                return entry
            self._list()
        return self._entries[key] if key in self._undecoded else None

    def __getitem__(self, key):
        if key in self._entries and key not in self._undecoded:
            return self._entries[key]
        entry = self._find(key)
        if entry is None:
            raise KeyError(key)
        try:
            entry = self._decode(entry)
        except _DECODE_ERRORS as exc:
            raise StoreError(f"corrupt {self._describe(key)}: "
                             f"{type(exc).__name__}: {exc}") from exc
        self._entries[key] = entry
        self._undecoded.discard(key)
        return entry

    def __setitem__(self, key, value):
        if key not in self._entries:  # an added entry goes after every loaded one
            self._list()
        self._entries[key] = value
        self._undecoded.discard(key)

    def __delitem__(self, key):
        del self._list()[key]
        self._undecoded.discard(key)

    def __contains__(self, key) -> bool:
        return key in self._entries or self._find(key) is not None

    def __iter__(self):
        return iter(self._list())

    def __len__(self) -> int:
        return len(self._list())

    def documents(self, encode: Callable) -> list:
        """Every entry, in order: an undecoded one as loaded, the others
        through ``encode``."""
        return [entry if key in self._undecoded else encode(entry)
                for key, entry in self._list().items()]

    def decoded(self) -> list[tuple]:
        """The (key, object) pairs decoded or set since loading."""
        return [(key, entry) for key, entry in self._entries.items()
                if key not in self._undecoded]


def loaded(entries: Mapping) -> list[tuple]:
    """The (key, object) pairs in memory: those decoded or set since loading,
    or every pair of a plain mapping."""
    return entries.decoded() if isinstance(entries, LazyDocuments) else list(entries.items())


def _documents(entries: Mapping, encode: Callable) -> list:
    if isinstance(entries, LazyDocuments):
        return entries.documents(encode)
    return [encode(value) for value in entries.values()]


def _lazy(lines: _Group, decode: Callable, where: str) -> LazyDocuments:
    """`lines`, each parsed and decoded on first read."""
    return LazyDocuments(lines, lambda line: decode(json.loads(line)), lambda k: f"{where} {k}")


def _orchestrator_from_doc(state: dict, file: _StateFile, backend) -> Orchestrator:
    where = f"state file {file.path}:"
    instances, networks, vdus = (_Group(file, group) for group in range(3))
    vim = Vim(SimClock(_unfrac(state["vim"]["clock"])))
    vim._networks = _lazy(networks, _network_from_doc, f"{where} network")
    vim._vdus = _lazy(vdus, _vdu_from_doc, f"{where} vdu")
    orch = Orchestrator(vim=vim, backend=backend)
    orch._next_ns = state["next-ns"]
    orch._next_slice = state["next-slice"]
    orch._next_slice_net = state["next-slice-net"]
    for a in state["actors"]:
        orch.register_actor(Actor(a["name"], a["role"], frozenset(a["permitted"])))
    orch.instances = _lazy(instances, functools.partial(_instance_from_doc, backend=orch.backend),
                           f"{where} instance")
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
        entries = orch.catalog._entries
        # an entry not read since loading is still its file, unchanged
        for (kind, id_), descriptor in loaded(entries):
            name = _catalog_name(kind, id_)
            if self._catalog_files.get(name) != descriptor:
                _write_atomic(catalog_dir / name, [serialize_descriptor(descriptor).encode("utf-8")])
                self._catalog_files[name] = descriptor
        groups = [(orch.instances, lambda i: _line(_instance_to_doc(i), "id")),
                  (orch.vim._networks, lambda n: _line(_network_to_doc(n), "name")),
                  (orch.vim._vdus, lambda v: _line(_vdu_to_doc(v), "id"))]
        lines = getattr(orch.instances, "loaded", None)
        if isinstance(lines, _Group) and lines.file.index is None:  # each touched line was found by key
            pieces = lines.file.splice(_skeleton(orch), [[(key, encode(value)) for key, value in loaded(entries)]
                                                         for entries, encode in groups])
        else:
            pieces = _layout(_skeleton(orch), [_documents(entries, encode) for entries, encode in groups])
        # after the catalog files, so that the state never names a descriptor not on disk
        _write_atomic(self.root / STATE_FILE, pieces)

    def load(self, backend=None) -> Orchestrator:
        """Rebuild the orchestrator. Instances, VIM entries and catalog
        descriptors are decoded on first access (see ``LazyDocuments``); an
        instance's gateways that were bound re-bind their listen endpoints
        on the supplied backend then."""
        state_path = self.root / STATE_FILE
        if not state_path.exists():
            orch = Orchestrator(backend=backend)
        else:
            try:
                state, file = _read_state(state_path.read_bytes(), state_path)
                orch = _orchestrator_from_doc(state, file, backend)
            except (OSError, *_DECODE_ERRORS) as exc:  # ValueError covers json.JSONDecodeError
                raise StoreError(f"corrupt state file {state_path}: {type(exc).__name__}: {exc}") from exc
        self._load_catalog(orch)
        return orch

    def _load_catalog(self, orch: Orchestrator):
        catalog_dir = self.root / CATALOG_DIR
        if not catalog_dir.is_dir():
            return
        # a file's name is its descriptor's (kind, id), so a lookup reads one file
        paths = {}
        for path in sorted(catalog_dir.glob("*.yaml")):
            kind, _, id_ = path.stem.partition("-")
            paths[kind, id_] = path
        orch.catalog._entries = LazyDocuments(dict(paths), self._read_descriptor,
                                              lambda key: f"catalog file {paths[key]}")

    def _read_descriptor(self, path: Path) -> Descriptor:
        descriptor = parse_descriptor(path.read_text(encoding="utf-8"))
        if _catalog_name(descriptor.kind, descriptor.id) != path.name:
            raise ValueError(f"it holds {descriptor.kind} {descriptor.id!r}")
        self._catalog_files[path.name] = descriptor
        return descriptor
