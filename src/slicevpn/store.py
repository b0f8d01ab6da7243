"""Plain-file persistence for multi-command operator sessions.

A store directory holds the onboarded catalog as descriptor YAML files plus
one ``state.json`` with the VIM, instances, and actors. Simulated timestamps
serialize as exact fraction strings, so a reloaded store continues on the
same clock. Gateway private keys live in this state file (it is the
artifact's disk, like a real gateway's config directory), which only its
owner can read (``0600``), and are never echoed into reports, logs, or
command output. ``Store.load`` refuses a ``state.json`` of any ``"version"``
but ``VERSION`` before it decodes anything, so every store that loads is one
this code wrote and no save rewrites a file another build would read.

``state.json`` is compact JSON with one document per line: each instance,
VIM network and VIM VDU on a line of its own, its key (``"id"`` or
``"name"``) first, between skeleton lines that hold the global fields. A
file in another JSON layout, or holding ``\\r``, is laid out in lines as it
loads (``_StateFile``). Loading parses only the skeleton, found from the
file's ends; a document stays in the loaded bytes, and a catalog file
unparsed, until a command looks it up (``LazyDocuments``), and a lookup finds
its line by key with one backward search. Only a lookup that misses
indexes the whole file: ``ns-create`` does, ``ns-delete`` does not. A
document joined onto another's line (the newline between them removed)
shows in the lookup's own parse, as data after a document, or when a key
that starts no line has its text in its group; the file is then laid out
in lines, as it is before a group is listed. Every save splices the
re-encoded touched lines into the loaded bytes, drops deleted ones and
appends added ones to their group, and writes a catalog file only for a
descriptor onboarded since loading, with its compiled form beside it
(``{kind}-{id}.json``: the file's text and the document checked from it).
A catalog file whose text is its compiled form's is read by checking that
document, with no YAML parse; with no such form, or a stale, unreadable or
malformed one, the text is parsed. The compiled form is trusted like
``state.json``. Each file is written in place into its shadow
(``<name>.tmp``, the file the save before replaced) and swapped in by
renames (``_write_atomic``), catalog files before ``state.json``, so a save
cut off midway leaves every file whole, old or new. A shadow holds its
file's previous contents, ``state.json``'s private keys included, until the
next save. A VNF record keeps the Day-2
primitives its VNFD declares, so ``ns-action`` reads no catalog file. A
gateway table keeps its public key beside its private key
(``public-key-hex``), so loading derives no key. A loaded instance's event
log and profile, and each record's table, Day-2 declarations and executed
primitives, stay the line's JSON until read (``_Undecoded``); a save writes
one never decoded back as loaded, and an event or primitive logged onto one
is appended as its row. So a Day-2 action decodes the profile and its
member's declarations (and, for ``add-peer``, ``del-peer`` and
``start-wg``, its table), ``kpi`` the events and primitives, ``ns-show`` the
events, and a gateway saved as bound re-binds from its table's JSON. Only ``onboard``, ``validate``,
``ns-create`` and ``slice-create`` list the catalog directory. A corrupt
document line or catalog file fails only the commands that touch it (a
line whose key cannot be read, only those that index the file), and a
corrupt instance field only those that read or extend it (a table:
``add-peer``, ``del-peer``, ``start-wg``, ``bench``; the profile: every
``ns-action``); ``bench`` binds only the touched instance's gateway
sockets, on loopback UDP; the CLI closes them after the save.

One CLI invocation at a time per store: an advisory ``flock`` on the
persistent ``.lock`` file makes concurrent invocations fail fast, and the
kernel drops it when its holder exits, even by ``kill -9``.
"""

from __future__ import annotations

import errno
import fcntl
import functools
import ipaddress
import json
import os
import re
import stat
from collections.abc import Callable, Iterable, Mapping, MutableMapping
from contextlib import contextmanager, suppress
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from slicevpn.cryptokey import CryptokeyRoutingTable, KeyPair, PeerEntry, Session, key_to_base64
from slicevpn.descriptors import (Descriptor, DescriptorError, PrimitiveParam, PrimitiveSpec,
                                  descriptor_from_doc, parse_descriptor, serialize_descriptor)
from slicevpn.errors import SliceVpnError
from slicevpn.lifecycle import (
    Actor,
    Event,
    ExecutedPrimitive,
    NetworkServiceInstance,
    Orchestrator,
    SliceInstance,
    VnfRecord,
    unbind_gateway,
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
VERSION = 4  # of state.json's layout: a store of any other version is refused, never read or rewritten


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


def _table_to_doc(table: CryptokeyRoutingTable | None) -> dict | None:
    if table is None:
        return None
    return {
        "private-key-hex": table.local_keypair.private.hex(),
        "public-key-hex": table.public_key.hex(),
        "listen-endpoint": _endpoint(table.listen_endpoint),
        "tunnel-address": table.tunnel_address,
        "sessions": {key.hex(): [session.tx, session.rx] for key, session in table.sessions.items()},
        "peers": [
            {
                "public-key-hex": entry.public_key.hex(),
                "allowed-ips": list(entry.allowed_ips),
                "endpoint": _endpoint(entry.endpoint),
            }
            for entry in table.peers.values()
        ],
    }


def _key(text: str) -> bytes:
    key = bytes.fromhex(text)
    if len(key) != 32:
        raise ValueError(f"a key is 32 bytes, not {len(key)}")
    return key


def _table_from_doc(doc: dict) -> CryptokeyRoutingTable:
    """The table, its keypair as stored: no key is derived on load."""
    table = CryptokeyRoutingTable(
        local_keypair=KeyPair(private=_key(doc["private-key-hex"]), public=_key(doc["public-key-hex"])),
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
    # a session whose peer was deleted is kept, so a re-added peer rejects old envelopes
    table.sessions = {bytes.fromhex(key): Session(tx, rx) for key, (tx, rx) in doc["sessions"].items()}
    return table


def _config_primitives_to_doc(specs: tuple[PrimitiveSpec, ...]) -> dict:
    # each primitive's params as "name:type" words, in order: a record line parses to few objects
    return {p.name: " ".join(f"{q.name}:{q.type}" for q in p.params) for p in specs}


def _config_primitives_from_doc(doc: dict) -> tuple[PrimitiveSpec, ...]:
    return tuple(PrimitiveSpec(name, tuple(PrimitiveParam(*word.split(":")) for word in params.split()))
                 for name, params in doc.items())


def _executed_primitives_to_doc(primitives: list[ExecutedPrimitive]) -> list[dict]:
    return [{"name": p.name, "params": p.params, "started-at": _frac(p.started_at),
             "finished-at": _frac(p.finished_at), "result": p.result} for p in primitives]


def _executed_primitives_from_doc(rows: list[dict]) -> list[ExecutedPrimitive]:
    return [ExecutedPrimitive(name=p["name"], params=dict(p["params"]), started_at=_unfrac(p["started-at"]),
                              finished_at=_unfrac(p["finished-at"]), result=p["result"]) for p in rows]


def _events_to_doc(events: list[Event]) -> list[list]:
    return [[_frac(e.ts), e.source, e.message] for e in events]


def _events_from_doc(rows: list[list]) -> list[Event]:
    return [Event(_unfrac(ts), source, message) for ts, source, message in rows]


class _Undecoded:
    """A field of a ``_Loaded`` object that stays its line's JSON (in ``docs``
    under its name) until first read, then is decoded by ``_<name>_from_doc``,
    looked up when it runs like every decoder here. Until then a save writes it
    back as loaded (``_field_doc``), and ``append`` adds an item's encoded row
    (``_<name>_to_doc``) to it. JSON that fails to decode, or is not a list to
    append to, raises ``StoreError`` naming ``describe`` and the field's key."""

    def __set_name__(self, owner, name: str):
        self.name, self.key = name, name.replace("_", "-")

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        if self.name in obj.docs:
            with self._as_store_error(obj):
                value = globals()[f"_{self.name}_from_doc"](obj.docs[self.name])
            self.__set__(obj, value)
        return vars(obj)[self.name]

    def __set__(self, obj, value):
        vars(obj)[self.name] = value
        obj.docs.pop(self.name, None)

    def append(self, obj, item):
        if self.name not in obj.docs:
            self.__get__(obj).append(item)
        else:
            with self._as_store_error(obj):  # += extends a list in place, and raises TypeError for other JSON
                obj.docs[self.name] += globals()[f"_{self.name}_to_doc"]([item])

    @contextmanager
    def _as_store_error(self, obj):
        try:
            yield
        except _DECODE_ERRORS as exc:
            raise StoreError(f"corrupt {obj.describe} {self.key}: {type(exc).__name__}: {exc}") from exc


def _field_doc(obj, name: str):
    """`obj`'s field `name` as saved: as loaded if `obj` is ``_Loaded`` and
    never decoded it, else encoded by ``_<name>_to_doc``."""
    docs = getattr(obj, "docs", {})
    return docs[name] if name in docs else globals()[f"_{name}_to_doc"](getattr(obj, name))


class _Loaded:
    """A dataclass object decoded from a ``state.json`` line but for its
    ``_Undecoded`` fields in ``docs``; ``describe`` names it in errors."""

    def __init__(self, docs: dict, describe: str, **fields):
        self.docs, self.describe = {}, describe  # empty while the dataclass sets each field, undecoded ones to None
        super().__init__(**fields, **dict.fromkeys(docs))
        self.docs = docs


class _LoadedRecord(_Loaded, VnfRecord):
    """A VNF record read from a ``state.json`` line. Its gateway table, Day-2
    declarations and executed primitives stay undecoded until read; its
    public key is read with the record, so showing it decodes no table."""

    table = _Undecoded()
    config_primitives = _Undecoded()
    executed_primitives = _Undecoded()

    def __init__(self, docs: dict, describe: str, **fields):
        super().__init__(docs, describe, **fields)
        self._public_key = _key(docs["table"]["public-key-hex"]) if "table" in docs else None

    @property
    def public_key_b64(self) -> str | None:
        return key_to_base64(self._public_key) if "table" in self.docs else super().public_key_b64

    def log(self, primitive: ExecutedPrimitive):
        _LoadedRecord.executed_primitives.append(self, primitive)


class _LoadedInstance(_Loaded, NetworkServiceInstance):
    """An instance read from a ``state.json`` line. Its event log and timing
    profile stay undecoded until read."""

    events = _Undecoded()
    profile = _Undecoded()

    def log(self, event: Event):
        _LoadedInstance.events.append(self, event)


def _record_to_doc(record: VnfRecord) -> dict:
    return {
        "member-index": record.member_index,
        "vnfd-id": record.vnfd_id,
        "vdu-ids": list(record.vdu_ids),
        "mgmt-address": record.mgmt_address,
        "transport-scope": record.transport_scope,
        "bound": record.handle is not None,
        "initial-count": record.initial_count,
        "config-primitives": _field_doc(record, "config_primitives"),
        "table": _field_doc(record, "table"),
        "executed-primitives": _field_doc(record, "executed_primitives"),
    }


def _record_from_doc(doc: dict, describe: str) -> tuple[VnfRecord, Endpoint | None]:
    """The record, its table, declarations and executed primitives undecoded,
    and the listen endpoint to re-bind if the gateway was bound when saved."""
    table = doc["table"]
    undecoded = {"config_primitives": doc["config-primitives"], "executed_primitives": doc["executed-primitives"]}
    if table is not None:
        undecoded["table"] = table
    record = _LoadedRecord(
        undecoded,
        f"{describe} member {doc['member-index']}",
        member_index=doc["member-index"],
        vnfd_id=doc["vnfd-id"],
        vdu_ids=list(doc["vdu-ids"]),
        mgmt_address=doc["mgmt-address"],
        transport_scope=doc["transport-scope"],
        initial_count=doc["initial-count"],
    )
    return record, _unendpoint(table["listen-endpoint"]) if doc["bound"] and table is not None else None


def _instance_to_doc(instance: NetworkServiceInstance) -> dict:
    return {
        "id": instance.id,
        "nsd-id": instance.nsd_id,
        "state": instance.state,
        "released": instance.released,
        "networks": instance.networks,
        "profile": _field_doc(instance, "profile"),
        "events": _field_doc(instance, "events"),
        "vnf-records": [_record_to_doc(r) for r in instance.vnf_records],
    }


def _instance_from_doc(doc: dict, backend, where: str) -> NetworkServiceInstance:
    """The instance, with the gateways that were bound when it was saved
    re-bound on `backend` once all of it has decoded, each from the listen
    endpoint in its table's document. A bind that fails closes those
    already bound, since the instance is then dropped. A saved instance is
    Running, Failed or Terminated; any other state is corrupt. `where` (the
    state file) names a field that fails to decode later."""
    if doc["state"] not in ("Running", "Failed", "Terminated"):
        raise ValueError(f"state {doc['state']!r} is not Running, Failed or Terminated")
    describe = f"{where} instance {doc['id']}"
    records = [_record_from_doc(rdoc, describe) for rdoc in doc["vnf-records"]]
    instance = _LoadedInstance(
        {"profile": doc["profile"], "events": doc["events"]},
        describe,
        id=doc["id"],
        nsd_id=doc["nsd-id"],
        state=doc["state"],
        released=doc["released"],
        networks=dict(doc["networks"]),
        vnf_records=[record for record, _ in records],
    )
    try:
        for record, listen in records:
            if listen is not None:
                record.handle = backend.bind(listen, record.transport_scope)
    except BaseException:
        for record in instance.vnf_records:
            unbind_gateway(record)
        raise
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
# each line's start up to the end of its key, if the key's JSON string holds no escape or control character
_PLAIN_KEYS = tuple(re.compile(re.escape(prefix) + rb'([^"\\\x00-\x1f]*)"') for prefix in _PREFIXES)


def _encode(value) -> bytes:
    # a value is a tree, parsed from JSON or built from the objects, so no cycle is looked for
    return json.dumps(value, sort_keys=True, separators=(",", ":"), check_circular=False).encode("ascii")


def _line(doc: dict, key: str) -> bytes:
    """`doc` as one compact line: `key` first, for ``_index``, then the rest sorted."""
    rest = _encode({k: v for k, v in doc.items() if k != key})
    return b"".join((b'{"', key.encode("ascii"), b'":', _encode(doc[key]),
                     b"," if rest != b"{}" else b"", rest[1:]))


def _lists(state: dict) -> tuple:
    return state["instances"], state["vim"]["networks"], state["vim"]["vdus"]


def _line_end(data: bytes, newline: int) -> int:
    """Where the line that ends at `newline` ends without the separator after
    it: trailing spaces and tabs, then one comma."""
    while data[newline - 1] in b" \t":
        newline -= 1
    return newline - 1 if data[newline - 1] == ord(",") else newline


def _index(data: bytes, bounds: list[tuple[int, int]]) -> tuple[dict, ...]:
    """Every document line's (start, end) by key, per group; a ValueError for a line out of layout.
    A key with no escape or control character is its bytes, decoded, and no more of its line is;
    any other is read as JSON (``scanstring``) from its line decoded whole."""
    spans = ({}, {}, {})
    for (lo, hi), prefix, plain, group in zip(bounds, _PREFIXES, _PLAIN_KEYS, spans):
        start = lo + 1
        while start <= hi:
            newline = data.find(b"\n", start)
            end = _line_end(data, newline)
            match = plain.match(data, start, end)
            if match:
                key = match[1].decode("utf-8")
            elif data.startswith(prefix, start, end):
                key = json.decoder.scanstring(data[start:end].decode("utf-8"), len(prefix))[0]
            else:
                raise ValueError(f"a document line does not start with {prefix.decode()}")
            group[key] = (start, end)
            start = newline + 1
    return spans


class _StateFile:
    """A loaded ``state.json`` in the line layout: its bytes, its global
    fields, each group's byte range, and where each line found by key lies.
    A file is laid out in lines as it loads if it is in another layout, and
    at most once more (``relaid``) if a line is out of the layout, a document
    is joined onto another's line (``find``, ``locate``) or a group is listed."""

    def __init__(self, data: bytes, path: Path | None = None):
        self.path = path
        if not self._read(data):
            self._relayout(data)

    def _read(self, data: bytes) -> bool:
        """Take `data` if it holds no ``\\r`` and its skeleton is in the layout:
        its first line and last three that start with ``]`` hold the global fields."""
        closing = [len(data)]  # where each closing line starts: at the \n before it
        for _ in range(3):
            closing.insert(0, data.rfind(b"\n]", 0, max(closing[0], 0)))
        if closing[0] < 0 or b"\r" in data:
            return False
        opening = [data.find(b"\n"), *(data.find(b"\n", at + 1) for at in closing[:2])]  # where each ends
        skeleton = (data[:opening[0]], *(data[at + 1:end] for at, end in zip(closing, opening[1:])),
                    data[closing[2] + 1:])
        try:  # a marker in place of each group: the state must hold each in its list
            state = json.loads(b"%b0%b1%b2%b" % skeleton)
            if list(_lists(state)) != [[0], [1], [2]]:
                return False
        except (ValueError, KeyError, TypeError):
            return False
        self.data, self.state = data, state
        self.bounds = list(zip(opening, closing))  # per group: its first line's \n to its closing line's \n
        self.spans = ({}, {}, {})  # per group: key -> (start, end) of each line found by key
        self.indexed = opening == closing[:3]  # whether the spans hold every line, as in a file of none
        self.relaid = False  # whether these bytes were laid out here: then every document has its line, indexed
        return True

    def _relayout(self, data: bytes):
        """Take `data`, a whole state in any JSON layout, laid out in lines
        (its documents spliced into its empty skeleton) and indexed."""
        state = json.loads(data)
        groups = [[(doc[key], _line(doc, key)) for doc in docs] for docs, key in zip(_lists(state), _KEYS)]
        skeleton = _skeleton({**state, "instances": [0], "vim": {**state["vim"], "networks": [1], "vdus": [2]}})
        if not (self._read(b"\n".join(skeleton)) and self._read(b"".join(self.splice(skeleton, groups)))):
            raise ValueError("its global fields hide where its lists are")
        self.spans, self.indexed, self.relaid = _index(self.data, self.bounds), True, True

    def _laid_out(self):
        """Lay the loaded bytes out in lines again; bytes that are not one
        state are corrupt."""
        try:
            self._relayout(self.data)
        except _DECODE_ERRORS as exc:
            raise StoreError(f"corrupt state file {self.path}: {type(exc).__name__}: {exc}") from exc

    def find(self, group: int, key) -> dict | None:
        """The document of `group` under `key`, parsed from its line. Data after
        it shows a joined document: the file is laid out in lines and read again."""
        span = self.locate(group, key)
        try:
            return None if span is None else json.loads(self.data[span[0]:span[1]])
        except json.JSONDecodeError as exc:
            if self.relaid or exc.msg != "Extra data":
                raise
        self._laid_out()
        return self.find(group, key)

    def locate(self, group: int, key) -> tuple[int, int] | None:
        """Where the line of `group` under `key` lies, found with no parse. A key
        no line starts with, but whose text (``"id":"ns-2"``) is in the group, is
        on another's line: the file is laid out in lines and looked up again."""
        span = self._span(group, key)
        if span is None and not self.relaid and \
                self.data.find(_PREFIXES[group][1:-1] + _encode(key), *self.bounds[group]) >= 0:
            self._laid_out()
            span = self._span(group, key)
        return span

    def _span(self, group: int, key) -> tuple[int, int] | None:
        """Where the line of `group` under `key` lies: the last to start with its
        prefix and `key`, found with one backward search, or else the index's (the
        whole file indexed once, laid out first if a line is out of the layout)."""
        if not self.indexed:
            lo, hi = self.bounds[group]
            needle = b"\n" + _PREFIXES[group][:-1] + _encode(key)
            at = self.data.rfind(needle, lo, hi)
            if at >= 0 and self.data[at + len(needle)] in b",}":
                self.spans[group][key] = (at + 1, _line_end(self.data, self.data.find(b"\n", at + 1)))
            else:
                try:
                    self.spans, self.indexed = _index(self.data, self.bounds), True
                except ValueError:
                    self._laid_out()
        return self.spans[group].get(key)

    def splice(self, skeleton: tuple[bytes, ...], groups: list[list[tuple]]) -> list:
        """The pieces of the loaded bytes with `skeleton` in place of the skeleton
        lines and, in each group, each (key, line) of `groups` in place of the line
        under `key`, or after the group's last line if it has none; a line of None
        drops the one under `key`. Every other line stays as loaded."""
        for group, changes in enumerate(groups):  # a key set unread may still have a line
            for key in [key for key, _ in changes if key not in self.spans[group]]:
                self._span(group, key)
        data, view = self.data, memoryview(self.data)
        out = [skeleton[0]]
        for (lo, hi), spans, changes, closing in zip(self.bounds, self.spans, groups, skeleton[1:]):
            pieces, at = [], lo + 1  # where the next line not spliced yet starts
            for start, end, line in sorted(spans[key] + (line,) for key, line in changes if key in spans):
                if at < start:  # the lines before, without the separator after the last
                    pieces.append(view[at:_line_end(data, start - 1)])
                if line is not None:
                    pieces.append(line)
                at = data.find(b"\n", end) + 1
            if at < hi:
                pieces.append(view[at:hi])
            pieces += [line for key, line in changes if key not in spans and line is not None]
            for i, piece in enumerate(pieces):
                out += (b",\n" if i else b"\n", piece)
            out.append(b"\n" + closing)
        return out


class _Group(NamedTuple):
    """A group of a ``_StateFile``'s lines, as ``LazyDocuments`` reads them."""
    file: _StateFile
    group: int

    def get(self, key) -> dict | None:
        return self.file.find(self.group, key)

    def __contains__(self, key) -> bool:
        return self.file.locate(self.group, key) is not None

    def keys(self):
        if not self.file.relaid:  # so that a document joined onto another's line is listed
            self.file._laid_out()
        return self.file.spans[self.group].keys()


def _skeleton(state: dict) -> tuple[bytes, ...]:
    """The lines around the document lines: `state`, which holds a marker in place of
    each group, encoded and split there (no other list in it sits under their keys)."""
    text = _encode(state)
    lines = []
    for marker in (b'"instances":[0', b'"networks":[1', b'"vdus":[2'):
        head, _, text = text.partition(marker)
        lines.append(head + marker[:-1])
    return (*lines, text)


def _catalog_name(kind: str, id_: str) -> str:
    return f"{kind}-{id_}.yaml"


class _CatalogListing(Mapping):
    """Each ``*.yaml`` file of a catalog directory by the (kind, id) its name
    gives, so that a lookup reads one file; the directory is listed on first lookup."""

    def __init__(self, catalog_dir: Path):
        self.dir = catalog_dir

    @functools.cached_property
    def paths(self) -> dict[tuple[str, str], Path]:
        try:  # one listing, no stat per name: each name ending in .yaml, as the glob *.yaml gives them
            names = sorted(name for name in os.listdir(self.dir) if name.endswith(".yaml"))
        except OSError:  # no catalog directory, or none that can be listed
            return {}
        # (kind, id): its stem, as Path.stem reads it, split at the first "-"
        return {os.path.splitext(name)[0].partition("-")[::2]: self.dir / name for name in names}

    def __getitem__(self, key) -> Path:
        return self.paths[key]

    def __iter__(self):
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)


def _compiled(text: str, doc) -> bytes | None:
    """The compiled form of a catalog file holding `text`, which parses to
    `doc`: both as one JSON document. None if `doc` does not come back from
    JSON as it was (a YAML date, a non-string key or an infinity)."""
    try:
        encoded = json.dumps({"yaml": text, "doc": doc}, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError):
        return None
    return encoded.encode("ascii") if json.loads(encoded)["doc"] == doc else None


def _open_shadow(tmp: Path) -> int:
    """A descriptor to write `tmp` from its start: the file there if it is a
    regular file with one link, else a new one in its place, so that a
    symlink or a hard-linked backup (``cp -al``) is never written through."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW
    try:
        fd = os.open(tmp, flags, 0o600)  # its owner's alone: state.json holds private keys
    except OSError as exc:
        if exc.errno != errno.ELOOP:  # ELOOP: a symlink
            raise
    else:
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_nlink == 1:
            return fd
        os.close(fd)
    os.unlink(tmp)
    return os.open(tmp, flags | os.O_EXCL, 0o600)


def _write_atomic(path: Path, pieces: Iterable[bytes]):
    """Replace `path` with the joined `pieces` so that a process killed
    mid-save leaves the old file or the new one, never a torn one.

    The bytes go into the shadow ``<name>.tmp``, in place, and the names are
    swapped: `path` is hard-linked as ``<name>.old``, the shadow renamed
    over `path`, and ``.old`` renamed to the shadow's name. At every step
    `path` names a whole file, old or new; a ``.old`` left by a killed save
    is unlinked first. So the file a save replaces is the next save's
    shadow, and a save frees or allocates blocks only as the file's length
    changes. With no file
    to keep (a first save, a new catalog file), or where the filesystem
    refuses the link, the shadow is renamed over `path` alone. The shadow
    holds the previous contents until the next save. The names end in
    ``.tmp`` and ``.old``, so no ``*.yaml`` glob picks them up.

    Overwriting the shadow in place is safe only because no reader in the
    program holds its inode: every command holds the store's ``flock`` from
    load to save, and ``Store.load`` copies the file (``read_bytes``) and
    never maps it. A reader outside the lock should copy the store between
    commands. Nothing calls ``fsync``, so nothing is promised against power
    loss: ext4's ``auto_da_alloc`` flushes a new file renamed over an old
    one, but not blocks overwritten in place, so after a power cut the
    renamed shadow may hold blocks of the state two saves back."""
    tmp, old = path.with_name(path.name + ".tmp"), path.with_name(path.name + ".old")
    with os.fdopen(_open_shadow(tmp), "wb", buffering=1 << 16) as f:  # ~20 write calls per MB of lines
        f.writelines(pieces)
        f.truncate()  # cuts off the rest of longer contents it held
    with suppress(FileNotFoundError):  # else left by a killed save
        os.unlink(old)
    try:
        os.link(path, old)
    except OSError:  # nothing to keep, or no hard links here
        os.replace(tmp, path)
        return
    os.replace(tmp, path)
    os.replace(old, tmp)


# what decoding a malformed document or catalog file raises
_DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError,
                  DescriptorError)


class LazyDocuments(MutableMapping):
    """A mapping whose loaded entries stay as loaded (a ``state.json`` line,
    a catalog file's path) until first read; only then does ``decode`` turn
    one into its object. ``Store.load`` keeps the instances, the VIM's
    networks and VDUs, and the catalog in these, so a command decodes only
    what it touches.

    ``loaded`` reads one loaded entry by key (``get``: a line's document,
    parsed), tells whether it has one without reading it (``in``) and lists
    the loaded keys in order (``keys``), which the mapping does only when
    iterated or sized. ``decoded`` holds each object decoded or set since
    loading, ``deleted`` each key deleted since; an added key comes last.

    A malformed document, read or decoded, raises ``StoreError`` naming
    ``describe(key)``, never a ``KeyError``, which ``Mapping.get`` would
    report as a missing entry. An error that is not the document's fault, such as a bind's
    ``TransportError``, passes through. The mapping holds its documents and
    callables, never the orchestrator, so that dropping the orchestrator
    frees the loaded documents without the cycle collector.
    """

    def __init__(self, loaded, decode: Callable, describe: Callable[[object], str]):
        self.loaded = loaded
        self.decoded = {}  # key -> the object, once decoded or set
        self.deleted = set()
        self._decode = decode
        self._describe = describe

    def __getitem__(self, key):
        if key in self.decoded:
            return self.decoded[key]
        try:
            entry = None if key in self.deleted else self.loaded.get(key)
            if entry is not None:
                self.decoded[key] = self._decode(entry)
        except _DECODE_ERRORS as exc:
            raise StoreError(f"corrupt {self._describe(key)}: {type(exc).__name__}: {exc}") from exc
        if entry is None:
            raise KeyError(key)
        return self.decoded[key]

    def __setitem__(self, key, value):
        self.decoded[key] = value
        self.deleted.discard(key)

    def __delitem__(self, key):
        if key not in self:
            raise KeyError(key)
        self.decoded.pop(key, None)
        self.deleted.add(key)

    def __contains__(self, key) -> bool:
        return key in self.decoded or (key not in self.deleted and key in self.loaded)

    def __iter__(self):
        loaded = self.loaded.keys()
        return iter([key for key in loaded if key not in self.deleted]
                    + [key for key in self.decoded if key not in loaded])

    def __len__(self) -> int:
        return sum(1 for _ in self)


def loaded(entries: Mapping) -> list[tuple]:
    """The (key, object) pairs in memory: those decoded or set since loading,
    or every pair of a plain mapping."""
    return list((entries.decoded if isinstance(entries, LazyDocuments) else entries).items())


def _orchestrator_from_doc(file: _StateFile, backend) -> Orchestrator:
    where = f"state file {file.path}:"
    state = file.state
    instances, networks, vdus = (_Group(file, group) for group in range(3))
    vim = Vim(SimClock(_unfrac(state["vim"]["clock"])))
    vim._networks = LazyDocuments(networks, _network_from_doc, lambda k: f"{where} network {k}")
    vim._vdus = LazyDocuments(vdus, _vdu_from_doc, lambda k: f"{where} vdu {k}")
    orch = Orchestrator(vim=vim, backend=backend)
    orch._next_ns = state["next-ns"]
    orch._next_slice = state["next-slice"]
    orch._next_slice_net = state["next-slice-net"]
    for a in state["actors"]:
        orch.register_actor(Actor(a["name"], a["role"], frozenset(a["permitted"])))
    orch.instances = LazyDocuments(instances, functools.partial(_instance_from_doc, backend=orch.backend,
                                                                where=where),
                                   lambda k: f"{where} instance {k}")
    for sdoc in state["slices"]:
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
                text = serialize_descriptor(descriptor)
                _write_atomic(catalog_dir / name, [text.encode("utf-8")])
                compiled = _compiled(text, descriptor.doc)
                if compiled is not None:  # after its YAML file: a form compiled from other text is unused
                    _write_atomic((catalog_dir / name).with_suffix(".json"), [compiled])
                self._catalog_files[name] = descriptor
        groups = [(orch.instances, lambda i: _line(_instance_to_doc(i), "id")),
                  (orch.vim._networks, lambda n: _line(_network_to_doc(n), "name")),
                  (orch.vim._vdus, lambda v: _line(_vdu_to_doc(v), "id"))]
        skeleton = _skeleton({
            "version": VERSION,
            "vim": {"clock": _frac(orch.vim.clock.now), "networks": [1], "vdus": [2]},
            "next-ns": orch._next_ns, "next-slice": orch._next_slice, "next-slice-net": orch._next_slice_net,
            "actors": [{"name": a.name, "role": a.role, "permitted": sorted(a.permitted)}
                       for a in orch.actors.values()],
            "instances": [0],
            "slices": [{"id": s.id, "nst-id": s.nst_id, "ns-instance-ids": list(s.ns_instance_ids),
                        "networks": s.networks} for s in orch.slices.values()],
        })
        lines = getattr(orch.instances, "loaded", None)
        # an orchestrator built in memory is spliced into its own empty skeleton
        file = lines.file if isinstance(lines, _Group) else _StateFile(b"\n".join(skeleton))
        changes = [[(key, encode(value)) for key, value in loaded(entries)]
                   + [(key, None) for key in getattr(entries, "deleted", ())] for entries, encode in groups]
        # after the catalog files, so that the state never names a descriptor not on disk
        _write_atomic(self.root / STATE_FILE, file.splice(skeleton, changes))

    def load(self, backend=None) -> Orchestrator:
        """Rebuild the orchestrator. Instances, VIM entries and catalog
        descriptors are decoded on first access (see ``LazyDocuments``), and
        the catalog directory is listed on the first lookup; an instance's
        gateways that were bound re-bind their listen endpoints on the
        supplied backend then."""
        state_path = self.root / STATE_FILE
        if not state_path.exists():
            orch = Orchestrator(backend=backend)
        else:
            try:
                file = _StateFile(state_path.read_bytes(), state_path)
                version = _encode(file.state.get("version")).decode()  # "null" if it has none
                if version != str(VERSION):
                    raise StoreError(f"store {self.root} has version {version}; this build reads {VERSION}")
                orch = _orchestrator_from_doc(file, backend)
            except (OSError, *_DECODE_ERRORS) as exc:  # ValueError covers json.JSONDecodeError
                raise StoreError(f"corrupt state file {state_path}: {type(exc).__name__}: {exc}") from exc
        listing = _CatalogListing(self.root / CATALOG_DIR)
        orch.catalog._entries = LazyDocuments(listing, self._read_descriptor,
                                              lambda key: f"catalog file {listing[key]}")
        return orch

    def _read_descriptor(self, path: Path) -> Descriptor:
        descriptor = self._catalog_files[path.name] = _read_catalog_file(path)
        return descriptor


def _read_catalog_file(path: Path) -> Descriptor:
    """The descriptor in catalog file `path`, checked from its compiled form
    if that was compiled from the file's exact text, else parsed from the text."""
    text = path.read_text(encoding="utf-8")
    try:
        compiled = json.loads(path.with_suffix(".json").read_bytes())
        descriptor = descriptor_from_doc(compiled["doc"]) if compiled["yaml"] == text else None
    except (OSError, *_DECODE_ERRORS):  # none, unreadable or malformed: the text decides
        descriptor = None
    if descriptor is None:
        descriptor = parse_descriptor(text)
    if _catalog_name(descriptor.kind, descriptor.id) != path.name:
        raise ValueError(f"it holds {descriptor.kind} {descriptor.id!r}")
    return descriptor
