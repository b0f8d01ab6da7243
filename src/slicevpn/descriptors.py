"""Descriptor parsing, validation, and cataloguing.

Descriptor documents are a strict subset of YAML: mappings, sequences, and
plain scalars only. Anchors, aliases, explicit tags, and duplicate mapping
keys are rejected. Every document carries ``kind: vnfd | nsd | nst`` and
``schema-version: 1``; unknown keys anywhere are schema errors.

All parsing functions are pure and total over well-formed documents; the
returned dataclasses are immutable and compare field-for-field, so
``parse(serialize(d)) == d`` holds for every valid descriptor.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Iterable, Union

import yaml

from slicevpn.errors import SliceVpnError

SCHEMA_VERSION = 1

PARAM_TYPES = ("string", "int", "ipaddr", "cidr", "endpoint")


class DescriptorError(SliceVpnError):
    """Base for descriptor parse/validation failures."""


class DescriptorSyntaxError(DescriptorError):
    """Document is not well-formed in the strict YAML subset."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"syntax error{where}: {message}")


class DescriptorSchemaError(DescriptorError):
    """Document violates the descriptor schema (unknown/missing field, bad value)."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"schema error at {path}: {message}")


# --- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class PrimitiveParam:
    name: str
    type: str  # one of PARAM_TYPES


@dataclass(frozen=True)
class PrimitiveSpec:
    name: str
    params: tuple[PrimitiveParam, ...] = ()
    description: str = ""


@dataclass(frozen=True)
class InterfaceSpec:
    name: str
    network: str  # default network ref; remapped per NSD attachment at instantiation


@dataclass(frozen=True)
class VduSpec:
    name: str
    image: str
    interfaces: tuple[InterfaceSpec, ...] = ()
    cloud_init_packages: tuple[str, ...] = ()
    requires_forwarding: bool = False


@dataclass(frozen=True)
class VnfDescriptor:
    id: str
    name: str
    mgmt_interface: str
    vdus: tuple[VduSpec, ...]
    initial_config_primitives: tuple[PrimitiveSpec, ...] = ()
    config_primitives: tuple[PrimitiveSpec, ...] = ()

    kind = "vnfd"

    def interface_names(self) -> set[str]:
        return {i.name for vdu in self.vdus for i in vdu.interfaces}


@dataclass(frozen=True)
class NsdVnfMember:
    member_index: int
    vnfd_id: str


@dataclass(frozen=True)
class AttachmentRef:
    member_index: int
    interface: str


@dataclass(frozen=True)
class VirtualLinkSpec:
    name: str
    cidr: str
    attachments: tuple[AttachmentRef, ...]


@dataclass(frozen=True)
class ConnectionPointSpec:
    name: str
    member_index: int
    interface: str


@dataclass(frozen=True)
class NsDescriptor:
    id: str
    name: str
    vnf_members: tuple[NsdVnfMember, ...]
    virtual_links: tuple[VirtualLinkSpec, ...] = ()
    connection_points: tuple[ConnectionPointSpec, ...] = ()

    kind = "nsd"


@dataclass(frozen=True)
class SliceLinkEndpoint:
    ns_member: int  # 1-based position in ns_members
    connection_point: str


@dataclass(frozen=True)
class SliceLinkSpec:
    name: str
    endpoints: tuple[SliceLinkEndpoint, ...]


@dataclass(frozen=True)
class NstDescriptor:
    id: str
    name: str
    ns_members: tuple[str, ...]  # nsd ids, 1-based positions referenced by slice links
    slice_links: tuple[SliceLinkSpec, ...] = ()

    kind = "nst"


Descriptor = Union[VnfDescriptor, NsDescriptor, NstDescriptor]


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not any(i.severity == "error" for i in self.issues)

    def errors(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]


# --- strict YAML loading ------------------------------------------------------


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects aliases, anchors and explicit tags while it
    composes, and non-scalar or duplicate mapping keys while it constructs,
    so a document is scanned once."""

    def compose_node(self, parent, index):
        event = self.peek_event()
        if isinstance(event, yaml.AliasEvent):
            problem = "aliases are not allowed"
        elif event.anchor:
            problem = "anchors are not allowed"
        elif event.tag:
            problem = "explicit tags are not allowed"
        else:
            return super().compose_node(parent, index)
        mark = event.start_mark
        raise DescriptorSyntaxError(problem, mark.line + 1, mark.column + 1)

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            mark = key_node.start_mark
            if not isinstance(key_node, yaml.ScalarNode):
                raise DescriptorSyntaxError("mapping keys must be scalars", mark.line + 1, mark.column + 1)
            key = self.construct_object(key_node, deep=True)
            if key in seen:
                raise DescriptorSyntaxError(
                    f"duplicate mapping key {key!r}", mark.line + 1, mark.column + 1
                )
            seen.add(key)
        return super().construct_mapping(node, deep)


def load_strict_yaml(text: str):
    """Parse the YAML subset: no anchors, aliases, tags, or duplicate keys."""
    try:
        return yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise DescriptorSyntaxError(str(getattr(exc, "problem", exc)), mark.line + 1, mark.column + 1) from exc
        raise DescriptorSyntaxError(str(exc)) from exc


# --- schema walking helpers ---------------------------------------------------


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise DescriptorSchemaError(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _require_sequence(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise DescriptorSchemaError(path, f"expected a sequence, got {type(obj).__name__}")
    return obj


def _check_keys(mapping: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for key in mapping:
        if key not in required and key not in optional:
            raise DescriptorSchemaError(f"{path}/{key}", "unknown field")
    for key in required:
        if key not in mapping:
            raise DescriptorSchemaError(f"{path}/{key}", "missing required field")


def _get_str(mapping: dict, path: str, key: str) -> str:
    value = mapping[key]
    if not isinstance(value, str) or not value:
        raise DescriptorSchemaError(f"{path}/{key}", "expected a non-empty string")
    return value


def _get_int(mapping: dict, path: str, key: str) -> int:
    value = mapping[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise DescriptorSchemaError(f"{path}/{key}", "expected an integer")
    return value


def _get_bool(mapping: dict, path: str, key: str, default: bool) -> bool:
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, bool):
        raise DescriptorSchemaError(f"{path}/{key}", "expected a boolean")
    return value


def _check_cidr(value: str, path: str) -> str:
    try:
        net = ipaddress.IPv4Network(value, strict=True)
    except (ipaddress.AddressValueError, ipaddress.NetmaskValueError, ValueError) as exc:
        raise DescriptorSchemaError(path, f"invalid IPv4 CIDR {value!r}: {exc}") from exc
    return str(net)


def _document(source: str | dict, expected_kind: str) -> dict:
    """The checked top-level mapping of a descriptor given as text or as an
    already-loaded document."""
    doc = _require_mapping(load_strict_yaml(source) if isinstance(source, str) else source, "/")
    kind = doc.get("kind")
    if kind != expected_kind:
        raise DescriptorSchemaError("/kind", f"expected {expected_kind!r}, got {kind!r}")
    version = doc.get("schema-version")
    if version != SCHEMA_VERSION:
        raise DescriptorSchemaError("/schema-version", f"expected {SCHEMA_VERSION}, got {version!r}")
    return doc


# --- parsing ------------------------------------------------------------------


def _parse_primitive(obj, path: str) -> PrimitiveSpec:
    mapping = _require_mapping(obj, path)
    _check_keys(mapping, path, required=("name",), optional=("description", "params"))
    name = _get_str(mapping, path, "name")
    description = ""
    if "description" in mapping:
        description = _get_str(mapping, path, "description")
    params: list[PrimitiveParam] = []
    seen = set()
    for i, p in enumerate(_require_sequence(mapping.get("params", []), f"{path}/params")):
        ppath = f"{path}/params/{i}"
        pmap = _require_mapping(p, ppath)
        _check_keys(pmap, ppath, required=("name", "type"))
        pname = _get_str(pmap, ppath, "name")
        ptype = _get_str(pmap, ppath, "type")
        if ptype not in PARAM_TYPES:
            raise DescriptorSchemaError(f"{ppath}/type", f"unknown type {ptype!r}, expected one of {PARAM_TYPES}")
        if pname in seen:
            raise DescriptorSchemaError(f"{ppath}/name", f"duplicate param name {pname!r}")
        seen.add(pname)
        params.append(PrimitiveParam(pname, ptype))
    return PrimitiveSpec(name=name, params=tuple(params), description=description)


def _parse_primitive_list(doc: dict, path: str, key: str, seen_names: set[str]) -> tuple[PrimitiveSpec, ...]:
    out: list[PrimitiveSpec] = []
    for i, obj in enumerate(_require_sequence(doc.get(key, []), f"{path}/{key}")):
        prim = _parse_primitive(obj, f"{path}/{key}/{i}")
        if prim.name in seen_names:
            raise DescriptorSchemaError(f"{path}/{key}/{i}/name", f"duplicate primitive name {prim.name!r}")
        seen_names.add(prim.name)
        out.append(prim)
    return tuple(out)


def _parse_vdu(obj, path: str) -> VduSpec:
    mapping = _require_mapping(obj, path)
    _check_keys(
        mapping, path,
        required=("name", "image"),
        optional=("interfaces", "cloud-init-packages", "requires-forwarding"),
    )
    name = _get_str(mapping, path, "name")
    image = _get_str(mapping, path, "image")
    interfaces: list[InterfaceSpec] = []
    seen = set()
    for i, iface in enumerate(_require_sequence(mapping.get("interfaces", []), f"{path}/interfaces")):
        ipath = f"{path}/interfaces/{i}"
        imap = _require_mapping(iface, ipath)
        _check_keys(imap, ipath, required=("name", "network"))
        iname = _get_str(imap, ipath, "name")
        if iname in seen:
            raise DescriptorSchemaError(f"{ipath}/name", f"duplicate interface name {iname!r}")
        seen.add(iname)
        interfaces.append(InterfaceSpec(iname, _get_str(imap, ipath, "network")))
    packages: list[str] = []
    for i, pkg in enumerate(_require_sequence(mapping.get("cloud-init-packages", []), f"{path}/cloud-init-packages")):
        if not isinstance(pkg, str) or not pkg:
            raise DescriptorSchemaError(f"{path}/cloud-init-packages/{i}", "expected a package name")
        packages.append(pkg)
    return VduSpec(
        name=name,
        image=image,
        interfaces=tuple(interfaces),
        cloud_init_packages=tuple(packages),
        requires_forwarding=_get_bool(mapping, path, "requires-forwarding", False),
    )


def parse_vnfd(source: str | dict) -> VnfDescriptor:
    """Parse a VNF descriptor document (text or a loaded mapping)."""
    doc = _document(source, "vnfd")
    _check_keys(
        doc, "",
        required=("kind", "schema-version", "id", "name", "mgmt-interface", "vdus"),
        optional=("initial-config-primitives", "config-primitives"),
    )
    vdus: list[VduSpec] = []
    seen_vdus = set()
    for i, obj in enumerate(_require_sequence(doc["vdus"], "/vdus")):
        vdu = _parse_vdu(obj, f"/vdus/{i}")
        if vdu.name in seen_vdus:
            raise DescriptorSchemaError(f"/vdus/{i}/name", f"duplicate vdu name {vdu.name!r}")
        seen_vdus.add(vdu.name)
        vdus.append(vdu)
    if not vdus:
        raise DescriptorSchemaError("/vdus", "at least one vdu is required")
    mgmt = _get_str(doc, "", "mgmt-interface")
    declared = {i.name for vdu in vdus for i in vdu.interfaces}
    if mgmt not in declared:
        raise DescriptorSchemaError("/mgmt-interface", f"{mgmt!r} names no declared interface")
    primitive_names: set[str] = set()
    initial = _parse_primitive_list(doc, "", "initial-config-primitives", primitive_names)
    config = _parse_primitive_list(doc, "", "config-primitives", primitive_names)
    return VnfDescriptor(
        id=_get_str(doc, "", "id"),
        name=_get_str(doc, "", "name"),
        mgmt_interface=mgmt,
        vdus=tuple(vdus),
        initial_config_primitives=initial,
        config_primitives=config,
    )


def parse_nsd(source: str | dict) -> NsDescriptor:
    """Parse a network service descriptor document (text or a loaded mapping)."""
    doc = _document(source, "nsd")
    _check_keys(
        doc, "",
        required=("kind", "schema-version", "id", "name", "vnf-members"),
        optional=("virtual-links", "connection-points"),
    )
    members: list[NsdVnfMember] = []
    seen_idx: set[int] = set()
    for i, obj in enumerate(_require_sequence(doc["vnf-members"], "/vnf-members")):
        path = f"/vnf-members/{i}"
        mapping = _require_mapping(obj, path)
        _check_keys(mapping, path, required=("member-index", "vnfd-id"))
        idx = _get_int(mapping, path, "member-index")
        if idx in seen_idx:
            raise DescriptorSchemaError(f"{path}/member-index", f"duplicate member index {idx}")
        seen_idx.add(idx)
        members.append(NsdVnfMember(idx, _get_str(mapping, path, "vnfd-id")))
    if not members:
        raise DescriptorSchemaError("/vnf-members", "at least one member is required")

    links: list[VirtualLinkSpec] = []
    seen_links: set[str] = set()
    for i, obj in enumerate(_require_sequence(doc.get("virtual-links", []), "/virtual-links")):
        path = f"/virtual-links/{i}"
        mapping = _require_mapping(obj, path)
        _check_keys(mapping, path, required=("name", "cidr", "attachments"))
        lname = _get_str(mapping, path, "name")
        if lname in seen_links:
            raise DescriptorSchemaError(f"{path}/name", f"duplicate virtual link name {lname!r}")
        seen_links.add(lname)
        cidr = _check_cidr(_get_str(mapping, path, "cidr"), f"{path}/cidr")
        attachments: list[AttachmentRef] = []
        for j, att in enumerate(_require_sequence(mapping["attachments"], f"{path}/attachments")):
            apath = f"{path}/attachments/{j}"
            amap = _require_mapping(att, apath)
            _check_keys(amap, apath, required=("member-index", "interface"))
            idx = _get_int(amap, apath, "member-index")
            if idx not in seen_idx:
                raise DescriptorSchemaError(f"{apath}/member-index", f"undeclared member index {idx}")
            attachments.append(AttachmentRef(idx, _get_str(amap, apath, "interface")))
        if not attachments:
            raise DescriptorSchemaError(f"{path}/attachments", "at least one attachment is required")
        links.append(VirtualLinkSpec(lname, cidr, tuple(attachments)))

    cps: list[ConnectionPointSpec] = []
    seen_cps: set[str] = set()
    for i, obj in enumerate(_require_sequence(doc.get("connection-points", []), "/connection-points")):
        path = f"/connection-points/{i}"
        mapping = _require_mapping(obj, path)
        _check_keys(mapping, path, required=("name", "member-index", "interface"))
        cname = _get_str(mapping, path, "name")
        if cname in seen_cps:
            raise DescriptorSchemaError(f"{path}/name", f"duplicate connection point {cname!r}")
        seen_cps.add(cname)
        idx = _get_int(mapping, path, "member-index")
        if idx not in seen_idx:
            raise DescriptorSchemaError(f"{path}/member-index", f"undeclared member index {idx}")
        cps.append(ConnectionPointSpec(cname, idx, _get_str(mapping, path, "interface")))

    return NsDescriptor(
        id=_get_str(doc, "", "id"),
        name=_get_str(doc, "", "name"),
        vnf_members=tuple(members),
        virtual_links=tuple(links),
        connection_points=tuple(cps),
    )


def parse_nst(source: str | dict) -> NstDescriptor:
    """Parse a network slice template document (text or a loaded mapping)."""
    doc = _document(source, "nst")
    _check_keys(
        doc, "",
        required=("kind", "schema-version", "id", "name", "ns-members"),
        optional=("slice-links",),
    )
    members: list[str] = []
    for i, nsd_id in enumerate(_require_sequence(doc["ns-members"], "/ns-members")):
        if not isinstance(nsd_id, str) or not nsd_id:
            raise DescriptorSchemaError(f"/ns-members/{i}", "expected an nsd id")
        members.append(nsd_id)
    if not members:
        raise DescriptorSchemaError("/ns-members", "a slice needs at least one member")

    links: list[SliceLinkSpec] = []
    seen_links: set[str] = set()
    for i, obj in enumerate(_require_sequence(doc.get("slice-links", []), "/slice-links")):
        path = f"/slice-links/{i}"
        mapping = _require_mapping(obj, path)
        _check_keys(mapping, path, required=("name", "endpoints"))
        lname = _get_str(mapping, path, "name")
        if lname in seen_links:
            raise DescriptorSchemaError(f"{path}/name", f"duplicate slice link name {lname!r}")
        seen_links.add(lname)
        endpoints: list[SliceLinkEndpoint] = []
        for j, ep in enumerate(_require_sequence(mapping["endpoints"], f"{path}/endpoints")):
            epath = f"{path}/endpoints/{j}"
            emap = _require_mapping(ep, epath)
            _check_keys(emap, epath, required=("ns-member", "connection-point"))
            pos = _get_int(emap, epath, "ns-member")
            if not 1 <= pos <= len(members):
                raise DescriptorSchemaError(f"{epath}/ns-member", f"ns-member {pos} out of range 1..{len(members)}")
            endpoints.append(SliceLinkEndpoint(pos, _get_str(emap, epath, "connection-point")))
        if not endpoints:
            raise DescriptorSchemaError(f"{path}/endpoints", "at least one endpoint is required")
        links.append(SliceLinkSpec(lname, tuple(endpoints)))

    return NstDescriptor(
        id=_get_str(doc, "", "id"),
        name=_get_str(doc, "", "name"),
        ns_members=tuple(members),
        slice_links=tuple(links),
    )


_PARSERS = {"vnfd": parse_vnfd, "nsd": parse_nsd, "nst": parse_nst}


def parse_descriptor(text: str) -> Descriptor:
    """Parse any descriptor document, dispatching on its ``kind``."""
    doc = _require_mapping(load_strict_yaml(text), "/")
    kind = doc.get("kind")
    if kind not in _PARSERS:
        raise DescriptorSchemaError("/kind", f"unknown kind {kind!r}, expected one of {sorted(_PARSERS)}")
    return _PARSERS[kind](doc)


# --- serialization ------------------------------------------------------------


def _primitive_to_doc(p: PrimitiveSpec) -> dict:
    doc: dict = {"name": p.name}
    if p.description:
        doc["description"] = p.description
    if p.params:
        doc["params"] = [{"name": q.name, "type": q.type} for q in p.params]
    return doc


def descriptor_to_doc(d: Descriptor) -> dict:
    """Plain-dict document form of a descriptor (the inverse of parsing)."""
    if isinstance(d, VnfDescriptor):
        doc: dict = {
            "kind": "vnfd",
            "schema-version": SCHEMA_VERSION,
            "id": d.id,
            "name": d.name,
            "mgmt-interface": d.mgmt_interface,
            "vdus": [
                {
                    "name": v.name,
                    "image": v.image,
                    "interfaces": [{"name": i.name, "network": i.network} for i in v.interfaces],
                    "cloud-init-packages": list(v.cloud_init_packages),
                    "requires-forwarding": v.requires_forwarding,
                }
                for v in d.vdus
            ],
        }
        if d.initial_config_primitives:
            doc["initial-config-primitives"] = [_primitive_to_doc(p) for p in d.initial_config_primitives]
        if d.config_primitives:
            doc["config-primitives"] = [_primitive_to_doc(p) for p in d.config_primitives]
        return doc
    if isinstance(d, NsDescriptor):
        doc = {
            "kind": "nsd",
            "schema-version": SCHEMA_VERSION,
            "id": d.id,
            "name": d.name,
            "vnf-members": [{"member-index": m.member_index, "vnfd-id": m.vnfd_id} for m in d.vnf_members],
        }
        if d.virtual_links:
            doc["virtual-links"] = [
                {
                    "name": l.name,
                    "cidr": l.cidr,
                    "attachments": [
                        {"member-index": a.member_index, "interface": a.interface} for a in l.attachments
                    ],
                }
                for l in d.virtual_links
            ]
        if d.connection_points:
            doc["connection-points"] = [
                {"name": c.name, "member-index": c.member_index, "interface": c.interface}
                for c in d.connection_points
            ]
        return doc
    if isinstance(d, NstDescriptor):
        doc = {
            "kind": "nst",
            "schema-version": SCHEMA_VERSION,
            "id": d.id,
            "name": d.name,
            "ns-members": list(d.ns_members),
        }
        if d.slice_links:
            doc["slice-links"] = [
                {
                    "name": l.name,
                    "endpoints": [
                        {"ns-member": e.ns_member, "connection-point": e.connection_point} for e in l.endpoints
                    ],
                }
                for l in d.slice_links
            ]
        return doc
    raise TypeError(f"not a descriptor: {type(d).__name__}")


def serialize_descriptor(d: Descriptor) -> str:
    """Serialize a descriptor to its document text."""
    return yaml.safe_dump(descriptor_to_doc(d), sort_keys=False, default_flow_style=False)


# --- param value coercion -----------------------------------------------------


def coerce_param(type_tag: str, raw: str):
    """Parse a primitive parameter value per its declared type tag.

    Values arrive as strings (CLI ``--param k=v``). ``cidr`` accepts one or
    more comma-separated IPv4 prefixes since allowed-ips lists are inherently
    plural; ``endpoint`` is ``ip:port``.
    """
    if type_tag == "string":
        return raw
    if type_tag == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise DescriptorError(f"expected an integer, got {raw!r}") from exc
    if type_tag == "ipaddr":
        try:
            return str(ipaddress.IPv4Address(raw))
        except (ipaddress.AddressValueError, ValueError) as exc:
            raise DescriptorError(f"expected an IPv4 address, got {raw!r}") from exc
    if type_tag == "cidr":
        nets = []
        for part in raw.split(","):
            part = part.strip()
            try:
                nets.append(str(ipaddress.IPv4Network(part, strict=True)))
            except (ipaddress.AddressValueError, ipaddress.NetmaskValueError, ValueError) as exc:
                raise DescriptorError(f"expected an IPv4 CIDR, got {part!r}") from exc
        if not nets:
            raise DescriptorError("expected at least one CIDR")
        return tuple(nets)
    if type_tag == "endpoint":
        host, sep, port_text = raw.rpartition(":")
        if not sep:
            raise DescriptorError(f"expected ip:port, got {raw!r}")
        try:
            ip = str(ipaddress.IPv4Address(host))
            port = int(port_text)
        except (ipaddress.AddressValueError, ValueError) as exc:
            raise DescriptorError(f"expected ip:port, got {raw!r}") from exc
        if not 0 < port < 65536:
            raise DescriptorError(f"port out of range in {raw!r}")
        return (ip, port)
    raise DescriptorError(f"unknown param type {type_tag!r}")


# --- catalog ------------------------------------------------------------------


class Catalog:
    """Immutable store of onboarded descriptors, keyed by (kind, id)."""

    def __init__(self):
        self._entries: dict[tuple[str, str], Descriptor] = {}

    def add(self, d: Descriptor) -> str:
        key = (d.kind, d.id)
        existing = self._entries.get(key)
        if existing is not None:
            if existing != d:
                raise DescriptorError(f"duplicate id: {d.kind} {d.id!r} already onboarded with different content")
            return d.id  # identical re-onboard is a no-op
        self._entries[key] = d
        return d.id

    def get(self, kind: str, id_: str) -> Descriptor | None:
        return self._entries.get((kind, id_))

    def vnfd(self, id_: str) -> VnfDescriptor | None:
        return self._entries.get(("vnfd", id_))  # type: ignore[return-value]

    def nsd(self, id_: str) -> NsDescriptor | None:
        return self._entries.get(("nsd", id_))  # type: ignore[return-value]

    def nst(self, id_: str) -> NstDescriptor | None:
        return self._entries.get(("nst", id_))  # type: ignore[return-value]

    def descriptors(self) -> list[Descriptor]:
        return list(self._entries.values())

    def validate(self) -> ValidationReport:
        return validate_catalog(self.descriptors())


def _cross_reference_issues(d: Descriptor, by_key: dict[tuple[str, str], Descriptor]) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    if isinstance(d, NsDescriptor):
        for m in d.vnf_members:
            vnfd = by_key.get(("vnfd", m.vnfd_id))
            if vnfd is None:
                issues.append(ValidationIssue(
                    "error", f"nsd:{d.id}/vnf-members/{m.member_index}",
                    f"unresolved vnfd ref {m.vnfd_id!r}"))
        member_vnfd = {m.member_index: by_key.get(("vnfd", m.vnfd_id)) for m in d.vnf_members}
        attached: dict[tuple[int, str], str] = {}
        for link in d.virtual_links:
            for a in link.attachments:
                vnfd = member_vnfd.get(a.member_index)
                if vnfd is not None and a.interface not in vnfd.interface_names():
                    issues.append(ValidationIssue(
                        "error", f"nsd:{d.id}/virtual-links/{link.name}",
                        f"member {a.member_index} ({vnfd.id}) declares no interface {a.interface!r}"))
                key = (a.member_index, a.interface)
                if key in attached:
                    issues.append(ValidationIssue(
                        "error", f"nsd:{d.id}/virtual-links/{link.name}",
                        f"interface {a.interface!r} of member {a.member_index} is already "
                        f"attached to link {attached[key]!r}"))
                else:
                    attached[key] = link.name
        # instantiation boots every declared interface, so unattached ones are errors
        for m in d.vnf_members:
            vnfd = member_vnfd.get(m.member_index)
            if vnfd is None:
                continue
            for name in sorted(vnfd.interface_names()):
                if (m.member_index, name) not in attached:
                    issues.append(ValidationIssue(
                        "error", f"nsd:{d.id}/vnf-members/{m.member_index}",
                        f"interface {name!r} of member {m.member_index} ({vnfd.id}) "
                        f"is not attached to any virtual link"))
        for cp in d.connection_points:
            vnfd = member_vnfd.get(cp.member_index)
            if vnfd is not None and cp.interface not in vnfd.interface_names():
                issues.append(ValidationIssue(
                    "error", f"nsd:{d.id}/connection-points/{cp.name}",
                    f"member {cp.member_index} ({vnfd.id}) declares no interface {cp.interface!r}"))
    elif isinstance(d, NstDescriptor):
        for pos, nsd_id in enumerate(d.ns_members, start=1):
            if ("nsd", nsd_id) not in by_key:
                issues.append(ValidationIssue(
                    "error", f"nst:{d.id}/ns-members/{pos}",
                    f"unresolved nsd ref {nsd_id!r}"))
        for link in d.slice_links:
            for ep in link.endpoints:
                nsd_id = d.ns_members[ep.ns_member - 1]
                nsd = by_key.get(("nsd", nsd_id))
                if nsd is None:
                    continue  # unresolved ref already reported
                if ep.connection_point not in {c.name for c in nsd.connection_points}:
                    issues.append(ValidationIssue(
                        "error", f"nst:{d.id}/slice-links/{link.name}",
                        f"nsd {nsd_id!r} exposes no connection point {ep.connection_point!r}"))
    return issues


def validate_catalog(descriptors: Iterable[Descriptor]) -> ValidationReport:
    """Report duplicate ids and dangling cross-references across a catalog.

    Problems are report entries, never exceptions; ``ok`` is true iff no
    entry has severity ``error``.
    """
    items = list(descriptors)
    issues: list[ValidationIssue] = []
    by_key: dict[tuple[str, str], Descriptor] = {}
    for d in items:
        key = (d.kind, d.id)
        if key in by_key:
            issues.append(ValidationIssue("error", f"{d.kind}:{d.id}", "duplicate id"))
        else:
            by_key[key] = d
    for d in items:
        issues.extend(_cross_reference_issues(d, by_key))
    return ValidationReport(issues=tuple(issues))


def unresolved_references(d: Descriptor, catalog: Catalog) -> list[str]:
    """Messages for this descriptor's references that the catalog cannot resolve yet."""
    by_key = {(x.kind, x.id): x for x in catalog.descriptors()}
    by_key[(d.kind, d.id)] = d
    return [i.message for i in _cross_reference_issues(d, by_key) if "unresolved" in i.message]
