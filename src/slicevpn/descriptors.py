"""Descriptor parsing, validation, and cataloguing.

Descriptor documents are a strict subset of YAML: mappings, sequences, and
plain scalars only. Anchors, aliases, explicit tags, and duplicate mapping
keys are rejected. Every document carries ``kind: vnfd | nsd | nst`` and
``schema-version: 1``; unknown keys anywhere are schema errors.

All parsing functions are pure and total over well-formed documents; the
returned dataclasses are immutable and compare field-for-field. Each keeps
the document it was parsed from, and serializing dumps that document, so
``parse(serialize(d)) == d`` holds for every valid descriptor.

Ids and vdu, interface, virtual-link, connection-point, slice-link,
primitive and param names become file names, VDU ids, param keys and event
text, so each is a token (``_TOKEN``); references, images, display names
and descriptions are free text, though an image holds no control character.
"""

from __future__ import annotations

import functools
import ipaddress
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

from slicevpn.errors import SliceVpnError

SCHEMA_VERSION = 1

PARAM_TYPES = ("string", "int", "ipaddr", "cidr", "endpoint")  # parsed by lifecycle.PARAM_PARSERS

_TOKEN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


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
    """A parsed VNF descriptor. ``doc`` is the document it was parsed from,
    which the catalog writes back; it takes no part in ``==`` or the hash."""
    id: str
    name: str
    mgmt_interface: str
    vdus: tuple[VduSpec, ...]
    initial_config_primitives: tuple[PrimitiveSpec, ...] = ()
    config_primitives: tuple[PrimitiveSpec, ...] = ()
    doc: dict = field(kw_only=True, compare=False, repr=False)

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
    """A parsed network service descriptor; ``doc`` as for ``VnfDescriptor``."""
    id: str
    name: str
    vnf_members: tuple[NsdVnfMember, ...]
    virtual_links: tuple[VirtualLinkSpec, ...] = ()
    connection_points: tuple[ConnectionPointSpec, ...] = ()
    doc: dict = field(kw_only=True, compare=False, repr=False)

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
    """A parsed network slice template; ``doc`` as for ``VnfDescriptor``."""
    id: str
    name: str
    ns_members: tuple[str, ...]  # nsd ids, 1-based positions referenced by slice links
    slice_links: tuple[SliceLinkSpec, ...] = ()
    doc: dict = field(kw_only=True, compare=False, repr=False)

    kind = "nst"


Descriptor = Union[VnfDescriptor, NsDescriptor, NstDescriptor]


@dataclass(frozen=True)
class ValidationIssue:  # always an error
    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


# --- strict YAML loading ------------------------------------------------------


@functools.cache
def _strict_loader():
    """The strict loader class, built on first use: importing this module imports no YAML."""
    import yaml

    class StrictLoader(yaml.SafeLoader):
        """SafeLoader that rejects aliases, anchors and explicit tags while it
        composes, and non-scalar or duplicate mapping keys while it
        constructs, so a document is scanned once."""

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

    return StrictLoader


def load_strict_yaml(text: str):
    """Parse the YAML subset: no anchors, aliases, tags, or duplicate keys."""
    import yaml
    try:
        return yaml.load(text, Loader=_strict_loader())
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


def _entries(doc: dict, path: str, key: str, required: tuple[str, ...], optional: tuple[str, ...] = (),
             at_least_one: str = ""):
    """Each entry of the sequence ``doc[key]`` (empty if absent) as
    ``(path, mapping)``, checked to be a mapping with exactly the given
    fields. If `at_least_one` names what an entry is, an empty sequence is an error."""
    items = _require_sequence(doc.get(key, []), f"{path}/{key}")
    if at_least_one and not items:
        raise DescriptorSchemaError(f"{path}/{key}", f"at least one {at_least_one} is required")
    for i, obj in enumerate(items):
        entry_path = f"{path}/{key}/{i}"
        mapping = _require_mapping(obj, entry_path)
        _check_keys(mapping, entry_path, required, optional)
        yield entry_path, mapping


def _strings(doc: dict, path: str, key: str, what: str) -> tuple[str, ...]:
    """The sequence ``doc[key]`` (empty if absent), checked to hold non-empty strings."""
    items = _require_sequence(doc.get(key, []), f"{path}/{key}")
    for i, item in enumerate(items):
        if not isinstance(item, str) or not item:
            raise DescriptorSchemaError(f"{path}/{key}/{i}", f"expected {what}")
    return tuple(items)


def _claim(seen: set, value, path: str, what: str):
    """Add `value` to `seen`, which must not hold it yet, and return it."""
    if value in seen:
        raise DescriptorSchemaError(path, f"duplicate {what} {value!r}")
    seen.add(value)
    return value


def _get_str(mapping: dict, path: str, key: str) -> str:
    value = mapping[key]
    if not isinstance(value, str) or not value:
        raise DescriptorSchemaError(f"{path}/{key}", "expected a non-empty string")
    return value


def _get_token(mapping: dict, path: str, key: str) -> str:
    """``mapping[key]``, an id or name, which must be a token."""
    value = mapping[key]
    if not isinstance(value, str) or not _TOKEN.fullmatch(value):
        raise DescriptorSchemaError(f"{path}/{key}", f"expected a token matching {_TOKEN.pattern}, got {value!r}")
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
    except ValueError as exc:
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


def _parse_primitives(doc: dict, key: str, seen_names: set[str]) -> tuple[PrimitiveSpec, ...]:
    out: list[PrimitiveSpec] = []
    for path, mapping in _entries(doc, "", key, required=("name",), optional=("description", "params")):
        name = _get_token(mapping, path, "name")
        description = ""
        if "description" in mapping:
            description = _get_str(mapping, path, "description")
        params: list[PrimitiveParam] = []
        seen: set[str] = set()
        for ppath, pmap in _entries(mapping, path, "params", required=("name", "type")):
            pname = _get_token(pmap, ppath, "name")
            ptype = _get_str(pmap, ppath, "type")
            if ptype not in PARAM_TYPES:
                raise DescriptorSchemaError(f"{ppath}/type", f"unknown type {ptype!r}, expected one of {PARAM_TYPES}")
            params.append(PrimitiveParam(_claim(seen, pname, f"{ppath}/name", "param name"), ptype))
        _claim(seen_names, name, f"{path}/name", "primitive name")
        out.append(PrimitiveSpec(name=name, params=tuple(params), description=description))
    return tuple(out)


def _parse_vdu(mapping: dict, path: str) -> VduSpec:
    name = _get_token(mapping, path, "name")
    image = _get_str(mapping, path, "image")
    if _CONTROL.search(image):
        raise DescriptorSchemaError(f"{path}/image", f"expected no control characters, got {image!r}")
    interfaces: list[InterfaceSpec] = []
    seen: set[str] = set()
    for ipath, imap in _entries(mapping, path, "interfaces", required=("name", "network")):
        iname = _claim(seen, _get_token(imap, ipath, "name"), f"{ipath}/name", "interface name")
        interfaces.append(InterfaceSpec(iname, _get_str(imap, ipath, "network")))
    return VduSpec(
        name=name,
        image=image,
        interfaces=tuple(interfaces),
        cloud_init_packages=_strings(mapping, path, "cloud-init-packages", "a package name"),
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
    seen_vdus: set[str] = set()
    for path, mapping in _entries(
        doc, "", "vdus",
        required=("name", "image"),
        optional=("interfaces", "cloud-init-packages", "requires-forwarding"),
        at_least_one="vdu",
    ):
        vdu = _parse_vdu(mapping, path)
        _claim(seen_vdus, vdu.name, f"{path}/name", "vdu name")
        vdus.append(vdu)
    mgmt = _get_str(doc, "", "mgmt-interface")
    declared = {i.name for vdu in vdus for i in vdu.interfaces}
    if mgmt not in declared:
        raise DescriptorSchemaError("/mgmt-interface", f"{mgmt!r} names no declared interface")
    primitive_names: set[str] = set()
    initial = _parse_primitives(doc, "initial-config-primitives", primitive_names)
    config = _parse_primitives(doc, "config-primitives", primitive_names)
    return VnfDescriptor(
        id=_get_token(doc, "", "id"),
        name=_get_str(doc, "", "name"),
        mgmt_interface=mgmt,
        vdus=tuple(vdus),
        initial_config_primitives=initial,
        config_primitives=config,
        doc=doc,
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
    for path, mapping in _entries(doc, "", "vnf-members", required=("member-index", "vnfd-id"),
                                  at_least_one="member"):
        idx = _claim(seen_idx, _get_int(mapping, path, "member-index"), f"{path}/member-index",
                     "member index")
        members.append(NsdVnfMember(idx, _get_str(mapping, path, "vnfd-id")))

    links: list[VirtualLinkSpec] = []
    seen_links: set[str] = set()
    for path, mapping in _entries(doc, "", "virtual-links", required=("name", "cidr", "attachments")):
        lname = _claim(seen_links, _get_token(mapping, path, "name"), f"{path}/name", "virtual link name")
        cidr = _check_cidr(_get_str(mapping, path, "cidr"), f"{path}/cidr")
        attachments: list[AttachmentRef] = []
        for apath, amap in _entries(mapping, path, "attachments", required=("member-index", "interface"),
                                    at_least_one="attachment"):
            idx = _get_int(amap, apath, "member-index")
            if idx not in seen_idx:
                raise DescriptorSchemaError(f"{apath}/member-index", f"undeclared member index {idx}")
            attachments.append(AttachmentRef(idx, _get_str(amap, apath, "interface")))
        links.append(VirtualLinkSpec(lname, cidr, tuple(attachments)))

    cps: list[ConnectionPointSpec] = []
    seen_cps: set[str] = set()
    for path, mapping in _entries(doc, "", "connection-points",
                                  required=("name", "member-index", "interface")):
        cname = _claim(seen_cps, _get_token(mapping, path, "name"), f"{path}/name", "connection point")
        idx = _get_int(mapping, path, "member-index")
        if idx not in seen_idx:
            raise DescriptorSchemaError(f"{path}/member-index", f"undeclared member index {idx}")
        cps.append(ConnectionPointSpec(cname, idx, _get_str(mapping, path, "interface")))

    return NsDescriptor(
        id=_get_token(doc, "", "id"),
        name=_get_str(doc, "", "name"),
        vnf_members=tuple(members),
        virtual_links=tuple(links),
        connection_points=tuple(cps),
        doc=doc,
    )


def parse_nst(source: str | dict) -> NstDescriptor:
    """Parse a network slice template document (text or a loaded mapping)."""
    doc = _document(source, "nst")
    _check_keys(
        doc, "",
        required=("kind", "schema-version", "id", "name", "ns-members"),
        optional=("slice-links",),
    )
    members = _strings(doc, "", "ns-members", "an nsd id")
    if not members:
        raise DescriptorSchemaError("/ns-members", "a slice needs at least one member")

    links: list[SliceLinkSpec] = []
    seen_links: set[str] = set()
    for path, mapping in _entries(doc, "", "slice-links", required=("name", "endpoints")):
        lname = _claim(seen_links, _get_token(mapping, path, "name"), f"{path}/name", "slice link name")
        endpoints: list[SliceLinkEndpoint] = []
        for epath, emap in _entries(mapping, path, "endpoints", required=("ns-member", "connection-point"),
                                    at_least_one="endpoint"):
            pos = _get_int(emap, epath, "ns-member")
            if not 1 <= pos <= len(members):
                raise DescriptorSchemaError(f"{epath}/ns-member", f"ns-member {pos} out of range 1..{len(members)}")
            endpoints.append(SliceLinkEndpoint(pos, _get_str(emap, epath, "connection-point")))
        links.append(SliceLinkSpec(lname, tuple(endpoints)))

    return NstDescriptor(
        id=_get_token(doc, "", "id"),
        name=_get_str(doc, "", "name"),
        ns_members=members,
        slice_links=tuple(links),
        doc=doc,
    )


_PARSERS = {"vnfd": parse_vnfd, "nsd": parse_nsd, "nst": parse_nst}


def descriptor_from_doc(doc) -> Descriptor:
    """Check any loaded descriptor document, dispatching on its ``kind``."""
    doc = _require_mapping(doc, "/")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _PARSERS:  # a list or mapping is unhashable
        raise DescriptorSchemaError("/kind", f"unknown kind {kind!r}, expected one of {sorted(_PARSERS)}")
    return _PARSERS[kind](doc)


def parse_descriptor(text: str) -> Descriptor:
    """Parse any descriptor document: its text loaded, then checked by ``descriptor_from_doc``."""
    return descriptor_from_doc(load_strict_yaml(text))


# --- serialization ------------------------------------------------------------


def serialize_descriptor(d: Descriptor) -> str:
    """The text of the document `d` was parsed from: the operator's key order
    and only the keys they wrote (comments are not kept). It parses back to a
    descriptor equal to `d`."""
    import yaml
    return yaml.safe_dump(d.doc, sort_keys=False, default_flow_style=False)


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

    def descriptors(self) -> list[Descriptor]:
        return list(self._entries.values())

    def validate(self) -> ValidationReport:
        return validate_catalog(self.descriptors())


def references(d: Descriptor) -> list[tuple[str, str, str]]:
    """Each reference `d` makes to another descriptor, as ``(path, kind,
    id)`` in declaration order."""
    if isinstance(d, NsDescriptor):
        return [(f"nsd:{d.id}/vnf-members/{m.member_index}", "vnfd", m.vnfd_id) for m in d.vnf_members]
    if isinstance(d, NstDescriptor):
        return [(f"nst:{d.id}/ns-members/{pos}", "nsd", nsd_id)
                for pos, nsd_id in enumerate(d.ns_members, start=1)]
    return []


def reference_issues(d: Descriptor, resolve: Callable[[str, str], Descriptor | None]) -> list[ValidationIssue]:
    """The errors in the references `d` makes, where ``resolve(kind, id)``
    returns the descriptor a reference names, or ``None``: first every
    reference that does not resolve, then every use of a resolved one that
    does not fit it."""
    issues = [ValidationIssue(path, f"unresolved {kind} ref {ref!r}")
              for path, kind, ref in references(d) if resolve(kind, ref) is None]
    if isinstance(d, NsDescriptor):
        member_vnfd = {m.member_index: resolve("vnfd", m.vnfd_id) for m in d.vnf_members}
        attached: dict[tuple[int, str], str] = {}
        for link in d.virtual_links:
            for a in link.attachments:
                vnfd = member_vnfd.get(a.member_index)
                if vnfd is not None and a.interface not in vnfd.interface_names():
                    issues.append(ValidationIssue(
                        f"nsd:{d.id}/virtual-links/{link.name}",
                        f"member {a.member_index} ({vnfd.id}) declares no interface {a.interface!r}"))
                key = (a.member_index, a.interface)
                if key in attached:
                    issues.append(ValidationIssue(
                        f"nsd:{d.id}/virtual-links/{link.name}",
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
                        f"nsd:{d.id}/vnf-members/{m.member_index}",
                        f"interface {name!r} of member {m.member_index} ({vnfd.id}) "
                        f"is not attached to any virtual link"))
        for cp in d.connection_points:
            vnfd = member_vnfd.get(cp.member_index)
            if vnfd is not None and cp.interface not in vnfd.interface_names():
                issues.append(ValidationIssue(
                    f"nsd:{d.id}/connection-points/{cp.name}",
                    f"member {cp.member_index} ({vnfd.id}) declares no interface {cp.interface!r}"))
    elif isinstance(d, NstDescriptor):
        for link in d.slice_links:
            for ep in link.endpoints:
                nsd_id = d.ns_members[ep.ns_member - 1]
                nsd = resolve("nsd", nsd_id)
                if nsd is None:
                    continue  # unresolved ref already reported
                if ep.connection_point not in {c.name for c in nsd.connection_points}:
                    issues.append(ValidationIssue(
                        f"nst:{d.id}/slice-links/{link.name}",
                        f"nsd {nsd_id!r} exposes no connection point {ep.connection_point!r}"))
    return issues


def validate_catalog(descriptors: Iterable[Descriptor]) -> ValidationReport:
    """Report duplicate ids and dangling cross-references across a catalog.

    Problems are report entries, never exceptions; ``ok`` is true iff there
    are none.
    """
    items = list(descriptors)
    issues: list[ValidationIssue] = []
    by_key: dict[tuple[str, str], Descriptor] = {}
    for d in items:
        key = (d.kind, d.id)
        if key in by_key:
            issues.append(ValidationIssue(f"{d.kind}:{d.id}", "duplicate id"))
        else:
            by_key[key] = d
    for d in items:
        issues.extend(reference_issues(d, lambda kind, id_: by_key.get((kind, id_))))
    return ValidationReport(issues=tuple(issues))
