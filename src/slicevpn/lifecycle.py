"""Orchestration of network services over the simulated VIM.

Day-0 onboards descriptors into an immutable catalog; Day-1 (``ns_create``)
deploys the infrastructure through the VIM (the on-boarding phase), then runs
each VNF's initial-config-primitives (the deployment phase) — for gateway
VNFs that is generate-keys, enable-forwarding, and start-wg, which creates
the cryptokey table and binds its listen endpoint; Day-2 (``ns_action``)
executes declared config primitives such as add-peer and del-peer against a
running instance. Every step is stamped on the simulated clock and appended
to the instance event log (sources NBI, RO, VCA), which is what the KPI
module measures.

The control plane is serialized: one orchestrator processes one request at a
time. RBAC: admins may do anything; tenants may only run ns_action/ns_show
against instances they were granted.

Infrastructure boots and per-VNF initial primitive chains run concurrently
on the simulated clock (all anchored at their phase start), mirroring an
orchestrator that fans out to the VIM and the configuration units in
parallel; Day-2 actions are serial operator calls.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass, field
from fractions import Fraction

from slicevpn.cryptokey import CryptokeyRoutingTable, generate_keypair, key_from_base64
from slicevpn.descriptors import (
    Catalog,
    Descriptor,
    InterfaceSpec,
    NsDescriptor,
    VduSpec,
    VnfDescriptor,
    coerce_param,
    reference_issues,
    references,
)
from slicevpn.errors import AuthorizationError, SliceVpnError
from slicevpn.transport import Endpoint, Handle, InMemoryBackend
from slicevpn.vimsim import TimingProfile, Vim, default_profile, format_seconds

DEFAULT_LISTEN_PORT = 51820
DEFAULT_LISTEN_INTERFACE = "tunnel"
DEFAULT_TUNNEL_PREFIX = "10.100.0."  # + member index, per gateway

_PARAM_KEY_RE = re.compile(
    r"^member\.(?P<member>\d+)\.(?P<key>tunnel-address|listen-port|listen-interface|key-seed)$")
_SLICE_PARAM_KEY_RE = re.compile(r"^ns\.(?P<pos>\d+)\.(?P<rest>.+)$")

TENANT_OPERATIONS = frozenset({"ns_action", "ns_show"})


class LifecycleError(SliceVpnError):
    """Orchestration-level failure (bad request, unresolved refs, bad state)."""


@dataclass(frozen=True)
class Actor:
    name: str
    role: str  # "admin" | "tenant"
    permitted: frozenset[str] = frozenset()  # instance ids, tenants only


ADMIN = Actor("admin", "admin")


@dataclass(frozen=True)
class Event:
    ts: Fraction
    source: str  # NBI | RO | VCA
    message: str


@dataclass
class ExecutedPrimitive:
    name: str
    params: dict[str, str]
    started_at: Fraction
    finished_at: Fraction
    result: str  # "ok" | "error: <msg>"

    @property
    def duration(self) -> Fraction:
        return self.finished_at - self.started_at


@dataclass(frozen=True)
class ActionResult:
    action: str
    status: str  # "ok" | "error"
    output: dict[str, str]
    duration: Fraction
    message: str = ""


@dataclass
class VnfRecord:
    member_index: int
    vnfd_id: str
    vdu_ids: list[str]
    mgmt_address: str | None = None
    table: CryptokeyRoutingTable | None = None
    handle: Handle | None = None
    transport_scope: str = ""  # the tunnel network this gateway's endpoint lives on
    executed_primitives: list[ExecutedPrimitive] = field(default_factory=list)
    initial_count: int = 0  # first N executed_primitives are Day-1

    def first_action(self, name: str) -> ExecutedPrimitive | None:
        for p in self.executed_primitives[self.initial_count:]:
            if p.name == name:
                return p
        return None


@dataclass
class NetworkServiceInstance:
    id: str
    nsd_id: str
    state: str = "Created"
    vnf_records: list[VnfRecord] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    params: dict[str, str] = field(default_factory=dict)
    networks: dict[str, str] = field(default_factory=dict)  # link name -> vim network name
    profile: TimingProfile = field(default_factory=default_profile)
    released: bool = False  # infrastructure torn down by ns_delete

    def record(self, member_index: int) -> VnfRecord:
        for r in self.vnf_records:
            if r.member_index == member_index:
                return r
        raise LifecycleError(f"instance {self.id} has no member {member_index}")


@dataclass
class SliceInstance:
    id: str
    nst_id: str
    ns_instance_ids: list[str]
    networks: dict[str, str]  # slice link name -> vim network name


_VALID_TRANSITIONS = {
    "Created": {"DeployingInfra", "Failed"},
    "DeployingInfra": {"ConfiguringDay1", "Failed"},
    "ConfiguringDay1": {"Running", "Failed"},
    "Running": {"Terminated", "Failed"},
    "Terminated": set(),
    "Failed": set(),
}


def unbind_gateway(record: VnfRecord):
    """Close the gateway's transport handle, if it is bound. A record never
    keeps a closed handle, so ``record.handle is not None`` means bound."""
    if record.handle is not None:
        record.handle.close()
        record.handle = None


def export_event_log(instance: NetworkServiceInstance) -> str:
    """Line-delimited event export: ``<sim-ts> <source> <instance> <message>``."""
    lines = [
        f"{format_seconds(e.ts)} {e.source} {instance.id} {e.message}"
        for e in instance.events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


class Orchestrator:
    """The NBI: catalog, instances, actors, and the machinery between them."""

    def __init__(self, vim: Vim | None = None, backend=None):
        self.vim = vim or Vim()
        self.clock = self.vim.clock
        self.backend = backend if backend is not None else InMemoryBackend(self.clock)
        self.catalog = Catalog()
        self.instances: dict[str, NetworkServiceInstance] = {}
        self.slices: dict[str, SliceInstance] = {}
        self.actors: dict[str, Actor] = {ADMIN.name: ADMIN}
        self._next_ns = 1
        self._next_slice = 1
        self._next_slice_net = 1

    # -- actors / RBAC --

    def register_actor(self, actor: Actor):
        self.actors[actor.name] = actor

    def actor(self, name: str) -> Actor:
        """Look up a known actor; unknown names become no-privilege tenants."""
        return self.actors.get(name, Actor(name, "tenant"))

    def authorize(self, actor: Actor, operation: str, instance_id: str | None = None) -> bool:
        if actor.role == "admin":
            return True
        if operation not in TENANT_OPERATIONS:
            return False
        return instance_id is not None and instance_id in actor.permitted

    def _require(self, actor: Actor, operation: str, instance_id: str | None = None):
        if not self.authorize(actor, operation, instance_id):
            raise AuthorizationError(
                f"authorization denied: {actor.role} {actor.name!r} may not {operation}"
                + (f" on {instance_id}" if instance_id else ""))

    # -- Day-0 --

    def onboard_package(self, descriptor: Descriptor, actor: Actor = ADMIN) -> str:
        """Add a parsed descriptor to the catalog; identical re-onboards are
        no-ops, same-id different-content is an error."""
        self._require(actor, "onboard")
        return self.catalog.add(descriptor)

    def onboard_warnings(self, descriptor: Descriptor) -> list[str]:
        """Unresolved cross-references at onboard time (warnings, not errors —
        they harden into errors at ns_create)."""
        return [f"unresolved {kind} ref {ref!r}" for kind, ref in self._unresolved(descriptor)]

    def _unresolved(self, descriptor: Descriptor) -> list[tuple[str, str]]:
        """The (kind, id) of each reference the catalog cannot resolve."""
        return [(kind, ref) for _, kind, ref in references(descriptor)
                if self.catalog.get(kind, ref) is None]

    def _instantiable(self, kind: str, id_: str) -> Descriptor:
        """The onboarded descriptor `kind` `id_`, refused unless every
        reference it makes resolves to an onboarded descriptor that fits it."""
        descriptor = self.catalog.get(kind, id_)
        if descriptor is None:
            raise LifecycleError(f"no {kind} {id_!r} onboarded")
        missing = self._unresolved(descriptor)
        if missing:
            raise LifecycleError(f"unresolved {missing[0][0]} refs: {sorted({ref for _, ref in missing})}")
        problems = "; ".join(i.message for i in reference_issues(descriptor, self.catalog.get))
        if problems:
            raise LifecycleError(f"catalog validation failed for {id_!r}: {problems}")
        return descriptor

    # -- event helpers --

    def _emit(self, instance: NetworkServiceInstance, source: str, message: str):
        # the export format is line-delimited; never let a value break it
        message = message.replace("\n", " ").replace("\r", " ")
        instance.events.append(Event(self.clock.now, source, message))

    def _set_state(self, instance: NetworkServiceInstance, state: str):
        if state not in _VALID_TRANSITIONS.get(instance.state, set()):
            raise LifecycleError(f"illegal state transition {instance.state} -> {state}")
        instance.state = state

    def _fail(self, instance: NetworkServiceInstance, reason: str):
        if instance.state not in ("Terminated", "Failed"):
            instance.state = "Failed"
        self._emit(instance, "NBI", f"failed reason={reason!r}")

    # -- Day-1 --

    def ns_create(self, actor: Actor, nsd_id: str, params: dict[str, str] | None = None,
                  profile: TimingProfile | None = None) -> str:
        self._require(actor, "ns_create")
        nsd = self._instantiable("nsd", nsd_id)
        params = dict(params or {})
        self._check_params(params, nsd)

        instance = NetworkServiceInstance(
            id=f"ns-{self._next_ns}",
            nsd_id=nsd_id,
            params=params,
            profile=profile or default_profile(),
        )
        self._next_ns += 1
        self.instances[instance.id] = instance
        # key seeds are private scalars: the event log carries only their names
        param_note = " ".join(
            f"{k}=<redacted>" if k.endswith("key-seed") else f"{k}={v}"
            for k, v in sorted(params.items()))
        self._emit(instance, "NBI", f"ns-create nsd={nsd_id}" + (f" params: {param_note}" if param_note else ""))
        try:
            self._deploy_infra(instance, nsd)
            self._configure_day1(instance, nsd)
        except SliceVpnError as exc:
            self._fail(instance, str(exc))
            raise
        self._set_state(instance, "Running")
        self._emit(instance, "NBI", f"instance {instance.id} running")
        return instance.id

    def _check_params(self, params: dict[str, str], nsd: NsDescriptor):
        members = {m.member_index for m in nsd.vnf_members}
        for key, value in params.items():
            m = _PARAM_KEY_RE.match(key)
            if m is None:
                raise LifecycleError(f"unknown instantiation param {key!r}")
            if int(m.group("member")) not in members:
                raise LifecycleError(f"instantiation param {key!r} names an undeclared member")
            kind = m.group("key")
            try:
                if kind == "listen-port":
                    port = int(value)
                    if not 0 < port < 65536:
                        raise ValueError("port out of range")
                elif kind == "tunnel-address":
                    ipaddress.IPv4Address(value)
                elif kind == "key-seed":
                    if len(bytes.fromhex(value)) != 32:
                        raise ValueError("seed must be 32 bytes of hex")
                elif kind == "listen-interface" and not value:
                    raise ValueError("empty interface name")
            except ValueError as exc:
                raise LifecycleError(f"bad value for {key!r}: {exc}") from exc

    def _member_param(self, instance: NetworkServiceInstance, member: int, key: str) -> str | None:
        return instance.params.get(f"member.{member}.{key}")

    def _deploy_infra(self, instance: NetworkServiceInstance, nsd: NsDescriptor):
        self._set_state(instance, "DeployingInfra")
        self._emit(instance, "RO", "deploy-start")
        for link in nsd.virtual_links:
            net_name = f"{instance.id}.{link.name}"
            self.vim.create_network(net_name, link.cidr)
            instance.networks[link.name] = net_name
            self._emit(instance, "RO", f"network-created {net_name} cidr={link.cidr}")

        # Per (member, interface) -> instance network, from the NSD attachments.
        attach_map: dict[tuple[int, str], str] = {}
        for link in nsd.virtual_links:
            for a in link.attachments:
                attach_map[(a.member_index, a.interface)] = instance.networks[link.name]

        specs = []
        ids = []
        owners: list[tuple[VnfRecord, VnfDescriptor]] = []
        for member in sorted(nsd.vnf_members, key=lambda m: m.member_index):
            vnfd = self.catalog.get("vnfd", member.vnfd_id)
            record = VnfRecord(member_index=member.member_index, vnfd_id=vnfd.id, vdu_ids=[])
            instance.vnf_records.append(record)
            for vdu in vnfd.vdus:
                resolved = []
                for iface in vdu.interfaces:
                    network = attach_map.get((member.member_index, iface.name))
                    if network is None:
                        raise LifecycleError(
                            f"interface {iface.name!r} of member {member.member_index} "
                            f"is not attached to any virtual link")
                    resolved.append(InterfaceSpec(iface.name, network))
                specs.append(VduSpec(
                    name=vdu.name, image=vdu.image, interfaces=tuple(resolved),
                    cloud_init_packages=vdu.cloud_init_packages,
                    requires_forwarding=vdu.requires_forwarding))
                ids.append(f"{instance.id}.m{member.member_index}.{vdu.name}")
                owners.append((record, vnfd))

        booted = self.vim.boot_vdus(specs, instance.profile, ids=ids)
        ready_events = []
        for vdu, (record, vnfd) in zip(booted, owners):
            record.vdu_ids.append(vdu.id)
            mgmt = vdu.interface(vnfd.mgmt_interface)
            if mgmt is not None and record.mgmt_address is None:
                record.mgmt_address = mgmt.ip
            ready_events.append(Event(vdu.ready_at, "RO",
                                      f"vdu-ready member={record.member_index} vdu={vdu.id}"))
        instance.events.extend(sorted(ready_events, key=lambda e: (e.ts, e.message)))
        self._emit(instance, "RO", "deploy-complete")

    def _configure_day1(self, instance: NetworkServiceInstance, nsd: NsDescriptor):
        self._set_state(instance, "ConfiguringDay1")
        anchor = self.clock.now
        prim_events: list[Event] = []
        longest = Fraction(0)
        for record in instance.vnf_records:
            vnfd = self.catalog.get("vnfd", record.vnfd_id)
            offset = Fraction(0)
            for prim in vnfd.initial_config_primitives:
                duration = instance.profile.primitive_duration(prim.name)
                started = anchor + offset
                finished = started + duration
                offset += duration
                prim_events.append(Event(started, "VCA",
                                         f"primitive-start member={record.member_index} name={prim.name}"))
                try:
                    self._run_initial_primitive(instance, record, prim.name)
                except SliceVpnError as exc:
                    record.executed_primitives.append(ExecutedPrimitive(
                        prim.name, {}, started, finished, f"error: {exc}"))
                    record.initial_count = len(record.executed_primitives)
                    # earlier members' chains may extend past this failure point
                    fail_ts = max([finished, self.clock.now] + [e.ts for e in prim_events])
                    prim_events.append(Event(
                        fail_ts, "VCA",
                        f"primitive-failed member={record.member_index} name={prim.name}"))
                    instance.events.extend(sorted(prim_events, key=lambda e: (e.ts, e.message)))
                    self.clock.advance_to(fail_ts)
                    raise LifecycleError(
                        f"initial primitive {prim.name!r} failed on member "
                        f"{record.member_index}: {exc}") from exc
                record.executed_primitives.append(ExecutedPrimitive(
                    prim.name, {}, started, finished, "ok"))
                prim_events.append(Event(finished, "VCA",
                                         f"primitive-complete member={record.member_index} "
                                         f"name={prim.name} duration={format_seconds(duration)}"))
            record.initial_count = len(record.executed_primitives)
            longest = max(longest, offset)
        self.clock.advance(longest)
        instance.events.extend(sorted(prim_events, key=lambda e: (e.ts, e.message)))
        self._emit(instance, "VCA", "initial-config-complete")

    def _gateway_vdu(self, record: VnfRecord):
        if not record.vdu_ids:
            raise LifecycleError(f"member {record.member_index} has no vdus")
        return self.vim.vdu(record.vdu_ids[0])

    def _run_initial_primitive(self, instance: NetworkServiceInstance, record: VnfRecord, name: str):
        if name == "generate-keys":
            seed_hex = self._member_param(instance, record.member_index, "key-seed")
            seed = bytes.fromhex(seed_hex) if seed_hex else None
            keypair = generate_keypair(seed)
            vdu = self._gateway_vdu(record)
            listen_iface_name = (self._member_param(instance, record.member_index, "listen-interface")
                                 or DEFAULT_LISTEN_INTERFACE)
            listen_iface = vdu.interface(listen_iface_name)
            if listen_iface is None:
                raise LifecycleError(
                    f"member {record.member_index} has no interface {listen_iface_name!r} to listen on")
            port_text = self._member_param(instance, record.member_index, "listen-port")
            port = int(port_text) if port_text else DEFAULT_LISTEN_PORT
            tunnel_address = self._member_param(instance, record.member_index, "tunnel-address")
            if tunnel_address is None:
                if record.member_index > 254:
                    raise LifecycleError(
                        f"member {record.member_index} needs an explicit "
                        f"member.{record.member_index}.tunnel-address param")
                tunnel_address = f"{DEFAULT_TUNNEL_PREFIX}{record.member_index}"
            record.table = CryptokeyRoutingTable(
                local_keypair=keypair,
                listen_endpoint=Endpoint(listen_iface.ip, port),
                tunnel_address=tunnel_address,
            )
            record.transport_scope = listen_iface.network
        elif name == "enable-forwarding":
            for vdu_id in record.vdu_ids:
                self.vim.set_forwarding(vdu_id, True)
        elif name == "start-wg":
            self._bind_gateway(record)
        # other initial primitives consume their profile time with no model effect

    def _bind_gateway(self, record: VnfRecord):
        if record.table is None:
            raise LifecycleError(
                f"member {record.member_index} has no cryptokey table (generate-keys not run)")
        if record.handle is None:
            record.handle = self.backend.bind(record.table.listen_endpoint, record.transport_scope)

    # -- Day-2 --

    def ns_action(self, actor: Actor, instance_id: str, member: int, action: str,
                  params: dict[str, str] | None = None) -> ActionResult:
        """Run a declared Day-2 primitive on one member of a running instance.

        Requests rejected before execution (bad state, undeclared action, bad
        params, authorization) raise; a primitive that fails while executing
        marks the instance Failed and returns an error ActionResult.
        """
        self._require(actor, "ns_action", instance_id)
        instance = self._instance(instance_id)
        if instance.state != "Running":
            raise LifecycleError(f"instance {instance_id} is {instance.state}, not Running")
        record = instance.record(member)
        vnfd = self.catalog.get("vnfd", record.vnfd_id)
        declared = {p.name: p for p in vnfd.config_primitives}
        if action not in declared:
            raise LifecycleError(
                f"action {action!r} is not declared by vnfd {vnfd.id!r} config-primitives")
        params = dict(params or {})
        self._typecheck_params(declared[action], params)

        duration = instance.profile.primitive_duration(action)
        started = self.clock.now
        self._emit(instance, "NBI", f"ns-action member={member} name={action}")
        self._emit(instance, "VCA", f"action-start member={member} name={action}")
        finished = self.clock.advance(duration)
        try:
            output = self._run_day2_action(record, action, params)
        except SliceVpnError as exc:
            record.executed_primitives.append(ExecutedPrimitive(
                action, params, started, finished, f"error: {exc}"))
            self._emit(instance, "VCA", f"action-failed member={member} name={action}")
            self._fail(instance, f"action {action} failed: {exc}")
            return ActionResult(action=action, status="error", output={},
                                duration=finished - started, message=str(exc))
        record.executed_primitives.append(ExecutedPrimitive(
            action, params, started, finished, "ok"))
        self._emit(instance, "VCA",
                   f"action-complete member={member} name={action} "
                   f"duration={format_seconds(finished - started)}")
        return ActionResult(action=action, status="ok", output=output,
                            duration=finished - started)

    def _typecheck_params(self, spec, params: dict[str, str]):
        """Refuse undeclared params and values that do not fit their declared type."""
        declared = {p.name: p.type for p in spec.params}
        for key, raw in params.items():
            if key not in declared:
                raise LifecycleError(f"unknown param {key!r} for action {spec.name!r}")
            try:
                coerce_param(declared[key], raw)
            except SliceVpnError as exc:
                raise LifecycleError(f"bad param {key!r}: {exc}") from exc

    def _run_day2_action(self, record: VnfRecord, action: str, params: dict[str, str]) -> dict[str, str]:
        table = record.table
        if action in ("add-peer", "del-peer", "get-public-key", "start-wg", "stop-wg") and table is None:
            raise LifecycleError(f"member {record.member_index} is not a gateway (no cryptokey table)")
        if action == "add-peer":
            if "public-key" not in params or "allowed-ips" not in params:
                raise LifecycleError("add-peer requires public-key and allowed-ips")
            endpoint = params.get("endpoint")
            table.add_peer(
                key_from_base64(params["public-key"]),
                [prefix.strip() for prefix in params["allowed-ips"].split(",")],
                Endpoint.parse(endpoint) if endpoint is not None else None,
            )
            return {}
        if action == "del-peer":
            if "public-key" not in params:
                raise LifecycleError("del-peer requires public-key")
            table.del_peer(key_from_base64(params["public-key"]))
            return {}
        if action == "get-public-key":
            return {"public-key": table.public_key_b64}
        if action == "start-wg":
            self._bind_gateway(record)
            return {}
        if action == "stop-wg":
            unbind_gateway(record)
            return {}
        return {}  # declared but modelled as a timed no-op

    # -- queries / teardown --

    def _instance(self, instance_id: str) -> NetworkServiceInstance:
        instance = self.instances.get(instance_id)
        if instance is None:
            raise LifecycleError(f"instance not found: {instance_id}")
        return instance

    def ns_show(self, actor: Actor, instance_id: str) -> NetworkServiceInstance:
        self._require(actor, "ns_show", instance_id)
        return self._instance(instance_id)

    def ns_delete(self, actor: Actor, instance_id: str):
        self._require(actor, "ns_delete")
        instance = self._instance(instance_id)
        if instance.released:
            raise LifecycleError(f"instance {instance_id} already terminated")
        for record in instance.vnf_records:
            unbind_gateway(record)
            for vdu_id in record.vdu_ids:
                vdu = self.vim.vdu(vdu_id)
                if vdu.state != "Terminated":
                    self.vim.terminate_vdu(vdu_id)
        for net_name in instance.networks.values():
            self.vim.delete_network(net_name)
        instance.released = True
        if instance.state != "Failed":  # Failed is terminal; cleanup does not relabel it
            self._set_state(instance, "Terminated")
        self._emit(instance, "NBI", f"instance {instance_id} resources released")

    # -- slices --

    def slice_instantiate(self, actor: Actor, nst_id: str,
                          params: dict[str, str] | None = None,
                          profile: TimingProfile | None = None) -> str:
        """Instantiate every member NSD in declaration order, then realize
        slice links as shared networks joining the named connection points."""
        self._require(actor, "slice_instantiate")
        nst = self._instantiable("nst", nst_id)

        scoped: dict[int, dict[str, str]] = {}
        for key, value in (params or {}).items():
            m = _SLICE_PARAM_KEY_RE.match(key)
            if m is None:
                raise LifecycleError(f"unknown slice param {key!r} (expected ns.<pos>.<param>)")
            pos = int(m.group("pos"))
            if not 1 <= pos <= len(nst.ns_members):
                raise LifecycleError(f"slice param {key!r} names an out-of-range member")
            scoped.setdefault(pos, {})[m.group("rest")] = value

        slice_id = f"sl-{self._next_slice}"
        self._next_slice += 1
        ns_ids = []
        for pos, nsd_id in enumerate(nst.ns_members, start=1):
            ns_ids.append(self.ns_create(actor, nsd_id, scoped.get(pos), profile))

        networks: dict[str, str] = {}
        for link in nst.slice_links:
            net_name = f"{slice_id}.{link.name}"
            cidr = f"10.200.{self._next_slice_net}.0/24"
            self._next_slice_net += 1
            self.vim.create_network(net_name, cidr)
            networks[link.name] = net_name
            for ep in link.endpoints:
                ns_instance = self.instances[ns_ids[ep.ns_member - 1]]
                nsd = self.catalog.get("nsd", ns_instance.nsd_id)
                cp = next(c for c in nsd.connection_points if c.name == ep.connection_point)
                record = ns_instance.record(cp.member_index)
                for vdu_id in record.vdu_ids:
                    if self.vim.vdu(vdu_id).interface(cp.interface) is not None:
                        self.vim.attach_interface(vdu_id, f"sl-{link.name}", net_name)
                self._emit(ns_instance, "RO",
                           f"slice-link {slice_id}.{link.name} joined cp={cp.name}")

        slice_instance = SliceInstance(id=slice_id, nst_id=nst_id,
                                       ns_instance_ids=ns_ids, networks=networks)
        self.slices[slice_id] = slice_instance
        return slice_id
