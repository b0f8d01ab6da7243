"""Deterministic simulated VIM: virtual networks, IP allocation, and VDU boot
with timing-profile-driven delays on a simulated clock.

Simulated time is exact rational seconds, so boot and configuration delays
reproduce identically on every run. One Vim instance is driven by one control
context at a time.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

from slicevpn.descriptors import VduSpec, load_strict_yaml
from slicevpn.errors import SliceVpnError

Seconds = Fraction

# Default timing profile, seconds. The 57 s base boot is the measured
# on-boarding delay minus the 102 s package install; the 47 s of initial
# configuration is split 20/20/7 across the three gateway primitives (only
# the total is measured, the split is arbitrary).
DEFAULT_BASE_BOOT_S = 57
DEFAULT_PACKAGE_INSTALL_S = {"wireguard": 102}
DEFAULT_PRIMITIVE_EXEC_S = {
    "generate-keys": 20,
    "start-wg": 20,
    "enable-forwarding": 7,
    "add-peer": 60,
    "del-peer": 51,
    "get-public-key": 0,
    "stop-wg": 0,
}


class VimError(SliceVpnError):
    """Infrastructure-level failure (bad cidr, exhausted network, unknown id)."""


def _to_seconds(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, float, Rational)):
        raise VimError(f"expected a duration in seconds, got {value!r}")
    f = Fraction(value)
    if f < 0:
        raise VimError(f"durations must be >= 0, got {value!r}")
    return f


class SimClock:
    """Monotonically non-decreasing simulated clock (rational seconds)."""

    def __init__(self, start: Seconds | int = 0):
        self._now = _to_seconds(start)

    @property
    def now(self) -> Fraction:
        return self._now

    def advance(self, delta) -> Fraction:
        delta = _to_seconds(delta)
        self._now += delta
        return self._now

    def advance_to(self, timestamp) -> Fraction:
        """Advance to an absolute time; never moves backwards."""
        target = Fraction(timestamp)
        if target > self._now:
            self._now = target
        return self._now


def format_seconds(value: Fraction) -> str:
    """Trimmed decimal form of a rational number of seconds."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    text = f"{float(f):.6f}".rstrip("0").rstrip(".")
    return text


@dataclass(frozen=True)
class TimingProfile:
    """Durations the simulation charges for boot, installs, and primitives."""

    base_boot_s: Fraction = Fraction(DEFAULT_BASE_BOOT_S)
    package_install_s: dict[str, Fraction] = field(
        default_factory=lambda: {k: Fraction(v) for k, v in DEFAULT_PACKAGE_INSTALL_S.items()})
    primitive_exec_s: dict[str, Fraction] = field(
        default_factory=lambda: {k: Fraction(v) for k, v in DEFAULT_PRIMITIVE_EXEC_S.items()})
    preinstalled_packages: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "base_boot_s", _to_seconds(self.base_boot_s))
        object.__setattr__(self, "package_install_s",
                           {k: _to_seconds(v) for k, v in self.package_install_s.items()})
        object.__setattr__(self, "primitive_exec_s",
                           {k: _to_seconds(v) for k, v in self.primitive_exec_s.items()})
        object.__setattr__(self, "preinstalled_packages", frozenset(self.preinstalled_packages))

    def boot_duration(self, spec: VduSpec) -> Fraction:
        total = self.base_boot_s
        for pkg in spec.cloud_init_packages:
            if pkg in self.preinstalled_packages:
                continue
            if pkg not in self.package_install_s:
                raise VimError(f"unknown package {pkg!r}: no install duration in timing profile")
            total += self.package_install_s[pkg]
        return total

    def primitive_duration(self, name: str) -> Fraction:
        return self.primitive_exec_s.get(name, Fraction(0))


def load_timing_profile(text: str) -> TimingProfile:
    """Load a timing profile from its ``profile.yaml`` document."""
    doc = load_strict_yaml(text)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise VimError("profile document must be a mapping")
    allowed = {"base-boot-s", "package-install-s", "primitive-exec-s", "preinstalled-packages"}
    unknown = set(doc) - allowed
    if unknown:
        raise VimError(f"unknown profile keys: {sorted(unknown)}")
    # TimingProfile turns every duration into exact seconds
    kwargs = {}
    if "base-boot-s" in doc:
        kwargs["base_boot_s"] = doc["base-boot-s"]
    for key in ("package-install-s", "primitive-exec-s"):
        if key in doc:
            durations = doc[key] or {}
            if not isinstance(durations, dict):
                raise VimError(f"{key} must be a mapping")
            kwargs[key.replace("-", "_")] = {str(k): v for k, v in durations.items()}
    if "preinstalled-packages" in doc:
        seq = doc["preinstalled-packages"] or []
        if not isinstance(seq, list):
            raise VimError("preinstalled-packages must be a sequence")
        kwargs["preinstalled_packages"] = frozenset(str(p) for p in seq)
    return TimingProfile(**kwargs)


def default_profile() -> TimingProfile:
    return TimingProfile()


def preinstalled_profile() -> TimingProfile:
    """Default profile with the wireguard package baked into the image."""
    return TimingProfile(preinstalled_packages=frozenset({"wireguard"}))


@dataclass
class VirtualNetwork:
    name: str
    cidr: ipaddress.IPv4Network
    allocations: dict[str, ipaddress.IPv4Address] = field(default_factory=dict)

    def allocate(self, interface_ref: str) -> ipaddress.IPv4Address:
        """Allocate the lowest free host address (network/broadcast excluded)."""
        in_use = set(self.allocations.values())
        for host in self.cidr.hosts():
            if host not in in_use:
                self.allocations[interface_ref] = host
                return host
        raise VimError(f"network {self.name!r} exhausted")

    def release(self, interface_ref: str):
        self.allocations.pop(interface_ref, None)


@dataclass(frozen=True)
class VduInterface:
    name: str
    network: str
    ip: str


@dataclass
class VduInstance:
    id: str
    image: str
    state: str  # Ready | Terminated (boot_vdus makes a VDU Ready at once; none is ever Booting)
    interfaces: tuple[VduInterface, ...]
    installed_packages: frozenset[str]
    boot_started_at: Fraction
    ready_at: Fraction
    forwarding_enabled: bool

    def interface(self, name: str) -> VduInterface | None:
        for i in self.interfaces:
            if i.name == name:
                return i
        return None


class Vim:
    """Simulated infrastructure manager owning networks, VDUs, and the clock."""

    def __init__(self, clock: SimClock | None = None):
        self.clock = clock or SimClock()
        self._networks: dict[str, VirtualNetwork] = {}
        self._vdus: dict[str, VduInstance] = {}

    # -- networks --

    def create_network(self, name: str, cidr: str) -> VirtualNetwork:
        if name in self._networks:
            raise VimError(f"duplicate network name {name!r}")
        try:
            net = ipaddress.IPv4Network(cidr, strict=True)
        except ValueError as exc:
            raise VimError(f"invalid cidr {cidr!r}: {exc}") from exc
        if net.prefixlen > 30:
            raise VimError(f"cidr {cidr!r} leaves no allocatable host range (prefix must be <= /30)")
        network = VirtualNetwork(name=name, cidr=net)
        self._networks[name] = network
        return network

    def network(self, name: str) -> VirtualNetwork:
        try:
            return self._networks[name]
        except KeyError:
            raise VimError(f"unknown network {name!r}") from None

    def delete_network(self, name: str):
        network = self.network(name)
        if network.allocations:
            raise VimError(f"network {name!r} still has {len(network.allocations)} allocations")
        del self._networks[name]

    # -- VDUs --

    def boot_vdus(self, specs: list[VduSpec], profile: TimingProfile,
                  ids: list[str]) -> list[VduInstance]:
        """Boot a batch of VDUs, ``specs[i]`` as ``ids[i]``, in parallel: all
        start now, the clock advances by the longest boot, and each
        instance's ready_at is its own span. The batch is atomic: any
        failure releases everything it allocated."""
        if len(ids) != len(specs):
            raise VimError("ids must match specs one-to-one")
        start = self.clock.now
        instances: list[VduInstance] = []
        allocated: list[tuple[VirtualNetwork, str]] = []
        longest = Fraction(0)
        try:
            for vdu_id, spec in zip(ids, specs):
                duration = profile.boot_duration(spec)  # validates packages before allocating
                if vdu_id in self._vdus:
                    raise VimError(f"duplicate vdu id {vdu_id!r}")
                interfaces = []
                for iface in spec.interfaces:
                    network = self.network(iface.network)
                    ref = f"{vdu_id}/{iface.name}"
                    ip = network.allocate(ref)
                    allocated.append((network, ref))
                    interfaces.append(VduInterface(iface.name, iface.network, str(ip)))
                instance = VduInstance(
                    id=vdu_id,
                    image=spec.image,
                    state="Ready",
                    interfaces=tuple(interfaces),
                    installed_packages=frozenset(spec.cloud_init_packages),
                    boot_started_at=start,
                    ready_at=start + duration,
                    forwarding_enabled=spec.requires_forwarding,
                )
                self._vdus[vdu_id] = instance
                instances.append(instance)
                longest = max(longest, duration)
        except VimError:
            for network, ref in allocated:
                network.release(ref)
            for instance in instances:
                del self._vdus[instance.id]
            raise
        self.clock.advance(longest)
        return instances

    def vdu(self, vdu_id: str) -> VduInstance:
        try:
            return self._vdus[vdu_id]
        except KeyError:
            raise VimError(f"unknown vdu {vdu_id!r}") from None

    def set_forwarding(self, vdu_id: str, enabled: bool):
        self.vdu(vdu_id).forwarding_enabled = enabled

    def attach_interface(self, vdu_id: str, iface_name: str, network_name: str) -> VduInterface:
        """Plug an extra interface into a live VDU (slice links do this)."""
        vdu = self.vdu(vdu_id)
        if vdu.state == "Terminated":
            raise VimError(f"vdu {vdu_id!r} is terminated")
        if vdu.interface(iface_name) is not None:
            raise VimError(f"vdu {vdu_id!r} already has an interface {iface_name!r}")
        network = self.network(network_name)
        ip = network.allocate(f"{vdu_id}/{iface_name}")
        iface = VduInterface(iface_name, network_name, str(ip))
        vdu.interfaces = vdu.interfaces + (iface,)
        return iface

    def terminate_vdu(self, vdu_id: str):
        vdu = self.vdu(vdu_id)
        if vdu.state == "Terminated":
            raise VimError(f"vdu {vdu_id!r} already terminated")
        for iface in vdu.interfaces:
            self._networks[iface.network].release(f"{vdu_id}/{iface.name}")
        vdu.state = "Terminated"
