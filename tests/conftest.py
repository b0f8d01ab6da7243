"""Shared fixtures: canonical descriptors and a ready-to-drive VPN instance."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from slicevpn.descriptors import parse_descriptor
from slicevpn.lifecycle import ADMIN, Orchestrator
from slicevpn.store import Store
from slicevpn.transport import InMemoryBackend
from slicevpn.vimsim import SimClock, Vim

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

WEST_SEED = bytes([1]) * 32
EAST_SEED = bytes([2]) * 32

SEEDED_PARAMS = {
    "member.1.key-seed": WEST_SEED.hex(),
    "member.2.key-seed": EAST_SEED.hex(),
}

WEST_PEER_PARAMS = {  # peer entry for east, installed on west
    "allowed-ips": "10.100.0.2/32,10.0.2.0/24",
    "endpoint": "192.168.100.2:51820",
}
EAST_PEER_PARAMS = {  # peer entry for west, installed on east
    "allowed-ips": "10.100.0.1/32,10.0.1.0/24",
    "endpoint": "192.168.100.1:51820",
}


def sample_text(name: str) -> str:
    return (SAMPLES / name).read_text(encoding="utf-8")


# the sample gateway with add-peer's address params declared as plain strings,
# which the descriptor schema allows: a bad value reaches the primitive itself
STRING_PARAMS_GATEWAY = sample_text("vnfd-wireguard-gateway.yaml") \
    .replace("type: cidr", "type: string").replace("type: endpoint", "type: string")


def make_orchestrator(backend=None, latency_s=0) -> Orchestrator:
    vim = Vim(SimClock())
    if backend is None:
        backend = InMemoryBackend(vim.clock, latency_s=latency_s)
    orch = Orchestrator(vim=vim, backend=backend)
    for name in ("vnfd-wireguard-gateway.yaml", "vnfd-test-host.yaml",
                 "nsd-wireguard-vpn.yaml", "nsd-consumer.yaml", "nst-vpn-slice.yaml"):
        orch.onboard_package(parse_descriptor(sample_text(name)))
    return orch


def create_vpn_instance(orch: Orchestrator, params: dict | None = None,
                        profile=None) -> str:
    merged = dict(SEEDED_PARAMS)
    if params:
        merged.update(params)
    return orch.ns_create(ADMIN, "wg-vpn", merged, profile)


def peer_gateways(orch: Orchestrator, instance_id: str):
    """The symmetric pair of Day-2 add-peer calls; returns both results."""
    west = orch.ns_action(ADMIN, instance_id, 1, "get-public-key").output["public-key"]
    east = orch.ns_action(ADMIN, instance_id, 2, "get-public-key").output["public-key"]
    first = orch.ns_action(ADMIN, instance_id, 1, "add-peer",
                           {"public-key": east, **WEST_PEER_PARAMS})
    second = orch.ns_action(ADMIN, instance_id, 2, "add-peer",
                            {"public-key": west, **EAST_PEER_PARAMS})
    return first, second


def laid_out_in_lines(state: dict) -> bytes:
    """`state` in the line layout: each document of its three lists on a line
    of its own, its key first and the rest key-sorted, between the lines of
    the rest of the state."""
    text = json.dumps({**state, "instances": [], "vim": {**state["vim"], "networks": [], "vdus": []}},
                      sort_keys=True, separators=(",", ":"))
    out = []
    for opening, docs, key in (('"instances":[', state["instances"], "id"),
                               ('"networks":[', state["vim"]["networks"], "name"),
                               ('"vdus":[', state["vim"]["vdus"], "id")):
        head, _, text = text.partition(opening)
        lines = [f'{{"{key}":{json.dumps(doc[key])},' + json.dumps(
            {k: v for k, v in doc.items() if k != key}, sort_keys=True, separators=(",", ":"))[1:] for doc in docs]
        out.append(head + opening + ("\n" + ",\n".join(lines) if lines else "") + "\n")
    return ("".join(out) + text).encode()


def save_peered_store(root, count: int = 3) -> Store:
    """A store of `count` peered wg-vpn instances, ns-1 .. ns-<count>."""
    orch = make_orchestrator()
    for _ in range(count):
        peer_gateways(orch, create_vpn_instance(orch))
    store = Store(root)
    store.save(orch)
    return store


@pytest.fixture
def orch():
    return make_orchestrator()


@pytest.fixture
def running_vpn(orch):
    """(orchestrator, instance id) with a Running, fully peered tunnel."""
    instance_id = create_vpn_instance(orch)
    peer_gateways(orch, instance_id)
    return orch, instance_id
