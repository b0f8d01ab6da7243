"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Simulated-clock timings are asserted exactly
(tolerance zero); wall-clock benchmark numbers are asserted structurally,
never against hardware-dependent absolutes.
"""

import ipaddress
import json
import random
import time
from contextlib import contextmanager
import pytest

from conftest import create_vpn_instance, make_orchestrator, peer_gateways
from slicevpn.cryptokey import (
    AuthFailure,
    CryptokeyRoutingTable,
    EncryptedEnvelope,
    PlainPacket,
    ReplayRejected,
    UnknownPeer,
    generate_keypair,
)
from slicevpn.kpi import TunnelPair, measure_kpis, run_throughput
from slicevpn.lifecycle import ADMIN, LifecycleError
from slicevpn.transport import Endpoint, UdpBackend
from slicevpn.vimsim import preinstalled_profile
from test_cli import golden_session, run_cli


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def _measured_two_gateway_instance(profile=None):
    orch = make_orchestrator()
    instance_id = create_vpn_instance(orch, profile=profile)
    peer_gateways(orch, instance_id)
    return orch, orch.instances[instance_id]


def test_criterion_1_service_creation_kpis_exact():
    with criterion(1, "default profile: OPD=159s DPD=107s total=266s, exact, <1s wall"):
        started = time.perf_counter()
        _, instance = _measured_two_gateway_instance()
        record = measure_kpis(instance)
        elapsed = time.perf_counter() - started
        assert record.opd_s == 159
        assert record.dpd_s == 107
        assert record.total_s == 266
        assert elapsed < 1.0, f"scenario took {elapsed:.2f}s wall-clock"


def test_criterion_2_preinstalled_image_variant():
    with criterion(2, "preinstalled wireguard image: OPD=57s total=164s (2min44s), exact"):
        _, instance = _measured_two_gateway_instance(profile=preinstalled_profile())
        record = measure_kpis(instance)
        assert record.opd_s == 57
        assert record.total_s == 164
        assert record.total_s == 2 * 60 + 44


def test_criterion_3_action_timings_exact():
    with criterion(3, "simulated action timings: add-peer=60s del-peer=51s, exact"):
        orch, instance = _measured_two_gateway_instance()
        before = orch.clock.now
        east_key = instance.record(2).table.public_key_b64
        result = orch.ns_action(ADMIN, instance.id, 1, "del-peer", {"public-key": east_key})
        assert result.duration == 51
        assert orch.clock.now - before == 51
        record = measure_kpis(instance)
        assert record.per_action["add-peer"] == 60
        assert record.per_action["del-peer"] == 51


def test_criterion_4_cryptokey_lookup_oracle_suite():
    with criterion(4, "200 random tables x 1000 IPs: trie == linear scan, 100%, <30s"):
        started = time.perf_counter()
        rng = random.Random(20260810)
        checked = 0
        for _ in range(200):
            table = CryptokeyRoutingTable(generate_keypair(rng.randbytes(32)))
            oracle: dict[tuple[int, int], bytes] = {}  # (net, prefixlen) -> owner
            for _ in range(rng.randint(1, 64)):
                owner = rng.randbytes(32)
                owner_key = generate_keypair(owner).public
                length = rng.randint(0, 32)
                network = ipaddress.IPv4Network((rng.getrandbits(32), length), strict=False)
                table.add_peer(owner_key, [network])
                oracle[(int(network.network_address), network.prefixlen)] = owner_key
            scan = [(net, 0xFFFFFFFF << (32 - plen) & 0xFFFFFFFF if plen else 0, plen, key)
                    for (net, plen), key in oracle.items()]
            for _ in range(1000):
                ip_int = rng.getrandbits(32)
                best, best_len = None, -1
                for net, mask, plen, key in scan:
                    if (ip_int & mask) == net and plen > best_len:
                        best, best_len = key, plen
                ip = str(ipaddress.IPv4Address(ip_int))
                if best is None:
                    with pytest.raises(Exception):
                        table.lookup_by_ip(ip)
                else:
                    assert table.lookup_by_ip(ip) == best
                checked += 1
        elapsed = time.perf_counter() - started
        assert checked == 200_000
        assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"


def test_criterion_5_roaming_reproduces_mobile_scenario():
    with criterion(5, "authenticated receive from new endpoint roams it; reply targets it"):
        # the mobile host (seed 3) reaches its fixed peer (seed 4) from a new address
        mobile = CryptokeyRoutingTable(generate_keypair(bytes([3]) * 32),
                                       tunnel_address="10.192.122.3")
        fixed = CryptokeyRoutingTable(generate_keypair(bytes([4]) * 32),
                                      tunnel_address="10.192.122.4")
        mobile.add_peer(fixed.public_key, ["10.192.122.4/32"], Endpoint("192.95.5.69", 41414))
        fixed.add_peer(mobile.public_key, ["10.192.122.3/32"], Endpoint("192.95.5.70", 10000))

        envelope, destination = mobile.send(PlainPacket("10.192.122.3", "10.192.122.4", b"hi"))
        assert destination == Endpoint("192.95.5.69", 41414)

        new_outer = Endpoint("192.95.5.64", 21841)
        fixed.receive(envelope, new_outer)
        assert fixed.endpoint_of(mobile.public_key) == new_outer

        _, reply_destination = fixed.send(PlainPacket("10.192.122.4", "10.192.122.3", b"re"))
        assert reply_destination == new_outer


def test_criterion_6_source_authentication_and_slice_isolation():
    with criterion(6, "1000 forgeries rejected; cross-slice envelopes: 0 acceptances"):
        # part one: a third keypair knowing all public material cannot forge
        west = CryptokeyRoutingTable(generate_keypair(bytes([1]) * 32), tunnel_address="10.100.0.1")
        east = CryptokeyRoutingTable(generate_keypair(bytes([2]) * 32), tunnel_address="10.100.0.2")
        west.add_peer(east.public_key, ["10.100.0.2/32"], Endpoint("192.168.100.2", 51820))
        east.add_peer(west.public_key, ["10.100.0.1/32"], Endpoint("192.168.100.1", 51820))
        rng = random.Random(6)
        mallory = generate_keypair(rng.randbytes(32))
        captured, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"observed"))
        wire = captured.to_bytes()
        rejections = 0
        for i in range(1000):
            forged = bytearray(wire)
            mode = i % 4
            if mode == 0:
                forged[11:43] = mallory.public  # claim to be a third party
            elif mode == 1:
                forged[51:] = rng.randbytes(len(wire) - 51)  # invent ciphertext
            elif mode == 2:
                forged[43:51] = rng.randrange(2, 2**62).to_bytes(8, "big")  # new counter
            else:
                forged[11:43] = mallory.public
                forged[51:] = rng.randbytes(len(wire) - 51)
            try:
                east.receive(EncryptedEnvelope.from_bytes(bytes(forged)), Endpoint("203.0.113.66", 6))
                raise AssertionError("forged envelope accepted")
            except (AuthFailure, UnknownPeer, ReplayRejected):
                rejections += 1
        assert rejections == 1000

        # part two: two slices from one template never share keys or traffic
        orch = make_orchestrator()
        slice_a = orch.slice_instantiate(ADMIN, "vpn-slice")
        slice_b = orch.slice_instantiate(ADMIN, "vpn-slice")

        def gateway_tables(slice_id):
            vpn_ns = orch.slices[slice_id].ns_instance_ids[0]
            peer_gateways(orch, vpn_ns)
            instance = orch.instances[vpn_ns]
            return instance.record(1).table, instance.record(2).table

        a_west, a_east = gateway_tables(slice_a)
        b_west, b_east = gateway_tables(slice_b)
        keys = {t.public_key for t in (a_west, a_east, b_west, b_east)}
        assert len(keys) == 4, "slices must not share keypairs"

        accepted = 0
        for _ in range(50):
            envelope, _ = a_west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"slice A"))
            for stranger in (b_west, b_east):
                try:
                    stranger.receive(envelope, Endpoint("203.0.113.77", 7))
                    accepted += 1
                except (AuthFailure, UnknownPeer):
                    pass
        assert accepted == 0


def test_criterion_7_end_to_end_cli_scenario(tmp_path):
    with criterion(7, "scripted CLI session + 1000 UDP loopback echoes, 0 timeouts"):
        store = str(tmp_path / "store")
        for argv in golden_session(store):
            status, _, err = run_cli(*argv)
            assert status == 0, f"{argv}: {err}"
        status, out, err = run_cli("--store", store, "--json",
                                   "bench", "ns-1", "latency", "--requests", "1000")
        assert status == 0, err
        record = json.loads(out)
        assert record["samples"] == "1000"
        assert record["timeouts"] == "0"


def test_criterion_8_throughput_substitute_not_the_paper_comparison():
    # The published 5.3x throughput / 41% latency advantages over OpenVPN are
    # hardware- and baseline-dependent and are NOT reproduced here. Substitute:
    # authenticated goodput over UDP loopback is positive and stable.
    with criterion(8, "UDP 10s transfers: >0 authenticated bytes, repeat variance <20%"):
        orch = make_orchestrator(backend=UdpBackend())
        instance_id = create_vpn_instance(orch)
        peer_gateways(orch, instance_id)
        pair = TunnelPair.from_instance(orch, instance_id)
        run_throughput(pair, duration_s=1.0, payload_size=8192)  # warmup to steady state
        runs = [run_throughput(pair, duration_s=10.0, payload_size=8192) for _ in range(2)]
        for result in runs:
            assert result.bytes_transferred > 0
            assert result.throughput_bps == 8 * result.bytes_transferred / result.duration_s
        spread = abs(runs[0].throughput_bps - runs[1].throughput_bps)
        assert spread < 0.2 * max(r.throughput_bps for r in runs), (
            f"throughput varied by {spread / max(r.throughput_bps for r in runs):.1%}")


def test_criterion_9_lifecycle_ordering_property():
    with criterion(9, "random schedules: Day-2 before Running fails; Day-1 precedes Day-2"):
        rng = random.Random(9)
        for round_no in range(20):
            orch = make_orchestrator()
            created = rng.random() < 0.7
            instance_id = create_vpn_instance(orch) if created else None
            if created:
                keys = {m: orch.instances[instance_id].record(m).table.public_key_b64
                        for m in (1, 2)}
            for _ in range(rng.randint(1, 5)):
                member = rng.choice([1, 2])
                if instance_id is None:
                    with pytest.raises(LifecycleError):
                        orch.ns_action(ADMIN, "ns-1", member, "get-public-key")
                    continue
                state = orch.instances[instance_id].state
                if state != "Running":
                    with pytest.raises(LifecycleError):
                        orch.ns_action(ADMIN, instance_id, member, "get-public-key")
                    continue
                action = rng.choice(["get-public-key", "add-peer"])
                params = {}
                if action == "add-peer":
                    other = 2 if member == 1 else 1
                    params = {"public-key": keys[other],
                              "allowed-ips": f"10.100.0.{other}/32"}
                orch.ns_action(ADMIN, instance_id, member, action, params)
            if instance_id is None:
                continue
            for record in orch.instances[instance_id].vnf_records:
                initial = record.executed_primitives[:record.initial_count]
                day2 = record.executed_primitives[record.initial_count:]
                if initial and day2:
                    assert max(p.finished_at for p in initial) <= min(p.started_at for p in day2)
