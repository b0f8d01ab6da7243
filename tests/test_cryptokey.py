import ipaddress
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from slicevpn.cryptokey import (
    AuthFailure,
    CryptokeyError,
    CryptokeyRoutingTable,
    EncryptedEnvelope,
    HEADER_LEN,
    MalformedEnvelope,
    NoEndpoint,
    NoPeer,
    PlainPacket,
    ReplayRejected,
    SourceAddressViolation,
    UnknownPeer,
    dh,
    generate_keypair,
    key_from_base64,
    key_to_base64,
    parse_prefix,
)
from slicevpn.transport import Endpoint, TransportError, ipv4_int, parse_decimal
from test_cli import _spy_on_x25519

# Zero-seed public key, computed once with the reference ladder below and pinned.
ZERO_SEED_PUBLIC_B64 = "L+V9o0fNYkMVKNqsX7spBzD/9oSvxM/C7ZCZX1jLO3Q="

_P = 2**255 - 19


def _ref_clamp(k: bytes) -> int:
    a = bytearray(k)
    a[0] &= 248
    a[31] &= 127
    a[31] |= 64
    return int.from_bytes(a, "little")


def _ref_x25519(k_int: int, u_int: int) -> int:
    # RFC 7748 Montgomery ladder, independent of the implementation under test
    x1, x2, z2, x3, z3, swap = u_int, 1, 0, u_int, 1, 0
    for t in reversed(range(255)):
        k_t = (k_int >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3, z2, z3 = x3, x2, z3, z2
        swap = k_t
        a = (x2 + z2) % _P
        aa = a * a % _P
        b = (x2 - z2) % _P
        bb = b * b % _P
        e = (aa - bb) % _P
        c = (x3 + z3) % _P
        d = (x3 - z3) % _P
        da = d * a % _P
        cb = c * b % _P
        x3 = (da + cb) % _P
        x3 = x3 * x3 % _P
        z3 = (da - cb) % _P
        z3 = z3 * z3 % _P
        z3 = z3 * x1 % _P
        x2 = aa * bb % _P
        z2 = e * (aa + 121665 * e) % _P
    if swap:
        x2, z2 = x3, z3
    return x2 * pow(z2, _P - 2, _P) % _P


def _ref_public(seed: bytes) -> bytes:
    return _ref_x25519(_ref_clamp(seed), 9).to_bytes(32, "little")


def linear_lpm(prefixes: list[tuple[ipaddress.IPv4Network, bytes]], ip: str) -> bytes | None:
    """Brute-force longest-prefix scan, the oracle the prefix table is checked against."""
    address = ipaddress.IPv4Address(ip)
    best = None
    best_len = -1
    for network, owner in prefixes:
        if address in network and network.prefixlen > best_len:
            best, best_len = owner, network.prefixlen
    return best


def make_table(seed: int, tunnel="10.100.0.1", listen=("192.168.100.1", 51820)):
    return CryptokeyRoutingTable(
        generate_keypair(bytes([seed]) * 32),
        listen_endpoint=Endpoint(*listen),
        tunnel_address=tunnel,
    )


def make_pair():
    """Two mutually peered tables, west(seed 1)/east(seed 2)."""
    west = make_table(1, "10.100.0.1", ("192.168.100.1", 51820))
    east = make_table(2, "10.100.0.2", ("192.168.100.2", 51820))
    west.add_peer(east.public_key, ["10.100.0.2/32", "10.0.2.0/24"], Endpoint("192.168.100.2", 51820))
    east.add_peer(west.public_key, ["10.100.0.1/32", "10.0.1.0/24"], Endpoint("192.168.100.1", 51820))
    return west, east


class TestKeys:
    def test_zero_seed_matches_pinned_golden_value(self):
        pair = generate_keypair(b"\x00" * 32)
        assert pair.public_b64 == ZERO_SEED_PUBLIC_B64
        assert _ref_public(b"\x00" * 32) == pair.public

    def test_seeded_generation_is_deterministic(self):
        assert generate_keypair(b"\x07" * 32) == generate_keypair(b"\x07" * 32)

    def test_unseeded_keys_differ(self):
        assert generate_keypair().public != generate_keypair().public

    def test_dh_symmetry_over_random_pairs(self):
        rng = random.Random(1234)
        for _ in range(100):
            a = generate_keypair(rng.randbytes(32))
            b = generate_keypair(rng.randbytes(32))
            assert dh(X25519PrivateKey.from_private_bytes(a.private), b.public) == \
                dh(X25519PrivateKey.from_private_bytes(b.private), a.public)

    def test_implementation_matches_reference_ladder(self):
        rng = random.Random(99)
        for _ in range(20):
            seed = rng.randbytes(32)
            assert generate_keypair(seed).public == _ref_public(seed)

    def test_base64_round_trip(self):
        pub = generate_keypair(b"\x05" * 32).public
        assert key_from_base64(key_to_base64(pub)) == pub

    def test_bad_seed_length(self):
        with pytest.raises(CryptokeyError, match="32 bytes"):
            generate_keypair(b"\x00" * 16)

    def test_repr_never_shows_private(self):
        pair = generate_keypair(b"\x09" * 32)
        assert pair.private.hex() not in repr(pair)


class TestPeerManagement:
    def test_lookup_routes_to_added_peer(self):
        # the documented behavior: traffic for 10.192.122.4 is sealed for that peer's key
        table = make_table(1)
        peer = generate_keypair(b"\x0a" * 32).public
        table.add_peer(peer, ["10.192.122.4/32"])
        assert table.lookup_by_ip("10.192.122.4") == peer

    def test_self_peering_rejected(self):
        table = make_table(1)
        with pytest.raises(CryptokeyError, match="own public key"):
            table.add_peer(table.public_key, ["10.0.0.0/24"])

    def test_exact_prefix_reassignment(self):
        table = make_table(1)
        a = generate_keypair(b"\x0a" * 32).public
        b = generate_keypair(b"\x0b" * 32).public
        table.add_peer(a, ["10.0.0.0/24"])
        table.add_peer(b, ["10.0.0.0/24"])
        assert table.lookup_by_ip("10.0.0.7") == b
        assert table.peers[a].allowed_ips == []  # a lost the prefix
        oracle = [(ipaddress.IPv4Network(net), key) for key, entry in table.peers.items() for net in entry.allowed_ips]
        assert linear_lpm(oracle, "10.0.0.7") == b

    def test_update_unions_prefixes_and_overwrites_endpoint(self):
        table = make_table(1)
        peer = generate_keypair(b"\x0a" * 32).public
        table.add_peer(peer, ["10.0.0.0/24"], Endpoint("1.2.3.4", 1000))
        table.add_peer(peer, ["10.1.0.0/24"])
        assert table.endpoint_of(peer) == Endpoint("1.2.3.4", 1000)  # kept
        table.add_peer(peer, ["10.1.0.0/24"], Endpoint("5.6.7.8", 2000))
        assert table.endpoint_of(peer) == Endpoint("5.6.7.8", 2000)  # overwritten
        assert {str(n) for n in table.peers[peer].allowed_ips} == {"10.0.0.0/24", "10.1.0.0/24"}

    def test_empty_allowed_ips_rejected(self):
        table = make_table(1)
        with pytest.raises(CryptokeyError, match="non-empty"):
            table.add_peer(generate_keypair(b"\x0a" * 32).public, [])

    def test_del_peer_clears_routing(self):
        table = make_table(1)
        peer = generate_keypair(b"\x0a" * 32).public
        table.add_peer(peer, ["10.0.0.0/24"])
        table.del_peer(peer)
        with pytest.raises(NoPeer):
            table.lookup_by_ip("10.0.0.1")

    def test_del_unknown_peer(self):
        with pytest.raises(UnknownPeer):
            make_table(1).del_peer(generate_keypair(b"\x0c" * 32).public)

    def test_del_leaves_other_peer_untouched(self):
        table = make_table(1)
        a = generate_keypair(b"\x0a" * 32).public
        b = generate_keypair(b"\x0b" * 32).public
        table.add_peer(a, ["10.0.0.0/16"])
        table.add_peer(b, ["10.0.1.0/24"])
        table.del_peer(b)
        oracle = [(ipaddress.IPv4Network(net), key) for key, entry in table.peers.items() for net in entry.allowed_ips]
        for ip in ("10.0.1.5", "10.0.2.5"):
            assert table.lookup_by_ip(ip) == linear_lpm(oracle, ip) == a

    def test_endpoint_absent_until_learned(self):
        table = make_table(1)
        peer = generate_keypair(b"\x0a" * 32).public
        table.add_peer(peer, ["10.0.0.0/24"])
        assert table.endpoint_of(peer) is None
        with pytest.raises(UnknownPeer):
            table.endpoint_of(generate_keypair(b"\x0d" * 32).public)


class TestLookup:
    def test_longest_prefix_wins(self):
        table = make_table(1)
        a = generate_keypair(b"\x0a" * 32).public
        b = generate_keypair(b"\x0b" * 32).public
        table.add_peer(a, ["10.0.0.0/8"])
        table.add_peer(b, ["10.1.0.0/16"])
        assert table.lookup_by_ip("10.1.2.3") == b
        assert table.lookup_by_ip("10.2.0.1") == a

    def test_empty_table(self):
        with pytest.raises(NoPeer):
            make_table(1).lookup_by_ip("8.8.8.8")

    def test_trie_matches_linear_scan_on_random_tables(self):
        rng = random.Random(42)
        for _ in range(20):
            table = make_table(1)
            oracle = []
            for p in range(rng.randint(1, 64)):
                owner = generate_keypair(rng.randbytes(32)).public
                length = rng.randint(0, 32)
                network = ipaddress.IPv4Network((rng.getrandbits(32), length), strict=False)
                table.add_peer(owner, [network])
                oracle = [(n, k) for n, k in oracle if n != network]  # reassignment
                oracle.append((network, owner))
            for _ in range(200):
                ip = str(ipaddress.IPv4Address(rng.getrandbits(32)))
                expected = linear_lpm(oracle, ip)
                if expected is None:
                    with pytest.raises(NoPeer):
                        table.lookup_by_ip(ip)
                else:
                    assert table.lookup_by_ip(ip) == expected

    def test_lookup_matches_linear_scan_under_deletion(self):
        # few owners and prefixes in one /16, so adds reassign exact prefixes,
        # deletes empty whole prefix lengths, and later adds refill them
        rng = random.Random(4242)
        owners = [generate_keypair(bytes([0x40 + i]) * 32).public for i in range(6)]
        base = int(ipaddress.IPv4Address("10.20.0.0"))
        pool = [ipaddress.IPv4Network((base + rng.getrandbits(16), length), strict=False)
                for length in (0, 8, 16, 20, 24, 24, 28, 30, 32, 32) for _ in range(2)]
        table = make_table(1)
        model: dict[ipaddress.IPv4Network, bytes] = {}
        emptied = refilled = 0
        for _ in range(600):
            lengths_before = {n.prefixlen for n in model}
            owner = rng.choice(owners)
            if owner in table.peers and rng.random() < 0.35:
                table.del_peer(owner)
                model = {n: k for n, k in model.items() if k != owner}
            else:
                networks = rng.sample(pool, rng.randint(1, 3))
                table.add_peer(owner, networks)
                model.update((n, owner) for n in networks)
            lengths_after = {n.prefixlen for n in model}
            emptied += len(lengths_before - lengths_after)
            refilled += len(lengths_after - lengths_before)
            oracle = list(model.items())
            for key, entry in table.peers.items():
                assert set(map(ipaddress.IPv4Network, entry.allowed_ips)) == {n for n, k in model.items() if k == key}
            probes = [str(n[rng.randrange(n.num_addresses)]) for n in rng.sample(pool, 4)]
            probes.append(str(ipaddress.IPv4Address(rng.getrandbits(32))))
            for ip in probes:
                expected = linear_lpm(oracle, ip)
                if expected is None:
                    with pytest.raises(NoPeer):
                        table.lookup_by_ip(ip)
                else:
                    assert table.lookup_by_ip(ip) == expected
        assert emptied > 20 and refilled > 20  # the sequence exercised both transitions


class TestSend:
    def test_send_targets_configured_endpoint(self):
        # sender reaches its peer at the endpoint configured for it
        west, east = make_pair()
        west.peers[east.public_key].endpoint = Endpoint("192.95.5.69", 41414)
        envelope, destination = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"hi"))
        assert destination == Endpoint("192.95.5.69", 41414)
        assert envelope.sender_public_key == west.public_key
        assert envelope.receiver_key_id == east.public_key[:8]

    def test_unroutable_destination(self):
        west, _ = make_pair()
        with pytest.raises(NoPeer):
            west.send(PlainPacket("10.100.0.1", "172.16.0.1", b"x"))

    def test_no_endpoint(self):
        table = make_table(1)
        peer = generate_keypair(b"\x0a" * 32).public
        table.add_peer(peer, ["10.9.0.0/24"])  # endpoint never configured
        with pytest.raises(NoEndpoint):
            table.send(PlainPacket("10.100.0.1", "10.9.0.1", b"x"))

    def test_counters_are_monotonic(self):
        west, east = make_pair()
        e1, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"a"))
        e2, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"b"))
        assert e2.counter == e1.counter + 1

    def test_counters_survive_peer_deletion(self):
        # session keys are static per key pair: a del/re-add cycle must not
        # restart the counter, or the same AEAD nonce would be reused
        west, east = make_pair()
        e1, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"a"))
        west.del_peer(east.public_key)
        west.add_peer(east.public_key, ["10.100.0.2/32"], Endpoint("192.168.100.2", 51820))
        e2, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"b"))
        assert e2.counter == e1.counter + 1
        # and the re-established tunnel still delivers
        assert east.receive(e2, Endpoint("192.168.100.1", 51820)).payload == b"b"

    def test_ciphertext_length_is_plaintext_plus_tag(self):
        west, _ = make_pair()
        packet = PlainPacket("10.100.0.1", "10.100.0.2", b"x" * 100)
        envelope, _ = west.send(packet)
        assert len(envelope.ciphertext) == len(packet.pack()) + 16


class TestReceive:
    def test_round_trip(self):
        west, east = make_pair()
        packet = PlainPacket("10.100.0.1", "10.100.0.2", b"payload")
        envelope, _ = west.send(packet)
        assert east.receive(envelope, Endpoint("192.168.100.1", 51820)) == packet

    def test_roaming_updates_endpoint_and_reply_path(self):
        # receiver learns the sender's new outer endpoint and replies there
        west, east = make_pair()
        roamed = Endpoint("192.95.5.64", 21841)
        envelope, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"hello"))
        east.receive(envelope, roamed)
        assert east.endpoint_of(west.public_key) == roamed
        _, reply_destination = east.send(PlainPacket("10.100.0.2", "10.100.0.1", b"re"))
        assert reply_destination == roamed

    def test_tamper_is_auth_failure_and_no_roaming(self):
        west, east = make_pair()
        before = east.endpoint_of(west.public_key)
        envelope, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"hello"))
        flipped = bytearray(envelope.ciphertext)
        flipped[0] ^= 0x01
        bad = EncryptedEnvelope(envelope.receiver_key_id, envelope.sender_public_key,
                                envelope.counter, bytes(flipped))
        with pytest.raises(AuthFailure):
            east.receive(bad, Endpoint("203.0.113.9", 9))
        assert east.endpoint_of(west.public_key) == before
        assert east.sessions[west.public_key].rx == 0

    def test_unknown_sender(self):
        west, east = make_pair()
        stranger = make_table(9, "10.100.0.9")
        stranger.add_peer(east.public_key, ["10.100.0.2/32"], Endpoint("192.168.100.2", 51820))
        envelope, _ = stranger.send(PlainPacket("10.100.0.9", "10.100.0.2", b"x"))
        before = east.endpoint_of(west.public_key)
        with pytest.raises(UnknownPeer):
            east.receive(envelope, Endpoint("203.0.113.9", 9))
        assert east.endpoint_of(west.public_key) == before  # table untouched

    def test_replay_rejected(self):
        west, east = make_pair()
        envelope, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"x"))
        east.receive(envelope, Endpoint("192.168.100.1", 51820))
        with pytest.raises(ReplayRejected):
            east.receive(envelope, Endpoint("192.168.100.1", 51820))

    def test_captured_envelopes_stay_rejected_after_del_and_re_add(self):
        # the replay watermark lives in the session, which outlives the peer entry
        west, east = make_pair()
        home, spoofed = Endpoint("192.168.100.1", 51820), Endpoint("203.0.113.9", 9)
        captured = [west.send(PlainPacket("10.100.0.1", "10.100.0.2", bytes([i])))[0] for i in range(3)]
        for envelope in captured:
            east.receive(envelope, home)
        east.del_peer(west.public_key)
        east.add_peer(west.public_key, ["10.100.0.1/32", "10.0.1.0/24"], home)
        for envelope in captured:
            for outer in (home, spoofed):
                with pytest.raises(ReplayRejected):
                    east.receive(envelope, outer)
        assert east.endpoint_of(west.public_key) == home
        fresh, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"fresh"))
        assert east.receive(fresh, home).payload == b"fresh"

    def test_source_address_violation(self):
        west, east = make_pair()
        # west seals a packet whose inner source is outside its allowed prefixes at east
        forged = PlainPacket("172.16.0.1", "10.100.0.2", b"x")
        envelope, _ = west.send(forged)
        with pytest.raises(SourceAddressViolation):
            east.receive(envelope, Endpoint("192.168.100.1", 51820))
        oracle_owner = linear_lpm(
            [(ipaddress.IPv4Network(n), k) for k, e in east.peers.items() for n in e.allowed_ips], "172.16.0.1")
        assert oracle_owner != west.public_key  # oracle agrees the source is not west's

    def test_wrong_receiver_key_id(self):
        west, east = make_pair()
        envelope, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"x"))
        bad = EncryptedEnvelope(b"\x00" * 8, envelope.sender_public_key,
                                envelope.counter, envelope.ciphertext)
        with pytest.raises(AuthFailure):
            east.receive(bad, Endpoint("192.168.100.1", 51820))

    def test_forgeries_never_accepted(self):
        west, east = make_pair()
        rng = random.Random(7)
        mallory = generate_keypair(rng.randbytes(32))
        envelope, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"captured"))
        wire = envelope.to_bytes()
        rejected = 0
        for _ in range(200):
            forged = bytearray(wire)
            strategy = rng.randint(0, 2)
            if strategy == 0:  # replace sender key with mallory's, keep ciphertext
                forged[11:43] = mallory.public
            elif strategy == 1:  # random ciphertext bytes
                forged[HEADER_LEN:] = rng.randbytes(len(wire) - HEADER_LEN)
            else:  # bump counter without the key
                forged[43:51] = rng.randrange(2, 2**63).to_bytes(8, "big")
            try:
                east.receive(EncryptedEnvelope.from_bytes(bytes(forged)),
                             Endpoint("203.0.113.1", 1))
            except (AuthFailure, UnknownPeer, ReplayRejected):
                rejected += 1
        assert rejected == 200


class TestWireFormat:
    def test_header_layout(self):
        west, _ = make_pair()
        envelope, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"z"))
        wire = envelope.to_bytes()
        assert wire[:2] == b"\x57\x47"
        assert wire[2] == 0x01
        assert wire[3:11] == envelope.receiver_key_id
        assert wire[11:43] == west.public_key
        assert int.from_bytes(wire[43:51], "big") == envelope.counter
        assert EncryptedEnvelope.from_bytes(wire) == envelope

    @pytest.mark.parametrize("mutate", [
        lambda w: w[:10],                       # truncated
        lambda w: b"\x00\x00" + w[2:],          # bad magic
        lambda w: w[:2] + b"\x02" + w[3:],      # bad version
    ])
    def test_malformed_envelopes(self, mutate):
        west, _ = make_pair()
        envelope, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"z"))
        with pytest.raises(MalformedEnvelope):
            EncryptedEnvelope.from_bytes(mutate(envelope.to_bytes()))

    def test_payload_bound(self):
        with pytest.raises(CryptokeyError, match="exceeds"):
            PlainPacket("10.0.0.1", "10.0.0.2", b"x" * 65_468)
        PlainPacket("10.0.0.1", "10.0.0.2", b"x" * 65_467)  # boundary is fine


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=4096),
       st.sampled_from(["10.100.0.1", "10.0.1.7"]),
       st.sampled_from(["10.100.0.2", "10.0.2.9"]))
def test_round_trip_for_all_valid_packets(payload, src, dst):
    west, east = make_pair()
    packet = PlainPacket(src, dst, payload)
    envelope, _ = west.send(packet)
    assert east.receive(envelope, Endpoint("192.168.100.1", 51820)) == packet


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b"]), st.integers(1, 65535)), min_size=1, max_size=12))
def test_endpoint_reflects_latest_authenticated_receive(script):
    west, east = make_pair()
    alt = make_table(3, "10.100.0.3", ("192.168.100.3", 51820))
    east.add_peer(alt.public_key, ["10.100.0.3/32"])
    last = east.endpoint_of(west.public_key)
    for who, port in script:
        if who == "a":
            outer = Endpoint("198.51.100.1", port)
            envelope, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"m"))
            east.receive(envelope, outer)
            last = outer
        else:
            # unauthenticated noise from a third party never moves the endpoint
            envelope, _ = west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"m"))
            bad = EncryptedEnvelope(envelope.receiver_key_id, alt.public_key,
                                    envelope.counter + 1000, envelope.ciphertext)
            with pytest.raises(AuthFailure):
                east.receive(bad, Endpoint("198.51.100.99", port))
    assert east.endpoint_of(west.public_key) == last


# --- the strict IPv4 parsers, against ipaddress ----------------------------------

_OCTETS = st.one_of(
    st.integers(0, 255).map(str),
    st.sampled_from(["", "00", "01", "010", "0255", "256", "999", "1000", " 1", "1 ", "\t1", "+1", "-1",
                     "0x1", "1_0", "\u0661", "\uff11", "1\x002", "\x00", "1e1"]))
_ADDRESSES = st.builds(".".join, st.lists(_OCTETS, min_size=3, max_size=5))
_LENGTHS = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from(["024", "0024", "00", "032", "033", "", " 24", "24 ", "+24", "-1", "\u0662\u0664", "2\x004",
                     "255.255.255.0", "255.255.0.0", "0.0.0.255", "0.0.255.255", "255.0.255.0",
                     "255.255.255.255", "0.0.0.0", "255.255.255.00"]))
_NETWORKS = st.builds(lambda address, length: str(ipaddress.IPv4Network((address, length), strict=False)),
                      st.integers(0, 2**32 - 1), st.integers(0, 32))
_NOISE = st.sampled_from(list("0123456789./: +-\x00\t\u0661\uff12ab"))


@st.composite
def _mutated(draw, texts):
    """A text from `texts` with up to three characters inserted, deleted or replaced."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        text = text[:at] + ("" if op == "delete" else draw(_NOISE)) + text[at + (op != "insert"):]
    return text


_PREFIX_TEXTS = st.one_of(
    _NETWORKS,
    _mutated(_NETWORKS),
    st.builds(lambda a, n: f"{a}/{n}", _ADDRESSES, _LENGTHS),
    _mutated(st.builds(lambda a, n: f"{a}/{n}", _ADDRESSES, _LENGTHS)),
    _ADDRESSES,
    st.builds(lambda a, n: f"{a}/{n}/{n}", _ADDRESSES, _LENGTHS),
    st.text(max_size=20),
)
_ADDRESS_TEXTS = st.one_of(
    _NETWORKS.map(lambda n: n.partition("/")[0]),
    _mutated(_NETWORKS.map(lambda n: n.partition("/")[0])),
    _ADDRESSES,
    _mutated(_ADDRESSES),
    st.text(max_size=16),
)


def _outcome(parse, text):
    """('ok', value) or (exception class, message) of parse(text)."""
    try:
        return "ok", parse(text)
    except (ValueError, CryptokeyError, TransportError) as exc:
        return type(exc), str(exc)


def _network_as_ipaddress_reads_it(text):
    network = ipaddress.IPv4Network(text, strict=True)
    return str(network), int(network.network_address), network.prefixlen


def _prefix_as_ipaddress_reads_it(text):
    try:
        return _network_as_ipaddress_reads_it(text)
    except ValueError as exc:
        raise CryptokeyError(f"expected an IPv4 CIDR, got {text!r}") from exc


def _endpoint_as_ipaddress_reads_it(text):
    host, _, port = text.rpartition(":")
    try:
        ipaddress.IPv4Address(host)
        port = parse_decimal(port)
    except ValueError as exc:
        raise TransportError(f"expected ip:port, got {text!r}") from exc
    if not 0 < port < 65536:
        raise TransportError(f"expected ip:port, got {text!r}")
    return host, port


def _fields(endpoint: Endpoint) -> tuple[str, int]:
    return endpoint.ip, endpoint.port


class TestStrictParsers:
    """The parsers that skip ``ipaddress`` for canonical text accept, refuse
    and word their refusals exactly as ``ipaddress`` does."""

    @settings(max_examples=1000, deadline=None)
    @given(_PREFIX_TEXTS)
    def test_prefix_parser_matches_ipv4network(self, text):
        assert _outcome(parse_prefix, text) == _outcome(_prefix_as_ipaddress_reads_it, text)

    @settings(max_examples=600, deadline=None)
    @given(_ADDRESS_TEXTS)
    def test_address_parser_matches_ipv4address(self, text):
        assert _outcome(ipv4_int, text) == _outcome(lambda t: int(ipaddress.IPv4Address(t)), text)

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(st.builds(lambda a, p: f"{a}:{p}", _ADDRESS_TEXTS, st.integers(-1, 70000).map(str)),
                     _mutated(st.builds(lambda a, p: f"{a}:{p}", _ADDRESS_TEXTS, st.integers(0, 65535).map(str)))))
    def test_endpoint_parse_matches_ipaddress(self, text):
        parsed = _outcome(lambda t: _fields(Endpoint.parse(t)), text)
        assert parsed == _outcome(_endpoint_as_ipaddress_reads_it, text)

    @pytest.mark.parametrize("text, expected", [
        ("10.0.9.0/024", ("10.0.9.0/24", 0x0A000900, 24)),
        ("10.0.8.0/255.255.255.0", ("10.0.8.0/24", 0x0A000800, 24)),
        ("10.0.8.0/0.0.0.255", ("10.0.8.0/24", 0x0A000800, 24)),
        ("10.0.8.7", ("10.0.8.7/32", 0x0A000807, 32)),
        ("0.0.0.0/0", ("0.0.0.0/0", 0, 0)),
        ("255.255.255.255/32", ("255.255.255.255/32", 0xFFFFFFFF, 32)),
        (ipaddress.IPv4Network("10.1.0.0/16"), ("10.1.0.0/16", 0x0A010000, 16)),
    ])
    def test_accepted_forms_are_canonical(self, text, expected):
        assert parse_prefix(text) == expected

    @pytest.mark.parametrize("text", ["10.0.9.1/24", "10.0.9.0/33", "10.0.9.0/+24", "10.0.9.0/ 24", " 10.0.9.0/24",
                                      "010.0.9.0/24", "10.0.9/24", "10.0.9.0.0/24", "10.0.9.0/\u0662\u0664",
                                      "10.0.9.0\x00/24", "10.0.9.0/24/24", "10.0.9.0/255.0.255.0", "",
                                      "10.0.9.0/" + "0" * 5000 + "24"])
    def test_refusals_read_as_before(self, text):
        with pytest.raises(CryptokeyError) as refused:
            parse_prefix(text)
        assert str(refused.value) == f"expected an IPv4 CIDR, got {text!r}"
        with pytest.raises(ValueError):
            ipaddress.IPv4Network(text, strict=True)


# --- deterministic cost contracts ---------------------------------------------------


class TestCostContracts:
    @pytest.mark.parametrize("peers", [1, 64])
    def test_a_table_loads_its_private_key_once_for_all_its_sessions(self, monkeypatch, peers):
        local = generate_keypair(b"\x21" * 32)
        remotes = [generate_keypair(bytes([0x40 + i]) * 32) for i in range(peers)]
        made = _spy_on_x25519(monkeypatch)
        table = CryptokeyRoutingTable(local, Endpoint("192.168.100.1", 51820), "10.100.0.1")
        for i, remote in enumerate(remotes):
            table.add_peer(remote.public, [f"10.1.{i}.0/24"], Endpoint("192.168.100.2", 51820 + i))
        assert made == []  # construction and peering load no key
        for i in range(peers):
            table.send(PlainPacket("10.100.0.1", f"10.1.{i}.1", b"x"))
        assert len(table.sessions) == peers and made == [32]
        table.send(PlainPacket("10.100.0.1", "10.1.0.2", b"y"))
        assert made == [32]
