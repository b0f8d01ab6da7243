"""Cryptokey routing: keypairs, the per-gateway routing table mapping peer
public keys to allowed-IP prefixes, authenticated send/receive, and endpoint
roaming.

Send-side, the destination IP picks the peer (longest matching allowed
prefix) and the packet is sealed for that peer's key; receive-side, a packet
is accepted only if it authenticates under a known peer's key AND its inner
source IP resolves back to that same key. The outer source of an
authenticated packet updates the peer's endpoint, so replies follow a
roaming peer. Allowed-IPs prefixes are held as integers, and a peer's list as
canonical CIDR texts; canonical input is parsed with no ``ipaddress`` object.

SECURITY MODEL, READ BEFORE REUSE: sessions are derived from the static-
static X25519 shared secret (HKDF with direction labels) and sealed with
ChaCha20-Poly1305 under a 64-bit send counter. There is no handshake, no
ephemeral rekeying, and therefore NO forward secrecy; the wire format is NOT
WireGuard-compatible. Replay protection is a high-watermark counter per
session, which rejects out-of-order delivery as replay. A session (keys,
send counter, watermark) outlives its peer entry, so deleting and
re-adding a peer neither reuses a nonce nor reopens replay. Fit for the
simulated/loopback transports in this package, not for hostile networks.
"""

from __future__ import annotations

import base64
import ipaddress
import os
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from slicevpn.errors import SliceVpnError
from slicevpn.transport import Endpoint, ipv4_int

WIRE_MAGIC = 0x5747
WIRE_VERSION = 0x01
HEADER = struct.Struct(">HB8s32sQ")  # magic, version, receiver key id, sender public key, counter
HEADER_LEN = HEADER.size  # 51
AEAD_TAG_LEN = 16
INNER_HEADER_LEN = 8  # inner src + dst IPv4
MAX_PLAIN_PAYLOAD = 65_467

_KDF_SALT = b"slicevpn cryptokey v1"
_LABEL_LO_TO_HI = b"init->resp"
_LABEL_HI_TO_LO = b"resp->init"


class CryptokeyError(SliceVpnError):
    """Base for datapath errors."""


class NoPeer(CryptokeyError):
    """No allowed-IPs prefix covers the address."""


class NoEndpoint(CryptokeyError):
    """Peer known but its endpoint was never configured or learned."""


class UnknownPeer(CryptokeyError):
    """Public key is not in the table."""


class AuthFailure(CryptokeyError):
    """AEAD authentication failed (tamper, wrong key, wrong receiver)."""


class ReplayRejected(CryptokeyError):
    """Counter at or below the session's receive high watermark, which
    outlives the peer entry (a re-added peer keeps it)."""


class SourceAddressViolation(CryptokeyError):
    """Inner source IP does not resolve to the authenticated sender's key."""


class MalformedEnvelope(CryptokeyError):
    """Wire bytes are not a valid envelope."""


# --- keys ---------------------------------------------------------------------


@dataclass(frozen=True)
class KeyPair:
    private: bytes
    public: bytes

    def __repr__(self) -> str:  # never leak the private scalar
        return f"KeyPair(public={self.public_b64})"

    @property
    def public_b64(self) -> str:
        return key_to_base64(self.public)


def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Create an X25519 keypair; an explicit 32-byte seed is the private scalar
    (clamped by the curve operation), so seeded calls are deterministic."""
    if seed is None:
        seed = os.urandom(32)
    if len(seed) != 32:
        raise CryptokeyError(f"seed must be 32 bytes, got {len(seed)}")
    priv = X25519PrivateKey.from_private_bytes(seed)
    return KeyPair(private=seed, public=priv.public_key().public_bytes_raw())


def dh(private: X25519PrivateKey, peer_public: bytes) -> bytes:
    """X25519 shared secret. `private` is a key object, built once per table:
    OpenSSL derives the public key again each time one is loaded from bytes."""
    return private.exchange(X25519PublicKey.from_public_bytes(peer_public))


def key_to_base64(public: bytes) -> str:
    return base64.b64encode(public).decode("ascii")


def key_from_base64(text: str) -> bytes:
    try:
        raw = base64.b64decode(text, validate=True)
    except Exception as exc:
        raise CryptokeyError(f"not a base64 key: {text!r}") from exc
    if len(raw) != 32:
        raise CryptokeyError(f"key must decode to 32 bytes, got {len(raw)}")
    return raw


def _as_key_bytes(key) -> bytes:
    if not isinstance(key, bytes) or len(key) != 32:
        raise CryptokeyError(f"not a 32-byte key: {key!r}")
    return key


# --- packets and envelopes ------------------------------------------------------


@dataclass(frozen=True)
class PlainPacket:
    src_ip: str
    dst_ip: str
    payload: bytes

    def __post_init__(self):
        ipaddress.IPv4Address(self.src_ip)
        ipaddress.IPv4Address(self.dst_ip)
        if len(self.payload) > MAX_PLAIN_PAYLOAD:
            raise CryptokeyError(f"payload of {len(self.payload)} bytes exceeds {MAX_PLAIN_PAYLOAD}")

    def pack(self) -> bytes:
        return (ipaddress.IPv4Address(self.src_ip).packed
                + ipaddress.IPv4Address(self.dst_ip).packed
                + self.payload)

    @classmethod
    def unpack(cls, data: bytes) -> "PlainPacket":
        if len(data) < INNER_HEADER_LEN:
            raise MalformedEnvelope("inner packet shorter than its header")
        return cls(
            src_ip=str(ipaddress.IPv4Address(data[:4])),
            dst_ip=str(ipaddress.IPv4Address(data[4:8])),
            payload=data[8:],
        )


@dataclass(frozen=True)
class EncryptedEnvelope:
    receiver_key_id: bytes  # first 8 bytes of receiver public key
    sender_public_key: bytes
    counter: int
    ciphertext: bytes

    def header(self) -> bytes:
        return HEADER.pack(WIRE_MAGIC, WIRE_VERSION, self.receiver_key_id,
                           self.sender_public_key, self.counter)

    def to_bytes(self) -> bytes:
        return self.header() + self.ciphertext

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncryptedEnvelope":
        if len(data) < HEADER_LEN + AEAD_TAG_LEN:
            raise MalformedEnvelope(f"envelope of {len(data)} bytes is too short")
        magic, version, key_id, sender, counter = HEADER.unpack_from(data)
        if magic != WIRE_MAGIC:
            raise MalformedEnvelope(f"bad magic 0x{magic:04x}")
        if version != WIRE_VERSION:
            raise MalformedEnvelope(f"unsupported version {version}")
        return cls(receiver_key_id=key_id, sender_public_key=sender,
                   counter=counter, ciphertext=data[HEADER_LEN:])


# --- allowed-IPs prefix table --------------------------------------------------


class PrefixTable:
    """IPv4 prefixes, as (network, length) integers, in one dict per prefix
    length, probed longest-first; each exact prefix has one owner key."""

    def __init__(self):
        self._by_length: dict[int, dict[int, bytes]] = {}
        self._probes: list[tuple[int, dict[int, bytes]]] = []  # (netmask, prefixes), longest first

    def _reindex(self):
        self._probes = [((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF, self._by_length[length])
                        for length in sorted(self._by_length, reverse=True)]

    def insert(self, network: int, length: int, owner: bytes) -> bytes | None:
        """Set the prefix owner; returns the displaced owner, if any."""
        prefixes = self._by_length.get(length)
        if prefixes is None:
            prefixes = self._by_length[length] = {}
            self._reindex()
        previous = prefixes.get(network)
        prefixes[network] = owner
        return previous if previous != owner else None

    def remove(self, network: int, length: int):
        prefixes = self._by_length.get(length)
        if prefixes is None:
            return
        prefixes.pop(network, None)
        if not prefixes:
            del self._by_length[length]
            self._reindex()

    def lookup(self, address: int) -> bytes | None:
        """Owner of the longest prefix containing address, or None."""
        for netmask, prefixes in self._probes:
            owner = prefixes.get(address & netmask)
            if owner is not None:
                return owner
        return None


# --- routing table --------------------------------------------------------------


@dataclass
class PeerEntry:
    public_key: bytes
    allowed_ips: list[str]  # canonical CIDR texts, as ``str(ipaddress.IPv4Network)`` writes them
    endpoint: Endpoint | None = None


@dataclass(slots=True)
class Session:
    """Datapath state with one remote static key: the last sent counter, the
    receive high watermark, and the send and receive keys, derived on first
    use; bytes, not ChaCha20Poly1305 objects, which hold ~2.7 KB natively each."""
    tx: int = 0
    rx: int = 0
    send_key: bytes | None = None
    recv_key: bytes | None = None


def parse_prefix(item) -> tuple[str, int, int]:
    """An allowed-IPs prefix as (canonical text, network, length), accepting
    and refusing what ``ipaddress.IPv4Network(item, strict=True)`` does, so a
    prefix with host bits set is refused. ``a.b.c.d/n`` with a canonical
    address and a decimal length (``/024`` too) builds no ``ipaddress``
    object; any other form (a netmask, no length, a network object) goes
    through ``ipaddress``."""
    if type(item) is str:
        address, _, digits = item.partition("/")
        if digits.isascii() and digits.isdigit():
            try:
                length, network = int(digits), ipv4_int(address)
            except ValueError:  # also int()'s limit on the number of digits
                pass
            else:
                if length <= 32 and network & (0xFFFFFFFF >> length) == 0:
                    return f"{address}/{length}", network, length
    try:
        parsed = ipaddress.IPv4Network(item, strict=True)
    except ValueError as exc:
        raise CryptokeyError(f"expected an IPv4 CIDR, got {item!r}") from exc
    return str(parsed), int(parsed.network_address), parsed.prefixlen


def parse_allowed_ips(allowed_ips) -> list[tuple[str, int, int]]:
    """The allowed-IPs list, each prefix as ``parse_prefix`` gives it."""
    prefixes = [parse_prefix(item) for item in allowed_ips]
    if not prefixes:
        raise CryptokeyError("allowed_ips must be non-empty")
    return prefixes


class CryptokeyRoutingTable:
    """One gateway interface's cryptokey state: local keypair, peers (routing
    only) and sessions. A session outlives its peer entry: its keys are static
    per key pair, so a re-added peer must continue both the send counter (no
    nonce reuse) and the receive watermark (no replay). The private key's
    X25519 object is built on the first session derived, once per table."""

    def __init__(self, local_keypair: KeyPair, listen_endpoint: Endpoint | None = None,
                 tunnel_address: str | None = None):
        if tunnel_address is not None:
            try:
                ipv4_int(tunnel_address)
            except ValueError as exc:
                raise CryptokeyError(f"invalid tunnel address {tunnel_address!r}") from exc
        self.local_keypair = local_keypair
        self.listen_endpoint = listen_endpoint
        self.tunnel_address = tunnel_address
        self.peers: dict[bytes, PeerEntry] = {}
        self.sessions: dict[bytes, Session] = {}
        self._prefixes = PrefixTable()
        self._private_key: X25519PrivateKey | None = None

    @property
    def public_key(self) -> bytes:
        return self.local_keypair.public

    @property
    def public_key_b64(self) -> str:
        return self.local_keypair.public_b64

    # -- peer management --

    def add_peer(self, public_key, allowed_ips, endpoint: Endpoint | None = None):
        """Add or update a peer. Inserting a prefix another peer already owns
        reassigns it (exact-prefix ownership is unique); updating an existing
        peer unions prefixes and overwrites the endpoint when one is given."""
        key = _as_key_bytes(public_key)
        if key == self.public_key:
            raise CryptokeyError("refusing to peer with our own public key")
        prefixes = parse_allowed_ips(allowed_ips)
        entry = self.peers.get(key)
        if entry is None:
            entry = PeerEntry(public_key=key, allowed_ips=[])
            self.peers[key] = entry
        for text, network, length in prefixes:
            displaced = self._prefixes.insert(network, length, key)
            if displaced is not None and displaced in self.peers:
                other = self.peers[displaced]
                other.allowed_ips = [t for t in other.allowed_ips if t != text]
            if text not in entry.allowed_ips:
                entry.allowed_ips.append(text)
        if endpoint is not None:
            entry.endpoint = endpoint

    def del_peer(self, public_key):
        key = _as_key_bytes(public_key)
        entry = self.peers.pop(key, None)
        if entry is None:
            raise UnknownPeer(f"no peer {key_to_base64(key)}")
        for text in entry.allowed_ips:
            self._prefixes.remove(*parse_prefix(text)[1:])

    def lookup_by_ip(self, ip) -> bytes:
        """Public key owning the longest allowed prefix containing ip."""
        try:
            address = ipaddress.IPv4Address(ip)
        except ValueError as exc:
            raise CryptokeyError(f"not an IPv4 address: {ip!r}") from exc
        owner = self._prefixes.lookup(int(address))
        if owner is None:
            raise NoPeer(f"no allowed-ips prefix covers {address}")
        return owner

    def endpoint_of(self, public_key) -> Endpoint | None:
        key = _as_key_bytes(public_key)
        entry = self.peers.get(key)
        if entry is None:
            raise UnknownPeer(f"no peer {key_to_base64(key)}")
        return entry.endpoint

    # -- datapath --

    def _session(self, peer_key: bytes) -> Session:
        """The session with this peer; its keys are derived on first use."""
        session = self.sessions.get(peer_key) or self.sessions.setdefault(peer_key, Session())
        if session.send_key is None:
            if self._private_key is None:
                self._private_key = X25519PrivateKey.from_private_bytes(self.local_keypair.private)
            shared = dh(self._private_key, peer_key)
            lo, hi = sorted((self.public_key, peer_key))
            labels = ((_LABEL_LO_TO_HI, _LABEL_HI_TO_LO) if lo == self.public_key
                      else (_LABEL_HI_TO_LO, _LABEL_LO_TO_HI))
            session.send_key, session.recv_key = (
                HKDF(algorithm=hashes.SHA256(), length=32, salt=_KDF_SALT,
                     info=label + lo + hi).derive(shared) for label in labels)
        return session

    @staticmethod
    def _nonce(counter: int) -> bytes:
        return b"\x00\x00\x00\x00" + counter.to_bytes(8, "big")

    def send(self, packet: PlainPacket) -> tuple[EncryptedEnvelope, Endpoint]:
        """Seal a packet for the peer owning its destination and return the
        envelope plus the peer's current endpoint.

        The caller is responsible for sourcing the packet from this
        interface's tunnel address or a locally owned prefix; the receiving
        side enforces the cryptokey source check.
        """
        peer_key = self.lookup_by_ip(packet.dst_ip)
        entry = self.peers[peer_key]
        if entry.endpoint is None:
            raise NoEndpoint(f"peer {key_to_base64(peer_key)} has no known endpoint")
        session = self._session(peer_key)
        session.tx = counter = session.tx + 1
        aad = HEADER.pack(WIRE_MAGIC, WIRE_VERSION, peer_key[:8], self.public_key, counter)
        ciphertext = ChaCha20Poly1305(session.send_key).encrypt(self._nonce(counter), packet.pack(), aad)
        envelope = EncryptedEnvelope(
            receiver_key_id=peer_key[:8],
            sender_public_key=self.public_key,
            counter=counter,
            ciphertext=ciphertext,
        )
        return envelope, entry.endpoint

    def receive(self, envelope: EncryptedEnvelope, outer_src: Endpoint) -> PlainPacket:
        """Authenticate and open an envelope.

        Acceptance requires, in order: a known sender key, passing AEAD
        authentication, a counter above the session's high watermark, and an
        inner source IP whose longest-prefix owner is the sender. Only then
        is the watermark advanced and the peer's endpoint updated to
        outer_src (roaming); rejected traffic never mutates the table.
        """
        sender = envelope.sender_public_key
        entry = self.peers.get(sender)
        if entry is None:
            raise UnknownPeer(f"no peer {key_to_base64(sender)}")
        if envelope.receiver_key_id != self.public_key[:8]:
            raise AuthFailure("envelope is not addressed to this interface")
        session = self._session(sender)
        try:
            plaintext = ChaCha20Poly1305(session.recv_key).decrypt(
                self._nonce(envelope.counter), envelope.ciphertext, envelope.header())
        except InvalidTag as exc:
            raise AuthFailure("AEAD authentication failed") from exc
        if envelope.counter <= session.rx:
            raise ReplayRejected(f"counter {envelope.counter} <= watermark {session.rx}")
        packet = PlainPacket.unpack(plaintext)
        try:
            source_owner = self.lookup_by_ip(packet.src_ip)
        except NoPeer:
            source_owner = None
        if source_owner != sender:
            raise SourceAddressViolation(
                f"inner source {packet.src_ip} does not resolve to the sender's key")
        session.rx = envelope.counter
        entry.endpoint = outer_src
        return packet
