import dataclasses
import datetime
import errno
import gc
import itertools
import json
import ipaddress
import os
import random
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (EAST_PEER_PARAMS, create_vpn_instance, make_orchestrator, peer_gateways, sample_text,
                      save_peered_store)
from slicevpn import store as store_module
from slicevpn.cryptokey import (CryptokeyRoutingTable, EncryptedEnvelope, NoPeer, PlainPacket, ReplayRejected,
                                generate_keypair)
from slicevpn.descriptors import descriptor_from_doc, parse_descriptor, serialize_descriptor
from slicevpn.lifecycle import ADMIN, Actor, Orchestrator
from slicevpn.store import LOCK_FILE, STATE_FILE, Store, StoreError
from slicevpn.transport import Endpoint
from test_descriptors import nsd_docs, vnfd_docs


def build_and_save(root) -> Store:
    orch = make_orchestrator()
    instance_id = create_vpn_instance(orch)
    peer_gateways(orch, instance_id)
    orch.register_actor(Actor("t1", "tenant", frozenset({instance_id})))
    store = Store(root)
    store.save(orch)
    return store


class TestRoundTrip:
    def test_instance_state_survives_reload(self, tmp_path):
        store = build_and_save(tmp_path / "s")
        orch = store.load()
        instance = orch.instances["ns-1"]
        assert instance.state == "Running"
        assert orch.clock.now == 326  # 159 + 47 + 2x60, where the reload resumes
        assert any(e.message == "deploy-complete" for e in instance.events)
        west = instance.record(1)
        assert west.table.listen_endpoint == Endpoint("192.168.100.1", 51820)
        assert west.handle is not None and not west.handle.closed  # rebound on load
        assert len(west.table.peers) == 1

    def test_records_keep_their_vnfd_day2_primitives(self, tmp_path):
        store = build_and_save(tmp_path / "s")
        records = json.loads((store.root / STATE_FILE).read_text())["instances"][0]["vnf-records"]
        gateway = {
            "add-peer": "public-key:string allowed-ips:cidr endpoint:endpoint",
            "del-peer": "public-key:string",
            "get-public-key": "",
            "stop-wg": "",
        }
        assert [r["config-primitives"] for r in records] == [gateway, gateway, {}, {}]  # 3, 4: test hosts
        loaded = [{p.name: " ".join(f"{q.name}:{q.type}" for q in p.params) for p in r.config_primitives}
                  for r in store.load().instances["ns-1"].vnf_records]
        assert loaded == [gateway, gateway, {}, {}]

    def test_catalog_survives_reload(self, tmp_path):
        store = build_and_save(tmp_path / "s")
        orch = store.load()
        assert orch.catalog.get("nsd", "wg-vpn") is not None
        assert orch.catalog.validate().ok

    def test_actors_survive_reload(self, tmp_path):
        store = build_and_save(tmp_path / "s")
        orch = store.load()
        tenant = orch.actor("t1")
        assert tenant.role == "tenant" and "ns-1" in tenant.permitted

    def test_tunnel_keeps_working_after_reload(self, tmp_path):
        store = build_and_save(tmp_path / "s")
        orch = store.load()
        instance = orch.instances["ns-1"]
        west, east = instance.record(1), instance.record(2)
        packet = PlainPacket("10.100.0.1", "10.100.0.2", b"after reload")
        envelope, destination = west.table.send(packet)
        west.handle.send(destination, envelope.to_bytes())
        datagram = east.handle.recv()
        assert east.table.receive(EncryptedEnvelope.from_bytes(datagram.data), datagram.src) == packet

    def test_replay_protection_spans_reloads(self, tmp_path):
        orch = make_orchestrator()
        instance_id = create_vpn_instance(orch)
        peer_gateways(orch, instance_id)
        instance = orch.instances[instance_id]
        west, east = instance.record(1), instance.record(2)
        envelope, _ = west.table.send(PlainPacket("10.100.0.1", "10.100.0.2", b"once"))
        east.table.receive(envelope, Endpoint("192.168.100.1", 51820))
        store = Store(tmp_path / "s")
        store.save(orch)
        # counters and watermarks came back, so the old envelope stays dead
        reloaded = store.load()
        east2 = reloaded.instances[instance_id].record(2)
        with pytest.raises(ReplayRejected):
            east2.table.receive(envelope, Endpoint("192.168.100.1", 51820))
        west2 = reloaded.instances[instance_id].record(1)
        fresh, _ = west2.table.send(PlainPacket("10.100.0.1", "10.100.0.2", b"new"))
        assert fresh.counter == envelope.counter + 1

    def test_captured_envelopes_stay_rejected_after_del_peer_save_load_and_add_peer(self, tmp_path):
        # a del-peer and a later add-peer are separate commands, with a save between them
        orch = make_orchestrator()
        instance_id = create_vpn_instance(orch)
        peer_gateways(orch, instance_id)
        instance = orch.instances[instance_id]
        west, east = instance.record(1).table, instance.record(2).table
        home, spoofed = Endpoint("192.168.100.1", 51820), Endpoint("203.0.113.9", 9)
        captured = [west.send(PlainPacket("10.100.0.1", "10.100.0.2", bytes([i])))[0] for i in range(3)]
        for envelope in captured:
            east.receive(envelope, home)
        west_key = {"public-key": west.public_key_b64}
        assert orch.ns_action(ADMIN, instance_id, 2, "del-peer", west_key).status == "ok"
        store = Store(tmp_path / "s")
        store.save(orch)
        reloaded = store.load()
        result = reloaded.ns_action(ADMIN, instance_id, 2, "add-peer", {**west_key, **EAST_PEER_PARAMS})
        assert result.status == "ok"
        east2 = reloaded.instances[instance_id].record(2).table
        for envelope in captured:
            for outer in (home, spoofed):
                with pytest.raises(ReplayRejected):
                    east2.receive(envelope, outer)
        assert east2.endpoint_of(west.public_key) == home

    def test_a_version_1_store_with_tx_counters_and_rx_watermarks_is_refused(self, tmp_path, monkeypatch):
        # the table layout before sessions: "tx-counters" plus each peer's "rx-watermark"
        store = build_and_save(tmp_path / "s")
        path = tmp_path / "s" / STATE_FILE
        state = json.loads(path.read_bytes())
        state["version"] = 1
        for record in state["instances"][0]["vnf-records"]:
            if record["table"] is not None:
                del record["table"]["sessions"]
                record["table"]["tx-counters"] = {peer["public-key-hex"]: 3 for peer in record["table"]["peers"]}
                for peer in record["table"]["peers"]:
                    peer["rx-watermark"] = 2
        path.write_bytes(_laid_out_in_lines(state))
        before = path.read_bytes()
        decoded = []
        monkeypatch.setattr(store_module, "_instance_from_doc", lambda *args, **kw: decoded.append(args))
        with pytest.raises(StoreError) as refused:
            store.load()
        assert str(refused.value) == f"store {tmp_path / 's'} has version 1; this build reads 4"
        assert decoded == [] and path.read_bytes() == before

    def test_ids_continue_after_reload(self, tmp_path):
        store = build_and_save(tmp_path / "s")
        orch = store.load()
        second = create_vpn_instance(orch)
        assert second == "ns-2"

    def test_save_load_save_is_byte_identical(self, tmp_path):
        store = build_and_save(tmp_path / "s")
        first = (tmp_path / "s" / STATE_FILE).read_bytes()
        assert json.loads(first)["version"] == store_module.VERSION == 4
        store.save(store.load())
        assert (tmp_path / "s" / STATE_FILE).read_bytes() == first

    def test_decoded_instances_save_byte_identical(self, tmp_path):
        store = save_peered_store(tmp_path / "s")
        first = (tmp_path / "s" / STATE_FILE).read_bytes()
        catalog = {path: path.read_bytes() for path in (tmp_path / "s" / "catalog").iterdir()}
        orch = store.load()
        orch.instances["ns-2"]  # one of each decoded, the others written back as loaded
        orch.vim.network("ns-2.tunnel")
        orch.vim.vdu("ns-2.m1.gw")
        orch.catalog.get("vnfd", "wg-gw")
        store.save(orch)
        assert (tmp_path / "s" / STATE_FILE).read_bytes() == first
        orch = store.load()
        instances = list(orch.instances.values())  # all decoded, and every VIM entry too
        assert [i.id for i in instances] == ["ns-1", "ns-2", "ns-3"]
        networks = [orch.vim.network(n) for i in instances for n in i.networks.values()]
        vdus = [orch.vim.vdu(v) for i in instances for r in i.vnf_records for v in r.vdu_ids]
        assert len(networks) == 9 and len(vdus) == 12
        assert [d.id for d in orch.catalog.descriptors()] == [
            "consumer", "wg-vpn", "vpn-slice", "test-host", "wg-gw"]  # sorted file order
        store.save(orch)
        assert (tmp_path / "s" / STATE_FILE).read_bytes() == first
        assert {path: path.read_bytes() for path in catalog} == catalog

    def test_only_touched_gateways_are_bound(self, tmp_path):
        store = save_peered_store(tmp_path / "s")
        state = json.loads((tmp_path / "s" / STATE_FILE).read_text())
        ns2 = [(Endpoint.parse(r["table"]["listen-endpoint"]), r["transport-scope"])
               for r in state["instances"][1]["vnf-records"] if r["bound"]]
        assert len(ns2) == 2
        orch = store.load()
        orch.instances["ns-1"]
        for endpoint, scope in ns2:  # still free: ns-2 was never decoded
            orch.backend.bind(endpoint, scope).close()
        bound = [r.handle for r in orch.instances["ns-2"].vnf_records if r.handle is not None]
        assert len(bound) == 2 and not any(handle.closed for handle in bound)

    def test_loaded_orchestrator_is_freed_without_the_cycle_collector(self, tmp_path):
        # a reference cycle would keep every command's parsed state alive
        # until a full collection, and raise the process's peak memory
        store = save_peered_store(tmp_path / "s")
        gc.disable()
        try:
            orch = store.load()
            orch.instances["ns-1"]
            dropped = weakref.ref(orch)
            del orch
            assert dropped() is None
        finally:
            gc.enable()

    def test_peer_with_no_prefixes_survives_reload(self, tmp_path):
        from slicevpn.cryptokey import generate_keypair
        from slicevpn.lifecycle import ADMIN
        orch = make_orchestrator()
        instance_id = create_vpn_instance(orch)
        peer_gateways(orch, instance_id)
        west = orch.instances[instance_id].record(1).table
        # a third peer takes over every prefix east owned
        third = generate_keypair(b"\x0f" * 32).public
        west.add_peer(third, ["10.100.0.2/32", "10.0.2.0/24"])
        east_key = orch.instances[instance_id].record(2).table.public_key
        assert west.peers[east_key].allowed_ips == []
        store = Store(tmp_path / "s")
        store.save(orch)
        reloaded = store.load()
        west2 = reloaded.instances[instance_id].record(1).table
        assert west2.peers[east_key].allowed_ips == []
        assert west2.lookup_by_ip("10.0.2.9") == third

    def test_a_seeded_private_key_is_stored_once(self, tmp_path):
        # a key seed is the private scalar: the table holds it, and nothing else may
        store = build_and_save(tmp_path / "s")
        data = (tmp_path / "s" / STATE_FILE).read_bytes()
        tables = [record["table"] for instance in json.loads(data)["instances"]
                  for record in instance["vnf-records"] if record["table"] is not None]
        assert len(tables) == 2
        for table in tables:
            assert data.count(table["private-key-hex"].encode()) == 1
        assert all("params" not in instance for instance in json.loads(data)["instances"])
        store.save(store.load())
        assert (tmp_path / "s" / STATE_FILE).read_bytes() == data


def _hub_table_doc(rng: random.Random, peers: int = 1024) -> dict:
    """A hub table's document: `peers` peers owning 2 prefixes each. Peer 0
    owns 10.0.0.0/8 and 10.128.0.0/9; the others a /32 under the first and a
    /24 under the second, so most lookups pass over a shorter match."""
    table = CryptokeyRoutingTable(generate_keypair(rng.randbytes(32)), Endpoint("192.168.100.1", 51820),
                                  "10.100.0.1")
    for index in range(peers):
        prefixes = (["10.0.0.0/8", "10.128.0.0/9"] if index == 0 else
                    [f"10.101.{index >> 8}.{index & 255}/32", f"10.{128 + (index >> 8)}.{index & 255}.0/24"])
        table.add_peer(rng.randbytes(32), prefixes, Endpoint(f"172.16.{index >> 8}.{index & 255}", 51820))
    return store_module._table_to_doc(table)


def _linear_owner(model: dict[tuple[int, int], bytes], address: int) -> bytes | None:
    """Owner of the longest prefix in `model` ((network, length) -> key) holding address, by a full scan."""
    best, best_length = None, -1
    for (network, length), owner in model.items():
        if address >> (32 - length) << (32 - length) == network and length > best_length:
            best, best_length = owner, length
    return best


class TestTables:
    def test_hub_table_decodes_and_matches_a_linear_scan_under_churn(self):
        rng = random.Random(2026)
        doc = _hub_table_doc(rng)
        assert sum(len(peer["allowed-ips"]) for peer in doc["peers"]) == 2048
        table = store_module._table_from_doc(doc)
        assert store_module._table_to_doc(table) == doc
        keys = list(table.peers)
        for _ in range(400):
            key = rng.choice(keys)
            entry = table.peers.get(key)
            if entry is not None and rng.random() < 0.2:
                table.del_peer(key)
            elif entry is None or not entry.allowed_ips:  # deleted, or every prefix reassigned
                table.add_peer(key, [f"10.{rng.randrange(128, 132)}.{rng.randrange(256)}.0/24"])  # may reassign
            else:  # re-peer as the benchmark's churn does
                allowed, endpoint = list(entry.allowed_ips), entry.endpoint
                table.del_peer(key)
                table.add_peer(key, allowed, endpoint)
        model = {}
        for key, entry in table.peers.items():
            for text in entry.allowed_ips:
                network = ipaddress.IPv4Network(text)
                assert (int(network.network_address), network.prefixlen) not in model
                model[int(network.network_address), network.prefixlen] = key
        edges = []
        for network, length in rng.sample(sorted(model), 400):
            last = network + (1 << (32 - length)) - 1
            edges += [network, last, (last + 1) & 0xFFFFFFFF]
        addresses = edges[:1000] + [rng.getrandbits(32) for _ in range(500)] + \
            [0x0A000000 | rng.getrandbits(24) for _ in range(500)]
        assert len(addresses) == 2000
        for address in addresses:
            expected = _linear_owner(model, address)
            text = str(ipaddress.IPv4Address(address))
            if expected is None:
                with pytest.raises(NoPeer):
                    table.lookup_by_ip(text)
            else:
                assert table.lookup_by_ip(text) == expected
        churned = store_module._table_to_doc(table)
        assert store_module._table_to_doc(store_module._table_from_doc(churned)) == churned

    def test_decoding_canonical_prefixes_builds_no_ipaddress_object(self, monkeypatch):
        doc = _hub_table_doc(random.Random(7), peers=256)
        built = []
        for cls in (ipaddress.IPv4Network, ipaddress.IPv4Address):
            original = cls.__init__
            monkeypatch.setattr(cls, "__init__",
                                lambda self, *args, _original=original, **kw: built.append(self) or
                                _original(self, *args, **kw))
        table = store_module._table_from_doc(doc)
        assert built == []
        assert len(table.peers) == 256
        assert table.lookup_by_ip("10.128.7.9") == bytes.fromhex(doc["peers"][7]["public-key-hex"])


def _spy_on_writes(monkeypatch) -> list[str]:
    """The name of each file a save writes, in order, as it writes them."""
    written = []
    write_atomic = store_module._write_atomic
    monkeypatch.setattr(store_module, "_write_atomic",
                        lambda path, pieces: written.append(path.name) or write_atomic(path, pieces))
    return written


def _torn_file(fdopen):
    """An ``os.fdopen`` whose file takes half of what is written to it, then
    fails as a full disk does."""
    class TornFile:
        def __init__(self, fd, *args, **kwargs):
            self.file = fdopen(fd, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.file.close()

        def writelines(self, pieces):
            data = b"".join(pieces)
            self.file.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    return TornFile


class TestLineLayout:
    def test_one_document_per_line_around_the_skeleton(self, tmp_path):
        save_peered_store(tmp_path / "s")
        data = (tmp_path / "s" / STATE_FILE).read_bytes()
        state = json.loads(data)
        lines = data.split(b"\n")
        groups = [state["instances"], state["vim"]["networks"], state["vim"]["vdus"]]
        assert [len(docs) for docs in groups] == [3, 9, 12]
        skeleton, docs = [], []
        for line in lines:
            (docs if line.startswith((b'{"id":"', b'{"name":"')) else skeleton).append(line)
        assert len(skeleton) == 4 and len(docs) == 3 + 9 + 12
        for docs_of_group in groups:
            docs_of_group.clear()
        # the skeleton is the state with the three lists empty, compact and key-sorted
        assert b"".join(skeleton) == json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
        for line in docs:
            doc = json.loads(line.removesuffix(b","))
            key, *rest = doc
            assert key in ("id", "name") and rest == sorted(rest)
            assert line.removesuffix(b",") == json.dumps(doc, separators=(",", ":")).encode()

    def test_save_replaces_state_file_once(self, tmp_path, monkeypatch):
        store = save_peered_store(tmp_path / "s")
        orch = store.load()
        orch.instances["ns-2"]
        written = _spy_on_writes(monkeypatch)
        store.save(orch)
        assert written == [STATE_FILE]


def _laid_out_in_lines(state: dict) -> bytes:
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


def _document_lines(data: bytes) -> set[bytes]:
    return {line.removesuffix(b",") for line in data.split(b"\n") if line.startswith(b'{"')}


class TestSplice:
    """A save drops a deleted line, adds a line at the end of its group and
    leaves every other line of the loaded file byte-identical."""

    def save_after(self, root: Path, group: str, key: str, value=None) -> tuple[bytes, bytes]:
        """The state file before and after deleting `key` from `group` (or setting it to `value`)."""
        before = (root / STATE_FILE).read_bytes()
        store = Store(root)
        orch = store.load()
        entries = {"instances": orch.instances, "networks": orch.vim._networks, "vdus": orch.vim._vdus}[group]
        if value is None:
            del entries[key]
        else:
            entries[key] = value
        store.save(orch)
        return before, (root / STATE_FILE).read_bytes()

    def test_a_stored_file_is_in_the_line_layout(self, tmp_path):
        store = save_peered_store(tmp_path / "s")
        data = (store.root / STATE_FILE).read_bytes()
        assert data == _laid_out_in_lines(json.loads(data))

    @pytest.mark.parametrize("group, key", [("instances", "id"), ("networks", "name"), ("vdus", "id")])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_delete_a_line(self, tmp_path, group, key, position):
        root = save_peered_store(tmp_path / "s").root
        expected = json.loads((root / STATE_FILE).read_bytes())
        docs = expected["instances"] if group == "instances" else expected["vim"][group]
        doc = docs.pop({"first": 0, "middle": len(docs) // 2, "last": -1}[position])
        before, after = self.save_after(root, group, doc[key])
        assert json.loads(after) == expected
        assert after == _laid_out_in_lines(expected)
        gone = _document_lines(before) - _document_lines(after)
        assert len(gone) == 1 and json.loads(gone.pop()) == doc
        assert _document_lines(after) < _document_lines(before)  # every other line as it was

    def test_delete_the_only_line_then_add_one_to_the_empty_group(self, tmp_path):
        root = save_peered_store(tmp_path / "s", count=1).root
        pristine = (root / STATE_FILE).read_bytes()
        instance = Store(root).load().instances["ns-1"]
        expected = json.loads(pristine)
        expected["instances"] = []
        before, after = self.save_after(root, "instances", "ns-1")
        assert json.loads(after) == expected
        assert after == _laid_out_in_lines(expected)
        assert _document_lines(before) - _document_lines(after) == _document_lines(pristine.split(b"\n")[1])
        before, after = self.save_after(root, "instances", "ns-1", instance)
        assert after == pristine  # the added line, in the group it left empty
        assert _document_lines(after) - _document_lines(before) == _document_lines(pristine.split(b"\n")[1])


def _index_by_decoding_lines(data: bytes, bounds: list[tuple[int, int]]) -> tuple[dict, ...]:
    """The reference for ``store._index``: each line decoded whole, its key read as JSON."""
    spans = ({}, {}, {})
    for (lo, hi), prefix, group in zip(bounds, store_module._PREFIXES, spans):
        start = lo + 1
        while start <= hi:
            newline = data.find(b"\n", start)
            end = store_module._line_end(data, newline)
            if not data.startswith(prefix, start, end):
                raise ValueError(f"a document line does not start with {prefix.decode()}")
            group[json.decoder.scanstring(data[start:end].decode("utf-8"), len(prefix))[0]] = (start, end)
            start = newline + 1
    return spans


# what a key's JSON string may hold: any text a line can (control characters too), escapes
# valid and invalid, and an unterminated \u escape
_KEY_PIECES = st.one_of(
    st.characters(blacklist_characters='"\\\n\r', blacklist_categories=("Cs",)),
    st.sampled_from(["\\\"", "\\\\", "\\/", "\\b", "\\t", "\\u00e9", "\\ud83d\\ude00", "\\u0000",
                     "\\q", "\\u12", "ns-1", "\u00e9t\u00e9"]))


class TestIndex:
    @settings(max_examples=300, deadline=None)
    @given(keys=st.lists(st.lists(_KEY_PIECES, max_size=6).map("".join), min_size=1, max_size=6),
           tail=st.sampled_from(["", ",", " \t,"]))
    def test_keys_read_as_decoding_each_whole_line_reads_them(self, keys, tail):
        head, *closing = store_module._skeleton({"instances": [0], "vim": {"networks": [1], "vdus": [2]}})
        lines = [f'{{"id":"{key}","n":{n},"text":"\u00e9\\u00e9"}}{tail if n < len(keys) - 1 else ""}'
                 for n, key in enumerate(keys)]
        data = b"\n".join([head, "\n".join(lines).encode("utf-8"), *closing])
        file = store_module._StateFile(data)

        def outcome(index):
            try:
                return index(data, file.bounds)
            except ValueError:
                return ValueError

        with mock.patch.object(json.decoder, "scanstring", wraps=json.decoder.scanstring) as scanstring:
            indexed = outcome(store_module._index)
        assert indexed == outcome(_index_by_decoding_lines)
        if indexed is not ValueError:  # only a key with an escape or a control character is read as JSON
            assert scanstring.call_count == sum(1 for key in keys if "\\" in key or min(key + " ") < " ")


class TestInterruptedSave:
    def test_torn_catalog_write_leaves_no_torn_descriptor(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        gateway = parse_descriptor(sample_text("vnfd-wireguard-gateway.yaml"))
        store = Store(root)
        orch = store.load()
        orch.onboard_package(gateway)
        monkeypatch.setattr(os, "fdopen", _torn_file(os.fdopen))
        with pytest.raises(OSError) as failure:
            store.save(orch)
        monkeypatch.undo()
        assert failure.value.errno == errno.ENOSPC
        written = serialize_descriptor(gateway).encode("utf-8")
        assert (root / "catalog" / "vnfd-wg-gw.yaml.tmp").read_bytes() == written[:len(written) // 2]
        assert list((root / "catalog").glob("*.yaml")) == []
        store = Store(root)
        orch = store.load()
        orch.onboard_package(gateway)  # re-onboarding the same file
        store.save(orch)
        assert Store(root).load().catalog.get("vnfd", "wg-gw") == gateway


def _shadow_store(root: Path) -> tuple[Store, Path]:
    """A one-instance store saved twice, so that it has its shadow, and the
    path of its state file."""
    store = save_peered_store(root, count=1)
    store.save(store.load())
    return store, root / STATE_FILE


def _names(path: Path) -> tuple[Path, Path]:
    return path.with_name(path.name + ".tmp"), path.with_name(path.name + ".old")


class TestShadowSave:
    """A save writes the new state into the shadow ``state.json.tmp`` in
    place and swaps names, so that the file it replaces is the next save's
    shadow; at every step ``state.json`` is the old state or the new one."""

    def test_the_replaced_file_is_the_next_shadow(self, tmp_path):
        store, path = _shadow_store(tmp_path / "s")
        tmp, old = _names(path)
        for change in ("add an actor", "delete the instance", "add an actor"):
            orch = store.load()
            if change == "delete the instance":
                del orch.instances["ns-1"]  # the new state is shorter than the shadow was
            else:
                orch.register_actor(Actor(f"t{len(orch.actors)}", "tenant", frozenset({"ns-1"})))
            before, shadow = path.stat(), tmp.stat()
            previous = path.read_bytes()
            store.save(orch)
            assert (path.stat().st_ino, tmp.stat().st_ino) == (shadow.st_ino, before.st_ino)
            assert tmp.read_bytes() == previous and tmp.stat().st_nlink == 1
            assert not old.exists()
            expected = Store(tmp_path / "fresh")
            expected.save(orch)
            assert path.read_bytes() == (expected.root / STATE_FILE).read_bytes()

    @pytest.mark.parametrize("step", ["shadow write", "unlink of a leftover .old", "link",
                                      "rename over the state", "rename to the shadow"])
    def test_a_save_failing_at_any_step_leaves_the_old_or_the_new_state(self, tmp_path, monkeypatch, step):
        store, path = _shadow_store(tmp_path / "s")
        tmp, old = _names(path)
        os.link(path, old)  # as a save killed after its link leaves it
        previous = path.read_bytes()
        orch = store.load()
        orch.register_actor(Actor("t1", "tenant", frozenset({"ns-1"})))
        if step == "shadow write":
            monkeypatch.setattr(os, "fdopen", _torn_file(os.fdopen))
        else:
            name, call = {"unlink of a leftover .old": ("unlink", 1), "link": ("link", 1),
                          "rename over the state": ("replace", 1), "rename to the shadow": ("replace", 2)}[step]
            calls = itertools.count(1)
            real = getattr(os, name)

            def fail_once(*args, **kwargs):
                if next(calls) == call:
                    raise OSError(errno.EIO, f"{step} failed")
                return real(*args, **kwargs)

            monkeypatch.setattr(os, name, fail_once)
        try:
            store.save(orch)
        except OSError:
            assert step != "link"
        else:  # a refused link is a save by rename alone
            assert step == "link" and not tmp.exists() and not old.exists()
        monkeypatch.undo()
        after = path.read_bytes()
        store.save(orch)  # the next save succeeds
        new = path.read_bytes()
        assert after in (previous, new) and previous != new
        assert not old.exists() and tmp.stat().st_nlink == 1
        assert Store(store.root).load().actors["t1"].permitted == frozenset({"ns-1"})

    def test_a_shadow_with_another_name_is_never_written_through(self, tmp_path):
        store, path = _shadow_store(tmp_path / "s")
        tmp, _ = _names(path)
        backup = tmp_path / "backup"  # as ``cp -al`` of the store makes it
        os.link(tmp, backup)
        outside = tmp_path / "outside"
        outside.write_bytes(b"not the store's")
        for name in ("hard-linked backup", "symlink"):
            kept = backup.read_bytes()
            if name == "symlink":
                tmp.unlink()
                tmp.symlink_to(outside)
            orch = store.load()
            orch.register_actor(Actor(f"t{len(orch.actors)}", "tenant", frozenset({"ns-1"})))
            store.save(orch)
            assert backup.read_bytes() == kept and outside.read_bytes() == b"not the store's"
            assert not tmp.is_symlink() and tmp.stat().st_nlink == 1
        assert len(Store(store.root).load().actors) == len(orch.actors)


class TestCompiledCatalog:
    """Each catalog file written for an onboarded descriptor gets a compiled
    form beside it, ``{kind}-{id}.json``: the file's text and its checked
    document. A read whose text matches checks the document without a YAML parse."""

    @settings(max_examples=60, deadline=None)
    @given(doc=st.one_of(nsd_docs(), vnfd_docs()))
    def test_compiled_and_yaml_reads_give_equal_descriptors(self, doc):
        onboarded = descriptor_from_doc(doc)
        with tempfile.TemporaryDirectory() as tmp:
            orch = Orchestrator()
            orch.catalog.add(onboarded)
            Store(tmp).save(orch)
            path = Path(tmp) / "catalog" / f"{onboarded.kind}-{onboarded.id}.yaml"
            with mock.patch.object(store_module, "parse_descriptor", side_effect=AssertionError("parsed")):
                compiled = store_module._read_catalog_file(path)
            path.with_suffix(".json").unlink()
            parsed = store_module._read_catalog_file(path)
        assert compiled == parsed == onboarded
        assert compiled.doc == parsed.doc == doc

    @pytest.mark.parametrize("value", [datetime.date(2020, 1, 1), {1: "one"}, float("inf"), float("nan")])
    def test_a_document_json_cannot_carry_gets_no_compiled_form(self, tmp_path, value):
        gateway = parse_descriptor(sample_text("vnfd-wireguard-gateway.yaml"))
        text = serialize_descriptor(gateway)
        assert json.loads(store_module._compiled(text, gateway.doc)) == {"yaml": text, "doc": gateway.doc}
        odd = dataclasses.replace(gateway, doc={**gateway.doc, "name": value})
        assert store_module._compiled(serialize_descriptor(odd), odd.doc) is None
        orch = Orchestrator()
        orch.catalog.add(odd)
        Store(tmp_path).save(orch)
        assert sorted(path.name for path in (tmp_path / "catalog").iterdir()) == ["vnfd-wg-gw.yaml"]

    def test_onboarding_writes_the_catalog_file_then_its_compiled_form(self, tmp_path, monkeypatch):
        store = Store(tmp_path)
        orch = store.load()
        orch.onboard_package(parse_descriptor(sample_text("vnfd-wireguard-gateway.yaml")))
        written = _spy_on_writes(monkeypatch)
        store.save(orch)
        store.save(orch)  # the catalog is unchanged: nothing but the state is written again
        assert written == ["vnfd-wg-gw.yaml", "vnfd-wg-gw.json", STATE_FILE, STATE_FILE]


class TestCatalogListing:
    def test_only_yaml_names_are_listed_in_name_order(self, tmp_path):
        catalog = tmp_path / "s" / "catalog"
        catalog.mkdir(parents=True)
        for name in ("vnfd-x.yaml", "vnfd-x.yaml.tmp", "vnfd-x.yaml.old", "vnfd-x.json",
                     ".vnfd-hidden.yaml", "nsd-a.yaml"):
            (catalog / name).write_text("kind: vnfd\n")
        entries = Store(tmp_path / "s").load().catalog._entries
        assert dict(entries.loaded) == {(".vnfd", "hidden"): catalog / ".vnfd-hidden.yaml",
                                        ("nsd", "a"): catalog / "nsd-a.yaml",
                                        ("vnfd", "x"): catalog / "vnfd-x.yaml"}
        # as the glob *.yaml lists them, dotfiles included
        assert list(entries.loaded.values()) == sorted(catalog.glob("*.yaml"))


class TestVersion:
    @pytest.mark.parametrize("value, shown", [(1, "1"), (2, "2"), (3, "3"), (99, "99"), ("3", '"3"'), (3.0, "3.0"),
                                              ("4", '"4"'), (4.0, "4.0"),
                                              (True, "true"), (None, "null")])
    def test_a_store_of_another_version_is_refused_before_anything_decodes(self, tmp_path, monkeypatch,
                                                                            value, shown):
        store = build_and_save(tmp_path / "s")
        path = tmp_path / "s" / STATE_FILE
        state = json.loads(path.read_bytes())
        state["version"] = value
        path.write_bytes(_laid_out_in_lines(state))
        before = path.read_bytes()
        decoded = []
        monkeypatch.setattr(store_module, "_orchestrator_from_doc", lambda *args: decoded.append(args))
        with pytest.raises(StoreError) as refused:
            store.load()
        assert str(refused.value) == f"store {tmp_path / 's'} has version {shown}; this build reads 4"
        assert decoded == [] and path.read_bytes() == before

    def test_a_store_with_no_version_is_refused(self, tmp_path):
        store = build_and_save(tmp_path / "s")
        path = tmp_path / "s" / STATE_FILE
        state = json.loads(path.read_bytes())
        del state["version"]
        path.write_text(json.dumps(state, indent=1))  # laid out in lines as it loads, then refused
        before = path.read_bytes()
        with pytest.raises(StoreError, match=r"has version null; this build reads 4$"):
            store.load()
        assert path.read_bytes() == before


class TestLocking:
    def test_lock_is_exclusive(self, tmp_path):
        store = Store(tmp_path / "s")
        with store.lock():
            with pytest.raises(StoreError, match="in use"):
                with store.lock():
                    pass

    def test_lock_released_after_exit(self, tmp_path):
        store = Store(tmp_path / "s")
        with store.lock():
            pass
        with store.lock():
            pass  # no error

    def test_corrupt_state_reported(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "state.json").write_text("{nope")
        with pytest.raises(StoreError, match="corrupt state"):
            Store(root).load()
        # valid JSON that is not a store document
        (root / "state.json").write_text("{}")
        with pytest.raises(StoreError, match="corrupt state"):
            Store(root).load()
        # a well-formed store whose clock is not a fraction string
        build_and_save(tmp_path / "good")
        state = json.loads((tmp_path / "good" / "state.json").read_text())
        for clock in ("x", "1/0", 5):
            state["vim"]["clock"] = clock
            (root / "state.json").write_text(json.dumps(state))
            with pytest.raises(StoreError, match="corrupt state"):
                Store(root).load()

    def test_lock_survives_sigkill_of_holder(self, tmp_path):
        root = tmp_path / "s"
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, time\n"
             "from slicevpn.store import Store\n"
             "with Store(sys.argv[1]).lock():\n"
             "    print('locked', flush=True)\n"
             "    time.sleep(60)\n",
             str(root)],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        try:
            assert holder.stdout.readline().strip() == "locked"
            with pytest.raises(StoreError, match="in use"):
                with Store(root).lock():
                    pass
        finally:
            holder.kill()  # SIGKILL: no cleanup runs in the holder
            holder.wait(timeout=10)
            holder.stdout.close()
        assert (root / LOCK_FILE).exists()  # the killed holder left its lock file
        with Store(root).lock():
            pass  # the kernel released the lock with the process
