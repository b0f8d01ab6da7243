import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EAST_PEER_PARAMS,
    STRING_PARAMS_GATEWAY,
    WEST_PEER_PARAMS,
    WEST_SEED,
    create_vpn_instance,
    make_orchestrator,
    peer_gateways,
    sample_text,
)
from slicevpn import lifecycle
from slicevpn.cryptokey import EncryptedEnvelope, PlainPacket, UnknownPeer, AuthFailure, generate_keypair
from slicevpn.descriptors import PARAM_TYPES, parse_descriptor, parse_vnfd
from slicevpn.errors import AuthorizationError
from slicevpn.lifecycle import ADMIN, PARAM_PARSERS, Actor, LifecycleError, Orchestrator, export_event_log
from slicevpn.transport import Endpoint, parse_decimal
from slicevpn.vimsim import TimingProfile, VimError

TENANT = Actor("tenant1", "tenant")

# the sample gateway plus a Day-2 primitive that declares one param of each type
TYPED_GATEWAY = sample_text("vnfd-wireguard-gateway.yaml").replace("  - name: get-public-key\n", """\
  - name: set-options
    description: a timed no-op taking one param of each declared type
    params:
      - name: text
        type: string
      - name: count
        type: int
      - name: address
        type: ipaddr
      - name: prefixes
        type: cidr
      - name: peer
        type: endpoint
  - name: get-public-key
""")


def gateway_instance(gateway_text: str) -> tuple[Orchestrator, str]:
    """A Running wg-vpn instance whose gateways are `gateway_text`."""
    orch = Orchestrator()
    for text in (gateway_text, sample_text("vnfd-test-host.yaml"), sample_text("nsd-wireguard-vpn.yaml")):
        orch.onboard_package(parse_descriptor(text))
    return orch, create_vpn_instance(orch)


class TestOnboarding:
    def test_out_of_order_onboard_warns_then_ns_create_fails(self):
        orch = Orchestrator()
        nsd = parse_descriptor(sample_text("nsd-wireguard-vpn.yaml"))
        orch.onboard_package(nsd)
        warnings = orch.onboard_warnings(nsd)
        assert any("unresolved vnfd ref" in w for w in warnings)
        with pytest.raises(LifecycleError, match="unresolved vnfd refs"):
            orch.ns_create(ADMIN, "wg-vpn")

    def test_resolved_catalog_has_no_warnings(self, orch):
        nsd = orch.catalog.get("nsd", "wg-vpn")
        assert orch.onboard_warnings(nsd) == []
        assert orch.catalog.validate().ok

    def test_changed_content_rejected(self, orch):
        changed = parse_vnfd(sample_text("vnfd-wireguard-gateway.yaml")
                             .replace("name: wireguard-gateway", "name: other"))
        with pytest.raises(Exception, match="duplicate id"):
            orch.onboard_package(changed)

    def test_tenant_cannot_onboard(self, orch):
        with pytest.raises(AuthorizationError):
            orch.onboard_package(parse_vnfd(sample_text("vnfd-test-host.yaml")), TENANT)


class TestNsCreate:
    def test_reaches_running_with_expected_event_flow(self, orch):
        instance_id = create_vpn_instance(orch)
        instance = orch.instances[instance_id]
        assert instance.state == "Running"
        messages = [(e.source, e.message) for e in instance.events]
        assert messages[0][0] == "NBI" and "ns-create nsd=wg-vpn" in messages[0][1]
        deploy_complete = next(i for i, (s, m) in enumerate(messages) if m == "deploy-complete")
        first_vca = next(i for i, (s, m) in enumerate(messages) if s == "VCA")
        assert deploy_complete < first_vca  # RO finishes before configuration starts
        timestamps = [e.ts for e in instance.events]
        assert timestamps == sorted(timestamps)

    def test_instantiation_params_logged(self, orch):
        instance_id = create_vpn_instance(orch)
        instance = orch.instances[instance_id]
        assert "key-seed" in instance.events[0].message
        assert WEST_SEED.hex() not in instance.events[0].message  # redacted

    def test_param_overrides_tunnel_address(self, orch):
        instance_id = create_vpn_instance(orch, {"member.1.tunnel-address": "10.77.0.9"})
        record = orch.instances[instance_id].record(1)
        assert record.table.tunnel_address == "10.77.0.9"

    def test_default_tunnel_addresses_follow_member_index(self, orch):
        instance_id = create_vpn_instance(orch)
        instance = orch.instances[instance_id]
        assert instance.record(1).table.tunnel_address == "10.100.0.1"
        assert instance.record(2).table.tunnel_address == "10.100.0.2"

    def test_unknown_param_rejected(self, orch):
        with pytest.raises(LifecycleError, match="unknown instantiation param"):
            orch.ns_create(ADMIN, "wg-vpn", {"bogus": "1"})

    @pytest.mark.parametrize("key,value", [
        ("member.1.listen-port", "abc"),
        ("member.1.listen-port", "70000"),
        *(("member.1.listen-port", port) for port in ("5_1820", " 51820 ", "+51820", "５１８２０")),
        ("member.1.tunnel-address", "999.1.1.1"),
        ("member.1.key-seed", "zz"),
        ("member.1.key-seed", "0a"),  # too short
        ("member.1.listen-interface", ""),
    ])
    def test_malformed_param_values_rejected_before_deploy(self, orch, key, value):
        with pytest.raises(LifecycleError, match="bad value"):
            orch.ns_create(ADMIN, "wg-vpn", {key: value})
        assert orch.instances == {}  # rejected before anything was created
        for link in orch.catalog.get("nsd", "wg-vpn").virtual_links:
            with pytest.raises(VimError, match="unknown network"):
                orch.vim.network(f"ns-1.{link.name}")

    def test_listen_port_is_ascii_digits_only(self, orch):
        with pytest.raises(LifecycleError) as info:
            orch.ns_create(ADMIN, "wg-vpn", {"member.1.listen-port": "５１８２０"})
        assert str(info.value) == ("bad value for 'member.1.listen-port': "
                                   "invalid literal for int() with base 10: '５１８２０'")
        instance_id = orch.ns_create(ADMIN, "wg-vpn", {"member.1.listen-port": "51821"})
        assert orch.instances[instance_id].record(1).table.listen_endpoint.port == 51821

    def test_day1_params_are_parsed_once(self, orch, monkeypatch):
        ports = []
        monkeypatch.setattr(lifecycle, "parse_decimal", lambda text: ports.append(text) or parse_decimal(text))
        params = {"member.1.listen-port": "51821", "member.2.tunnel-address": "10.77.0.2",
                  "member.1.key-seed": WEST_SEED.hex()}
        instance_id = orch.ns_create(ADMIN, "wg-vpn", params)
        assert ports == ["51821"]  # checked and used from one parse
        instance = orch.instances[instance_id]
        assert instance.record(1).table.listen_endpoint.port == 51821
        assert instance.record(2).table.tunnel_address == "10.77.0.2"
        assert instance.record(1).table.public_key_b64 == generate_keypair(WEST_SEED).public_b64

    def test_undeclared_member_param_rejected_before_deploy(self, orch):
        with pytest.raises(LifecycleError) as info:
            orch.ns_create(ADMIN, "wg-vpn", {"member.9.key-seed": WEST_SEED.hex()})
        assert str(info.value) == "instantiation param 'member.9.key-seed' names an undeclared member"
        assert orch.instances == {}

    @pytest.mark.parametrize("second,params,member,reason", [
        (2, {"member.1.listen-interface": "mgmt"}, 1, "member 1 has no interface 'mgmt' to listen on"),
        (255, {}, 255, "member 255 needs an explicit member.255.tunnel-address param"),
    ])
    def test_a_value_generate_keys_refuses_fails_the_instance(self, orch, second, params, member, reason):
        orch.onboard_package(parse_descriptor(
            "kind: nsd\nschema-version: 1\nid: gw-pair\nname: p\nvnf-members:\n"
            f"  - member-index: 1\n    vnfd-id: wg-gw\n  - member-index: {second}\n    vnfd-id: wg-gw\n"
            "virtual-links:\n" + "".join(
                f"  - name: {link}\n    cidr: 10.8.{net}.0/24\n    attachments:\n"
                f"      - member-index: 1\n        interface: {link}\n"
                f"      - member-index: {second}\n        interface: {link}\n"
                for net, link in enumerate(("tunnel", "data")))))
        with pytest.raises(LifecycleError) as info:
            orch.ns_create(ADMIN, "gw-pair", params)
        assert str(info.value) == f"initial primitive 'generate-keys' failed on member {member}: {reason}"
        instance = orch.instances["ns-1"]
        assert instance.state == "Failed"
        assert [e.message for e in instance.events if e.message.startswith("primitive-failed")] == \
            [f"primitive-failed member={member} name=generate-keys"]
        assert instance.events[-1].message == f"failed reason={str(info.value)!r}"
        assert instance.record(member).executed_primitives[-1].result == f"error: {reason}"

    def test_tenant_denied(self, orch):
        with pytest.raises(AuthorizationError, match="authorization denied"):
            orch.ns_create(TENANT, "wg-vpn")

    def test_unattached_gateway_interface_refused_before_deploy(self, orch):
        nsd = sample_text("nsd-wireguard-vpn.yaml").replace("id: wg-vpn\n", "id: wg-open\n").replace(
            "      - member-index: 2\n        interface: data\n      - member-index: 4\n",
            "      - member-index: 4\n")
        orch.onboard_package(parse_descriptor(nsd))
        with pytest.raises(LifecycleError) as info:
            orch.ns_create(ADMIN, "wg-open")
        assert str(info.value).startswith("catalog validation failed for 'wg-open': ")
        assert "interface 'data' of member 2 (wg-gw) is not attached to any virtual link" in str(info.value)
        assert orch.instances == {}
        for link in orch.catalog.get("nsd", "wg-open").virtual_links:
            with pytest.raises(VimError, match="unknown network"):
                orch.vim.network(f"ns-1.{link.name}")

    def test_unknown_nsd(self, orch):
        with pytest.raises(LifecycleError, match="no nsd"):
            orch.ns_create(ADMIN, "nope")

    def test_listen_endpoint_uses_tunnel_interface_ip(self, orch):
        instance_id = create_vpn_instance(orch)
        instance = orch.instances[instance_id]
        assert instance.record(1).table.listen_endpoint == Endpoint("192.168.100.1", 51820)
        assert instance.record(2).table.listen_endpoint == Endpoint("192.168.100.2", 51820)

    def test_failure_in_second_member_keeps_event_order(self, orch):
        # member 1's full chain outlives member 2's early failure; timestamps
        # must still come out non-decreasing
        orch.onboard_package(parse_vnfd(
            "kind: vnfd\nschema-version: 1\nid: broken-gw\nname: b\n"
            "mgmt-interface: tunnel\n"
            "vdus:\n  - name: gw\n    image: ubuntu\n    interfaces:\n"
            "      - name: tunnel\n        network: tunnel\n"
            "initial-config-primitives:\n  - name: start-wg\n"))
        orch.onboard_package(parse_descriptor(
            "kind: nsd\nschema-version: 1\nid: mixed-ns\nname: m\n"
            "vnf-members:\n"
            "  - member-index: 1\n    vnfd-id: wg-gw\n"
            "  - member-index: 2\n    vnfd-id: broken-gw\n"
            "virtual-links:\n"
            "  - name: tunnel\n    cidr: 10.8.0.0/24\n    attachments:\n"
            "      - member-index: 1\n        interface: tunnel\n"
            "      - member-index: 2\n        interface: tunnel\n"
            "  - name: data-west\n    cidr: 10.8.1.0/24\n    attachments:\n"
            "      - member-index: 1\n        interface: data\n"))
        with pytest.raises(LifecycleError, match="start-wg"):
            orch.ns_create(ADMIN, "mixed-ns")
        events = orch.instances["ns-1"].events
        timestamps = [e.ts for e in events]
        assert timestamps == sorted(timestamps)
        assert any("primitive-failed" in e.message for e in events)

    def test_failed_primitive_marks_instance_failed_with_log_intact(self, orch):
        # start-wg before generate-keys cannot bind a table
        broken = parse_vnfd(
            "kind: vnfd\nschema-version: 1\nid: broken-gw\nname: broken\n"
            "mgmt-interface: tunnel\n"
            "vdus:\n  - name: gw\n    image: ubuntu\n    interfaces:\n"
            "      - name: tunnel\n        network: tunnel\n"
            "initial-config-primitives:\n  - name: start-wg\n  - name: generate-keys\n")
        orch.onboard_package(broken)
        nsd = parse_descriptor(
            "kind: nsd\nschema-version: 1\nid: broken-ns\nname: b\n"
            "vnf-members:\n  - member-index: 1\n    vnfd-id: broken-gw\n"
            "virtual-links:\n  - name: tunnel\n    cidr: 10.8.0.0/24\n"
            "    attachments:\n      - member-index: 1\n        interface: tunnel\n")
        orch.onboard_package(nsd)
        with pytest.raises(LifecycleError, match="start-wg"):
            orch.ns_create(ADMIN, "broken-ns")
        instance = orch.instances["ns-1"]
        assert instance.state == "Failed"
        assert any(e.message == "deploy-complete" for e in instance.events)

    def test_vim_failure_propagates_to_failed_state(self, orch):
        # a /30 tunnel exhausts on the third gateway, mid-deployment
        nsd = parse_descriptor(
            "kind: nsd\nschema-version: 1\nid: cramped-ns\nname: c\n"
            "vnf-members:\n"
            "  - member-index: 1\n    vnfd-id: wg-gw\n"
            "  - member-index: 2\n    vnfd-id: wg-gw\n"
            "  - member-index: 3\n    vnfd-id: wg-gw\n"
            "virtual-links:\n"
            "  - name: tunnel\n    cidr: 10.8.0.0/30\n    attachments:\n"
            "      - member-index: 1\n        interface: tunnel\n"
            "      - member-index: 2\n        interface: tunnel\n"
            "      - member-index: 3\n        interface: tunnel\n"
            "  - name: data\n    cidr: 10.8.1.0/24\n    attachments:\n"
            "      - member-index: 1\n        interface: data\n"
            "      - member-index: 2\n        interface: data\n"
            "      - member-index: 3\n        interface: data\n")
        orch.onboard_package(nsd)
        with pytest.raises(Exception, match="exhausted"):
            orch.ns_create(ADMIN, "cramped-ns")
        instance = orch.instances["ns-1"]
        assert instance.state == "Failed"
        assert any(e.message == "deploy-start" for e in instance.events)
        assert not any(e.message == "deploy-complete" for e in instance.events)


class TestNsAction:
    def test_get_public_key_matches_day1_keypair(self, orch):
        instance_id = create_vpn_instance(orch)
        result = orch.ns_action(ADMIN, instance_id, 1, "get-public-key")
        record = orch.instances[instance_id].record(1)
        assert result.status == "ok"
        assert result.output["public-key"] == record.table.public_key_b64
        assert result.duration == 0

    def test_symmetric_add_peer_establishes_tunnel(self, running_vpn):
        orch, instance_id = running_vpn
        instance = orch.instances[instance_id]
        west, east = instance.record(1), instance.record(2)
        packet = PlainPacket("10.100.0.1", "10.100.0.2", b"ping")
        envelope, destination = west.table.send(packet)
        west.handle.send(destination, envelope.to_bytes())
        datagram = east.handle.recv()
        assert east.table.receive(EncryptedEnvelope.from_bytes(datagram.data), datagram.src) == packet

    def test_add_peer_duration_60(self, orch):
        instance_id = create_vpn_instance(orch)
        first, second = peer_gateways(orch, instance_id)
        assert first.duration == 60 and second.duration == 60

    def test_del_peer_duration_51_and_routing_cleared(self, running_vpn):
        orch, instance_id = running_vpn
        east_key = orch.instances[instance_id].record(2).table.public_key_b64
        result = orch.ns_action(ADMIN, instance_id, 1, "del-peer", {"public-key": east_key})
        assert result.status == "ok" and result.duration == 51
        west = orch.instances[instance_id].record(1)
        with pytest.raises(Exception):
            west.table.send(PlainPacket("10.100.0.1", "10.100.0.2", b"x"))

    def test_undeclared_action(self, running_vpn):
        orch, instance_id = running_vpn
        with pytest.raises(LifecycleError, match="not declared"):
            orch.ns_action(ADMIN, instance_id, 1, "reboot")

    def test_day2_start_wg_undeclared_on_canonical_gateway(self, running_vpn):
        orch, instance_id = running_vpn
        with pytest.raises(LifecycleError, match="not declared"):
            orch.ns_action(ADMIN, instance_id, 1, "start-wg")

    def test_bad_param_type(self, running_vpn):
        orch, instance_id = running_vpn
        with pytest.raises(LifecycleError, match="bad param"):
            orch.ns_action(ADMIN, instance_id, 1, "add-peer",
                           {"public-key": "k", "allowed-ips": "not-a-cidr"})

    def test_unknown_param_name(self, running_vpn):
        orch, instance_id = running_vpn
        with pytest.raises(LifecycleError, match="unknown param"):
            orch.ns_action(ADMIN, instance_id, 1, "get-public-key", {"x": "1"})

    def test_action_on_missing_instance(self, orch):
        with pytest.raises(LifecycleError, match="instance not found"):
            orch.ns_action(ADMIN, "ns-9", 1, "get-public-key")

    def test_action_after_delete_rejected(self, running_vpn):
        orch, instance_id = running_vpn
        orch.ns_delete(ADMIN, instance_id)
        with pytest.raises(LifecycleError, match="not Running"):
            orch.ns_action(ADMIN, instance_id, 1, "get-public-key")

    def test_failing_action_marks_instance_failed(self, running_vpn):
        # the contract changed: a failed Day-2 primitive fails the action, not the
        # instance, which stays Running; only a Day-1 failure fails the instance
        orch, instance_id = running_vpn
        ghost = generate_keypair(b"\x0e" * 32).public_b64
        result = orch.ns_action(ADMIN, instance_id, 1, "del-peer", {"public-key": ghost})
        assert result.status == "error" and result.message == f"no peer {ghost}"
        instance = orch.instances[instance_id]
        assert instance.state == "Running"
        assert instance.record(1).executed_primitives[-1].result == f"error: no peer {ghost}"
        assert [e.message for e in instance.events[-3:]] == [
            "ns-action member=1 name=del-peer", "action-start member=1 name=del-peer",
            "action-failed member=1 name=del-peer"]
        assert orch.ns_action(ADMIN, instance_id, 1, "get-public-key").status == "ok"

    def test_failed_primitives_leave_the_table_as_it_was(self):
        orch, instance_id = gateway_instance(STRING_PARAMS_GATEWAY)  # a bad prefix reaches the table
        peer_gateways(orch, instance_id)
        table = orch.instances[instance_id].record(1).table

        def snapshot():
            return ({key: (list(e.allowed_ips), e.endpoint) for key, e in table.peers.items()},
                    {length: dict(prefixes) for length, prefixes in table._prefixes._by_length.items()},
                    {key: (s.tx, s.rx) for key, s in table.sessions.items()})

        before = snapshot()
        ghost = generate_keypair(b"\x0e" * 32).public_b64
        failing = (("del-peer", {"public-key": ghost}, f"no peer {ghost}"),
                   ("add-peer", {"public-key": ghost, "allowed-ips": "10.9.0.0/24,10.9.1.1/24"},
                    "expected an IPv4 CIDR, got '10.9.1.1/24'"),
                   ("del-peer", {}, "del-peer requires public-key"),
                   ("add-peer", {"allowed-ips": "10.9.0.0/24"}, "add-peer requires public-key and allowed-ips"))
        for action, params, message in failing:
            result = orch.ns_action(ADMIN, instance_id, 1, action, params)
            assert (result.status, result.message) == ("error", message), action
            assert snapshot() == before, action
        assert orch.instances[instance_id].state == "Running"
        result = orch.ns_action(ADMIN, instance_id, 1, "get-public-key")
        assert result.output == {"public-key": table.public_key_b64}
        result = orch.ns_action(ADMIN, instance_id, 1, "add-peer",
                                {"public-key": ghost, "allowed-ips": "10.9.0.0/24"})
        assert result.status == "ok"
        assert table.lookup_by_ip("10.9.0.7") == generate_keypair(b"\x0e" * 32).public

    def test_stop_and_start_wg_toggle_binding(self, orch):
        # a restartable gateway declares the toggles as Day-2 actions; one without
        # generate-keys has no table for them to act on
        for vnfd_id, initial in (("toggle-gw", "initial-config-primitives:\n  - name: generate-keys\n"),
                                 ("keyless-gw", "")):
            orch.onboard_package(parse_vnfd(
                f"kind: vnfd\nschema-version: 1\nid: {vnfd_id}\nname: t\n"
                "mgmt-interface: tunnel\n"
                "vdus:\n  - name: gw\n    image: ubuntu\n    interfaces:\n"
                "      - name: tunnel\n        network: tunnel\n"
                f"{initial}config-primitives:\n  - name: start-wg\n  - name: stop-wg\n"))
            orch.onboard_package(parse_descriptor(
                f"kind: nsd\nschema-version: 1\nid: {vnfd_id}-ns\nname: t\n"
                f"vnf-members:\n  - member-index: 1\n    vnfd-id: {vnfd_id}\n"
                "virtual-links:\n  - name: tunnel\n    cidr: 10.9.0.0/24\n"
                "    attachments:\n      - member-index: 1\n        interface: tunnel\n"))
        keyless = orch.ns_create(ADMIN, "keyless-gw-ns")
        for action in ("start-wg", "stop-wg"):
            result = orch.ns_action(ADMIN, keyless, 1, action)
            assert (result.status, result.message) == \
                ("error", "member 1 is not a gateway (no cryptokey table)"), action
        instance_id = orch.ns_create(ADMIN, "toggle-gw-ns")
        record = orch.instances[instance_id].record(1)
        assert record.handle is None  # start-wg was not an initial primitive here
        orch.ns_action(ADMIN, instance_id, 1, "start-wg")
        assert record.handle is not None and not record.handle.closed
        orch.ns_action(ADMIN, instance_id, 1, "stop-wg")
        assert record.handle is None


class TestDeclaredParamTypes:
    """A declared param type is checked with the parser its primitive runs."""

    def test_every_schema_type_has_a_parser(self):
        assert set(PARAM_TYPES) == set(PARAM_PARSERS)

    def test_an_int_may_be_negative(self):
        assert PARAM_PARSERS["int"]("-42") == -42

    def test_values_of_each_type_run(self):
        orch, instance_id = gateway_instance(TYPED_GATEWAY)
        result = orch.ns_action(ADMIN, instance_id, 1, "set-options", {
            "text": "abc", "count": "42", "address": "10.0.0.1",
            "prefixes": "10.0.0.0/24, 10.1.0.0/16", "peer": "192.168.1.1:51820"})
        assert result.status == "ok"

    @pytest.mark.parametrize("key,value,message", [
        ("count", "x", "expected an integer, got 'x'"),
        *(("count", count, f"expected an integer, got {count!r}") for count in ("4_2", " 42 ", "+42", "４２")),
        ("address", "999.0.0.1", "expected an IPv4 address, got '999.0.0.1'"),
        ("prefixes", "10.0.0.1/24", "expected an IPv4 CIDR, got '10.0.0.1/24'"),
        ("prefixes", "", "expected an IPv4 CIDR, got ''"),
        ("peer", "10.0.0.1", "expected ip:port, got '10.0.0.1'"),
        ("peer", "10.0.0.1:0", "expected ip:port, got '10.0.0.1:0'"),
    ])
    def test_bad_values_refused_before_execution(self, key, value, message):
        orch, instance_id = gateway_instance(TYPED_GATEWAY)
        instance = orch.instances[instance_id]
        events, executed = list(instance.events), list(instance.record(1).executed_primitives)
        with pytest.raises(LifecycleError) as info:
            orch.ns_action(ADMIN, instance_id, 1, "set-options", {"text": "abc", key: value})
        assert str(info.value) == f"bad param {key!r}: {message}"
        assert instance.events == events and instance.record(1).executed_primitives == executed


_host = st.ip_addresses(v=4).map(str)
_prefix = st.one_of(
    st.builds(lambda a, n: str(ipaddress.IPv4Network((a, n), strict=False)), _host, st.integers(0, 32)),
    st.builds("{}/{}".format, _host, st.integers(0, 33)),  # host bits mostly set
    st.text(max_size=8))
_allowed_ips = st.builds(lambda sep, parts: sep.join(parts),
                         st.sampled_from([",", ", "]), st.lists(_prefix, min_size=1, max_size=3))
_endpoint = st.one_of(st.none(), st.builds("{}:{}".format, _host, st.integers(-1, 65536)),
                      st.text(max_size=12))


def test_typed_add_peer_refuses_exactly_what_a_string_typed_add_peer_fails_on():
    typed, typed_id = gateway_instance(sample_text("vnfd-wireguard-gateway.yaml"))
    untyped, untyped_id = gateway_instance(STRING_PARAMS_GATEWAY)
    east = typed.instances[typed_id].record(2).table.public_key_b64
    typed_events = typed.instances[typed_id].events

    @settings(max_examples=200, deadline=None)
    @given(allowed_ips=_allowed_ips, endpoint=_endpoint)
    def check(allowed_ips, endpoint):
        params = {"public-key": east, "allowed-ips": allowed_ips}
        if endpoint is not None:
            params["endpoint"] = endpoint
        executed = untyped.ns_action(ADMIN, untyped_id, 1, "add-peer", params)
        logged = len(typed_events)
        try:
            typed.ns_action(ADMIN, typed_id, 1, "add-peer", params)
        except LifecycleError as exc:
            assert executed.status == "error"
            assert str(exc) in {f"bad param {key!r}: {executed.message}" for key in ("allowed-ips", "endpoint")}
            assert len(typed_events) == logged
        else:
            assert executed.status == "ok", executed.message

    check()


class TestRbac:
    def test_admin_always_allowed(self, orch):
        assert orch.authorize(ADMIN, "ns_create")
        assert orch.authorize(ADMIN, "anything", "ns-1")

    def test_tenant_matrix(self, running_vpn):
        orch, instance_id = running_vpn
        granted = Actor("t", "tenant", frozenset({instance_id}))
        assert orch.authorize(granted, "ns_action", instance_id)
        assert orch.authorize(granted, "ns_show", instance_id)
        assert not orch.authorize(granted, "ns_create")
        assert not orch.authorize(granted, "ns_delete", instance_id)
        assert not orch.authorize(granted, "ns_action", "ns-999")

    def test_tenant_action_on_permitted_instance(self, running_vpn):
        orch, instance_id = running_vpn
        granted = Actor("t", "tenant", frozenset({instance_id}))
        orch.register_actor(granted)
        result = orch.ns_action(granted, instance_id, 1, "get-public-key")
        assert result.status == "ok"

    def test_tenant_on_foreign_instance_denied(self, running_vpn):
        orch, instance_id = running_vpn
        with pytest.raises(AuthorizationError):
            orch.ns_action(TENANT, instance_id, 1, "get-public-key")


class TestInvariants:
    def test_day_ordering_from_executed_primitives(self, running_vpn):
        orch, instance_id = running_vpn
        for record in orch.instances[instance_id].vnf_records:
            initial = record.executed_primitives[:record.initial_count]
            day2 = record.executed_primitives[record.initial_count:]
            if not day2:
                continue
            assert max(p.finished_at for p in initial) <= min(p.started_at for p in day2)

    def test_private_keys_never_leave_the_table(self, running_vpn):
        orch, instance_id = running_vpn
        instance = orch.instances[instance_id]
        secrets = []
        for record in instance.vnf_records:
            if record.table is not None:
                priv = record.table.local_keypair.private
                import base64
                secrets += [priv.hex(), base64.b64encode(priv).decode()]
        exported = export_event_log(instance)
        everything = exported + " ".join(e.message for e in instance.events)
        for record in instance.vnf_records:
            for prim in record.executed_primitives:
                everything += str(prim.params) + prim.result
        for secret in secrets:
            assert secret not in everything

    def test_event_log_export_format(self, running_vpn):
        orch, instance_id = running_vpn
        lines = export_event_log(orch.instances[instance_id]).splitlines()
        assert lines[0].split(" ", 3)[:3] == ["0", "NBI", instance_id]
        for line in lines:
            ts, source, iid, _ = line.split(" ", 3)
            assert source in ("NBI", "RO", "VCA") and iid == instance_id

    def test_forwarding_enabled_by_primitive(self, running_vpn):
        orch, instance_id = running_vpn
        for member in (1, 2):
            for vdu_id in orch.instances[instance_id].record(member).vdu_ids:
                assert orch.vim.vdu(vdu_id).forwarding_enabled

    def test_validation_ok_implies_ns_create_has_no_reference_errors(self, orch):
        # soundness: a green catalog report means instantiation cannot trip
        # over unresolved or dangling references
        assert orch.catalog.validate().ok
        instance_id = orch.ns_create(ADMIN, "wg-vpn")
        assert orch.instances[instance_id].state == "Running"


class TestNsDelete:
    def test_infrastructure_fully_released(self, running_vpn):
        orch, instance_id = running_vpn
        orch.ns_delete(ADMIN, instance_id)
        instance = orch.instances[instance_id]
        for record in instance.vnf_records:
            for vdu_id in record.vdu_ids:
                assert orch.vim.vdu(vdu_id).state == "Terminated"
        for net_name in instance.networks.values():
            with pytest.raises(VimError, match="unknown network"):
                orch.vim.network(net_name)
        assert instance.state == "Terminated"

    def test_delete_twice(self, running_vpn):
        orch, instance_id = running_vpn
        orch.ns_delete(ADMIN, instance_id)
        with pytest.raises(LifecycleError, match="already terminated"):
            orch.ns_delete(ADMIN, instance_id)

    def test_tenant_cannot_delete(self, running_vpn):
        orch, instance_id = running_vpn
        with pytest.raises(AuthorizationError):
            orch.ns_delete(TENANT, instance_id)


class TestSlices:
    def test_slice_creates_member_instances_and_shared_network(self, orch):
        slice_id = orch.slice_instantiate(ADMIN, "vpn-slice", {
            "ns.1.member.1.key-seed": "0a" * 32,
            "ns.1.member.2.key-seed": "0b" * 32,
        })
        record = orch.slices[slice_id]
        assert len(record.ns_instance_ids) == 2
        shared = record.networks["join-west"]
        vdus = [orch.vim.vdu(v) for ns_id in record.ns_instance_ids
                for r in orch.instances[ns_id].vnf_records for v in r.vdu_ids]
        joined = {v.id for v in vdus for i in v.interfaces if i.network == shared}
        assert len(joined) == 2  # the vpn west gateway and the consumer host
        assert len(orch.vim.network(shared).allocations) == 2
        for ns_id in record.ns_instance_ids:  # each record keeps its VNFD's Day-2 primitives
            for r in orch.instances[ns_id].vnf_records:
                assert r.config_primitives == orch.catalog.get("vnfd", r.vnfd_id).config_primitives

    def test_unresolved_member_nsd(self, orch):
        orch.onboard_package(parse_descriptor(
            "kind: nst\nschema-version: 1\nid: dangling\nname: d\nns-members:\n  - ghost-ns\n"))
        with pytest.raises(LifecycleError, match="unresolved nsd refs"):
            orch.slice_instantiate(ADMIN, "dangling")

    def test_two_slices_have_disjoint_networks_and_keys(self, orch):
        first = orch.slice_instantiate(ADMIN, "vpn-slice")
        second = orch.slice_instantiate(ADMIN, "vpn-slice")
        nets1 = set(orch.slices[first].networks.values())
        nets2 = set(orch.slices[second].networks.values())
        assert nets1.isdisjoint(nets2)
        keys = []
        for slice_id in (first, second):
            for ns_id in orch.slices[slice_id].ns_instance_ids:
                for record in orch.instances[ns_id].vnf_records:
                    if record.table is not None:
                        keys.append(record.table.public_key)
        assert len(keys) == 4 and len(set(keys)) == 4

    def test_cross_slice_envelopes_rejected(self, orch):
        first = orch.slice_instantiate(ADMIN, "vpn-slice")
        second = orch.slice_instantiate(ADMIN, "vpn-slice")

        def vpn_gateways(slice_id):
            vpn_ns = orch.slices[slice_id].ns_instance_ids[0]
            instance = orch.instances[vpn_ns]
            peer_gateways(orch, vpn_ns)
            return instance.record(1).table, instance.record(2).table

        a_west, a_east = vpn_gateways(first)
        b_west, b_east = vpn_gateways(second)
        captured, _ = a_west.send(PlainPacket("10.100.0.1", "10.100.0.2", b"slice-a traffic"))
        for table in (b_west, b_east):
            with pytest.raises((UnknownPeer, AuthFailure)):
                table.receive(captured, Endpoint("203.0.113.5", 5))

    def test_slice_param_routing(self, orch):
        slice_id = orch.slice_instantiate(ADMIN, "vpn-slice", {
            "ns.1.member.1.tunnel-address": "10.66.0.1"})
        vpn_ns = orch.slices[slice_id].ns_instance_ids[0]
        assert orch.instances[vpn_ns].record(1).table.tunnel_address == "10.66.0.1"

    def test_bad_slice_param(self, orch):
        with pytest.raises(LifecycleError, match="unknown slice param"):
            orch.slice_instantiate(ADMIN, "vpn-slice", {"member.1.key-seed": "00" * 32})

    def test_slice_param_for_a_member_the_template_lacks(self, orch):
        with pytest.raises(LifecycleError) as info:
            orch.slice_instantiate(ADMIN, "vpn-slice", {"ns.3.member.1.key-seed": "00" * 32})
        assert str(info.value) == "slice param 'ns.3.member.1.key-seed' names an out-of-range member"
        assert orch.instances == {} and orch.slices == {}


# --- property: lifecycle ordering under random schedules -------------------------

_actions = st.lists(
    st.tuples(st.sampled_from(["get-public-key", "add-peer", "del-peer"]),
              st.sampled_from([1, 2])),
    min_size=0, max_size=6)


@settings(max_examples=25, deadline=None)
@given(schedule=_actions, create_first=st.booleans())
def test_day2_requires_running_and_follows_day1(schedule, create_first):
    orch = make_orchestrator()
    instance_id = None
    if create_first:
        instance_id = create_vpn_instance(orch)
        keys = {m: orch.instances[instance_id].record(m).table.public_key_b64 for m in (1, 2)}
    for action, member in schedule:
        if instance_id is None:
            with pytest.raises(LifecycleError, match="instance not found"):
                orch.ns_action(ADMIN, "ns-1", member, action)
            continue
        instance = orch.instances[instance_id]
        if instance.state != "Running":
            with pytest.raises(LifecycleError, match="not Running"):
                orch.ns_action(ADMIN, instance_id, member, action)
            continue
        params = {}
        if action == "add-peer":
            other = 2 if member == 1 else 1
            params = {"public-key": keys[other],
                      **(WEST_PEER_PARAMS if member == 1 else EAST_PEER_PARAMS)}
        elif action == "del-peer":
            other = 2 if member == 1 else 1
            params = {"public-key": keys[other]}
        orch.ns_action(ADMIN, instance_id, member, action, params)  # may mark Failed (del-peer)
    if instance_id is not None:
        for record in orch.instances[instance_id].vnf_records:
            initial = record.executed_primitives[:record.initial_count]
            for day2 in record.executed_primitives[record.initial_count:]:
                assert all(p.finished_at <= day2.started_at for p in initial)


# --- property: Day-1 chains on the simulated clock --------------------------------

_DAY1_NAMES = ["generate-keys", "enable-forwarding", "start-wg", "warm-up"]  # warm-up: a timed no-op


def _chains_instance(chains: list[list[str]], durations: dict[str, int]) -> tuple[Orchestrator, str | None]:
    """ns-1 of an NSD whose member i runs chains[i - 1] on a one-VDU
    gateway, all on one tunnel link; the error text if ns_create raised."""
    orch = Orchestrator()
    members = range(1, len(chains) + 1)
    for member, chain in zip(members, chains):
        primitives = "".join(f"  - name: {name}\n" for name in chain)
        orch.onboard_package(parse_descriptor(
            f"kind: vnfd\nschema-version: 1\nid: gw-{member}\nname: g\nmgmt-interface: tunnel\n"
            "vdus:\n  - name: gw\n    image: ubuntu\n    interfaces:\n"
            "      - name: tunnel\n        network: tunnel\n"
            + (f"initial-config-primitives:\n{primitives}" if chain else "")))
    orch.onboard_package(parse_descriptor(
        "kind: nsd\nschema-version: 1\nid: chains\nname: c\nvnf-members:\n"
        + "".join(f"  - member-index: {m}\n    vnfd-id: gw-{m}\n" for m in members)
        + "virtual-links:\n  - name: tunnel\n    cidr: 10.8.0.0/24\n    attachments:\n"
        + "".join(f"      - member-index: {m}\n        interface: tunnel\n" for m in members)))
    try:
        orch.ns_create(ADMIN, "chains", profile=TimingProfile(primitive_exec_s=durations))
    except LifecycleError as exc:
        return orch, str(exc)
    return orch, None


@settings(max_examples=60, deadline=None)
@given(chains=st.lists(st.permutations(_DAY1_NAMES).flatmap(
           lambda names: st.integers(0, len(names)).map(lambda n: names[:n])), min_size=1, max_size=3),
       durations=st.fixed_dictionaries({name: st.integers(0, 30) for name in _DAY1_NAMES}))
def test_day1_events_merge_in_time_order_and_stop_at_the_first_failure(chains, durations):
    orch, error = _chains_instance(chains, durations)
    instance = orch.instances["ns-1"]
    timestamps = [e.ts for e in instance.events]
    assert timestamps == sorted(timestamps)
    assert orch.clock.now == timestamps[-1]

    def fails_at(chain):
        """Where start-wg runs before generate-keys made the table it binds, if it does."""
        if "start-wg" not in chain:
            return None
        at = chain.index("start-wg")
        return None if "generate-keys" in chain[:at] else at

    assert _each_primitive_starts_before_it_ends(instance.events)
    failing = next((m for m, chain in enumerate(chains, start=1) if fails_at(chain) is not None), None)
    failed = [e.message for e in instance.events if e.message.startswith("primitive-failed")]
    if failing is None:
        assert (error, failed, instance.state) == (None, [], "Running")
        anchor = next(e.ts for e in instance.events if e.message == "deploy-complete")
        assert orch.clock.now == anchor + max(sum(durations[name] for name in chain) for chain in chains)
    else:
        assert error.startswith(f"initial primitive 'start-wg' failed on member {failing}: ")
        assert (failed, instance.state) == ([f"primitive-failed member={failing} name=start-wg"], "Failed")
        # stamped no earlier than its primitive's finish or any Day-1 event before it
        stamp = next(e.ts for e in instance.events if e.message == failed[0])
        assert stamp == max(e.ts for e in instance.events if e.source == "VCA")
        assert stamp >= instance.record(failing).executed_primitives[-1].finished_at
    for member, chain in enumerate(chains, start=1):
        executed = len(chain) if failing is None or member < failing else \
            fails_at(chain) + 1 if member == failing else 0
        record = instance.record(member)
        assert record.initial_count == len(record.executed_primitives) == executed


def _each_primitive_starts_before_it_ends(events) -> bool:
    started = set()
    for event in events:
        kind, _, which = event.message.partition(" ")
        if kind == "primitive-start":
            started.add(which)
        elif kind in ("primitive-complete", "primitive-failed") and which.split(" duration=")[0] not in started:
            return False
    return True


@pytest.mark.parametrize("chains", [[["start-wg"]], [["warm-up", "start-wg"], ["generate-keys"]],
                                    [_DAY1_NAMES, ["warm-up"], ["enable-forwarding", "warm-up"]]])
def test_day1_primitives_of_no_time_start_before_they_end(chains):
    orch, error = _chains_instance(chains, dict.fromkeys(_DAY1_NAMES, 0))
    events = orch.instances["ns-1"].events
    assert (error is None) == (chains[0] == _DAY1_NAMES)
    assert _each_primitive_starts_before_it_ends(events)
    day1 = [e.message for e in events if e.message.startswith("primitive-")]
    if error is None:
        assert len(day1) == 2 * sum(len(chain) for chain in chains)
    else:  # member 1's start-wg runs before its generate-keys, and its failure is the last event
        assert day1[-1] == "primitive-failed member=1 name=start-wg"
