import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicevpn.descriptors import (
    Catalog,
    DescriptorError,
    DescriptorSchemaError,
    DescriptorSyntaxError,
    NsDescriptor,
    NsdVnfMember,
    AttachmentRef,
    VirtualLinkSpec,
    ConnectionPointSpec,
    coerce_param,
    load_strict_yaml,
    parse_descriptor,
    parse_nsd,
    parse_nst,
    parse_vnfd,
    serialize_descriptor,
    unresolved_references,
    validate_catalog,
)

MINIMAL_GATEWAY = """\
kind: vnfd
schema-version: 1
id: wg-gw
name: gateway
mgmt-interface: mgmt
vdus:
  - name: gw
    image: ubuntu
    cloud-init-packages: [wireguard]
    interfaces:
      - name: mgmt
        network: mgmt-net
initial-config-primitives:
  - name: generate-keys
  - name: start-wg
config-primitives:
  - name: add-peer
    params:
      - name: public-key
        type: string
      - name: allowed-ips
        type: cidr
      - name: endpoint
        type: endpoint
  - name: del-peer
    params:
      - name: public-key
        type: string
  - name: get-public-key
"""

TWO_MEMBER_NSD = """\
kind: nsd
schema-version: 1
id: vpn
name: two-gateway-vpn
vnf-members:
  - member-index: 1
    vnfd-id: wg-west
  - member-index: 2
    vnfd-id: wg-east
virtual-links:
  - name: data-west
    cidr: 10.0.1.0/24
    attachments:
      - member-index: 1
        interface: data
  - name: tunnel
    cidr: 192.168.100.0/24
    attachments:
      - member-index: 1
        interface: tunnel
      - member-index: 2
        interface: tunnel
  - name: data-east
    cidr: 10.0.2.0/24
    attachments:
      - member-index: 2
        interface: data
"""


class TestParseVnfd:
    def test_minimal_gateway_shape(self):
        d = parse_vnfd(MINIMAL_GATEWAY)
        assert d.id == "wg-gw"
        assert len(d.initial_config_primitives) == 2
        assert len(d.config_primitives) == 3
        assert d.vdus[0].cloud_init_packages == ("wireguard",)

    def test_round_trip(self):
        d = parse_vnfd(MINIMAL_GATEWAY)
        assert parse_vnfd(serialize_descriptor(d)) == d

    def test_missing_id_is_schema_error_at_path(self):
        text = MINIMAL_GATEWAY.replace("id: wg-gw\n", "")
        with pytest.raises(DescriptorSchemaError) as err:
            parse_vnfd(text)
        assert err.value.path == "/id"

    def test_dangling_mgmt_interface(self):
        text = MINIMAL_GATEWAY.replace("mgmt-interface: mgmt", "mgmt-interface: nope")
        with pytest.raises(DescriptorSchemaError) as err:
            parse_vnfd(text)
        assert err.value.path == "/mgmt-interface"

    def test_unknown_field_rejected(self):
        with pytest.raises(DescriptorSchemaError) as err:
            parse_vnfd(MINIMAL_GATEWAY + "bogus: 1\n")
        assert err.value.path == "/bogus"

    def test_duplicate_primitive_name_across_lists(self):
        text = MINIMAL_GATEWAY.replace("- name: add-peer", "- name: start-wg", 1)
        with pytest.raises(DescriptorSchemaError, match="duplicate primitive"):
            parse_vnfd(text)

    def test_duplicate_interface_name(self):
        text = MINIMAL_GATEWAY.replace(
            "      - name: mgmt\n        network: mgmt-net\n",
            "      - name: mgmt\n        network: a\n      - name: mgmt\n        network: b\n",
        )
        with pytest.raises(DescriptorSchemaError, match="duplicate interface"):
            parse_vnfd(text)

    def test_duplicate_param_name(self):
        text = MINIMAL_GATEWAY.replace(
            "      - name: public-key\n        type: string\n      - name: allowed-ips\n        type: cidr\n",
            "      - name: public-key\n        type: string\n      - name: public-key\n        type: string\n",
        )
        with pytest.raises(DescriptorSchemaError, match="duplicate param"):
            parse_vnfd(text)


class TestParseNsd:
    def test_two_gateway_topology_has_three_links(self):
        d = parse_nsd(TWO_MEMBER_NSD)
        assert len(d.vnf_members) == 2
        assert [l.name for l in d.virtual_links] == ["data-west", "tunnel", "data-east"]
        tunnel = d.virtual_links[1]
        assert {a.member_index for a in tunnel.attachments} == {1, 2}

    def test_attachment_to_undeclared_member(self):
        text = TWO_MEMBER_NSD.replace("member-index: 2\n        interface: tunnel",
                                      "member-index: 9\n        interface: tunnel")
        with pytest.raises(DescriptorSchemaError, match="undeclared member"):
            parse_nsd(text)

    def test_duplicate_member_index(self):
        text = TWO_MEMBER_NSD.replace("member-index: 2\n    vnfd-id: wg-east",
                                      "member-index: 1\n    vnfd-id: wg-east")
        with pytest.raises(DescriptorSchemaError, match="duplicate member index"):
            parse_nsd(text)

    def test_bad_cidr(self):
        text = TWO_MEMBER_NSD.replace("10.0.1.0/24", "10.0.1.9/24")
        with pytest.raises(DescriptorSchemaError, match="invalid IPv4 CIDR"):
            parse_nsd(text)

    def test_round_trip(self):
        d = parse_nsd(TWO_MEMBER_NSD)
        assert parse_nsd(serialize_descriptor(d)) == d


NST_TEXT = """\
kind: nst
schema-version: 1
id: slice-1
name: vpn-slice
ns-members:
  - vpn
  - consumer
slice-links:
  - name: join
    endpoints:
      - ns-member: 1
        connection-point: west-data
      - ns-member: 2
        connection-point: app-cp
"""


class TestParseNst:
    def test_fixture_has_one_slice_link(self):
        d = parse_nst(NST_TEXT)
        assert d.ns_members == ("vpn", "consumer")
        assert len(d.slice_links) == 1
        assert d.slice_links[0].endpoints[0].connection_point == "west-data"

    def test_empty_ns_members_rejected(self):
        text = NST_TEXT.replace("ns-members:\n  - vpn\n  - consumer", "ns-members: []")
        with pytest.raises(DescriptorSchemaError, match="at least one member"):
            parse_nst(text)

    def test_out_of_range_member(self):
        text = NST_TEXT.replace("ns-member: 2", "ns-member: 7")
        with pytest.raises(DescriptorSchemaError, match="out of range"):
            parse_nst(text)

    def test_unexposed_connection_point_caught_by_catalog(self):
        # cp exposure needs the member NSDs, so the check lives in catalog validation
        nst = parse_nst(NST_TEXT.replace("connection-point: app-cp",
                                         "connection-point: no-such-cp"))
        vpn = parse_nsd(TWO_MEMBER_NSD.replace("id: vpn", "id: vpn")
                        + "connection-points:\n  - name: west-data\n    member-index: 1\n    interface: data\n")
        consumer = parse_nsd(
            "kind: nsd\nschema-version: 1\nid: consumer\nname: c\n"
            "vnf-members:\n  - member-index: 1\n    vnfd-id: host\n"
            "connection-points:\n  - name: app-cp\n    member-index: 1\n    interface: data\n")
        report = validate_catalog([nst, vpn, consumer])
        assert any("no connection point 'no-such-cp'" in i.message for i in report.errors())

    def test_round_trip(self):
        d = parse_nst(NST_TEXT)
        assert parse_nst(serialize_descriptor(d)) == d


class TestStrictYaml:
    def test_alias_rejected(self):
        # the anchor definition trips first; a bare alias cannot parse at all
        with pytest.raises(DescriptorSyntaxError, match="anchor|alias") as err:
            load_strict_yaml("a: &x 1\nb: *x\n")
        assert err.value.line is not None and err.value.column is not None

    def test_anchor_rejected(self):
        with pytest.raises(DescriptorSyntaxError, match="anchor|alias") as err:
            load_strict_yaml("a: &x 1\n")
        assert err.value.line is not None and err.value.column is not None

    def test_tag_rejected(self):
        with pytest.raises(DescriptorSyntaxError, match="tag") as err:
            load_strict_yaml("a: !!str 1\n")
        assert err.value.line is not None and err.value.column is not None

    def test_duplicate_key_rejected(self):
        with pytest.raises(DescriptorSyntaxError, match="duplicate mapping key"):
            load_strict_yaml("a: 1\na: 2\n")

    @pytest.mark.parametrize("text", ["? [1]\n: 2\n", "? {a: 1}\n: 2\n"])
    def test_non_scalar_key_rejected(self, text):
        with pytest.raises(DescriptorSyntaxError, match="mapping keys must be scalars") as err:
            load_strict_yaml(text)
        assert (err.value.line, err.value.column) == (1, 3)

    def test_syntax_error_carries_position(self):
        with pytest.raises(DescriptorSyntaxError) as err:
            load_strict_yaml("a: [1, 2\nb: 3\n")
        assert err.value.line is not None

    def test_mapping_key_order_is_irrelevant(self):
        reordered = (
            "schema-version: 1\nname: gateway\nkind: vnfd\nid: wg-gw\n"
            "vdus:\n  - image: ubuntu\n    name: gw\n"
            "    cloud-init-packages: [wireguard]\n"
            "    interfaces:\n      - network: mgmt-net\n        name: mgmt\n"
            "mgmt-interface: mgmt\n"
            "initial-config-primitives:\n  - name: generate-keys\n  - name: start-wg\n"
            "config-primitives:\n"
            "  - name: add-peer\n    params:\n"
            "      - name: public-key\n        type: string\n"
            "      - name: allowed-ips\n        type: cidr\n"
            "      - name: endpoint\n        type: endpoint\n"
            "  - name: del-peer\n    params:\n      - name: public-key\n        type: string\n"
            "  - name: get-public-key\n"
        )
        assert parse_vnfd(reordered) == parse_vnfd(MINIMAL_GATEWAY)


TWO_IFACE_GATEWAY = """\
kind: vnfd
schema-version: 1
id: wg-west
name: gateway
mgmt-interface: tunnel
vdus:
  - name: gw
    image: ubuntu
    cloud-init-packages: [wireguard]
    interfaces:
      - name: tunnel
        network: tunnel
      - name: data
        network: data
"""


class TestCatalog:
    def test_consistent_catalog_is_ok(self):
        gateway = parse_vnfd(TWO_IFACE_GATEWAY)
        east = parse_vnfd(TWO_IFACE_GATEWAY.replace("id: wg-west", "id: wg-east"))
        nsd = parse_nsd(TWO_MEMBER_NSD)
        report = validate_catalog([gateway, east, nsd])
        assert report.ok, [i.message for i in report.issues]

    def test_unattached_interface_is_flagged(self):
        gateway = parse_vnfd(TWO_IFACE_GATEWAY)
        east = parse_vnfd(TWO_IFACE_GATEWAY.replace("id: wg-east", "id: wg-east")
                          .replace("id: wg-west", "id: wg-east"))
        # drop the data-east link: member 2's data interface dangles
        text = TWO_MEMBER_NSD.replace(
            "  - name: data-east\n    cidr: 10.0.2.0/24\n    attachments:\n"
            "      - member-index: 2\n        interface: data\n", "")
        report = validate_catalog([gateway, east, parse_nsd(text)])
        assert any("not attached to any virtual link" in i.message for i in report.errors())

    def test_double_attachment_is_flagged(self):
        gateway = parse_vnfd(TWO_IFACE_GATEWAY)
        east = parse_vnfd(TWO_IFACE_GATEWAY.replace("id: wg-west", "id: wg-east"))
        text = TWO_MEMBER_NSD.replace("member-index: 1\n        interface: data",
                                      "member-index: 1\n        interface: tunnel")
        report = validate_catalog([gateway, east, parse_nsd(text)])
        assert any("already attached" in i.message for i in report.errors())

    def test_unresolved_vnfd_ref(self):
        nsd = parse_nsd(TWO_MEMBER_NSD)
        report = validate_catalog([nsd])
        assert not report.ok
        assert any("unresolved vnfd ref" in i.message for i in report.errors())

    def test_duplicate_id(self):
        d1 = parse_vnfd(MINIMAL_GATEWAY)
        d2 = parse_vnfd(MINIMAL_GATEWAY.replace("name: gateway", "name: other"))
        report = validate_catalog([d1, d2])
        assert any(i.message == "duplicate id" for i in report.errors())

    def test_attachment_interface_checked_against_vnfd(self):
        gateway = parse_vnfd(MINIMAL_GATEWAY.replace("id: wg-gw", "id: wg-west"))
        east = parse_vnfd(MINIMAL_GATEWAY.replace("id: wg-gw", "id: wg-east"))
        nsd = parse_nsd(TWO_MEMBER_NSD)  # expects data/tunnel interfaces, vnfds declare mgmt only
        report = validate_catalog([gateway, east, nsd])
        assert any("declares no interface" in i.message for i in report.errors())

    def test_catalog_add_rejects_changed_content(self):
        catalog = Catalog()
        catalog.add(parse_vnfd(MINIMAL_GATEWAY))
        catalog.add(parse_vnfd(MINIMAL_GATEWAY))  # identical re-onboard is fine
        with pytest.raises(DescriptorError, match="duplicate id"):
            catalog.add(parse_vnfd(MINIMAL_GATEWAY.replace("name: gateway", "name: changed")))

    def test_unresolved_references_helper(self):
        catalog = Catalog()
        nsd = parse_nsd(TWO_MEMBER_NSD)
        messages = unresolved_references(nsd, catalog)
        assert len(messages) == 2 and all("unresolved vnfd ref" in m for m in messages)


class TestCoerceParam:
    def test_values(self):
        assert coerce_param("string", "abc") == "abc"
        assert coerce_param("int", "42") == 42
        assert coerce_param("ipaddr", "10.0.0.1") == "10.0.0.1"
        assert coerce_param("cidr", "10.0.0.0/24, 10.1.0.0/16") == ("10.0.0.0/24", "10.1.0.0/16")
        assert coerce_param("endpoint", "192.168.1.1:51820") == ("192.168.1.1", 51820)

    @pytest.mark.parametrize("tag,raw", [
        ("int", "x"), ("ipaddr", "999.0.0.1"), ("cidr", "10.0.0.1/24"),
        ("endpoint", "10.0.0.1"), ("endpoint", "10.0.0.1:0"), ("cidr", ""),
    ])
    def test_bad_values(self, tag, raw):
        with pytest.raises(DescriptorError):
            coerce_param(tag, raw)


# --- property: round-trip over generated NSDs -----------------------------------

_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12).filter(
    lambda s: not s.startswith("-"))


@st.composite
def nsds(draw):
    n_members = draw(st.integers(min_value=1, max_value=4))
    members = tuple(NsdVnfMember(i + 1, draw(_name)) for i in range(n_members))
    links = []
    used = set()
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        name = f"link-{i}"
        octet = draw(st.integers(min_value=0, max_value=250))
        attachments = tuple(
            AttachmentRef(draw(st.integers(min_value=1, max_value=n_members)), draw(_name))
            for _ in range(draw(st.integers(min_value=1, max_value=3))))
        links.append(VirtualLinkSpec(name, f"10.{octet}.0.0/24", attachments))
        used.add(name)
    cps = tuple(
        ConnectionPointSpec(f"cp-{i}", draw(st.integers(min_value=1, max_value=n_members)),
                            draw(_name))
        for i in range(draw(st.integers(min_value=0, max_value=2))))
    return NsDescriptor(id=draw(_name), name=draw(_name), vnf_members=members,
                        virtual_links=tuple(links), connection_points=cps)


@settings(max_examples=60, deadline=None)
@given(nsds())
def test_nsd_round_trip_property(nsd):
    assert parse_descriptor(serialize_descriptor(nsd)) == nsd
