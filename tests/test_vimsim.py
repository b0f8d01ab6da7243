from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicevpn.descriptors import InterfaceSpec, VduSpec
from slicevpn.vimsim import (
    SimClock,
    TimingProfile,
    Vim,
    VimError,
    default_profile,
    format_seconds,
    load_timing_profile,
    preinstalled_profile,
)

GATEWAY_SPEC = VduSpec(
    name="gw", image="ubuntu",
    interfaces=(InterfaceSpec("tunnel", "tunnel"),),
    cloud_init_packages=("wireguard",),
    requires_forwarding=True,
)


def make_vim() -> Vim:
    vim = Vim(SimClock())
    vim.create_network("tunnel", "192.168.100.0/24")
    return vim


def boot(vim: Vim, spec: VduSpec, profile: TimingProfile, vdu_id: str = "v1"):
    """Boot one VDU as `vdu_id`."""
    return vim.boot_vdus([spec], profile, [vdu_id])[0]


class TestNetworks:
    def test_create_network_starts_empty(self):
        vim = Vim()
        net = vim.create_network("tunnel", "192.168.100.0/24")
        assert net.allocations == {}
        assert vim.network("tunnel") is net

    def test_unknown_network(self):
        with pytest.raises(VimError, match="unknown network 'tunnel'"):
            Vim().network("tunnel")

    def test_duplicate_name(self):
        vim = make_vim()
        with pytest.raises(VimError, match="duplicate network"):
            vim.create_network("tunnel", "10.0.0.0/24")

    @pytest.mark.parametrize("cidr", ["10.0.0.0/31", "10.0.0.0/32"])
    def test_no_host_range(self, cidr):
        with pytest.raises(VimError, match="host range"):
            Vim().create_network("x", cidr)

    def test_invalid_cidr(self):
        with pytest.raises(VimError, match="invalid cidr"):
            Vim().create_network("x", "10.0.0.1/24")

    def test_network_and_broadcast_never_allocated(self):
        vim = Vim()
        net = vim.create_network("tiny", "10.0.0.0/30")
        a = net.allocate("a")
        b = net.allocate("b")
        assert {str(a), str(b)} == {"10.0.0.1", "10.0.0.2"}
        with pytest.raises(VimError, match="exhausted"):
            net.allocate("c")


class TestBoot:
    def test_gateway_boot_advances_159s(self):
        vim = make_vim()
        vdu = boot(vim, GATEWAY_SPEC, default_profile())
        assert vim.clock.now == 159
        assert vdu.ready_at - vdu.boot_started_at == 159
        assert vim.vdu("v1") is vdu and vdu.state == "Ready"
        assert vdu.forwarding_enabled

    def test_preinstalled_image_boots_in_57s(self):
        vim = make_vim()
        boot(vim, GATEWAY_SPEC, preinstalled_profile())
        assert vim.clock.now == 57

    def test_zero_cost_boot_leaves_clock(self):
        vim = make_vim()
        spec = VduSpec(name="v", image="i", interfaces=(InterfaceSpec("tunnel", "tunnel"),))
        boot(vim, spec, TimingProfile(base_boot_s=0))
        assert vim.clock.now == 0

    def test_unknown_package(self):
        vim = make_vim()
        spec = VduSpec(name="v", image="i", cloud_init_packages=("no-such-pkg",))
        with pytest.raises(VimError, match="unknown package"):
            boot(vim, spec, default_profile())

    def test_lowest_free_address_allocation(self):
        vim = make_vim()
        profile = TimingProfile(base_boot_s=0, package_install_s={"wireguard": 0})
        first = boot(vim, GATEWAY_SPEC, profile, "v1")
        second = boot(vim, GATEWAY_SPEC, profile, "v2")
        assert first.interfaces[0].ip == "192.168.100.1"
        assert second.interfaces[0].ip == "192.168.100.2"

    def test_parallel_batch_advances_by_longest(self):
        vim = make_vim()
        quick = VduSpec(name="q", image="i", interfaces=(InterfaceSpec("tunnel", "tunnel"),))
        booted = vim.boot_vdus([GATEWAY_SPEC, quick], default_profile(), ["gw", "q"])
        assert vim.clock.now == 159
        assert booted[0].ready_at == 159
        assert booted[1].ready_at == 57

    def test_network_exhaustion(self):
        vim = Vim()
        vim.create_network("tiny", "10.0.0.0/30")
        spec = VduSpec(name="v", image="i", interfaces=(InterfaceSpec("e", "tiny"),))
        profile = TimingProfile(base_boot_s=0)
        boot(vim, spec, profile, "v1")
        boot(vim, spec, profile, "v2")
        with pytest.raises(VimError, match="exhausted"):
            boot(vim, spec, profile, "v3")

    def test_ids_must_match_specs(self):
        with pytest.raises(VimError, match="one-to-one"):
            make_vim().boot_vdus([GATEWAY_SPEC], default_profile(), [])

    def test_duplicate_id_rejected(self):
        vim = make_vim()
        profile = TimingProfile(base_boot_s=0, package_install_s={"wireguard": 0})
        boot(vim, GATEWAY_SPEC, profile, "v1")
        with pytest.raises(VimError, match="duplicate vdu id 'v1'"):
            boot(vim, GATEWAY_SPEC, profile, "v1")
        assert list(vim.network("tunnel").allocations) == ["v1/tunnel"]  # the first boot's only

    def test_failed_batch_releases_everything(self):
        vim = Vim()
        vim.create_network("tiny", "10.0.0.0/30")  # two usable addresses
        spec = VduSpec(name="v", image="i", interfaces=(InterfaceSpec("e", "tiny"),))
        profile = TimingProfile(base_boot_s=3)
        with pytest.raises(VimError, match="exhausted"):
            vim.boot_vdus([spec, spec, spec], profile, ["a", "b", "c"])
        # atomic: the two successful boots were rolled back with their IPs
        for vdu_id in ("a", "b", "c"):
            with pytest.raises(VimError, match="unknown vdu"):
                vim.vdu(vdu_id)
        assert vim.network("tiny").allocations == {}
        assert vim.clock.now == 0  # no time charged for a failed batch


class TestTerminate:
    def test_released_ips_are_reallocatable(self):
        vim = make_vim()
        profile = TimingProfile(base_boot_s=0, package_install_s={"wireguard": 0})
        first = boot(vim, GATEWAY_SPEC, profile, "v1")
        vim.terminate_vdu(first.id)
        again = boot(vim, GATEWAY_SPEC, profile, "v2")
        assert again.interfaces[0].ip == "192.168.100.1"  # same lowest-free address

    def test_terminate_twice(self):
        vim = make_vim()
        vdu = boot(vim, GATEWAY_SPEC, default_profile())
        vim.terminate_vdu(vdu.id)
        with pytest.raises(VimError, match="already terminated"):
            vim.terminate_vdu(vdu.id)

    def test_unknown_vdu(self):
        with pytest.raises(VimError, match="unknown vdu"):
            Vim().terminate_vdu("nope")


class TestTopology:
    def test_two_gateway_service_shape(self, running_vpn):
        orch, instance_id = running_vpn
        instance = orch.instances[instance_id]
        vdus = [orch.vim.vdu(v) for r in instance.vnf_records for v in r.vdu_ids]
        gateways = [v for v in vdus if v.id.endswith(".gw")]
        hosts = [v for v in vdus if v.id.endswith(".host")]
        assert len(gateways) == 2 and len(hosts) == 2
        assert {orch.vim.network(n).name for n in instance.networks.values()} == {
            f"{instance_id}.data-west", f"{instance_id}.tunnel", f"{instance_id}.data-east"}
        tunnel = orch.vim.network(instance.networks["tunnel"])
        tunnel_attached = {v.id for v in vdus for i in v.interfaces if i.network == tunnel.name}
        assert {g.id for g in gateways} == tunnel_attached
        assert len(tunnel.allocations) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.integers(min_value=0, max_value=2)), max_size=12))
    def test_referential_closure(self, script):
        vim = Vim()
        nets = []
        live = []  # ids of the booted VDUs not yet terminated
        profile = TimingProfile(base_boot_s=1)
        for i, (action, net_pick) in enumerate(script):
            if action == 0:
                name = f"n{i}"
                vim.create_network(name, f"10.{i}.0.0/29")
                nets.append(name)
            elif action == 1 and nets:
                net = nets[net_pick % len(nets)]
                spec = VduSpec(name=f"v{i}", image="i", interfaces=(InterfaceSpec("e", net),))
                try:
                    boot(vim, spec, profile, f"v{i}")
                    live.append(f"v{i}")
                except VimError:
                    pass  # exhausted is fine, graph must stay closed
            elif action == 2 and live:
                vim.terminate_vdu(live.pop(net_pick % len(live)))
        # every live interface sits on a known network holding its address,
        # and every allocation belongs to a live interface
        attached = {}
        for vdu_id in live:
            vdu = vim.vdu(vdu_id)
            assert vdu.state == "Ready"
            for iface in vdu.interfaces:
                attached[iface.network, f"{vdu_id}/{iface.name}"] = iface.ip
        allocated = {(name, ref): str(ip) for name in nets
                     for ref, ip in vim.network(name).allocations.items()}
        assert allocated == attached


class TestClock:
    def test_determinism(self):
        stamps = []
        for _ in range(2):
            vim = make_vim()
            booted = [boot(vim, GATEWAY_SPEC, default_profile(), vdu_id) for vdu_id in ("v1", "v2")]
            stamps.append([(v.boot_started_at, v.ready_at) for v in booted])
        assert stamps[0] == stamps[1]

    def test_boot_time_additivity_is_exact(self):
        profile = TimingProfile(base_boot_s=Fraction(1, 3),
                                package_install_s={"a": Fraction(1, 7), "b": 2})
        spec = VduSpec(name="v", image="i", cloud_init_packages=("a", "b"))
        vim = Vim()
        vdu = boot(vim, spec, profile)
        assert vdu.ready_at - vdu.boot_started_at == Fraction(1, 3) + Fraction(1, 7) + 2

    def test_monotonic(self):
        clock = SimClock()
        clock.advance(5)
        clock.advance_to(3)  # never moves backwards
        assert clock.now == 5
        with pytest.raises(VimError):
            clock.advance(-1)


class TestProfile:
    def test_load_from_yaml(self):
        profile = load_timing_profile(
            "base-boot-s: 57\n"
            "package-install-s:\n  wireguard: 102\n"
            "primitive-exec-s:\n  add-peer: 60\n"
            "preinstalled-packages: [wireguard]\n")
        assert profile.base_boot_s == 57
        assert profile.package_install_s["wireguard"] == 102
        assert profile.primitive_duration("add-peer") == 60
        assert "wireguard" in profile.preinstalled_packages

    def test_unknown_key_rejected(self):
        with pytest.raises(VimError, match="unknown profile keys"):
            load_timing_profile("boot: 1\n")

    @pytest.mark.parametrize("key", ["package-install-s", "primitive-exec-s"])
    def test_duration_table_must_be_a_mapping(self, key):
        with pytest.raises(VimError, match=f"^{key} must be a mapping$"):
            load_timing_profile(f"{key}: [1, 2]\n")

    @pytest.mark.parametrize("text,message", [
        ("base-boot-s: fast\n", "expected a duration"),
        ("package-install-s:\n  wireguard: -1\n", ">= 0"),
        ("primitive-exec-s:\n  add-peer: [60]\n", "expected a duration"),
    ])
    def test_bad_duration_rejected(self, text, message):
        with pytest.raises(VimError, match=message):
            load_timing_profile(text)

    def test_negative_duration_rejected(self):
        with pytest.raises(VimError, match=">= 0"):
            TimingProfile(base_boot_s=-1)

    def test_default_initial_primitives_total_47(self):
        profile = default_profile()
        total = sum(profile.primitive_duration(p)
                    for p in ("generate-keys", "enable-forwarding", "start-wg"))
        assert total == 47


def test_format_seconds():
    assert format_seconds(Fraction(159)) == "159"
    assert format_seconds(Fraction(1, 2)) == "0.5"
    assert format_seconds(Fraction(1, 2000)) == "0.0005"
