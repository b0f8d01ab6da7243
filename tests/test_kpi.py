from fractions import Fraction

import pytest

from conftest import create_vpn_instance, make_orchestrator, peer_gateways
from slicevpn.cryptokey import PlainPacket
from slicevpn.kpi import (
    _WINDOW,
    BenchResult,
    KpiError,
    KpiRecord,
    TunnelPair,
    measure_kpis,
    report,
    run_latency,
    run_throughput,
)
from slicevpn.lifecycle import ADMIN, NetworkServiceInstance
from slicevpn.transport import InMemoryBackend, UdpBackend
from slicevpn.vimsim import SimClock, TimingProfile, preinstalled_profile


def make_measured_instance(profile=None):
    orch = make_orchestrator()
    instance_id = create_vpn_instance(orch, profile=profile)
    peer_gateways(orch, instance_id)
    return orch, orch.instances[instance_id]


class TestMeasureKpis:
    def test_default_profile_reproduces_published_timings(self):
        _, instance = make_measured_instance()
        record = measure_kpis(instance)
        assert record.opd_s == 159
        assert record.dpd_s == 107
        assert record.total_s == 266

    def test_preinstalled_image_cuts_102s(self):
        _, instance = make_measured_instance(profile=preinstalled_profile())
        record = measure_kpis(instance)
        assert record.opd_s == 57
        assert record.total_s == 164  # 2 min 44 s

    def test_zeroed_profile(self):
        zero = TimingProfile(base_boot_s=0, package_install_s={"wireguard": 0},
                             primitive_exec_s={})
        _, instance = make_measured_instance(profile=zero)
        record = measure_kpis(instance)
        assert record.opd_s == 0 and record.dpd_s == 0

    def test_additivity_holds(self):
        _, instance = make_measured_instance()
        record = measure_kpis(instance)
        assert record.total_s == record.opd_s + record.dpd_s
        assert record.dpd_s == 47 + 60

    def test_per_action_durations(self):
        orch, instance = make_measured_instance()
        east_key = instance.record(2).table.public_key_b64
        orch.ns_action(ADMIN, instance.id, 1, "del-peer", {"public-key": east_key})
        record = measure_kpis(instance)
        assert record.per_action["add-peer"] == 60
        assert record.per_action["del-peer"] == 51

    def test_no_events_is_an_error(self):
        with pytest.raises(KpiError, match="no events"):
            measure_kpis(NetworkServiceInstance(id="x", nsd_id="y"))

    def test_dpd_before_any_add_peer_is_initial_span_only(self):
        orch = make_orchestrator()
        instance_id = create_vpn_instance(orch)
        record = measure_kpis(orch.instances[instance_id])
        assert record.dpd_s == 47


def make_pair(backend=None, latency_s=0):
    orch = make_orchestrator(backend=backend, latency_s=latency_s)
    instance_id = create_vpn_instance(orch)
    peer_gateways(orch, instance_id)
    return orch, TunnelPair.from_instance(orch, instance_id)


class TestLatency:
    def test_sim_latency_is_deterministic(self):
        _, pair = make_pair(latency_s=Fraction(1, 2000))  # 0.5 ms one-way
        result = run_latency(pair, 10)
        assert result.latency_count == 10 and result.timeouts == 0
        assert result.latency_mean_ms == result.latency_min_ms == result.latency_max_ms == 1.0

    def test_zero_requests(self):
        _, pair = make_pair()
        result = run_latency(pair, 0)
        assert result.latency_count == 0 and result.timeouts == 0
        assert report(result).text.splitlines()[1].strip() == "samples: 0"

    def test_statistics_sanity(self):
        _, pair = make_pair(backend=UdpBackend())
        result = run_latency(pair, 50)
        assert result.latency_count == 50
        assert result.latency_min_ms <= result.latency_mean_ms <= result.latency_max_ms

    def test_loss_counts_timeouts(self):
        from slicevpn.transport import InMemoryBackend
        from slicevpn.vimsim import SimClock, Vim
        vim = Vim(SimClock())
        backend = InMemoryBackend(vim.clock, loss_rate=0.4, seed=5)
        orch = make_orchestrator(backend=backend)
        instance_id = create_vpn_instance(orch)
        peer_gateways(orch, instance_id)
        pair = TunnelPair.from_instance(orch, instance_id)
        result = run_latency(pair, 40)
        assert result.timeouts > 0
        assert result.latency_count + result.timeouts == 40

    def test_stale_echo_is_skipped(self):
        latency = Fraction(1, 2000)
        _, pair = make_pair(latency_s=latency)
        stale = PlainPacket(pair.b.inner_ip, pair.a.inner_ip, b"reply to an earlier probe")
        envelope, endpoint = pair.b.table.send(stale)
        pair.b.handle.send(endpoint, envelope.to_bytes())  # queued at A before the run
        result = run_latency(pair, 1)
        assert result.latency_count == 1 and result.timeouts == 0
        assert result.latency_min_ms == float(2 * latency * 1000)

    def test_unpeered_tunnel_raises_on_probe(self):
        orch = make_orchestrator()
        instance_id = create_vpn_instance(orch)  # no add-peer calls
        pair = TunnelPair.from_instance(orch, instance_id)
        with pytest.raises(KpiError, match="tunnel not established"):
            run_throughput(pair, duration_s=0.1)


class TestThroughput:
    def test_sim_goodput_is_stable_under_doubled_duration(self):
        _, pair = make_pair(latency_s=Fraction(1, 1000))
        first = run_throughput(pair, duration_s=0.2, payload_size=1024)
        second = run_throughput(pair, duration_s=0.4, payload_size=1024)
        assert first.bytes_transferred > 0
        assert abs(first.throughput_bps - second.throughput_bps) < 0.2 * first.throughput_bps

    def test_sim_goodput_is_one_window_per_round_trip(self):
        latency, payload = Fraction(1, 1000), 1024
        _, pair = make_pair(latency_s=latency)
        result = run_throughput(pair, duration_s=0.2, payload_size=payload)
        windows, rest = divmod(result.bytes_transferred, _WINDOW * payload)
        assert windows > 0 and rest == 0
        assert result.duration_s == float(windows * 2 * latency)
        assert result.throughput_bps == pytest.approx(_WINDOW * payload * 8 / (2 * latency))

    def test_lossy_sim_run_lasts_its_duration(self):
        backend = InMemoryBackend(SimClock(), latency_s=Fraction(1, 1000), loss_rate=0.3, seed=5)
        _, pair = make_pair(backend=backend)
        result = run_throughput(pair, duration_s=0.2, payload_size=1024)
        assert result.duration_s >= 0.2
        assert result.bytes_transferred > 0

    def test_sim_requires_latency(self):
        _, pair = make_pair(latency_s=0)
        with pytest.raises(KpiError, match="latency > 0"):
            run_throughput(pair, duration_s=0.1)

    def test_udp_transfers_authenticated_bytes(self):
        _, pair = make_pair(backend=UdpBackend())
        result = run_throughput(pair, duration_s=0.5, payload_size=4096)
        assert result.bytes_transferred > 0
        assert result.throughput_bps == 8 * result.bytes_transferred / result.duration_s


class TestTunnelPairSelection:
    def test_single_explicit_member_pairs_with_first_other_gateway(self):
        orch, pair_default = make_pair()
        instance_id = "ns-1"
        pair = TunnelPair.from_instance(orch, instance_id, member_a=2)
        assert pair.a.table is orch.instances[instance_id].record(2).table
        assert pair.b.table is orch.instances[instance_id].record(1).table

    def test_non_gateway_member_rejected(self):
        orch, _ = make_pair()
        with pytest.raises(KpiError, match="not a gateway"):
            TunnelPair.from_instance(orch, "ns-1", member_a=3, member_b=4)


class TestReport:
    def test_kpi_text_golden(self):
        record = KpiRecord(opd_s=Fraction(159), dpd_s=Fraction(107))
        rep = report(record)
        assert "OPD: 159 s" in rep.text
        assert "DPD: 107 s" in rep.text
        assert "total: 266 s" in rep.text
        assert rep.machine.splitlines() == ["opd_s=159", "dpd_s=107", "total_s=266"]

    def test_empty_bench(self):
        rep = report(BenchResult(kind="latency", bytes_transferred=0, duration_s=0.0))
        assert "samples: 0" in rep.text
        assert "throughput_bps=0.000" in rep.machine

    def test_reports_are_reproducible(self):
        record = KpiRecord(opd_s=Fraction(57), dpd_s=Fraction(107),
                           per_action={"add-peer": Fraction(60)})
        assert report(record) == report(record)
        bench = BenchResult(kind="throughput", bytes_transferred=1234, duration_s=1.5)
        assert report(bench) == report(bench)
