"""Smoke test of the benchmark's own code at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric in BENCHMARK.json is emitted with its unit, that
each correctness gate catches a corrupted envelope, echo or CLI output, and
that the benchmark refuses to run outside a source checkout.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from slicevpn.cryptokey import PlainPacket  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "HUB_SPOKES", 8)
    monkeypatch.setattr(workloads, "CP_INSTANCES", 3)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "REFERENCE_SECONDS", 0.2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(tiny, tmp_path, workload, trace):
    args = argparse.Namespace(workload=workload, seed=7, seconds=1.0 + 2 * trace, trace=trace, cpu=None)
    result = bench.run(args, tmp_path / "work")
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in listed}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _fixture(tmp_path) -> workloads.Fixture:
    tmp_path.mkdir(parents=True, exist_ok=True)
    return workloads.setup_control_plane(ROOT, tmp_path, random.Random(1), workloads.Ledger())


def test_corrupted_envelope_is_dropped_and_counted(tiny, tmp_path):
    fx = _fixture(tmp_path)
    a, b, dst = fx.pick(random.Random(2))
    send = a.handle.send

    def flip_last_byte(endpoint, data):
        send(endpoint, data[:-1] + bytes([data[-1] ^ 1]))

    ledger = workloads.Ledger()
    a.handle.send = flip_last_byte
    assert not workloads.round_trip(a, b, dst, bytes(64), ledger, 0.0)
    a.handle.send = send
    assert workloads.round_trip(a, b, dst, bytes(64), ledger, 0.0)
    assert (ledger.attempted, ledger.failed, dict(ledger.drops)) == (2, 1, {"AuthFailure": 1})
    assert ledger.violations == []


def test_altered_echo_breaks_the_echo_gate(tiny, tmp_path):
    fx = _fixture(tmp_path)
    a, b, dst = fx.pick(random.Random(2))
    table_send = b.table.send

    def reflect_altered(packet):
        return table_send(PlainPacket(packet.src_ip, packet.dst_ip, packet.payload[::-1]))

    ledger = workloads.Ledger()
    b.table.send = reflect_altered
    assert not workloads.round_trip(a, b, dst, bytes(range(64)), ledger, 0.0)
    assert ledger.failed == 1
    assert ledger.violations and "altered" in ledger.violations[0]


def test_cli_gates_catch_wrong_kpis_leaked_keys_and_failures(tiny, tmp_path):
    fx = _fixture(tmp_path)
    step = workloads.CliStep("read", ["kpi", "ns-1"], workloads.KPI_LINES)
    good = "service creation KPIs\n" + "\n".join(workloads.KPI_LINES) + "\n"
    secret = next(iter(fx.cli.secrets))

    ledger = workloads.Ledger()
    fx.cli.check(step, 0, good, ledger)
    assert ledger.violations == [] and ledger.failed == 0
    fx.cli.check(step, 0, good.replace("OPD: 159 s", "OPD: 158 s"), ledger)
    assert len(ledger.violations) == 1
    fx.cli.check(step, 0, good + f"  private-key-hex: {secret}\n", ledger)
    assert len(ledger.violations) == 2 and "private key" in ledger.violations[1]
    fx.cli.check(step, 1, "error: instance not found: ns-1\n", ledger)
    assert ledger.failed == 1


def test_a_real_cli_session_passes_every_gate(tiny, tmp_path):
    fx = _fixture(tmp_path)
    ledger = workloads.Ledger()
    writes, reads = [], []
    for _ in range(len(fx.cli.round)):
        fx.cli.run(0.0, ledger, writes, reads)
    assert len(writes) == len(reads) == len(fx.cli.round)
    assert (ledger.failed, ledger.violations) == (0, [])


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tunnel-udp", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
