"""Operator console tests, including the byte-stable golden session.

Regenerate the golden transcript after an intentional output change with:
    python tests/test_cli.py --update-golden
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from slicevpn.cli import main
from slicevpn.store import Store

REPO = Path(__file__).resolve().parent.parent
SAMPLES = REPO / "samples"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_session.txt"

WEST_PUB = "pOCSkrZRwni5dyxWn1+puxPZBrRqtoyd+dwrRAn4ogk="
EAST_PUB = "zo060cy2M+x7cMF4FKXHbs0CloUFDTRHRboFhw5YfVk="
WEST_SEED_HEX = "01" * 32
EAST_SEED_HEX = "02" * 32


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main(list(argv))
    except SystemExit as exit_:  # argparse usage errors
        status = exit_.code
    return status, out.getvalue(), err.getvalue()


def golden_session(store: str) -> list[list[str]]:
    s = ["--store", store]
    return [
        s + ["onboard", str(SAMPLES / "vnfd-wireguard-gateway.yaml")],
        s + ["onboard", str(SAMPLES / "vnfd-test-host.yaml")],
        s + ["onboard", str(SAMPLES / "nsd-wireguard-vpn.yaml")],
        s + ["ns-create", "wg-vpn", "--config", str(SAMPLES / "config-seeded-keys.yaml")],
        s + ["ns-action", "ns-1", "1", "get-public-key"],
        s + ["ns-action", "ns-1", "2", "get-public-key"],
        s + ["ns-action", "ns-1", "1", "add-peer",
             "--param", f"public-key={EAST_PUB}",
             "--param", "allowed-ips=10.100.0.2/32,10.0.2.0/24",
             "--param", "endpoint=192.168.100.2:51820"],
        s + ["ns-action", "ns-1", "2", "add-peer",
             "--param", f"public-key={WEST_PUB}",
             "--param", "allowed-ips=10.100.0.1/32,10.0.1.0/24",
             "--param", "endpoint=192.168.100.1:51820"],
        s + ["kpi", "ns-1"],
        s + ["ns-show", "ns-1"],
    ]


def run_golden_session(store: str) -> str:
    transcript = io.StringIO()
    for argv in golden_session(store):
        with redirect_stdout(transcript):
            status = main(list(argv))
        assert status == 0, f"command failed: {argv}"
    return transcript.getvalue()


class TestGoldenSession:
    def test_transcript_is_byte_stable(self, tmp_path):
        transcript = run_golden_session(str(tmp_path / "store"))
        assert transcript == GOLDEN.read_text(encoding="utf-8")

    def test_two_runs_are_identical(self, tmp_path):
        first = run_golden_session(str(tmp_path / "a"))
        second = run_golden_session(str(tmp_path / "b"))
        assert first == second

    def test_no_private_key_material_in_output(self, tmp_path):
        import base64
        transcript = run_golden_session(str(tmp_path / "store"))
        for seed_hex in (WEST_SEED_HEX, EAST_SEED_HEX):
            assert seed_hex not in transcript
            assert base64.b64encode(bytes.fromhex(seed_hex)).decode() not in transcript


class TestErrors:
    def test_action_before_create(self, tmp_path):
        status, _, err = run_cli("--store", str(tmp_path / "s"),
                                 "ns-action", "ns-1", "1", "add-peer")
        assert status == 1
        assert "instance not found" in err
        assert err.count("\n") == 1  # single-line error

    def test_tenant_ns_create_denied(self, tmp_path):
        store = str(tmp_path / "s")
        run_cli("--store", store, "onboard", str(SAMPLES / "vnfd-wireguard-gateway.yaml"))
        run_cli("--store", store, "onboard", str(SAMPLES / "vnfd-test-host.yaml"))
        run_cli("--store", store, "onboard", str(SAMPLES / "nsd-wireguard-vpn.yaml"))
        status, _, err = run_cli("--store", store, "--as", "tenant1", "ns-create", "wg-vpn")
        assert status == 1
        assert "authorization denied" in err

    def test_unknown_command_is_usage_error(self, tmp_path):
        status, _, err = run_cli("--store", str(tmp_path / "s"), "frobnicate")
        assert status == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        status, _, _ = run_cli("--store", str(tmp_path / "s"), "kpi", "ns-1", "--bogus")
        assert status == 2

    def test_bad_param_syntax(self, tmp_path):
        store = str(tmp_path / "s")
        status, _, err = run_cli("--store", store, "ns-action", "x", "1", "a", "--param", "no-equals")
        assert status == 1 and "k=v" in err

    def test_lock_contention_fails_fast(self, tmp_path):
        store = tmp_path / "s"
        with Store(store).lock():  # another invocation holds the store
            status, _, err = run_cli("--store", str(store), "kpi", "ns-1")
        assert status == 1
        assert "in use" in err

    def test_corrupt_state_is_a_one_line_error(self, tmp_path):
        store = tmp_path / "s"
        store.mkdir()
        (store / "state.json").write_text("{}")
        status, _, err = run_cli("--store", str(store), "kpi", "ns-1")
        assert status == 1
        assert err.startswith("error: corrupt state file") and err.count("\n") == 1

    def test_onboard_missing_vnfd_warns(self, tmp_path):
        status, out, _ = run_cli("--store", str(tmp_path / "s"),
                                 "onboard", str(SAMPLES / "nsd-wireguard-vpn.yaml"))
        assert status == 0
        assert "warning: unresolved vnfd ref" in out


class TestValidate:
    def test_valid_set(self, tmp_path):
        status, out, _ = run_cli(
            "--store", str(tmp_path / "s"), "validate",
            str(SAMPLES / "vnfd-wireguard-gateway.yaml"),
            str(SAMPLES / "vnfd-test-host.yaml"),
            str(SAMPLES / "nsd-wireguard-vpn.yaml"),
            str(SAMPLES / "nsd-consumer.yaml"),
            str(SAMPLES / "nst-vpn-slice.yaml"))
        assert status == 0
        assert out.strip().endswith("ok")

    def test_dangling_refs_fail(self, tmp_path):
        status, out, _ = run_cli("--store", str(tmp_path / "s"), "validate",
                                 str(SAMPLES / "nst-vpn-slice.yaml"))
        assert status == 1
        assert "unresolved nsd ref" in out

    def test_validate_sees_onboarded_catalog(self, tmp_path):
        store = str(tmp_path / "s")
        for name in ("vnfd-wireguard-gateway.yaml", "vnfd-test-host.yaml",
                     "nsd-wireguard-vpn.yaml", "nsd-consumer.yaml"):
            run_cli("--store", store, "onboard", str(SAMPLES / name))
        status, out, _ = run_cli("--store", store, "validate", str(SAMPLES / "nst-vpn-slice.yaml"))
        assert status == 0

    def test_revalidating_onboarded_file_is_not_a_duplicate(self, tmp_path):
        store = str(tmp_path / "s")
        run_cli("--store", store, "onboard", str(SAMPLES / "vnfd-wireguard-gateway.yaml"))
        status, out, _ = run_cli("--store", store, "validate",
                                 str(SAMPLES / "vnfd-wireguard-gateway.yaml"))
        assert status == 0
        assert "duplicate" not in out


class TestJsonMode:
    def test_records_parse_as_json_lines(self, tmp_path):
        store = str(tmp_path / "s")
        for name in ("vnfd-wireguard-gateway.yaml", "vnfd-test-host.yaml",
                     "nsd-wireguard-vpn.yaml"):
            status, out, _ = run_cli("--store", store, "--json", "onboard", str(SAMPLES / name))
            assert status == 0
            record = json.loads(out)
            assert record["kind"] in ("vnfd", "nsd")
        status, out, _ = run_cli("--store", store, "--json", "ns-create", "wg-vpn",
                                 "--config", str(SAMPLES / "config-seeded-keys.yaml"))
        assert json.loads(out) == {"instance": "ns-1", "state": "Running"}
        status, out, _ = run_cli("--store", store, "--json", "ns-action", "ns-1", "1", "get-public-key")
        record = json.loads(out)
        assert record["output"]["public-key"] == WEST_PUB
        status, out, _ = run_cli("--store", store, "--json", "kpi", "ns-1")
        assert out == ('{"action.get-public-key": "0", "dpd_s": "47", "opd_s": "159", '
                       '"total_s": "206"}\n')


class TestLifecycleOverCli:
    def test_ns_delete_then_show_fails(self, tmp_path):
        store = str(tmp_path / "s")
        run_golden_session(store)
        status, _, _ = run_cli("--store", store, "ns-delete", "ns-1")
        assert status == 0
        status, out, _ = run_cli("--store", store, "ns-show", "ns-1")
        assert status == 0 and "state=Terminated" in out

    def test_read_only_action_leaves_catalog_files_untouched(self, tmp_path):
        store = tmp_path / "s"
        run_golden_session(str(store))
        files = sorted((store / "catalog").glob("*.yaml"))
        assert len(files) == 3
        for path in files:
            os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        before = {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in files}
        status, _, _ = run_cli("--store", str(store), "ns-action", "ns-1", "1", "get-public-key")
        assert status == 0
        assert {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in files} == before

    def test_slice_create(self, tmp_path):
        store = str(tmp_path / "s")
        for name in ("vnfd-wireguard-gateway.yaml", "vnfd-test-host.yaml",
                     "nsd-wireguard-vpn.yaml", "nsd-consumer.yaml", "nst-vpn-slice.yaml"):
            run_cli("--store", store, "onboard", str(SAMPLES / name))
        status, out, _ = run_cli("--store", store, "slice-create", "vpn-slice")
        assert status == 0
        assert "sl-1" in out and "ns-1" in out and "ns-2" in out


def test_console_script_entry_point():
    result = subprocess.run([sys.executable, "-m", "slicevpn.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "slicevpn" in result.stdout


if __name__ == "__main__":
    if "--update-golden" in sys.argv:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN.write_text(run_golden_session(str(Path(tmp) / "store")), encoding="utf-8")
        print(f"wrote {GOLDEN}")
