"""Operator console tests, including the byte-stable golden session.

Regenerate the golden transcript after an intentional output change with:
    python tests/test_cli.py --update-golden
"""

import gc
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import save_peered_store
from slicevpn import store as store_module
from slicevpn.cli import main
from slicevpn.cryptokey import generate_keypair
from slicevpn.store import Store

REPO = Path(__file__).resolve().parent.parent
SAMPLES = REPO / "samples"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_session.txt"
INSPECTION = Path(__file__).resolve().parent / "data" / "inspection_session.txt"

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


def inspection_session(store: str, slice_config: str) -> list[list[str]]:
    """Validation before and after onboarding, then ns-show of a slice's
    members and of a plain instance, before and after one is deleted."""
    s = ["--store", store]
    nst = str(SAMPLES / "nst-vpn-slice.yaml")
    return [
        s + ["validate", nst],  # dangling references
        *(s + ["onboard", str(SAMPLES / name)] for name in (
            "vnfd-wireguard-gateway.yaml", "vnfd-test-host.yaml", "nsd-wireguard-vpn.yaml",
            "nsd-consumer.yaml")),
        s + ["--json", "validate", nst],
        s + ["onboard", nst],
        s + ["validate", nst, str(SAMPLES / "nsd-consumer.yaml")],
        s + ["slice-create", "vpn-slice", "--config", slice_config],
        s + ["ns-create", "wg-vpn", "--config", str(SAMPLES / "config-seeded-keys.yaml")],
        s + ["ns-show", "ns-1"],
        s + ["ns-show", "ns-2"],
        s + ["ns-delete", "ns-1"],
        s + ["ns-show", "ns-1"],
        s + ["ns-show", "ns-2"],
        s + ["--json", "ns-show", "ns-2"],
        s + ["ns-show", "ns-3"],
    ]


def run_inspection_session(tmp: Path) -> str:
    """Each command's output and exit status, in order."""
    slice_config = tmp / "slice.yaml"
    slice_config.write_text(f'ns.1.member.1.key-seed: "{WEST_SEED_HEX}"\n'
                            f'ns.1.member.2.key-seed: "{EAST_SEED_HEX}"\n', encoding="utf-8")
    transcript = io.StringIO()
    for argv in inspection_session(str(tmp / "store"), str(slice_config)):
        with redirect_stdout(transcript), redirect_stderr(transcript):
            status = main(list(argv))
        transcript.write(f"# exit {status}\n")
    return transcript.getvalue()


class TestGoldenSession:
    def test_transcript_is_byte_stable(self, tmp_path):
        transcript = run_golden_session(str(tmp_path / "store"))
        assert transcript == GOLDEN.read_text(encoding="utf-8")

    def test_two_runs_are_identical(self, tmp_path):
        first = run_golden_session(str(tmp_path / "a"))
        second = run_golden_session(str(tmp_path / "b"))
        assert first == second

    def test_two_runs_leave_identical_stores(self, tmp_path):
        stores = []
        for name in ("a", "b"):
            run_golden_session(str(tmp_path / name))
            root = tmp_path / name
            stores.append({path.relative_to(root): path.read_bytes()
                           for path in root.rglob("*") if path.is_file()})
        assert "state.json" in {str(path) for path in stores[0]}
        assert stores[0] == stores[1]

    def test_one_process_per_command(self, tmp_path):
        # no state may survive between commands except what the store holds
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        transcript = []
        for argv in golden_session(str(tmp_path / "store")):
            result = subprocess.run([sys.executable, "-m", "slicevpn.cli", *argv],
                                    capture_output=True, text=True, env=env, timeout=60)
            assert result.returncode == 0, result.stderr
            transcript.append(result.stdout)
        assert "".join(transcript) == GOLDEN.read_text(encoding="utf-8")

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


class TestInputFiles:
    """Every file the CLI reads fails as one `error:` line naming it."""

    @pytest.mark.parametrize("what", ["missing", "non-utf8", "directory"])
    def test_unreadable_input(self, tmp_path, what):
        path = {"missing": tmp_path / "absent.yaml", "non-utf8": tmp_path / "latin1.yaml",
                "directory": tmp_path}[what]
        if what == "non-utf8":
            path.write_bytes("name: caf\xe9\n".encode("latin-1"))
        s = ["--store", str(tmp_path / "s")]
        for argv in (s + ["onboard", str(path)],
                     s + ["validate", str(path)],
                     s + ["ns-create", "wg-vpn", "--config", str(path)],
                     s + ["ns-create", "wg-vpn", "--profile", str(path)],
                     s + ["slice-create", "vpn-slice", "--config", str(path)],
                     s + ["slice-create", "vpn-slice", "--profile", str(path)]):
            status, out, err = run_cli(*argv)
            assert status == 1 and out == "", argv
            assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("kind", ["[]", "{a: 1}"])
    def test_onboard_non_string_kind(self, tmp_path, kind):
        path = tmp_path / "bad.yaml"
        path.write_text(f"kind: {kind}\nschema-version: 1\nid: x\nname: x\n", encoding="utf-8")
        status, out, err = run_cli("--store", str(tmp_path / "s"), "onboard", str(path))
        assert status == 1 and out == ""
        assert err.startswith("error: schema error at /kind: unknown kind") and err.count("\n") == 1


class TestTokens:
    @pytest.mark.parametrize("id_", ['"a/b"', '"x\\ny"'])
    def test_onboard_of_a_non_token_id_writes_nothing(self, tmp_path, id_):
        path = tmp_path / "bad.yaml"
        path.write_text((SAMPLES / "vnfd-test-host.yaml").read_text().replace("id: test-host", f"id: {id_}"),
                        encoding="utf-8")
        store = tmp_path / "s"
        status, out, err = run_cli("--store", str(store), "onboard", str(path))
        assert status == 1 and out == ""
        assert err.startswith("error: schema error at /id: expected a token") and err.count("\n") == 1
        assert not (store / "catalog").exists() and not (store / "state.json").exists()

    def test_onboard_of_an_image_with_a_line_break_writes_nothing(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text((SAMPLES / "vnfd-test-host.yaml").read_text()
                        .replace("image: ubuntu-18.04-minimal", 'image: "ubuntu\\nevil line"'),
                        encoding="utf-8")
        store = tmp_path / "s"
        status, out, err = run_cli("--store", str(store), "onboard", str(path))
        assert status == 1 and out == ""
        assert err.startswith("error: schema error at /vdus/0/image: expected no control characters")
        assert err.count("\n") == 1
        assert not (store / "catalog").exists() and not (store / "state.json").exists()


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


def _catalog_files(root: Path) -> dict[Path, tuple[bytes, int]]:
    """Each catalog file's bytes and mtime, after setting every mtime to a
    fixed past value, so that a rewrite shows even within the clock's tick."""
    files = sorted((root / "catalog").glob("*.yaml"))
    for path in files:
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
    return {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in files}


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
        before = _catalog_files(store)
        assert len(before) == 3
        status, _, _ = run_cli("--store", str(store), "ns-action", "ns-1", "1", "get-public-key")
        assert status == 0
        assert {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in before} == before

    def test_slice_create(self, tmp_path):
        store = str(tmp_path / "s")
        for name in ("vnfd-wireguard-gateway.yaml", "vnfd-test-host.yaml",
                     "nsd-wireguard-vpn.yaml", "nsd-consumer.yaml", "nst-vpn-slice.yaml"):
            run_cli("--store", store, "onboard", str(SAMPLES / name))
        status, out, _ = run_cli("--store", store, "slice-create", "vpn-slice")
        assert status == 0
        assert "sl-1" in out and "ns-1" in out and "ns-2" in out


class TestBench:
    def test_latency_over_chosen_members(self, tmp_path):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        status, out, err = run_cli("--store", store, "--backend", "udp", "bench", "ns-1", "latency",
                                   "--members", "2,1", "--requests", "20")
        assert status == 0, err
        assert "  samples: 20\n" in out

    @pytest.mark.parametrize("members,message", [
        ("1", "error: --members expects two indices like 1,2, got '1'\n"),
        ("3,4", "error: member 3 is not a gateway\n"),
    ])
    def test_bad_members(self, tmp_path, members, message):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        status, out, err = run_cli("--store", store, "--backend", "udp", "bench", "ns-1", "latency",
                                   "--members", members, "--requests", "20")
        assert (status, out, err) == (1, "", message)

    def test_throughput_on_mem_is_refused(self, tmp_path):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        status, out, err = run_cli("--store", store, "bench", "ns-1", "throughput")
        assert status == 1 and out == ""
        assert err.startswith("error: ") and "needs a backend latency > 0" in err and err.count("\n") == 1

    def test_throughput_over_udp(self, tmp_path):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        status, out, err = run_cli("--store", store, "--json", "--backend", "udp", "bench", "ns-1",
                                   "throughput", "--duration", "0.2")
        assert status == 0, err
        record = json.loads(out)
        assert record["kind"] == "throughput" and int(record["bytes"]) > 0


def _tx_counters(root: Path) -> list[int]:
    """Each gateway's sent-packet counters, summed over its peers, as saved."""
    state = json.loads((root / "state.json").read_bytes())
    return [sum(record["table"]["tx-counters"].values())
            for instance in state["instances"] for record in instance["vnf-records"]
            if record["table"] is not None]


class TestProcessHygiene:
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_bench_into_a_closed_stdout_saves_and_exits_1(self, tmp_path, unbuffered):
        # a lost save would seal the next bench's counters again under the same key
        root = save_peered_store(tmp_path / "s", count=1).root
        before = _tx_counters(root)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONUNBUFFERED": unbuffered}
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has gone before the first line
        try:
            result = subprocess.run([sys.executable, "-m", "slicevpn.cli", "--store", str(root),
                                     "bench", "ns-1", "latency", "--requests", "20"],
                                    stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, b"")  # no traceback, no error line
        assert _tx_counters(root) == [count + 20 for count in before]

    def test_a_command_leaves_no_cyclic_garbage(self, tmp_path):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        gc.collect()
        gc.disable()
        try:
            for argv in (["kpi", "ns-1"], ["ns-show", "ns-1"],
                         ["ns-action", "ns-1", "1", "get-public-key"]):
                status, _, err = run_cli("--store", store, *argv)
                assert status == 0, err
            assert gc.collect() == 0
        finally:
            gc.enable()


# add-peer's address params declared as plain strings, which the descriptor schema allows
STRING_PARAMS_GATEWAY = (SAMPLES / "vnfd-wireguard-gateway.yaml").read_text(encoding="utf-8") \
    .replace("type: cidr", "type: string").replace("type: endpoint", "type: string")


class TestDay2Actions:
    def _string_params_store(self, tmp_path: Path) -> str:
        gateway = tmp_path / "gateway.yaml"
        gateway.write_text(STRING_PARAMS_GATEWAY, encoding="utf-8")
        store = str(tmp_path / "s")
        for path in (gateway, SAMPLES / "vnfd-test-host.yaml", SAMPLES / "nsd-wireguard-vpn.yaml"):
            assert run_cli("--store", store, "onboard", str(path))[0] == 0
        assert run_cli("--store", store, "ns-create", "wg-vpn",
                       "--config", str(SAMPLES / "config-seeded-keys.yaml"))[0] == 0
        return store

    def test_add_peer_with_string_typed_params(self, tmp_path):
        store = self._string_params_store(tmp_path)
        status, out, err = run_cli("--store", store, "ns-action", "ns-1", "1", "add-peer",
                                   "--param", f"public-key={EAST_PUB}",
                                   "--param", "allowed-ips=10.100.0.2/32, 10.0.2.0/24",
                                   "--param", "endpoint=192.168.100.2:51820")
        assert (status, out, err) == (0, "ok duration=60s\n", "")
        table = Store(store).load().instances["ns-1"].record(1).table
        peer = next(iter(table.peers.values()))
        assert [str(n) for n in peer.allowed_ips] == ["10.100.0.2/32", "10.0.2.0/24"]
        assert str(peer.endpoint) == "192.168.100.2:51820"

    def test_bad_string_typed_endpoint_is_one_error_line(self, tmp_path):
        store = self._string_params_store(tmp_path)
        status, out, err = run_cli("--store", store, "ns-action", "ns-1", "1", "add-peer",
                                   "--param", f"public-key={EAST_PUB}",
                                   "--param", "allowed-ips=10.100.0.2/32",
                                   "--param", "endpoint=nonsense")
        assert (status, out, err) == (1, "", "error: expected ip:port, got 'nonsense'\n")

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_failing_action_exits_1(self, tmp_path, json_mode):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        unknown = generate_keypair(bytes([9]) * 32).public_b64
        status, out, err = run_cli("--store", store, *(["--json"] if json_mode else []),
                                   "ns-action", "ns-1", "1", "del-peer", "--param", f"public-key={unknown}")
        assert status == 1
        if json_mode:
            record = json.loads(out)
            assert record["status"] == "error" and record["message"] == f"no peer {unknown}"
            assert err == ""
        else:
            assert out == "" and err == f"error: no peer {unknown}\n"


# state keys that stores written by earlier versions carry and this one ignores
DROPPED_KEYS = ("default-profile", "next-vdu", "interface-name", "wall-seconds")


def _add_dropped_keys(root: Path):
    """Rewrite the store's state.json as an earlier version wrote it."""
    path = root / "state.json"
    state = json.loads(path.read_text())
    state["default-profile"] = state["instances"][0]["profile"]
    state["vim"]["next-vdu"] = 1
    for instance in state["instances"]:
        instance["wall-seconds"] = 0.25
        for record in instance["vnf-records"]:
            if record["table"] is not None:
                record["table"]["interface-name"] = "wg0"
    path.write_text(json.dumps(state, sort_keys=True, separators=(",", ":")))


class TestOlderStores:
    def test_fresh_session_writes_none_of_the_dropped_keys(self, tmp_path):
        run_golden_session(str(tmp_path / "s"))
        text = (tmp_path / "s" / "state.json").read_text()
        assert [key for key in DROPPED_KEYS if f'"{key}"' in text] == []

    def test_store_with_dropped_keys_still_loads(self, tmp_path):
        for name in ("fresh", "old"):
            for argv in golden_session(str(tmp_path / name))[:-2]:  # all but kpi, ns-show
                assert run_cli(*argv)[0] == 0, argv
        old = tmp_path / "old"
        _add_dropped_keys(old)
        for argv in (["kpi", "ns-1"], ["ns-show", "ns-1"], ["--json", "ns-show", "ns-1"]):
            fresh_run = run_cli("--store", str(tmp_path / "fresh"), *argv)
            assert fresh_run[0] == 0
            assert run_cli("--store", str(old), *argv) == fresh_run, argv

        # save -> load -> save is stable; the untouched instance keeps its document
        Store(old).save(Store(old).load())
        first = (old / "state.json").read_bytes()
        Store(old).save(Store(old).load())
        assert (old / "state.json").read_bytes() == first
        assert b'"default-profile"' not in first and b'"next-vdu"' not in first
        assert _instance_documents(old)["ns-1"]["wall-seconds"] == 0.25

        status, out, err = run_cli("--store", str(old), "ns-action", "ns-1", "1", "add-peer",
                                   "--param", f"public-key={generate_keypair(bytes([9]) * 32).public_b64}",
                                   "--param", "allowed-ips=10.9.0.0/24")
        assert status == 0 and out.startswith("ok duration=60s"), err
        text = (old / "state.json").read_text()
        assert [key for key in DROPPED_KEYS if f'"{key}"' in text] == []

    def test_other_json_layouts_load_and_are_rewritten_in_lines(self, tmp_path):
        for argv in golden_session(str(tmp_path / "lines"))[:-2]:  # all but kpi, ns-show
            assert run_cli(*argv)[0] == 0, argv
        value = json.loads((tmp_path / "lines" / "state.json").read_bytes())
        layouts = {
            "indented": json.dumps(value, indent=2) + "\n",  # as `python -m json.tool` leaves it
            "one-line": json.dumps(value, sort_keys=True, separators=(",", ":")),  # older versions
            "crlf": (tmp_path / "lines" / "state.json").read_text().replace("\n", "\r\n"),
        }
        for name, text in layouts.items():
            shutil.copytree(tmp_path / "lines", tmp_path / name)
            (tmp_path / name / "state.json").write_bytes(text.encode())
        for argv in (["kpi", "ns-1"], ["ns-show", "ns-1"], ["--json", "ns-show", "ns-1"]):
            expected = run_cli("--store", str(tmp_path / "lines"), *argv)
            assert expected[0] == 0
            for name in layouts:
                assert run_cli("--store", str(tmp_path / name), *argv) == expected, (name, argv)
        for name in ("lines", *layouts):
            assert run_cli("--store", str(tmp_path / name), "ns-action", "ns-1", "1",
                           "get-public-key")[0] == 0
        # each is rewritten in the line layout, to the value the same write gives there
        written = (tmp_path / "lines" / "state.json").read_bytes()
        state = json.loads(written)
        documents = len(state["instances"]) + len(state["vim"]["networks"]) + len(state["vim"]["vdus"])
        assert written.count(b"\n") == documents + 3
        for name in layouts:
            assert (tmp_path / name / "state.json").read_bytes() == written, name

    def test_catalog_files_written_with_every_optional_key_still_load(self, tmp_path):
        # an earlier version wrote each catalog file from the parsed fields, defaults spelled out
        root = tmp_path / "s"
        save_peered_store(root, count=1)
        host = root / "catalog" / "vnfd-test-host.yaml"
        host.write_text(OLD_TEST_HOST_FILE, encoding="utf-8")
        files = _catalog_files(root)
        for argv in (["ns-create", "wg-vpn"], ["ns-action", "ns-2", "1", "get-public-key"],
                     ["onboard", str(SAMPLES / "vnfd-test-host.yaml")],
                     ["validate", *(str(path) for path in files)]):
            status, out, err = run_cli("--store", str(root), *argv)
            assert status == 0, (argv, err)
        assert out == "ok\n"
        assert {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in files} == files


OLD_TEST_HOST_FILE = """\
kind: vnfd
schema-version: 1
id: test-host
name: benchmark-test-host
mgmt-interface: data
vdus:
- name: host
  image: ubuntu-18.04-minimal
  interfaces:
  - name: data
    network: data
  cloud-init-packages: []
  requires-forwarding: false
"""


def _instance_documents(root: Path) -> dict[str, dict]:
    return {doc["id"]: doc for doc in json.loads((root / "state.json").read_text())["instances"]}


def _spy(monkeypatch, name: str) -> list:
    """Record the first argument of every call to store.<name>."""
    calls = []
    original = getattr(store_module, name)

    def spy(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(store_module, name, spy)
    return calls


class TestDecodeOnDemand:
    """A command against a 3-instance store decodes only the instances,
    VIM entries and catalog files it touches."""

    def test_kpi_decodes_only_its_instance(self, tmp_path, monkeypatch):
        save_peered_store(tmp_path / "s")
        instances = _spy(monkeypatch, "_instance_from_doc")
        parsed = _spy(monkeypatch, "parse_descriptor")
        networks = _spy(monkeypatch, "_network_from_doc")
        vdus = _spy(monkeypatch, "_vdu_from_doc")
        status, out, _ = run_cli("--store", str(tmp_path / "s"), "kpi", "ns-2")
        assert status == 0 and "total: 266 s" in out
        assert [doc["id"] for doc in instances] == ["ns-2"]
        assert parsed == [] and networks == [] and vdus == []

    def test_kpi_parses_only_the_skeleton_and_its_instance_line(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        save_peered_store(root, count=20)
        data = (root / "state.json").read_bytes()
        ns2 = next(line for line in data.split(b"\n") if line.startswith(b'{"id":"ns-2",'))
        parsed = []
        loads = json.loads

        def spy(text, *args, **kwargs):
            parsed.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(store_module.json, "loads", spy)
        status, out, _ = run_cli("--store", str(root), "kpi", "ns-2")
        assert status == 0 and "total: 266 s" in out
        assert len(parsed) == 2
        assert parsed[0].startswith(b'{"actors":') and parsed[1] == ns2.removesuffix(b",")
        assert sum(map(len, parsed)) < 0.05 * len(data)

    def test_ns_show_decodes_only_its_vim_entries(self, tmp_path, monkeypatch):
        save_peered_store(tmp_path / "s")
        ns2 = _instance_documents(tmp_path / "s")["ns-2"]
        networks = _spy(monkeypatch, "_network_from_doc")
        vdus = _spy(monkeypatch, "_vdu_from_doc")
        parsed = _spy(monkeypatch, "parse_descriptor")
        status, out, _ = run_cli("--store", str(tmp_path / "s"), "ns-show", "ns-2")
        assert status == 0 and "  network ns-2.tunnel 192.168.100.0/24 allocations=2" in out
        assert [doc["name"] for doc in networks] == sorted(ns2["networks"].values())
        assert [doc["id"] for doc in vdus] == sorted(
            v for record in ns2["vnf-records"] for v in record["vdu-ids"])
        assert parsed == []

    def test_day2_write_leaves_vim_and_catalog_as_loaded(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        save_peered_store(root)
        catalog = _catalog_files(root)
        vim = json.loads((root / "state.json").read_text())["vim"]
        networks = _spy(monkeypatch, "_network_to_doc")
        vdus = _spy(monkeypatch, "_vdu_to_doc")
        third = generate_keypair(b"\x0f" * 32).public_b64
        status, _, _ = run_cli("--store", str(root), "ns-action", "ns-2", "1", "add-peer",
                               "--param", f"public-key={third}", "--param", "allowed-ips=10.9.0.0/24")
        assert status == 0
        assert networks == [] and vdus == []  # written back as loaded, not re-encoded
        after = json.loads((root / "state.json").read_text())["vim"]
        assert after["networks"] == vim["networks"] and after["vdus"] == vim["vdus"]
        assert {path: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in catalog} == catalog

    def test_delete_re_encodes_only_its_vim_entries(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        save_peered_store(root)
        vim = json.loads((root / "state.json").read_text())["vim"]
        vdus = _spy(monkeypatch, "_vdu_to_doc")
        status, _, _ = run_cli("--store", str(root), "ns-delete", "ns-2")
        assert status == 0
        assert sorted(vdu.id for vdu in vdus) == ["ns-2.m1.gw", "ns-2.m2.gw", "ns-2.m3.host",
                                                  "ns-2.m4.host"]
        after = json.loads((root / "state.json").read_text())["vim"]
        assert after["networks"] == [n for n in vim["networks"] if not n["name"].startswith("ns-2.")]
        assert [v for v in after["vdus"] if not v["id"].startswith("ns-2.")] == \
            [v for v in vim["vdus"] if not v["id"].startswith("ns-2.")]

    def test_onboard_and_slice_create_parse_only_what_they_reference(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        for name in ("vnfd-wireguard-gateway.yaml", "vnfd-test-host.yaml", "nsd-wireguard-vpn.yaml"):
            run_cli("--store", str(root), "onboard", str(SAMPLES / name))
        catalog = root / "catalog"
        (catalog / "vnfd-spare.yaml").write_text(
            (catalog / "vnfd-test-host.yaml").read_text().replace("id: test-host", "id: spare"))
        parsed = _spy(monkeypatch, "parse_descriptor")
        status, _, _ = run_cli("--store", str(root), "onboard", str(SAMPLES / "nsd-consumer.yaml"))
        assert status == 0
        assert parsed == [(catalog / "vnfd-test-host.yaml").read_text()]
        run_cli("--store", str(root), "onboard", str(SAMPLES / "nst-vpn-slice.yaml"))
        parsed.clear()
        status, _, _ = run_cli("--store", str(root), "slice-create", "vpn-slice")
        assert status == 0
        assert sorted(parsed) == sorted(path.read_text() for path in catalog.glob("*.yaml")
                                        if path.name != "vnfd-spare.yaml")

    def test_validate_and_ns_show_output_is_unchanged(self, tmp_path):
        # recorded from the store that decoded everything on load
        assert run_inspection_session(tmp_path) == INSPECTION.read_text(encoding="utf-8")

    def test_add_peer_writes_other_instances_back_as_loaded(self, tmp_path):
        root = tmp_path / "s"
        save_peered_store(root)
        before = _instance_documents(root)
        third = generate_keypair(b"\x0f" * 32).public_b64
        status, _, _ = run_cli("--store", str(root), "ns-action", "ns-2", "1", "add-peer",
                               "--param", f"public-key={third}", "--param", "allowed-ips=10.9.0.0/24")
        assert status == 0
        after = _instance_documents(root)
        assert after["ns-2"] != before["ns-2"]
        assert after["ns-1"] == before["ns-1"] and after["ns-3"] == before["ns-3"]

    def test_corrupt_instance_fails_only_commands_that_touch_it(self, tmp_path):
        root = tmp_path / "s"
        save_peered_store(root)
        pristine = (root / "state.json").read_text()
        corruptions = (
            lambda doc: doc.update(events=5),  # TypeError while decoding
            lambda doc: doc.pop("profile"),  # KeyError, which Mapping.get would swallow
        )
        for corrupt in corruptions:
            state = json.loads(pristine)
            corrupt(state["instances"][2])
            (root / "state.json").write_text(json.dumps(state))
            status, _, _ = run_cli("--store", str(root), "kpi", "ns-1")
            assert status == 0
            status, _, err = run_cli("--store", str(root), "kpi", "ns-3")
            assert status == 1
            assert err.startswith("error: corrupt state file") and err.count("\n") == 1
            assert "ns-3" in err and "instance not found" not in err


def _corrupt_vim(root: Path, section: str, key: str, entry_id: str, corrupt):
    state = json.loads((root / "state.json").read_text())
    corrupt(next(doc for doc in state["vim"][section] if doc[key] == entry_id))
    (root / "state.json").write_text(json.dumps(state))


class TestFailureScope:
    """A corrupt instance line, VIM document or catalog file fails only the
    commands that touch it, with one error line; other instances keep
    working."""

    def assert_fails(self, root: Path, *argv: str, prefix: str) -> str:
        status, _, err = run_cli("--store", str(root), *argv)
        assert status == 1
        assert err.startswith(f"error: corrupt {prefix}") and err.count("\n") == 1
        assert "not found" not in err and "unknown" not in err
        return err

    def assert_works(self, root: Path, *argv: str):
        status, _, err = run_cli("--store", str(root), *argv)
        assert status == 0, err

    def test_truncated_instance_line(self, tmp_path):
        root = tmp_path / "s"
        save_peered_store(root)
        path = root / "state.json"

        def ns3_line() -> bytes:
            return next(line for line in path.read_bytes().split(b"\n")
                        if line.startswith(b'{"id":"ns-3",'))

        line = ns3_line()
        path.write_bytes(path.read_bytes().replace(line, line[:len(line) // 2]))
        truncated = ns3_line()
        assert len(truncated) < len(line)
        err = self.assert_fails(root, "kpi", "ns-3", prefix="state file")
        assert "instance ns-3" in err
        self.assert_works(root, "kpi", "ns-1")
        self.assert_works(root, "ns-show", "ns-2")
        third = generate_keypair(b"\x0f" * 32).public_b64
        self.assert_works(root, "ns-action", "ns-2", "1", "add-peer", "--param", f"public-key={third}",
                          "--param", "allowed-ips=10.9.0.0/24")
        assert ns3_line() == truncated

    @pytest.mark.parametrize("line", [b'{"id":"ns-3', b'{"id":"ns\\q-3","events":[]}'])
    def test_unreadable_key_fails_the_whole_load(self, tmp_path, line):
        root = tmp_path / "s"
        save_peered_store(root)
        path = root / "state.json"
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(line if old.startswith(b'{"id":"ns-3",') else old for old in lines))
        self.assert_fails(root, "kpi", "ns-1", prefix="state file")
        self.assert_fails(root, "ns-show", "ns-2", prefix="state file")

    def test_corrupt_vim_network(self, tmp_path):
        root = tmp_path / "s"
        save_peered_store(root)
        pristine = (root / "state.json").read_text()
        for corrupt in (lambda doc: doc.update(cidr="x"), lambda doc: doc.pop("allocations")):
            (root / "state.json").write_text(pristine)
            _corrupt_vim(root, "networks", "name", "ns-3.tunnel", corrupt)
            self.assert_works(root, "kpi", "ns-1")
            self.assert_works(root, "kpi", "ns-3")  # reads no network
            self.assert_works(root, "ns-show", "ns-1")
            err = self.assert_fails(root, "ns-show", "ns-3", prefix="state file")
            assert "network ns-3.tunnel" in err
            self.assert_fails(root, "ns-delete", "ns-3", prefix="state file")

    def test_corrupt_vim_vdu(self, tmp_path):
        root = tmp_path / "s"
        save_peered_store(root)
        pristine = (root / "state.json").read_text()
        for corrupt in (lambda doc: doc.update(interfaces=5), lambda doc: doc.pop("image")):
            (root / "state.json").write_text(pristine)
            _corrupt_vim(root, "vdus", "id", "ns-3.m1.gw", corrupt)
            self.assert_works(root, "kpi", "ns-1")
            self.assert_works(root, "kpi", "ns-3")
            self.assert_works(root, "ns-show", "ns-1")
            err = self.assert_fails(root, "ns-show", "ns-3", prefix="state file")
            assert "vdu ns-3.m1.gw" in err

    def test_corrupt_catalog_file(self, tmp_path):
        root = tmp_path / "s"
        save_peered_store(root)
        gateway = root / "catalog" / "vnfd-wg-gw.yaml"
        for text in ("kind: vnfd\nid: [\n", "kind: vnfd\nid: wg-gw\n"):  # syntax, schema
            gateway.write_text(text)
            self.assert_works(root, "kpi", "ns-1")
            self.assert_works(root, "ns-show", "ns-1")
            err = self.assert_fails(root, "ns-action", "ns-1", "1", "get-public-key",
                                    prefix="catalog file")
            assert str(gateway) in err
            self.assert_fails(root, "validate", str(SAMPLES / "nsd-consumer.yaml"),
                              prefix="catalog file")

    def test_corrupt_unrelated_catalog_file(self, tmp_path):
        root = tmp_path / "s"
        for name in ("vnfd-wireguard-gateway.yaml", "vnfd-test-host.yaml"):
            self.assert_works(root, "onboard", str(SAMPLES / name))
        (root / "catalog" / "vnfd-unrelated.yaml").write_text("kind: vnfd\nid: [\n")
        for name in ("nsd-wireguard-vpn.yaml", "nsd-consumer.yaml", "nst-vpn-slice.yaml"):
            self.assert_works(root, "onboard", str(SAMPLES / name))
        self.assert_works(root, "slice-create", "vpn-slice")
        err = self.assert_fails(root, "validate", str(SAMPLES / "nsd-consumer.yaml"),
                                prefix="catalog file")
        assert "vnfd-unrelated.yaml" in err

    def test_faulty_sibling_slice_template(self, tmp_path):
        root = tmp_path / "s"
        sibling = tmp_path / "nst-vpn-slice-2.yaml"
        sibling.write_text((SAMPLES / "nst-vpn-slice.yaml").read_text()
                           .replace("id: vpn-slice", "id: vpn-slice-2")
                           .replace("connection-point: app-cp", "connection-point: no-such-cp"))
        for name in ("vnfd-wireguard-gateway.yaml", "vnfd-test-host.yaml", "nsd-wireguard-vpn.yaml",
                     "nsd-consumer.yaml", "nst-vpn-slice.yaml"):
            self.assert_works(root, "onboard", str(SAMPLES / name))
        self.assert_works(root, "onboard", str(sibling))
        status, _, err = run_cli("--store", str(root), "slice-create", "vpn-slice-2")
        assert status == 1
        assert err == ("error: catalog validation failed for 'vpn-slice-2': "
                       "nsd 'consumer' exposes no connection point 'no-such-cp'\n")
        self.assert_works(root, "slice-create", "vpn-slice")

    def test_misnamed_catalog_file_is_a_store_error(self, tmp_path):
        root = tmp_path / "s"
        save_peered_store(root)
        impostor = root / "catalog" / "vnfd-impostor.yaml"
        impostor.write_bytes((root / "catalog" / "vnfd-wg-gw.yaml").read_bytes())
        self.assert_works(root, "ns-action", "ns-1", "1", "get-public-key")
        err = self.assert_fails(root, "validate", str(SAMPLES / "nsd-consumer.yaml"),
                                prefix="catalog file")
        assert str(impostor) in err and "'wg-gw'" in err
        orch = Store(root).load()
        with pytest.raises(store_module.StoreError, match="vnfd-impostor.yaml"):
            orch.catalog.get("vnfd", "impostor")


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
            INSPECTION.write_text(run_inspection_session(Path(tmp)), encoding="utf-8")
        print(f"wrote {GOLDEN} and {INSPECTION}")
