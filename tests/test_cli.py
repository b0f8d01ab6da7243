"""Operator console tests, including the byte-stable golden session.

Regenerate the golden transcript after an intentional output change with:
    python tests/test_cli.py --update-golden
"""

import errno
import gc
import io
import itertools
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STRING_PARAMS_GATEWAY, laid_out_in_lines, save_peered_store
from slicevpn import cli as cli_module
from slicevpn import cryptokey as cryptokey_module
from slicevpn import store as store_module
from slicevpn.cli import main
from slicevpn.cryptokey import generate_keypair, key_to_base64
from slicevpn.descriptors import Catalog
from slicevpn.kpi import BenchResult
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

    def test_no_file_but_the_lock_is_readable_by_others(self, tmp_path):
        previous = os.umask(0o022)
        try:
            run_golden_session(str(tmp_path / "store"))
        finally:
            os.umask(previous)
        root = tmp_path / "store"
        modes = {path.relative_to(root).as_posix(): path.stat().st_mode & 0o777
                 for path in root.rglob("*") if path.is_file()}
        assert modes.pop(".lock") == 0o644
        assert "state.json" in modes and "state.json.tmp" in modes and "catalog/vnfd-wg-gw.json" in modes
        assert {name: mode for name, mode in modes.items() if mode & 0o077} == {}

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

    @pytest.mark.parametrize("member", ["+1", " 1", "0_1", "\uff11"])  # the last is a full-width 1
    def test_member_index_is_ascii_digits_only(self, tmp_path, member):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        refused = run_cli("--store", store, "ns-action", "ns-1", member, "get-public-key")
        status, out, err = run_cli("--store", store, "ns-action", "ns-1", "x", "get-public-key")
        assert refused == (status, out, err.replace("'x'", repr(member))) and status == 2
        assert err.endswith("error: argument member: invalid int value: 'x'\n")

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


class TestDay1Keys:
    """A Day-1 param key names a member or NS index in one spelling: ASCII
    digits, no leading zero, the spelling Day-1 looks the value up by."""

    @pytest.mark.parametrize("index", ["01", "１", "٣"])
    @pytest.mark.parametrize("command,target,template,error", [
        ("ns-create", "wg-vpn", "member.{}.key-seed", "unknown instantiation param"),
        ("slice-create", "vpn-slice", "ns.{}.member.1.key-seed", "unknown slice param"),
    ])
    def test_only_the_canonical_index_is_accepted(self, tmp_path, command, target, template, error, index):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        before = (tmp_path / "s" / "state.json").read_bytes()
        config = tmp_path / "config.yaml"
        key = template.format(index)
        config.write_text(f'"{key}": "{WEST_SEED_HEX}"\n', encoding="utf-8")
        status, out, err = run_cli("--store", store, command, target, "--config", str(config))
        assert status == 1 and out == ""
        assert err.startswith(f"error: {error} {key!r}") and err.count("\n") == 1, err
        assert (tmp_path / "s" / "state.json").read_bytes() == before
        config.write_text(f'"{template.format(1)}": "{WEST_SEED_HEX}"\n', encoding="utf-8")
        assert run_cli("--store", store, command, target, "--config", str(config))[0] == 0
        status, out, _ = run_cli("--store", store, "ns-action", "ns-2", "1", "get-public-key")
        assert status == 0 and WEST_PUB in out  # the seed was read, not replaced by a random key

    @settings(max_examples=25, deadline=None)
    @given(values=st.fixed_dictionaries({}, optional={
        f"member.{member}.{key}": values for member in (1, 2) for key, values in (
            ("key-seed", st.binary(min_size=32, max_size=32).map(bytes.hex)),
            ("listen-port", st.integers(1, 65535).map(str)),
            ("tunnel-address", st.ip_addresses(v=4).map(str)),
            ("listen-interface", st.sampled_from(["tunnel", "data"])))}))
    def test_each_accepted_value_shows_in_the_instance(self, peered_template, values):
        """Each value of a Day-1 config file shows in the instance created with it:
        a key seed in the public key, a listen port and the IP of the interface
        listened on in the table's listen endpoint, a tunnel address in the table."""
        with tempfile.TemporaryDirectory() as tmp:
            root, config = Path(tmp) / "s", Path(tmp) / "config.yaml"
            shutil.copytree(peered_template, root)
            config.write_text("".join(f'{key}: "{value}"\n' for key, value in values.items()), encoding="utf-8")
            assert run_cli("--store", str(root), "ns-create", "wg-vpn", "--config", str(config)) == \
                (0, "created ns-4 (state Running)\n", "")
            state = json.loads((root / "state.json").read_text())
            records = next(doc for doc in state["instances"] if doc["id"] == "ns-4")["vnf-records"]
            vdus = {doc["id"]: doc for doc in state["vim"]["vdus"]}
            for member in (1, 2):
                chosen = {key.split(".")[2]: value for key, value in values.items()
                          if key.startswith(f"member.{member}.")}
                table = next(r for r in records if r["member-index"] == member)["table"]
                ips = {name: ip for name, _, ip in vdus[f"ns-4.m{member}.gw"]["interfaces"]}
                assert table["listen-endpoint"] == \
                    f'{ips[chosen.get("listen-interface", "tunnel")]}:{chosen.get("listen-port", 51820)}'
                assert table["tunnel-address"] == chosen.get("tunnel-address", f"10.100.0.{member}")
                if "key-seed" in chosen:
                    public = _public_key(run_cli("--store", str(root), "ns-action", "ns-4", str(member),
                                                 "get-public-key"))
                    assert public == generate_keypair(bytes.fromhex(chosen["key-seed"])).public_b64


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
    """Each catalog file's and compiled form's bytes and mtime, after setting every
    mtime to a fixed past value, so that a rewrite shows even within the clock's tick."""
    files = sorted([*(root / "catalog").glob("*.yaml"), *(root / "catalog").glob("*.json")])
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
        assert len(before) == 6  # three catalog files and their compiled forms
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
        status, out, err = run_cli("--store", store, "bench", "ns-1", "latency",
                                   "--members", "2,1", "--requests", "20")
        assert status == 0, err
        assert "  samples: 20\n" in out

    @pytest.mark.parametrize("members,message", [
        ("1", "error: --members expects two indices like 1,2, got '1'\n"),
        ("3,4", "error: member 3 is not a gateway\n"),
    ])
    def test_bad_members(self, tmp_path, members, message):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        status, out, err = run_cli("--store", store, "bench", "ns-1", "latency",
                                   "--members", members, "--requests", "20")
        assert (status, out, err) == (1, "", message)

    @pytest.mark.parametrize("count", ["+1", " 1", "0_1", "\uff11"])
    def test_counts_and_members_are_ascii_digits_only(self, tmp_path, count):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        for option in ("--requests", "--payload-size"):
            status, out, err = run_cli("--store", store, "bench", "ns-1", "latency", option, count)
            assert (status, out) == (2, "")
            assert err.endswith(f"error: argument {option}: invalid int value: {count!r}\n")
        members = f"{count},2"
        assert run_cli("--store", store, "bench", "ns-1", "latency", "--members", members) \
            == (1, "", f"error: --members expects two indices like 1,2, got {members!r}\n")

    @pytest.mark.parametrize("option,value", [
        *(("--timeout", value) for value in ("-1", "0", "nan", "inf")),
        *(("--duration", value) for value in ("-1", "0", "nan", "inf", "1e999")),
        *((option, value) for option in ("--payload-size", "--requests") for value in ("0", "-1")),
    ])
    def test_values_the_harness_cannot_use_are_usage_errors(self, tmp_path, option, value):
        # refused before the store is read: nothing is sealed, nothing is saved
        root = save_peered_store(tmp_path / "s", count=1).root
        before = (root / "state.json").read_bytes()
        status, out, err = run_cli("--store", str(root), "bench", "ns-1", "latency", "--requests", "5",
                                   option, value)
        assert (status, out) == (2, "")
        kind = "size" if option in ("--payload-size", "--requests") else "seconds"
        assert err.endswith(f"error: argument {option}: invalid {kind} value: {value!r}\n")
        assert (root / "state.json").read_bytes() == before

    def test_latency_is_measured_on_the_wall_clock(self, tmp_path):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        status, out, err = run_cli("--store", store, "--json", "bench", "ns-1", "latency",
                                   "--requests", "20")
        assert status == 0, err
        record = json.loads(out)
        assert record["samples"] == "20" and float(record["latency_p50_ms"]) > 0

    def test_throughput_over_udp(self, tmp_path):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        status, out, err = run_cli("--store", store, "--json", "bench", "ns-1",
                                   "throughput", "--duration", "0.2")
        assert status == 0, err
        record = json.loads(out)
        assert record["kind"] == "throughput" and int(record["bytes"]) > 0

    def test_backend_is_no_option(self, tmp_path):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        status, out, err = run_cli("--store", store, "--backend", "udp", "kpi", "ns-1")
        assert (status, out) == (2, "") and "usage: slicevpn" in err

    def test_no_other_command_opens_a_socket(self, tmp_path, monkeypatch):
        store = str(save_peered_store(tmp_path / "s", count=1).root)

        def no_socket(*args, **kwargs):
            raise OSError("this command must not open a socket")

        monkeypatch.setattr(socket, "socket", no_socket)
        for argv in (["kpi", "ns-1"], ["ns-show", "ns-1"], ["ns-action", "ns-1", "1", "get-public-key"],
                     ["ns-create", "wg-vpn"], ["ns-delete", "ns-1"]):
            status, _, err = run_cli("--store", store, *argv)
            assert status == 0, (argv, err)

    def test_a_bind_failure_is_one_error_line_and_leaks_no_socket(self, tmp_path, monkeypatch):
        root = save_peered_store(tmp_path / "s", count=1).root
        before = (root / "state.json").read_bytes()
        opened = []

        class SecondBindFails(socket.socket):
            def bind(self, address):
                opened.append(self)
                if len(opened) == 2:
                    raise OSError(errno.EADDRINUSE, os.strerror(errno.EADDRINUSE))
                super().bind(address)

        monkeypatch.setattr(socket, "socket", SecondBindFails)
        try:
            status, out, err = run_cli("--store", str(root), "bench", "ns-1", "latency", "--requests", "20")
            leaked = [sock for sock in opened if sock.fileno() != -1]
        finally:
            for sock in opened:
                sock.close()
        assert (status, out) == (1, "")
        assert err.startswith("error: cannot bind ") and err.endswith(": Address already in use\n")
        assert err.count("\n") == 1
        assert len(opened) == 2 and leaked == []
        assert (root / "state.json").read_bytes() == before


def _tx_counters(root: Path) -> list[int]:
    """Each gateway's sent-packet counters, summed over its peers, as saved."""
    state = json.loads((root / "state.json").read_bytes())
    return [sum(tx for tx, _ in record["table"]["sessions"].values())
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

    def test_an_interrupted_bench_saves_the_counters_it_sealed(self, tmp_path, monkeypatch):
        root = save_peered_store(tmp_path / "s", count=1).root
        before = _tx_counters(root)
        run_latency = cli_module.run_latency

        def interrupted_after_five_echoes(pair, n_requests, timeout_s):
            run_latency(pair, 5, timeout_s)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "run_latency", interrupted_after_five_echoes)
        with pytest.raises(KeyboardInterrupt):
            run_cli("--store", str(root), "bench", "ns-1", "latency", "--requests", "20")
        assert _tx_counters(root) == [count + 5 for count in before]

    def test_a_bench_sent_sigterm_saves_the_counters_it_sealed_and_exits_143(self, tmp_path):
        root = save_peered_store(tmp_path / "s", count=1).root
        before = _tx_counters(root)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        with subprocess.Popen([sys.executable, "-m", "slicevpn.cli", "--store", str(root),
                               "bench", "ns-1", "throughput", "--duration", "5"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as bench:
            time.sleep(1.5)
            bench.send_signal(signal.SIGTERM)
            out, err = bench.communicate(timeout=60)
        assert (bench.returncode, out, err) == (143, b"", b"")  # no traceback, no report
        after = _tx_counters(root)
        assert all(new > old for new, old in zip(after, before)) and len(after) == len(before) == 2

    @pytest.mark.parametrize("during_run", [True, False])
    def test_a_sigterm_during_the_save_waits_until_it_is_done(self, tmp_path, monkeypatch, during_run):
        # the save follows a bench cut short by a first SIGTERM, or one that ran to its end
        root = save_peered_store(tmp_path / "s", count=1).root
        before = _tx_counters(root)
        run_latency, save = cli_module.run_latency, Store.save

        def five_echoes(pair, n_requests, timeout_s):
            result = run_latency(pair, 5, timeout_s)
            if during_run:
                signal.raise_signal(signal.SIGTERM)
            return result

        def save_sent_sigterm(store, orch):
            signal.raise_signal(signal.SIGTERM)
            save(store, orch)

        monkeypatch.setattr(cli_module, "run_latency", five_echoes)
        monkeypatch.setattr(Store, "save", save_sent_sigterm)
        received = []
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
        handler = lambda signum, frame: received.append(signum)  # noqa: E731
        previous = signal.signal(signal.SIGTERM, handler)
        try:
            status, out, err = run_cli("--store", str(root), "bench", "ns-1", "latency", "--requests", "5")
            # the one sent during the save came to the handler main found, once main had saved and ended
            assert received == [signal.SIGTERM]
            assert signal.getsignal(signal.SIGTERM) is handler
            assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert (status, err) == ((143, "") if during_run else (0, ""))
        assert ("  samples: 5" in out) is not during_run
        assert _tx_counters(root) == [count + 5 for count in before]

    def test_the_cli_imports_no_key_serialization(self):
        code = "import sys, slicevpn.cli\nprint('cryptography.hazmat.primitives.serialization' in sys.modules)\n"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")

    def test_a_latency_bench_whose_every_echo_timed_out_is_an_error_that_saves(self, tmp_path, monkeypatch):
        root = save_peered_store(tmp_path / "s", count=1).root
        before = _tx_counters(root)
        run_latency = cli_module.run_latency

        def every_echo_times_out(pair, n_requests, timeout_s):
            sent = run_latency(pair, n_requests, timeout_s)
            return BenchResult.from_latency_samples([], sent.latency_count + sent.timeouts, 0, sent.duration_s)

        monkeypatch.setattr(cli_module, "run_latency", every_echo_times_out)
        assert run_cli("--store", str(root), "bench", "ns-1", "latency", "--requests", "5") \
            == (1, "", "error: latency bench has no samples: all 5 echoes timed out\n")
        assert _tx_counters(root) == [count + 5 for count in before]

    def test_a_failed_bench_saves_the_counters_it_sealed(self, tmp_path):
        # the probe goes out before the oversized datagram is refused
        root = save_peered_store(tmp_path / "s", count=1).root
        before = _tx_counters(root)
        assert run_cli("--store", str(root), "bench", "ns-1", "throughput", "--payload-size", "65467",
                       "--duration", "0.2") == (1, "", "error: datagram of 65542 bytes exceeds 65507\n")
        after = _tx_counters(root)
        assert all(new > old for new, old in zip(after, before)) and len(after) == len(before) == 2

    def test_reading_commands_and_day2_actions_never_import_yaml(self, tmp_path):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        code = ("import sys, slicevpn.cli\n"
                "loaded = ['yaml' in sys.modules]\n"
                "for argv in (['kpi', 'ns-1'], ['ns-show', 'ns-1'], ['ns-action', 'ns-1', '1', 'get-public-key']):\n"
                "    assert slicevpn.cli.main(['--store', sys.argv[1], *argv]) == 0\n"
                "    loaded.append('yaml' in sys.modules)\n"
                "print(loaded, file=sys.stderr)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run([sys.executable, "-c", code, store], capture_output=True, text=True,
                                env=env, timeout=60)
        assert (result.returncode, result.stderr) == (0, "[False, False, False, False]\n")

    def test_ns_create_from_compiled_catalog_files_imports_neither_yaml_nor_hashlib(self, tmp_path):
        store = str(save_peered_store(tmp_path / "s", count=1).root)
        code = ("import sys, slicevpn.cli\n"
                "assert slicevpn.cli.main(['--store', sys.argv[1], 'ns-create', 'wg-vpn']) == 0\n"
                "print(sorted({'yaml', 'hashlib'} & set(sys.modules)), file=sys.stderr)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run([sys.executable, "-c", code, store], capture_output=True, text=True,
                                env=env, timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == (0, "created ns-2 (state Running)\n", "[]\n")

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


# each command, with arguments it would run with on a peered store
EVERY_COMMAND = {
    "kpi": ["kpi", "ns-1"],
    "ns-show": ["ns-show", "ns-1"],
    "ns-action": ["ns-action", "ns-1", "1", "get-public-key"],
    "ns-create": ["ns-create", "wg-vpn"],
    "ns-delete": ["ns-delete", "ns-1"],
    "onboard": ["onboard", str(SAMPLES / "vnfd-test-host.yaml")],
    "bench": ["bench", "ns-1", "latency", "--requests", "5"],
    "validate": ["validate", str(SAMPLES / "nsd-wireguard-vpn.yaml")],
    "slice-create": ["slice-create", "vpn-slice"],
}


@pytest.fixture(scope="module")
def versioned_template(tmp_path_factory) -> Path:
    """A peered one-instance store with every file a command leaves: the
    catalog, ``state.json``, its shadow and the lock file."""
    root = save_peered_store(tmp_path_factory.mktemp("versioned") / "s", count=1).root
    assert run_cli("--store", str(root), *EVERY_COMMAND["ns-action"])[0] == 0
    assert (root / "state.json.tmp").exists() and (root / ".lock").exists()
    return root


def _store_files(root: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def _as_version_1(root: Path):
    """Rewrite the store's state.json as a version-1 build wrote it: in the line
    layout, the keys that build kept, sessions as "tx-counters" plus each peer's
    "rx-watermark", and VNF records without their primitives."""
    path = root / "state.json"
    state = json.loads(path.read_text())
    state["version"] = 1
    state["default-profile"] = state["instances"][0]["profile"]
    state["vim"]["next-vdu"] = 1
    for instance in state["instances"]:
        instance["wall-seconds"] = 0.25
        for record in instance["vnf-records"]:
            del record["config-primitives"]
            table = record["table"]
            if table is not None:
                table["interface-name"] = "wg0"
                sessions = table.pop("sessions")
                table["tx-counters"] = {key: tx for key, (tx, _) in sessions.items()}
                for peer in table["peers"]:
                    peer["rx-watermark"] = sessions.get(peer["public-key-hex"], [0, 0])[1]
    path.write_bytes(laid_out_in_lines(state))


def _as_version_2(root: Path):
    """Rewrite the store's state.json as a version-2 build wrote it: the
    same line layout, with no table's public key stored."""
    path = root / "state.json"
    lines = path.read_bytes().split(b"\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(b'{"id":"ns-1",'))
    doc = json.loads(lines[at].rstrip(b","))
    for record in doc["vnf-records"]:
        if record["table"] is not None:
            del record["table"]["public-key-hex"]
    lines[at] = lines[at].replace(lines[at].rstrip(b","), store_module._line(doc, "id"))
    data = b"\n".join(lines)
    assert data.count(b',"version":4,') == 1
    path.write_bytes(data.replace(b',"version":4,', b',"version":2,'))


class TestStoreVersion:
    @pytest.mark.parametrize("command", EVERY_COMMAND)
    @pytest.mark.parametrize("version", [1, 2, 3, 99, None])
    def test_a_store_of_another_version_is_one_error_line_and_stays_as_it_was(
            self, tmp_path, versioned_template, command, version):
        root = tmp_path / "s"
        shutil.copytree(versioned_template, root)
        path = root / "state.json"
        data = path.read_bytes()
        assert data.count(b',"version":4,') == 1
        path.write_bytes(data.replace(b',"version":4', b"" if version is None else b',"version":%d' % version))
        files = _store_files(root)
        shown = "null" if version is None else version
        assert run_cli("--store", str(root), *EVERY_COMMAND[command]) == \
            (1, "", f"error: store {root} has version {shown}; this build reads 4\n")
        assert _store_files(root) == files

    @pytest.mark.parametrize("command", EVERY_COMMAND)
    def test_a_store_a_version_1_build_wrote_is_refused(self, tmp_path, versioned_template, command):
        root = tmp_path / "s"
        shutil.copytree(versioned_template, root)
        _as_version_1(root)
        files = _store_files(root)
        assert run_cli("--store", str(root), *EVERY_COMMAND[command]) == \
            (1, "", f"error: store {root} has version 1; this build reads 4\n")
        assert _store_files(root) == files

    @pytest.mark.parametrize("command", EVERY_COMMAND)
    def test_a_store_a_version_2_build_wrote_is_refused(self, tmp_path, versioned_template, command):
        # version 2 derived each table's public key from its private key on every load
        root = tmp_path / "s"
        shutil.copytree(versioned_template, root)
        _as_version_2(root)
        files = _store_files(root)
        assert run_cli("--store", str(root), *EVERY_COMMAND[command]) == \
            (1, "", f"error: store {root} has version 2; this build reads 4\n")
        assert _store_files(root) == files


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory) -> Path:
    """The store the golden session leaves: the catalog, ``state.json``, its
    shadow and the lock file."""
    root = tmp_path_factory.mktemp("golden") / "s"
    for argv in golden_session(str(root)):
        assert run_cli(*argv)[0] == 0, argv
    assert (root / "state.json.tmp").exists() and (root / ".lock").exists()
    return root


# a state.json laid out again by hand, from the bytes the program wrote; "indented" as `python -m json.tool`
# leaves it
OTHER_LAYOUTS = {
    "indented": lambda data: (json.dumps(json.loads(data), indent=2) + "\n").encode(),
    "one-line": lambda data: json.dumps(json.loads(data), sort_keys=True, separators=(",", ":")).encode(),
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
}


class TestHandEditedStores:
    @pytest.mark.parametrize("command", EVERY_COMMAND)
    @pytest.mark.parametrize("layout", OTHER_LAYOUTS)
    def test_a_store_in_another_layout_is_one_error_line_and_stays_as_it_was(
            self, tmp_path, monkeypatch, golden_store, command, layout):
        root = tmp_path / "s"
        shutil.copytree(golden_store, root)
        path = root / "state.json"
        path.write_bytes(OTHER_LAYOUTS[layout](path.read_bytes()))
        files = _store_files(root)
        decoded = _spy(monkeypatch, "_orchestrator_from_doc")
        assert run_cli("--store", str(root), *EVERY_COMMAND[command]) == \
            (1, "", f"error: corrupt state file {path}: not in the line layout this build writes\n")
        assert decoded == [] and _store_files(root) == files

    def test_catalog_files_written_with_every_optional_key_still_load(self, tmp_path):
        # a catalog file edited by hand, every optional key spelled out with its default
        root = tmp_path / "s"
        save_peered_store(root, count=1)
        host = root / "catalog" / "vnfd-test-host.yaml"
        host.write_text(OLD_TEST_HOST_FILE, encoding="utf-8")
        files = _catalog_files(root)
        for argv in (["ns-create", "wg-vpn"], ["ns-action", "ns-2", "1", "get-public-key"],
                     ["onboard", str(SAMPLES / "vnfd-test-host.yaml")],
                     ["validate", *(str(path) for path in files if path.suffix == ".yaml")]):
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


def _spy_on_x25519(monkeypatch) -> list:
    """Record every X25519 private key made from its bytes: each public key
    derived and each shared secret computed makes one."""
    made = []
    x25519 = cryptokey_module.X25519PrivateKey

    class Spy:
        @staticmethod
        def from_private_bytes(data):
            made.append(len(data))
            return x25519.from_private_bytes(data)

    monkeypatch.setattr(cryptokey_module, "X25519PrivateKey", Spy)
    return made


def _ns_line(root: Path, ns: str) -> bytes:
    prefix = b'{"id":"%s",' % ns.encode()
    return next(line for line in (root / "state.json").read_bytes().split(b"\n") if line.startswith(prefix))


def _public_key(result: tuple[int, str, str]) -> str:
    status, out, err = result
    assert status == 0, err
    return out.split("public-key: ")[1].strip()


class TestDecodeOnDemand:
    """A command decodes only the instances, VIM entries and catalog files
    it touches, and reads only the state lines it looks up by key."""

    def test_kpi_decodes_only_its_instance(self, tmp_path, monkeypatch):
        save_peered_store(tmp_path / "s")
        instances = _spy(monkeypatch, "_instance_from_doc")
        read = _spy(monkeypatch, "_read_catalog_file")
        networks = _spy(monkeypatch, "_network_from_doc")
        vdus = _spy(monkeypatch, "_vdu_from_doc")
        status, out, _ = run_cli("--store", str(tmp_path / "s"), "kpi", "ns-2")
        assert status == 0 and "total: 266 s" in out
        assert [doc["id"] for doc in instances] == ["ns-2"]
        assert read == [] and networks == [] and vdus == []

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
        read = _spy(monkeypatch, "_read_catalog_file")
        status, out, _ = run_cli("--store", str(tmp_path / "s"), "ns-show", "ns-2")
        assert status == 0 and "  network ns-2.tunnel 192.168.100.0/24 allocations=2" in out
        assert [doc["name"] for doc in networks] == sorted(ns2["networks"].values())
        assert [doc["id"] for doc in vdus] == sorted(
            v for record in ns2["vnf-records"] for v in record["vdu-ids"])
        assert read == []

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

    def test_day2_actions_parse_no_descriptor(self, tmp_path, monkeypatch):
        # an action's primitives come from the instance's VNF record, not the catalog
        root = tmp_path / "s"
        save_peered_store(root)
        read = _spy(monkeypatch, "_read_catalog_file")
        looked_up = []
        get = Catalog.get
        monkeypatch.setattr(Catalog, "get", lambda catalog, *key: looked_up.append(key) or get(catalog, *key))
        status, out, err = run_cli("--store", str(root), "ns-action", "ns-2", "2", "get-public-key")
        assert status == 0, err
        east = out.split("public-key: ")[1].strip()
        for argv in (["del-peer", "--param", f"public-key={east}"],
                     ["add-peer", "--param", f"public-key={east}", "--param", "allowed-ips=10.9.0.0/24",
                      "--param", "endpoint=192.168.100.2:51820"]):
            status, out, err = run_cli("--store", str(root), "ns-action", "ns-2", "1", *argv)
            assert (status, err) == (0, ""), argv
        assert read == [] and looked_up == []

    @pytest.mark.parametrize("argv, shown", [
        (["kpi", "ns-2"], []),
        (["ns-show", "ns-2"], [1, 2]),
        (["--json", "ns-show", "ns-2"], [1, 2]),
        (["ns-action", "ns-2", "1", "get-public-key"], [1]),
    ])
    def test_reads_decode_no_table_and_derive_no_key(self, tmp_path, monkeypatch, argv, shown):
        root = tmp_path / "s"
        save_peered_store(root)
        keys = {r["member-index"]: key_to_base64(bytes.fromhex(r["table"]["public-key-hex"]))
                for r in _instance_documents(root)["ns-2"]["vnf-records"] if r["table"]}
        tables = _spy(monkeypatch, "_table_from_doc")
        derived = _spy_on_x25519(monkeypatch)
        status, out, err = run_cli("--store", str(root), *argv)
        assert status == 0, err
        assert tables == [] and derived == []
        assert [member for member, key in keys.items() if key in out] == shown

    def test_add_peer_decodes_only_its_members_table(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        save_peered_store(root)
        records = _instance_documents(root)["ns-2"]["vnf-records"]
        third = generate_keypair(b"\x0f" * 32).public_b64
        tables = _spy(monkeypatch, "_table_from_doc")
        derived = _spy_on_x25519(monkeypatch)
        status, _, err = run_cli("--store", str(root), "ns-action", "ns-2", "1", "add-peer",
                                 "--param", f"public-key={third}", "--param", "allowed-ips=10.9.0.0/24")
        assert (status, err) == (0, "")
        assert tables == [records[0]["table"]] and derived == []
        after = _instance_documents(root)["ns-2"]["vnf-records"]
        assert len(after[0]["table"]["peers"]) == 2 and after[1]["table"] == records[1]["table"]
        # a new instance's keys are derived as it is made
        assert run_cli("--store", str(root), "ns-create", "wg-vpn")[0] == 0
        assert len(derived) == 2

    def test_a_table_never_decoded_is_saved_as_loaded(self, tmp_path):
        root = tmp_path / "s"
        save_peered_store(root)
        east = _instance_documents(root)["ns-2"]["vnf-records"][1]["table"]
        assert east is not None
        table = store_module._encode(east)
        assert _ns_line(root, "ns-2").count(table) == 1
        assert run_cli("--store", str(root), "ns-action", "ns-2", "1", "get-public-key")[0] == 0
        assert _ns_line(root, "ns-2").count(table) == 1

    @pytest.mark.parametrize("argv, error", [
        (["reboot"], "action 'reboot' is not declared by vnfd 'wg-gw' config-primitives"),
        (["get-public-key", "--param", "x=1"], "unknown param 'x' for action 'get-public-key'"),
        (["add-peer", "--param", "public-key=k", "--param", "allowed-ips=not-a-cidr"],
         "bad param 'allowed-ips': expected an IPv4 CIDR, got 'not-a-cidr'"),
    ])
    def test_refused_day2_requests_keep_their_error_text(self, tmp_path, monkeypatch, argv, error):
        root = tmp_path / "s"
        save_peered_store(root, count=1)
        read = _spy(monkeypatch, "_read_catalog_file")
        before = (root / "state.json").read_bytes()
        assert run_cli("--store", str(root), "ns-action", "ns-1", "1", *argv) == (1, "", f"error: {error}\n")
        assert read == []
        assert (root / "state.json").read_bytes() == before  # refused before anything runs or is saved

    def test_a_record_without_its_primitives_is_corrupt(self, tmp_path, monkeypatch):
        # a record always holds its primitives; ns-action never looks them up in the catalog
        root = tmp_path / "s"
        save_peered_store(root, count=2)
        path = root / "state.json"
        lines = path.read_bytes().split(b"\n")
        at = next(i for i, line in enumerate(lines) if line.startswith(b'{"id":"ns-2",'))
        doc = json.loads(lines[at].rstrip(b","))
        for record in doc["vnf-records"]:
            del record["config-primitives"]
        lines[at] = lines[at].replace(lines[at].rstrip(b","), store_module._line(doc, "id"))
        path.write_bytes(b"\n".join(lines))
        read = _spy(monkeypatch, "_read_catalog_file")
        before = path.read_bytes()
        assert run_cli("--store", str(root), "ns-action", "ns-2", "1", "get-public-key") == \
            (1, "", f"error: corrupt state file {path}: instance ns-2: KeyError: 'config-primitives'\n")
        assert path.read_bytes() == before
        status, out, err = run_cli("--store", str(root), "ns-action", "ns-1", "1", "get-public-key")
        assert status == 0 and "public-key: " in out, err
        assert read == []

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
        read = _spy(monkeypatch, "_read_catalog_file")
        status, _, _ = run_cli("--store", str(root), "onboard", str(SAMPLES / "nsd-consumer.yaml"))
        assert status == 0
        assert read == [catalog / "vnfd-test-host.yaml"]
        run_cli("--store", str(root), "onboard", str(SAMPLES / "nst-vpn-slice.yaml"))
        read.clear()
        status, _, _ = run_cli("--store", str(root), "slice-create", "vpn-slice")
        assert status == 0
        assert sorted(read) == sorted(path for path in catalog.glob("*.yaml") if path.name != "vnfd-spare.yaml")

    def test_day2_actions_decode_no_history_and_only_their_members_declarations(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        save_peered_store(root)
        before = _instance_documents(root)["ns-2"]
        records = before["vnf-records"]
        decoded = {name: _spy(monkeypatch, f"_{name}_from_doc")
                   for name in ("events", "executed_primitives", "config_primitives", "profile")}
        east = key_to_base64(bytes.fromhex(records[1]["table"]["public-key-hex"]))
        third = generate_keypair(b"\x0f" * 32).public_b64
        for argv in (["get-public-key"], ["del-peer", "--param", f"public-key={east}"],
                     ["add-peer", "--param", f"public-key={third}", "--param", "allowed-ips=10.9.0.0/24"]):
            for calls in decoded.values():
                calls.clear()
            status, _, err = run_cli("--store", str(root), "ns-action", "ns-2", "1", *argv)
            assert (status, err) == (0, ""), argv
            assert decoded == {"events": [], "executed_primitives": [],
                               "config_primitives": [records[0]["config-primitives"]],
                               "profile": [before["profile"]]}, argv
        # each action appended its three events and one primitive to the history as loaded
        after = _instance_documents(root)["ns-2"]
        assert after["events"][:len(before["events"])] == before["events"]
        assert len(after["events"]) == len(before["events"]) + 9
        west = after["vnf-records"][0]["executed-primitives"]
        assert west[:len(records[0]["executed-primitives"])] == records[0]["executed-primitives"]
        assert [p["name"] for p in west[len(records[0]["executed-primitives"]):]] == \
            ["get-public-key", "del-peer", "add-peer"]
        assert after["vnf-records"][1:] == records[1:]

    @pytest.mark.parametrize("argv, decoded", [
        (["kpi", "ns-2"], {"events", "executed_primitives"}),
        (["ns-show", "ns-2"], {"events"}),
        (["--json", "ns-show", "ns-2"], set()),
    ])
    def test_reads_decode_only_the_fields_they_show(self, tmp_path, monkeypatch, argv, decoded):
        root = tmp_path / "s"
        save_peered_store(root)
        calls = {name: _spy(monkeypatch, f"_{name}_from_doc")
                 for name in ("events", "executed_primitives", "config_primitives", "profile")}
        status, _, err = run_cli("--store", str(root), *argv)
        assert status == 0, err
        assert {name for name, made in calls.items() if made} == decoded

    def test_only_commands_that_resolve_descriptors_list_the_catalog(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        save_peered_store(root)
        listed = []
        listdir = os.listdir
        monkeypatch.setattr(store_module.os, "listdir",
                            lambda path: listed.append(Path(path)) or listdir(path))
        east = _public_key(run_cli("--store", str(root), "ns-action", "ns-1", "2", "get-public-key"))
        for argv in (["kpi", "ns-1"], ["ns-show", "ns-1"], ["--json", "ns-show", "ns-1"],
                     ["ns-action", "ns-1", "1", "del-peer", "--param", f"public-key={east}"],
                     ["ns-delete", "ns-3"]):
            status, _, err = run_cli("--store", str(root), *argv)
            assert status == 0, err
        assert root / "catalog" not in listed
        for argv in (["onboard", str(SAMPLES / "nsd-consumer.yaml")],
                     ["validate", str(SAMPLES / "nsd-wireguard-vpn.yaml")],
                     ["ns-create", "wg-vpn"], ["slice-create", "vpn-slice"]):
            listed.clear()
            status, _, err = run_cli("--store", str(root), *argv)
            assert status == 0, err
            assert listed.count(root / "catalog") == 1, argv

    def test_hand_written_history_rows_are_saved_as_loaded(self, tmp_path):
        root = tmp_path / "s"
        save_peered_store(root)
        path = root / "state.json"
        kpi = run_cli("--store", str(root), "kpi", "ns-2")
        line = _ns_line(root, "ns-2").removesuffix(b",")
        doc = json.loads(line)

        def unreduced(text: str) -> str:
            value = Fraction(text)
            return f"{2 * value.numerator}/{2 * value.denominator}"

        # the rows OPD and DPD start from, each timestamp written as a fraction not in lowest terms
        start = next(row for row in doc["events"] if row[2] == "deploy-start")
        start[0] = unreduced(start[0])
        first = doc["vnf-records"][0]["executed-primitives"][0]
        first["started-at"] = unreduced(first["started-at"])
        path.write_bytes(path.read_bytes().replace(line, store_module._line(doc, "id")))
        assert run_cli("--store", str(root), "kpi", "ns-2") == kpi
        assert run_cli("--store", str(root), "ns-action", "ns-2", "1", "get-public-key")[0] == 0
        after = _instance_documents(root)["ns-2"]
        assert after["events"][:len(doc["events"])] == doc["events"]
        history = doc["vnf-records"][0]["executed-primitives"]
        assert after["vnf-records"][0]["executed-primitives"][:len(history)] == history
        assert run_cli("--store", str(root), "kpi", "ns-2") == kpi  # the first get-public-key stays the one shown

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

    def test_lookups_by_key_never_index_the_file(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        save_peered_store(root, count=20)
        path = root / "state.json"
        indexed = _spy(monkeypatch, "_index")
        for argv in (["kpi", "ns-7"], ["ns-show", "ns-7"]):
            status, _, err = run_cli("--store", str(root), *argv)
            assert status == 0, err
        east = _public_key(run_cli("--store", str(root), "ns-action", "ns-7", "2", "get-public-key"))
        for argv in (["get-public-key"], ["del-peer", "--param", f"public-key={east}"],
                     ["add-peer", "--param", f"public-key={east}", "--param", "allowed-ips=10.9.0.0/24"]):
            before = path.read_bytes().split(b"\n")
            status, _, err = run_cli("--store", str(root), "ns-action", "ns-7", "1", *argv)
            assert status == 0, err
            after = path.read_bytes().split(b"\n")
            assert len(after) == len(before)
            changed = [old[:13] for old, new in zip(before, after) if old != new]
            # ns-7's line, and the skeleton line that holds the VIM clock if the action took time
            assert changed in ([b'{"id":"ns-7",'], [b'{"id":"ns-7",', b'],"next-ns":2'])
        before = path.read_bytes().split(b"\n")
        assert run_cli("--store", str(root), "ns-delete", "ns-7") == (0, "deleted ns-7\n", "")
        after = path.read_bytes().split(b"\n")
        assert len(after) == len(before) - 3  # its three network lines are dropped
        assert all(line.startswith((b'{"id":"ns-7",', b'{"id":"ns-7.', b'{"name":"ns-7.'))
                   for line in before if line not in after)
        json.loads(b"\n".join(after))
        assert indexed == []

    def test_a_new_or_unknown_id_indexes_the_file(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        save_peered_store(root, count=20)
        indexed = _spy(monkeypatch, "_index")
        assert run_cli("--store", str(root), "kpi", "ns-21") == (1, "", "error: instance not found: ns-21\n")
        assert len(indexed) == 1
        status, out, err = run_cli("--store", str(root), "ns-create", "wg-vpn")
        assert (status, out, err) == (0, "created ns-21 (state Running)\n", "")
        assert len(indexed) == 2

    def test_a_line_out_of_layout_fails_only_commands_that_index_the_file(self, tmp_path):
        for name in ("lines", "reordered"):
            save_peered_store(tmp_path / name, count=20)
        path = tmp_path / "reordered" / "state.json"
        lines = path.read_bytes().split(b"\n")
        at = next(i for i, line in enumerate(lines) if line.startswith(b'{"id":"ns-3.m1.gw",'))
        doc = json.loads(lines[at].removesuffix(b","))
        laid_out, lines[at] = lines[at], json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b","
        assert not lines[at].startswith(b'{"id":')  # its keys sorted by hand, the id not first
        path.write_bytes(b"\n".join(lines))
        # a lookup by key finds its own line without reading the others' keys
        for argv in (["kpi", "ns-3"], ["ns-show", "ns-2"], ["ns-action", "ns-2", "1", "get-public-key"]):
            expected = run_cli("--store", str(tmp_path / "lines"), *argv)
            assert expected[0] == 0
            assert run_cli("--store", str(tmp_path / "reordered"), *argv) == expected, argv
        assert path.read_bytes() == (tmp_path / "lines" / "state.json").read_bytes().replace(laid_out, lines[at])
        # ns-3.m1.gw's line starts with no key, so looking it up, or adding a VDU, indexes every line
        config = str(SAMPLES / "config-seeded-keys.yaml")
        before = path.read_bytes()
        for argv in (["ns-show", "ns-3"], ["ns-create", "wg-vpn", "--config", config]):
            assert run_cli("--store", str(tmp_path / "reordered"), *argv) == \
                (1, "", f"error: corrupt state file {path}: ValueError: a document line does not start with "
                        '{"id":" and a plain key\n'), argv
            assert path.read_bytes() == before, argv

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
            (root / "state.json").write_bytes(laid_out_in_lines(state))
            status, _, _ = run_cli("--store", str(root), "kpi", "ns-1")
            assert status == 0
            status, _, err = run_cli("--store", str(root), "kpi", "ns-3")
            assert status == 1
            assert err.startswith("error: corrupt state file") and err.count("\n") == 1
            assert "ns-3" in err and "instance not found" not in err


@pytest.fixture(scope="module")
def peered_template(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("template") / "s"
    save_peered_store(root)
    return root


_COMMANDS = st.lists(st.tuples(
    st.sampled_from(["ns-create", "get-public-key", "add-peer", "del-peer", "kpi", "ns-show", "ns-delete"]),
    st.integers(1, 5),  # instance: three stored, two that ns-create may add
    st.integers(1, 2),  # member
    st.integers(1, 4),  # which key seed or peer key
), min_size=1, max_size=8)


def _argv(command: str, instance: int, member: int, seed: int, configs: Path) -> list[str]:
    ns = f"ns-{instance}"
    if command == "ns-create":
        return ["ns-create", "wg-vpn", "--config", str(configs / f"config-{seed}.yaml")]
    if command in ("kpi", "ns-show", "ns-delete"):
        return [command, ns]
    peer = ["--param", f"public-key={generate_keypair(bytes([seed]) * 32).public_b64}"]
    if command == "add-peer":
        peer += ["--param", f"allowed-ips=10.{seed}.0.0/24"]
    return ["ns-action", ns, str(member), command, *(peer if command != "get-public-key" else [])]


def _decoding_everything(load):
    """`load` (``Store.load``) that also decodes every instance, VIM network
    and VIM VDU, and every field an instance or record keeps undecoded, so
    that a save re-encodes every line."""
    def decoded(store, backend=None):
        orch = load(store, backend)
        for instance in orch.instances.values():  # each read below decodes its field
            instance.events, instance.profile
            for record in instance.vnf_records:
                record.table, record.config_primitives, record.executed_primitives
        list(orch.vim._networks.values()), list(orch.vim._vdus.values())
        return orch
    return decoded


def _write_seed_configs(tmp: Path):
    for seed in range(1, 5):
        (tmp / f"config-{seed}.yaml").write_text(
            f'member.1.key-seed: "{f"{seed:02x}" * 32}"\n'
            f'member.2.key-seed: "{f"{seed + 8:02x}" * 32}"\n', encoding="utf-8")


def _run_in(root: Path, argv: list[str]) -> tuple:
    return tuple(str(part).replace(str(root), "<store>") for part in run_cli("--store", str(root), *argv))


class TestSpliceMatchesWholeParse:
    @settings(max_examples=40, deadline=None)
    @given(commands=_COMMANDS)
    def test_same_results_and_bytes_as_a_store_parsed_whole(self, peered_template, commands):
        """A store, and its twin whose every load decodes every document and
        field, so that its every save re-encodes every line, answer alike and
        save the same bytes."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            _write_seed_configs(tmp)
            lines, whole = tmp / "lines", tmp / "whole"
            for root in (lines, whole):
                shutil.copytree(peered_template, root)
            for command in commands:
                argv = _argv(*command, tmp)
                results = [_run_in(lines, argv)]
                with mock.patch.object(Store, "load", _decoding_everything(Store.load)):
                    results.append(_run_in(whole, argv))
                assert results[0] == results[1], argv
                assert (lines / "state.json").read_bytes() == (whole / "state.json").read_bytes(), argv

    @settings(max_examples=30, deadline=None)
    @given(commands=_COMMANDS, joins=st.lists(st.tuples(st.integers(0, 1 << 16), st.booleans()),
                                              min_size=1, max_size=8),
           blanks=st.text(" \t", max_size=3))
    def test_joined_document_lines_read_as_a_store_parsed_whole(self, peered_template, commands, joins,
                                                                blanks):
        """A store in which two adjacent document lines are joined into one
        before every command, the second's first key moved last or not, and
        `blanks` end each document line before a newline (the file is still one
        JSON document). Each command answers as it does on the file's value
        in the line layout, or fails with one corrupt state file line and
        leaves the file as it was; it never answers that a document in the
        file is not found. Every save leaves each document in the file once."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            _write_seed_configs(tmp)
            joined, twin = tmp / "joined", tmp / "twin"
            shutil.copytree(peered_template, joined)
            for command, (join, key_last) in zip(commands, itertools.cycle(joins)):
                argv = _argv(*command, tmp)
                text = re.sub(r",([ \t]*)\n(?=\{\")", lambda m: f",{m[1]}{blanks}\n",
                              (joined / "state.json").read_text())
                # the newlines between two document lines
                between = [m.end() - 1 for m in re.finditer(r",[ \t]*\n(?=\{\")", text)]
                if between:
                    at = between[join % len(between)]
                    doc, end = json.JSONDecoder().raw_decode(text, at + 1)
                    if key_last:
                        first = next(iter(doc))
                        doc[first] = doc.pop(first)
                    text = text[:at] + json.dumps(doc, separators=(",", ":")) + text[end:]
                (joined / "state.json").write_text(text)
                shutil.rmtree(twin, ignore_errors=True)
                shutil.copytree(joined, twin)
                (twin / "state.json").write_bytes(laid_out_in_lines(json.loads(text)))
                results = [_run_in(root, argv) for root in (joined, twin)]
                if results[0] != results[1]:
                    status, out, err = results[0]
                    assert (status, out) == ("1", ""), argv
                    assert err.startswith("error: corrupt state file <store>/state.json: ") and \
                        err.count("\n") == 1, argv
                    assert (joined / "state.json").read_text() == text, argv
                    continue
                saved = json.loads((joined / "state.json").read_bytes())
                assert saved == json.loads((twin / "state.json").read_bytes()), argv
                for docs, key in ((saved["instances"], "id"), (saved["vim"]["networks"], "name"),
                                  (saved["vim"]["vdus"], "id")):
                    assert len({doc[key] for doc in docs}) == len(docs), argv


def _corrupt_vim(root: Path, section: str, key: str, entry_id: str, corrupt):
    state = json.loads((root / "state.json").read_text())
    corrupt(next(doc for doc in state["vim"][section] if doc[key] == entry_id))
    (root / "state.json").write_bytes(laid_out_in_lines(state))


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
    def test_unreadable_key_fails_only_commands_that_index_the_file(self, tmp_path, line):
        root = tmp_path / "s"
        save_peered_store(root)
        path = root / "state.json"
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(line if old.startswith(b'{"id":"ns-3",') else old for old in lines))
        # a lookup by key finds its own line without reading the others' keys
        self.assert_works(root, "kpi", "ns-1")
        self.assert_works(root, "ns-show", "ns-2")
        third = generate_keypair(b"\x0f" * 32).public_b64
        self.assert_works(root, "ns-action", "ns-2", "1", "add-peer", "--param", f"public-key={third}",
                          "--param", "allowed-ips=10.9.0.0/24")
        assert line in path.read_bytes().split(b"\n")
        # no line starts with ns-3's key, and adding an instance indexes every line
        self.assert_fails(root, "kpi", "ns-3", prefix="state file")
        self.assert_fails(root, "ns-create", "wg-vpn", prefix="state file")

    def test_corrupt_table_fails_only_commands_that_read_it(self, tmp_path):
        root, pristine = tmp_path / "s", tmp_path / "pristine"
        save_peered_store(root, count=2)
        shutil.copytree(root, pristine)
        path = root / "state.json"
        line = _ns_line(root, "ns-1")
        doc = json.loads(line.removesuffix(b","))
        doc["vnf-records"][0]["table"]["peers"] = 5
        path.write_bytes(path.read_bytes().replace(line.removesuffix(b","), store_module._line(doc, "id")))
        # kpi and ns-show read no table, and get-public-key reads only the key beside it
        for argv in (["kpi", "ns-1"], ["ns-show", "ns-1"], ["--json", "ns-show", "ns-1"],
                     ["ns-action", "ns-1", "1", "get-public-key"]):
            expected = run_cli("--store", str(pristine), *argv)
            assert expected[0] == 0
            assert run_cli("--store", str(root), *argv) == expected, argv
        east = _public_key(run_cli("--store", str(root), "ns-action", "ns-1", "2", "get-public-key"))
        third = generate_keypair(b"\x0f" * 32).public_b64
        error = (f"error: corrupt state file {path}: instance ns-1 member 1 table: "
                 "TypeError: 'int' object is not iterable\n")
        before = path.read_bytes()
        for argv in (["ns-action", "ns-1", "1", "add-peer", "--param", f"public-key={third}",
                      "--param", "allowed-ips=10.9.0.0/24"],
                     ["ns-action", "ns-1", "1", "del-peer", "--param", f"public-key={east}"],
                     ["bench", "ns-1", "latency", "--requests", "5"]):
            assert run_cli("--store", str(root), *argv) == (1, "", error), argv
            assert path.read_bytes() == before, argv
        # member 2's table and the other instance still work; member 1's table is saved as loaded
        self.assert_works(root, "ns-action", "ns-1", "2", "add-peer", "--param", f"public-key={third}",
                          "--param", "allowed-ips=10.9.0.0/24")
        self.assert_works(root, "bench", "ns-2", "latency", "--requests", "5")
        assert _instance_documents(root)["ns-1"]["vnf-records"][0]["table"]["peers"] == 5

    @pytest.mark.parametrize("field, works, fails", [
        # kpi and ns-show read no profile; every action reads it for its duration
        ("profile", [["kpi", "ns-1"], ["ns-show", "ns-1"], ["--json", "ns-show", "ns-1"]],
         [["ns-action", "ns-1", "1", "get-public-key"], ["ns-action", "ns-1", "2", "get-public-key"]]),
        # every action and ns-delete log an event onto it, undecoded
        ("events", [["--json", "ns-show", "ns-1"]],
         [["kpi", "ns-1"], ["ns-show", "ns-1"], ["ns-action", "ns-1", "2", "get-public-key"], ["ns-delete", "ns-1"]]),
        ("member 1 executed-primitives", [["ns-show", "ns-1"], ["ns-action", "ns-1", "2", "get-public-key"]],
         [["kpi", "ns-1"], ["ns-action", "ns-1", "1", "get-public-key"]]),
        ("member 1 config-primitives", [["kpi", "ns-1"], ["ns-show", "ns-1"], ["ns-action", "ns-1", "2", "get-public-key"]],
         [["ns-action", "ns-1", "1", "get-public-key"]]),
    ])
    def test_corrupt_instance_field_fails_only_commands_that_read_or_extend_it(self, tmp_path, field, works, fails):
        root, pristine = tmp_path / "s", tmp_path / "pristine"
        save_peered_store(root, count=2)
        shutil.copytree(root, pristine)
        path = root / "state.json"
        line = _ns_line(root, "ns-1").removesuffix(b",")
        doc = json.loads(line)
        owner = doc["vnf-records"][0] if field.startswith("member 1 ") else doc
        key = field.removeprefix("member 1 ")
        owner[key] = 5
        path.write_bytes(path.read_bytes().replace(line, store_module._line(doc, "id")))
        before = path.read_bytes()
        for argv in fails:
            status, out, err = run_cli("--store", str(root), *argv)
            assert (status, out) == (1, ""), argv
            assert err.startswith(f"error: corrupt state file {path}: instance ns-1 {field}: "), argv
            assert err.count("\n") == 1, argv
            assert path.read_bytes() == before, argv
        for argv in works:
            expected = run_cli("--store", str(pristine), *argv)
            assert expected[0] == 0
            assert run_cli("--store", str(root), *argv) == expected, argv
        saved = _instance_documents(root)["ns-1"]
        assert (saved if owner is doc else saved["vnf-records"][0])[key] == 5  # written back as loaded
        self.assert_works(root, "kpi", "ns-2")

    @pytest.mark.parametrize("state", ["DeployingInfra", "Bogus"])
    def test_instance_state_no_command_leaves(self, tmp_path, state):
        # a saved instance is Running, Failed or Terminated
        root = tmp_path / "s"
        save_peered_store(root)
        path = root / "state.json"
        lines = path.read_text().split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith('{"id":"ns-3",'))
        assert lines[at].count('"state":"Running"') == 1
        lines[at] = lines[at].replace('"state":"Running"', f'"state":"{state}"')
        path.write_text("\n".join(lines))
        for argv in (["kpi", "ns-3"], ["ns-show", "ns-3"], ["ns-delete", "ns-3"]):
            err = self.assert_fails(root, *argv, prefix="state file")
            assert f"instance ns-3: ValueError: state '{state}' is not Running, Failed or Terminated" in err
        self.assert_works(root, "kpi", "ns-1")
        self.assert_works(root, "ns-delete", "ns-2")

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

    def test_membership_parses_no_line(self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        save_peered_store(root)
        path = root / "state.json"
        line = next(line for line in path.read_bytes().split(b"\n") if line.startswith(b'{"name":"ns-3.tunnel",'))
        path.write_bytes(path.read_bytes().replace(line, line[:len(line) // 2]))
        vim = Store(root).load().vim
        parsed = []
        loads = json.loads

        def spy(text, *args, **kwargs):
            parsed.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(store_module.json, "loads", spy)
        assert "ns-3.tunnel" in vim._networks and "ns-9.tunnel" not in vim._networks
        assert parsed == []
        with pytest.raises(store_module.StoreError, match="network ns-3.tunnel"):
            vim.network("ns-3.tunnel")

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

    @pytest.mark.parametrize("compiled", ["stale", "corrupt", "deleted"])
    def test_corrupt_catalog_file(self, tmp_path, compiled):
        root = tmp_path / "s"
        save_peered_store(root)
        gateway = root / "catalog" / "vnfd-wg-gw.yaml"
        form = gateway.with_suffix(".json")
        if compiled == "corrupt":
            form.write_text("{")
        elif compiled == "deleted":
            form.unlink()
        stale = form.read_bytes() if form.exists() else None
        errors = []
        for text in ("kind: vnfd\nid: [\n", "kind: vnfd\nid: wg-gw\n"):  # syntax, schema
            gateway.write_text(text)
            self.assert_works(root, "kpi", "ns-1")
            self.assert_works(root, "ns-show", "ns-1")
            # a Day-2 action reads its primitives from the instance's VNF record
            self.assert_works(root, "ns-action", "ns-1", "1", "get-public-key")
            for argv in (["ns-create", "wg-vpn"], ["validate", str(SAMPLES / "nsd-consumer.yaml")]):
                err = self.assert_fails(root, *argv, prefix="catalog file")
                assert str(gateway) in err
                errors.append(err)
            assert gateway.read_text() == text
            assert (form.read_bytes() if form.exists() else None) == stale  # no command writes one
        # the same lines as with no compiled form at all
        form.unlink(missing_ok=True)
        for text in ("kind: vnfd\nid: [\n", "kind: vnfd\nid: wg-gw\n"):
            gateway.write_text(text)
            for argv in (["ns-create", "wg-vpn"], ["validate", str(SAMPLES / "nsd-consumer.yaml")]):
                assert run_cli("--store", str(root), *argv) == (1, "", errors.pop(0))

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
