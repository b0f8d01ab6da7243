"""slicevpn: the operator console.

Mirrors the NBI verbs: onboard descriptor packages, create network service
instances, drive Day-2 actions, inspect state, and run KPI/benchmark
reports. State persists in a plain-file store directory between invocations
(one invocation at a time; an advisory lock enforces it). All RBAC decisions
happen in the lifecycle layer; ``--as`` only selects the acting identity.

Output is written once the store is saved. Exit status: 0 success, 1 domain
error (its single line on stderr is the only output) or a closed stdout, 2
usage.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stdout

from slicevpn.descriptors import load_strict_yaml, parse_descriptor, validate_catalog
from slicevpn.errors import SliceVpnError
from slicevpn.kpi import TunnelPair, measure_kpis, report, run_latency, run_throughput
from slicevpn.lifecycle import export_event_log, unbind_gateway
from slicevpn.store import Store, loaded
from slicevpn.transport import UdpBackend
from slicevpn.vimsim import VimError, format_seconds, load_timing_profile

DEFAULT_STORE = ".slicevpn"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicevpn",
        description="Descriptor-driven VPN-as-a-Service orchestration console.",
    )
    parser.add_argument("--store", default=DEFAULT_STORE, help="state directory (default: %(default)s)")
    parser.add_argument("--as", dest="actor", default="admin", help="acting identity (default: admin)")
    parser.add_argument("--backend", choices=("mem", "udp"), default="mem",
                        help="transport backend for this invocation (default: mem)")
    parser.add_argument("--json", action="store_true", help="machine output, one JSON record per line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("onboard", help="parse a descriptor file and add it to the catalog")
    p.add_argument("path")

    p = sub.add_parser("validate", help="validate descriptor files against the catalog")
    p.add_argument("paths", nargs="+")

    p = sub.add_parser("ns-create", help="instantiate a network service")
    p.add_argument("nsd_id")
    p.add_argument("--config", help="YAML file with instantiation params (flat key: value mapping)")
    p.add_argument("--profile", help="timing profile YAML file")

    p = sub.add_parser("ns-action", help="run a Day-2 action on a member VNF")
    p.add_argument("instance")
    p.add_argument("member", type=int)
    p.add_argument("action")
    p.add_argument("--param", action="append", default=[], metavar="K=V")

    p = sub.add_parser("ns-show", help="show instance state, event log, and topology")
    p.add_argument("instance")

    p = sub.add_parser("ns-delete", help="terminate an instance and release its infrastructure")
    p.add_argument("instance")

    p = sub.add_parser("slice-create", help="instantiate a network slice template")
    p.add_argument("nst_id")
    p.add_argument("--config", help="YAML file with slice params (ns.<pos>.<param> keys)")
    p.add_argument("--profile", help="timing profile YAML file")

    p = sub.add_parser("kpi", help="report service-creation KPIs for an instance")
    p.add_argument("instance")

    p = sub.add_parser("bench", help="run a benchmark through the live tunnel")
    p.add_argument("instance")
    p.add_argument("kind", choices=("throughput", "latency"))
    p.add_argument("--duration", type=float, default=10.0, help="throughput run seconds")
    p.add_argument("--requests", type=int, default=1000, help="latency echo count")
    p.add_argument("--payload-size", type=int, default=8192)
    p.add_argument("--timeout", type=float, default=2.0, help="per-echo deadline seconds")
    p.add_argument("--members", help="gateway member pair, e.g. 1,2 (default: first two gateways)")

    return parser


_PARSER = _build_parser()  # once per process: parsing leaves the parser as it was


def _read_input(path: str) -> str:
    """The text of an input file; a missing or non-UTF-8 file is a domain
    error, reported as one line."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise SliceVpnError(f"cannot read {path}: {reason}") from exc


def _load_yaml_params(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    doc = load_strict_yaml(_read_input(path))
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise SliceVpnError(f"config file {path} must be a flat mapping")
    return {str(k): str(v) for k, v in doc.items()}


def _parse_kv(pairs: list[str]) -> dict[str, str]:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SliceVpnError(f"--param expects k=v, got {pair!r}")
        params[key] = value
    return params


def _load_profile(path: str | None):
    if path is None:
        return None
    return load_timing_profile(_read_input(path))


def _emit(args, obj: dict, human: str):
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    elif human:
        print(human)


def _members_arg(text: str | None) -> tuple[int | None, int | None]:
    if text is None:
        return None, None
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise SliceVpnError(f"--members expects two indices like 1,2, got {text!r}") from None
    return a, b


def cmd_onboard(orch, args) -> int:
    descriptor = parse_descriptor(_read_input(args.path))
    entry_id = orch.onboard_package(descriptor, orch.actor(args.actor))
    warnings = orch.onboard_warnings(descriptor)
    _emit(args, {"onboarded": entry_id, "kind": descriptor.kind, "warnings": warnings},
          f"onboarded {descriptor.kind} {entry_id}")
    if not args.json:
        for w in warnings:
            print(f"warning: {w}")
    return 0


def cmd_validate(orch, args) -> int:
    descriptors = list(orch.catalog.descriptors())
    for path in args.paths:
        parsed = parse_descriptor(_read_input(path))
        if orch.catalog.get(parsed.kind, parsed.id) == parsed:
            continue  # already onboarded with identical content
        descriptors.append(parsed)
    rep = validate_catalog(descriptors)
    if args.json:
        for issue in rep.issues:
            print(json.dumps({"severity": "error", "path": issue.path,
                              "message": issue.message}, sort_keys=True))
        print(json.dumps({"ok": rep.ok}, sort_keys=True))
    else:
        for issue in rep.issues:
            print(f"error {issue.path}: {issue.message}")
        print("ok" if rep.ok else "invalid")
    return 0 if rep.ok else 1


def cmd_ns_create(orch, args) -> int:
    params = _load_yaml_params(args.config)
    profile = _load_profile(args.profile)
    instance_id = orch.ns_create(orch.actor(args.actor), args.nsd_id, params, profile)
    state = orch.instances[instance_id].state
    _emit(args, {"instance": instance_id, "state": state},
          f"created {instance_id} (state {state})")
    return 0


def cmd_ns_action(orch, args) -> int:
    params = _parse_kv(args.param)
    result = orch.ns_action(orch.actor(args.actor), args.instance, args.member,
                            args.action, params)
    record = {
        "action": result.action,
        "status": result.status,
        "output": result.output,
        "duration_s": format_seconds(result.duration),
    }
    if result.status != "ok":
        record["message"] = result.message
        _emit(args, record, "")
        if not args.json:
            print(f"error: {result.message}", file=sys.stderr)
        return 1
    lines = [f"ok duration={format_seconds(result.duration)}s"]
    for key in sorted(result.output):
        lines.append(f"  {key}: {result.output[key]}")
    _emit(args, record, "\n".join(lines))
    return 0


def cmd_ns_show(orch, args) -> int:
    instance = orch.ns_show(orch.actor(args.actor), args.instance)
    if args.json:
        members = [
            {
                "member": r.member_index,
                "vnfd": r.vnfd_id,
                "mgmt": r.mgmt_address,
                "vdus": r.vdu_ids,
                "public-key": r.table.public_key_b64 if r.table else None,
            }
            for r in instance.vnf_records
        ]
        print(json.dumps({"instance": instance.id, "nsd": instance.nsd_id,
                          "state": instance.state, "members": members,
                          "networks": instance.networks}, sort_keys=True))
        return 0
    print(f"instance {instance.id} nsd={instance.nsd_id} state={instance.state}")
    print("members:")
    for r in instance.vnf_records:
        pub = f" public-key={r.table.public_key_b64}" if r.table else ""
        print(f"  member {r.member_index} vnfd={r.vnfd_id} mgmt={r.mgmt_address} "
              f"vdus={','.join(r.vdu_ids)}{pub}")
    print("networks:")
    for link, net in instance.networks.items():
        print(f"  {link} -> {net}")
    print("events:")
    for line in export_event_log(instance).splitlines():
        print(f"  {line}")
    print("topology:")
    for name in sorted(set(instance.networks.values())):
        try:
            network = orch.vim.network(name)
        except VimError:
            continue  # released with the instance
        print(f"  network {network.name} {network.cidr} allocations={len(network.allocations)}")
    for vdu_id in sorted({v for r in instance.vnf_records for v in r.vdu_ids}):
        vdu = orch.vim.vdu(vdu_id)
        if vdu.state != "Terminated":
            ifaces = ",".join(f"{i.name}:{i.ip}" for i in vdu.interfaces)
            fwd = "on" if vdu.forwarding_enabled else "off"
            print(f"  vdu {vdu.id} image={vdu.image} state={vdu.state} "
                  f"ifaces={ifaces} forwarding={fwd}")
    return 0


def cmd_ns_delete(orch, args) -> int:
    orch.ns_delete(orch.actor(args.actor), args.instance)
    _emit(args, {"deleted": args.instance}, f"deleted {args.instance}")
    return 0


def cmd_slice_create(orch, args) -> int:
    params = _load_yaml_params(args.config)
    profile = _load_profile(args.profile)
    slice_id = orch.slice_instantiate(orch.actor(args.actor), args.nst_id, params, profile)
    ns_ids = orch.slices[slice_id].ns_instance_ids
    _emit(args, {"slice": slice_id, "instances": ns_ids},
          f"created {slice_id} (instances {','.join(ns_ids)})")
    return 0


def _emit_report(args, record):
    """A KPI or benchmark report: its text, or its machine record as JSON."""
    rep = report(record)
    _emit(args, dict(line.split("=", 1) for line in rep.machine.splitlines()), rep.text)


def cmd_kpi(orch, args) -> int:
    instance = orch.ns_show(orch.actor(args.actor), args.instance)
    _emit_report(args, measure_kpis(instance))
    return 0


def cmd_bench(orch, args) -> int:
    orch.ns_show(orch.actor(args.actor), args.instance)  # RBAC + existence
    member_a, member_b = _members_arg(args.members)
    pair = TunnelPair.from_instance(orch, args.instance, member_a, member_b)
    if args.kind == "throughput":
        result = run_throughput(pair, args.duration, args.payload_size)
    else:
        result = run_latency(pair, args.requests, args.timeout)
    _emit_report(args, result)
    return 0


_COMMANDS = {
    "onboard": cmd_onboard,
    "validate": cmd_validate,
    "ns-create": cmd_ns_create,
    "ns-action": cmd_ns_action,
    "ns-show": cmd_ns_show,
    "ns-delete": cmd_ns_delete,
    "slice-create": cmd_slice_create,
    "kpi": cmd_kpi,
    "bench": cmd_bench,
}

_MUTATING = {"onboard", "ns-create", "ns-action", "ns-delete", "slice-create", "bench"}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    store = Store(args.store)
    # mem passes None so the restored clock drives the backend
    backend = UdpBackend() if args.backend == "udp" else None
    out = io.StringIO()  # written once the store is saved
    try:
        with store.lock():
            orch = store.load(backend=backend)
            try:
                with redirect_stdout(out):
                    status = _COMMANDS[args.command](orch, args)
                if args.command in _MUTATING:
                    store.save(orch)
            finally:  # after the save, which records the gateways as bound
                for _, instance in loaded(orch.instances):
                    for record in instance.vnf_records:
                        unbind_gateway(record)
    except SliceVpnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone; keep the exit-time flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
