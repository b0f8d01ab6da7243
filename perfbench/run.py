"""Benchmark entry point for slicevpn.

    python3 perfbench/run.py --workload {tunnel-udp,control-plane} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` and the descriptors from ``samples/``. Without them it exits with
status 2 and prints no result. Scratch state goes to ``.perfbench-work/``
(removed at exit) and span dumps to ``.perfbench-out/``.

``--trace 0`` measures for S seconds and reports the end-to-end metrics.
``--trace 1`` alternates one-second untraced rounds with rounds in which
every public entry point is wrapped in a span (S/2 seconds each), then sets
up once more traced, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced) of each end-to-end metric.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
E2E_UNITS = {
    "rtt_p50_us": "us", "rtt_p99_us": "us",
    "goodput_1400_mbps": "Mbit/s", "goodput_8192_mbps": "Mbit/s",
    "cli_write_p50_ms": "ms", "cli_write_p90_ms": "ms",
    "cli_read_p50_ms": "ms", "cli_read_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}
REFERENCE_SECONDS = 1.0  # kpi.run_throughput reference run in the traced pass


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def pin_to_one_cpu() -> int | None:
    """Pin this process to the highest-numbered CPU it may use; one thread
    drives both tunnel ends, and staying on one core steadies the timings."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def host_record(args, cpu: int | None) -> dict:
    import cryptography

    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "affinity": "none set" if cpu is None else f"pinned to cpu {cpu}",
        "git_commit": git_commit() or "unknown (not a git checkout)",
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "network": "UDP traffic crossed the host loopback interface, not a link",
    }


def reference_goodput_mbps(seed: int, work: Path, ledger) -> float:
    """The product's two-thread harness (kpi.run_throughput) at 8192 B over a
    fresh UDP wg-vpn pair, as the reference for goodput_8192_mbps."""
    from slicevpn.kpi import TunnelPair, run_throughput
    from workloads import setup_tunnel_udp

    work.mkdir(parents=True)
    fixture = setup_tunnel_udp(ROOT, work, random.Random(f"reference:{seed}"), ledger)
    try:
        pair = TunnelPair.from_instance(fixture.orch, fixture.instances[0])
        return run_throughput(pair, REFERENCE_SECONDS, 8192).throughput_bps / 1e6
    finally:
        fixture.close()


def run(args, work: Path) -> dict:
    import workloads
    from tracing import DROP_CLASSES, Tracer

    ledger = workloads.Ledger()
    ledgers = [ledger]
    fixture, setup_s = workloads.build(args.workload, ROOT, work / "untraced", args.seed, ledger)
    try:
        driver = workloads.Driver(fixture, args.workload, random.Random(f"{args.workload}:{args.seed}:run"),
                                  ledger)
        if not args.trace:
            driver.run(args.seconds)
        else:
            # untraced and traced rounds alternate on one fixture, so both see
            # the same host conditions and their difference is the tracing cost
            tracer = Tracer()
            ledgers.append(workloads.Ledger(tracer.set_request))
            traced = workloads.Driver(fixture, args.workload,
                                      random.Random(f"{args.workload}:{args.seed}:traced"), ledgers[1])
            gc.collect()
            end = time.perf_counter() + args.seconds
            rounds = 0
            while (now := time.perf_counter()) < end:
                if rounds % 2 == 0:
                    driver.round(min(workloads.ROUND_S, end - now))
                    if rounds == 0:
                        rss_untraced = peak_rss_mb()
                else:
                    with tracer:
                        traced.round(min(workloads.ROUND_S, end - now))
                rounds += 1
    finally:
        fixture.close()
    print("samples: " + json.dumps(driver.sample_counts(), sort_keys=True))
    e2e = dict(driver.metrics(), setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    if not args.trace:
        metrics = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}
    else:
        print("traced samples: " + json.dumps(traced.sample_counts(), sort_keys=True))
        tracer.set_request("setup", 0)
        with tracer:
            fixture, traced_setup_s = workloads.build(
                args.workload, ROOT, work / "traced", args.seed, ledgers[1], repeats=1)
        fixture.close()
        metrics = tracer.metrics(ledgers[1])
        metrics["kpi.run_throughput_mbps"] = (reference_goodput_mbps(args.seed, work / "reference", ledger),
                                              "Mbit/s")
        overhead = dict(traced.metrics(), setup_s=traced_setup_s - setup_s,
                        peak_rss_mb=peak_rss_mb() - rss_untraced)
        for name, unit in E2E_UNITS.items():
            delta = overhead[name] if name in ("setup_s", "peak_rss_mb") else overhead[name] - e2e[name]
            metrics[f"trace_overhead.{name}"] = (delta, unit)
        out = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.dump(out, {"host": host_record(args, args.cpu)})
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    drops = Counter()
    for each in ledgers:
        drops.update(each.drops)
    violations = [v for each in ledgers for v in each.violations]
    print("receive drops: " + json.dumps({cls: drops[cls] for cls in DROP_CLASSES}))
    for violation in violations:
        print(f"gate violation: {violation}")
    return {
        "correct": not violations,
        "attempted": sum(each.attempted for each in ledgers),
        "failed": sum(each.failed for each in ledgers),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tunnel-udp", "control-plane"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in ("src/slicevpn/__init__.py", "samples/nsd-wireguard-vpn.yaml")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a slicevpn source checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args.cpu = pin_to_one_cpu()
    print("host: " + json.dumps(host_record(args, args.cpu), sort_keys=True))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
