#!/usr/bin/env python3
"""Fleet benchmark for the Pegasus simulator.

Builds fleetbench (Release) from the repository's sources, then runs
instances of one workload, each in a fresh process, until the measured
window is used, and prints every metric by name with its unit. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 each
traced instance is paired with an untraced one of the same seed, the pair
must agree exactly, and the metrics are the per-layer ones plus the tracing
overhead. See fleetbench/README.md.

Run from the repository root:

    python3 fleetbench/run.py --workload metro-churn --seed 16 --seconds 30 --trace 0
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "fleetbench"
BUILD = ROOT / ".bench_build" / "fleetbench"
BINARY = BUILD / "fleetbench"

WORKLOADS = ("metro-churn", "broadcast-data", "admission-churn")
FLEETS = ("metro-churn", "broadcast-data")
MIN_INSTANCES = 3      # untraced instances per run, at least
MIN_TRACED_PAIRS = 2   # untraced + traced pairs per traced run, at least
INSTANCE_TIMEOUT_S = 150
# Instance k of a run draws its workload from --seed + k * SEED_STRIDE.
SEED_STRIDE = 1_000_000

# Outcomes two instances of one seed must reproduce exactly.
DETERMINISTIC = (
    "fleet_fingerprint", "signalling_fingerprint", "arrivals", "admitted", "blocked",
    "peak_concurrent", "mcast_grafts", "mcast_prunes", "retained_sessions", "events",
    "cell_hops", "cells_dropped", "vcs_open_end", "rejects_bandwidth", "rejects_no_path",
    "counter_offers", "adaptation_events", "monitor_ticks", "monitor_signals",
    "monitor_recoveries", "records_played", "records_recorded", "signalling_ops",
    "opens_refused", "grafts_refused",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds; a build tree left by a checkout at another
    path is wiped and rebuilt once."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(SOURCE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for attempt in (1, 2):
        BUILD.mkdir(parents=True, exist_ok=True)
        for cmd in steps:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                break
        else:
            return
        if attempt == 1 and (BUILD / "CMakeCache.txt").exists():
            shutil.rmtree(BUILD)
            continue
        log(proc.stdout[-4000:])
        raise SystemExit(f"fleetbench: build step failed: {' '.join(cmd)}")


def instance(workload, seed, trace):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=INSTANCE_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-2000:])
        raise SystemExit(f"fleetbench: instance exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_instances(workload, seed, seconds, trace):
    """Whole instances (or untraced+traced pairs) until the window is used.

    One seed is one draw of arrivals, holding times and placement, and a
    fleet's cost differs from draw to draw by more than the host's noise,
    so every instance of a run takes its own draw derived from --seed and
    the run's figures are over all of them.
    """
    plain, traced = [], []
    start = time.monotonic()
    while True:
        k = len(plain)
        plain.append(instance(workload, seed + k * SEED_STRIDE, False))
        if trace:
            traced.append(instance(workload, seed + k * SEED_STRIDE, True))
        done = len(plain)
        elapsed = time.monotonic() - start
        if (done >= (MIN_TRACED_PAIRS if trace else MIN_INSTANCES)
                and elapsed + elapsed / done > seconds):
            return plain, traced


def trimmed_mean(values):
    """Mean of the values left after dropping the lowest and highest fifth:
    it averages draws like a mean and shrugs off a host hiccup like a
    median."""
    v = sorted(values)
    cut = len(v) // 5
    return statistics.fmean(v[cut:len(v) - cut])


def pooled_percentile(instances, key, p):
    """Nearest-rank percentile of one latency over every instance's calls."""
    v = sorted(x for i in instances for x in i[key])
    if not v:
        return 0.0
    rank = max(1, min(len(v), -int(-p * len(v) // 1)))
    return v[rank - 1]


def ratio(a, b):
    return a / b if b else 0.0


def check_agreement(plain, traced):
    """Each traced instance reproduces its untraced twin exactly: the same
    seed rerun, with probes and spans on. Returns (checks, failed, notes)."""
    checks, failed, notes = 0, 0, []
    for p, t in zip(plain, traced):
        checks += 1
        diff = [k for k in DETERMINISTIC if p[k] != t[k]]
        if diff:
            failed += 1
            notes.append(f"seed {p['seed']}: the traced rerun differs in {diff}")
    return checks, failed, notes


def end_to_end(plain):
    def mean(f):
        return trimmed_mean([f(p) for p in plain])

    return {
        "setup_s": (statistics.median(p["setup_topology_s"] + p["setup_catalog_s"]
                                      for p in plain), "s"),
        "peak_rss_mb": (mean(lambda p: p["peak_rss_mb"]), "MiB"),
        "run_wall_s": (mean(lambda p: p["run_wall_s"]), "s"),
        "run_cpu_s": (mean(lambda p: p["run_cpu_s"]), "s"),
        "admission_ops_per_s": (ratio(sum(p["signalling_ops"] for p in plain),
                                      sum(p["signalling_wall_s"] for p in plain)), "1/s"),
        "open_p50_us": (pooled_percentile(plain, "open_us", 0.50), "us"),
        "open_p95_us": (pooled_percentile(plain, "open_us", 0.95), "us"),
        "graft_p50_us": (pooled_percentile(plain, "graft_us", 0.50), "us"),
        "graft_p95_us": (pooled_percentile(plain, "graft_us", 0.95), "us"),
    }


def fleet_rates(plain):
    """The fleet figures per simulated second (reported, not bounded)."""
    def mean(f):
        return trimmed_mean([f(p) for p in plain])

    return {
        "wall_per_sim_s": (mean(lambda p: p["run_wall_s"] / p["sim_s"]), "s/s"),
        "cpu_per_sim_s": (mean(lambda p: p["run_cpu_s"] / p["sim_s"]), "s/s"),
        "cell_hops_per_s": (mean(lambda p: p["cell_hops"] / p["run_wall_s"]), "1/s"),
    }


def per_layer(plain, traced):
    """Counts are the --seed instance's own and repeat exactly; timings are
    taken per traced instance and averaged like the end-to-end figures."""
    t0 = traced[0]
    fleet = t0["sim_s"] > 0

    def mean(f):
        return trimmed_mean([f(t) for t in traced])

    def run_s(i):
        return i["run_wall_s"] if fleet else 0.0

    def work_s(i):
        return i["run_wall_s"] + (i["signalling_wall_s"] if fleet else 0.0)

    def count(key):
        return (t0[key], "count")

    return {
        "scenario.setup_topology_s": (mean(lambda t: t["setup_topology_s"]), "s"),
        "scenario.setup_catalog_s": (mean(lambda t: t["setup_catalog_s"]), "s"),
        "scenario.arrivals": count("arrivals"),
        "scenario.peak_concurrent": count("peak_concurrent"),
        "scenario.mcast_grafts": count("mcast_grafts"),
        "scenario.mcast_prunes": count("mcast_prunes"),
        "scenario.retained_sessions": count("retained_sessions"),
        "scenario.steady_at_s": (t0["steady_at_s"], "s"),
        "sim.events": count("events"),
        "sim.events_per_cell_hop": (ratio(t0["events"], t0["cell_hops"]), "ratio"),
        "sim.run_s": (mean(run_s), "s"),
        "sim.non_admission_s": (mean(lambda t: run_s(t) - t["admit_s"] if fleet else 0.0), "s"),
        "sim.ramp_wall_per_sim_s": (mean(lambda t: t["ramp_wall_per_sim_s"]), "s/s"),
        "sim.steady_wall_per_sim_s": (mean(lambda t: t["steady_wall_per_sim_s"]), "s/s"),
        "atm.cell_hops": count("cell_hops"),
        "atm.cell_hops_per_s": (mean(lambda t: ratio(t["cell_hops"], run_s(t))), "1/s"),
        "atm.cells_dropped": count("cells_dropped"),
        "atm.vcs_open_end": count("vcs_open_end"),
        "atm.rejects_bandwidth": count("rejects_bandwidth"),
        "atm.rejects_no_path": count("rejects_no_path"),
        "core.admit_calls": count("admit_calls"),
        "core.admit_s": (mean(lambda t: t["admit_s"]), "s"),
        "core.admit_mean_us": (mean(lambda t: ratio(t["admit_s"], t["admit_calls"]) * 1e6),
                               "us"),
        "core.renegotiate_p50_us": (pooled_percentile(traced, "renegotiate_us", 0.5), "us"),
        "core.close_p50_us": (pooled_percentile(traced, "close_us", 0.5), "us"),
        "core.prune_p50_us": (pooled_percentile(traced, "prune_us", 0.5), "us"),
        "core.open_p99_us": (pooled_percentile(traced, "open_us", 0.99), "us"),
        "core.graft_p99_us": (pooled_percentile(traced, "graft_us", 0.99), "us"),
        "core.blocked": count("blocked"),
        "core.counter_offers": count("counter_offers"),
        "core.adaptation_events": count("adaptation_events"),
        "core.monitor_ticks": count("monitor_ticks"),
        "core.monitor_signals": count("monitor_signals"),
        "core.monitor_recoveries": count("monitor_recoveries"),
        "pfs.records_played": count("records_played"),
        "pfs.records_recorded": count("records_recorded"),
        "trace.overhead_s": (statistics.median(work_s(t) - work_s(p)
                                               for p, t in zip(plain, traced)), "s"),
        "trace.spans": count("spans"),
    }


def report(title, metrics):
    print(f"-- {title} --")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    plain, traced = run_instances(args.workload, args.seed, args.seconds, args.trace == 1)
    instances = plain + traced

    checks, mismatches, notes = check_agreement(plain, traced)
    attempted = sum(i["attempted"] for i in instances) + checks
    failed = sum(i["failed"] for i in instances) + mismatches
    notes += [f"seed {i['seed']}: {i['first_failure']}" for i in instances if i["failed"]]
    did_work = all(i["signalling_ops"] > 0 and i["run_wall_s"] > 0 for i in instances)
    if args.workload in FLEETS:
        did_work = did_work and all(i["arrivals"] > 0 and i["cell_hops"] > 0 for i in instances)

    print(f"fleetbench {args.workload} seed {args.seed}: {len(plain)} untraced"
          + (f" and {len(traced)} traced" if traced else "") + " instances")
    if args.trace:
        metrics = per_layer(plain, traced)
        report("per-layer (traced instances)", metrics)
    else:
        metrics = end_to_end(plain)
        report("end-to-end (over the run's instances)", metrics)
        if args.workload in FLEETS:
            report("fleet rates (over the run's instances)", fleet_rates(plain))
    print(f"  seed {args.seed} fingerprints: fleet {plain[0]['fleet_fingerprint']} "
          f"signalling {plain[0]['signalling_fingerprint']}")
    print(f"  operations: {attempted} attempted, {failed} failed")
    for note in notes[:5]:
        print(f"  FAILED: {note}")

    print(json.dumps({
        "correct": did_work,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
