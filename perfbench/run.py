#!/usr/bin/env python3
"""wgtt simulator benchmark.

Builds the simulator and the benchmark harness (perfbench/CMakeLists.txt)
from source, runs one workload in its own process, checks the simulated
outputs, prints a human-readable report and, as the last line of stdout,
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload fig13|fleet|observed \\
        [--seed N] [--seconds S] [--trace 0|1]

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced pass and reports the per-layer metrics, and saves the per-layer
table under .bench_build/perfbench-out/.  A run does a fixed amount of work,
each drive once (about 25 s on a 4-vCPU x86-64 box); --seconds is accepted
as part of the standard benchmark command line and does not change it.  Bad
arguments exit with code 2.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench-cmake"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
SCRATCH_DIR = ROOT / ".bench_build" / "perfbench-scratch"
BINARY = BUILD_DIR / "wgtt_perfbench"

WORKLOADS = ("fig13", "fleet", "observed")
STREAMS = ("trace", "decisions", "packets", "causal", "health", "telemetry")

# name -> unit, for --trace 0.  BENCHMARK.json lists the same names, units,
# directions and bounds; test_run.py keeps the two equal.
END_TO_END = {
    "setup_s": "s",
    "sim_speed": "sim_s/s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
    "wgtt_goodput_mbps": "Mb/s",
    "switch_ms_p50": "ms",
    "switch_ms_p90": "ms",
    "wgtt_tcp_timeouts": "count",
}

# (layer, name, unit), for --trace 1, in table order.
PER_LAYER = [
    ("sim", "sim.events", "count"),
    ("sim", "sim.cancelled", "count"),
    ("sim", "sim.queue_depth_p99", "count"),
    ("sim", "sim.ns_per_event", "ns"),
    ("sim", "sim.schedule_run_ns", "ns"),
    ("channel", "channel.csi_calls", "count"),
    ("channel", "channel.csi_ns", "ns"),
    ("channel", "channel.share", "ratio"),
    ("phy", "phy.esnr_evals", "count"),
    ("phy", "phy.esnr_ns", "ns"),
    ("phy", "phy.rate_selects", "count"),
    ("phy", "phy.mcs_p50", "index"),
    ("mac", "mac.exchanges", "count"),
    ("mac", "mac.ampdu_build_ns", "ns"),
    ("mac", "mac.mpdus_per_ampdu", "count"),
    ("mac", "mac.medium_utilization", "ratio"),
    ("core", "core.selections", "count"),
    ("core", "core.selection_ns", "ns"),
    ("core", "core.csi_reports", "count"),
    ("core", "core.switches", "count"),
    ("core", "core.dedup_hits", "count"),
    ("core", "core.backlog_p99", "count"),
    ("net", "net.backhaul_frames", "count"),
    ("net", "net.backhaul_mb", "MB"),
    ("net", "net.packet_ns", "ns"),
    ("net", "net.flow_router_drops", "count"),
    ("transport", "transport.tcp_retx", "count"),
    ("transport", "transport.tcp_timeouts", "count"),
    ("baseline", "baseline.goodput_mbps", "Mb/s"),
    ("baseline", "baseline.handovers", "count"),
    ("baseline", "baseline.failed_handovers", "count"),
    ("baseline", "baseline.host_share", "ratio"),
    ("obs", "obs.records", "count"),
    ("obs", "obs.stream_mb", "MB"),
    ("obs", "obs.overhead_ns_per_event", "ns"),
] + [("obs", f"obs.overhead_ms.{s}", "ms") for s in STREAMS] + [
    ("obs", "obs.rss_mb", "MB"),
    ("util", "util.always_on_ns_per_event", "ns"),
    ("util", "util.profiler_calls", "count"),
    ("util", "util.histogram_records", "count"),
    ("scenario", "scenario.unattributed_share", "ratio"),
    ("trace", "trace.overhead_share", "ratio"),
]

# Profile sections shown beside each layer's rows as a cross-check.
PROFILE_OF_LAYER = {
    "sim": ["sim.dispatch"],
    "channel": ["channel.csi"],
    "phy": ["phy.rate_select", "phy.mcs_select"],
    "mac": ["mac.exchange"],
    "core": ["core.selection", "core.csi_report"],
    "scenario": ["scenario.telemetry"],
}

# Host times are reported in calibrated seconds: scaled by REFERENCE_MS over
# the median time of the harness's reference kernel (fixed work in static
# arrays, sharing no code and no heap with the simulator, timed after each
# drive) while they were measured.  On a shared host the machine's speed
# swings by up to 2x between minutes; the swing slows the kernel and the
# simulator alike, so the ratio cancels it, while a change to the simulator
# moves only the drives.  REFERENCE_MS only sets the unit: the kernel's
# median on the 4-vCPU x86-64 box the bounds were measured on, so that
# calibrated figures read as seconds on that box.
REFERENCE_MS = 1.5


def slowdown(kernel_ms):
    """How much slower than nominal the host ran while the reference kernel
    took `kernel_ms`."""
    return statistics.median(kernel_ms) / REFERENCE_MS


# Paper Fig. 13: WGTT / Enhanced 802.11r throughput at driving speeds.
PAPER_BAND = {"tcp": (2.4, 4.7), "udp_down": (2.6, 4.0)}


class ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"run.py: error: {message}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv):
    p = ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: simulator sources not found under {ROOT / 'src'}")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "wgtt_perfbench", "-j", jobs])
    with open(build_log, "w") as logf:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                log(f"run.py: cannot run {cmd[0]}: {e}")
                return False
            if rc != 0:
                log(f"run.py: build step failed: {' '.join(cmd)}")
                log(build_log.read_text()[-4000:])
                return False
    return BINARY.is_file()


def out_path(workload, mode, seed):
    return OUT_DIR / f"{workload}-{mode}-{seed}.json"


def run_harness(workload, seed, mode):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    out = out_path(workload, mode, seed)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--scratch", str(SCRATCH_DIR), "--out", str(out)]
    rc = subprocess.run(cmd).returncode
    if rc != 0:
        log(f"run.py: wgtt_perfbench exited with {rc}")
        return None
    return json.loads(out.read_text())


def untraced_run(workload, seed):
    """The untraced run of the same workload and seed, which a traced run is
    checked against: its saved output when that is newer than the harness
    binary, else a fresh run."""
    path = out_path(workload, "untraced", seed)
    if path.is_file() and path.stat().st_mtime >= BINARY.stat().st_mtime:
        return json.loads(path.read_text())
    log(f"run.py: no untraced run of {workload} at seed {seed} yet; running it")
    return run_harness(workload, seed, "untraced")


# --- statistics -------------------------------------------------------------

def nearest_rank(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    return v[max(1, math.ceil(q * len(v))) - 1]


def hist_quantile(hists, q):
    """Quantile of the merged fixed-bucket histograms (same bounds), by
    nearest rank with linear interpolation inside the bucket, clamped to the
    observed min/max as util/metrics does."""
    hists = [h for h in hists if h["count"] > 0]
    if not hists:
        return 0.0
    bounds = hists[0]["bounds"]
    buckets = [sum(h["buckets"][i] for h in hists) for i in range(len(bounds) + 1)]
    lo_obs = min(h["min"] for h in hists)
    hi_obs = max(h["max"] for h in hists)
    n = sum(buckets)
    rank = max(1, math.ceil(q * n))
    seen = 0
    for i, c in enumerate(buckets):
        if seen + c >= rank:
            lo = bounds[i - 1] if i > 0 else lo_obs
            hi = bounds[i] if i < len(bounds) else hi_obs
            lo, hi = max(lo, lo_obs), min(hi, hi_obs)
            frac = (rank - seen) / c
            return lo + (hi - lo) * frac
        seen += c
    return hi_obs


# --- checks -----------------------------------------------------------------

def check_drive(run, twin=None, reference=None):
    """Reasons a drive run fails; empty when it passes every check.

    `twin` is the run of an observed drive's streams-off twin, `reference`
    the untraced run a traced run must reproduce."""
    if not run["ok"]:
        return ["threw: " + run["error"]]
    why = []
    if reference is not None:
        if not reference["ok"]:
            why.append("untraced run threw")
        elif reference["fingerprint"] != run["fingerprint"]:
            why.append("traced run did not reproduce the untraced outputs")
    drops = run["counters"].get("net.flow_router_drops", 0)
    if drops > 0:
        why.append(f"{drops} flow-router drops")
    if twin is not None:
        if not twin["ok"]:
            why.append("streams-off twin threw")
        elif twin["fingerprint"] != run["fingerprint"]:
            why.append("outputs differ from the streams-off twin")
    if run["health_errors"] > 0:
        why.append(f"{run['health_errors']} health errors")
    return why


# --- end-to-end -------------------------------------------------------------

def split_twins(doc):
    drives, twins = [], {}
    for d in doc["drives"]:
        if d["label"].endswith("/streams_off"):
            twins[d["label"][: -len("/streams_off")]] = d
        else:
            drives.append(d)
    return drives, twins


def simulated_metrics(drives):
    wgtt = [d for d in drives if d["system"] == "wgtt"]
    goodput = [g for d in wgtt for g in d["run"]["goodput_mbps"]]
    switches = [s for d in wgtt for s in d["run"]["switch_latencies_ms"]]
    timeouts = sum(d["run"]["tcp_timeouts"] for d in wgtt if d["traffic"] == "tcp")
    return {
        "wgtt_goodput_mbps": statistics.fmean(goodput) if goodput else 0.0,
        "switch_ms_p50": nearest_rank(switches, 0.50),
        "switch_ms_p90": nearest_rank(switches, 0.90),
        "wgtt_tcp_timeouts": timeouts,
    }, len(switches)


def paper_shape(drives):
    """Per-speed WGTT / 802.11r goodput ratio on the base seed (the first
    seed of the run) and over all seeds (ratio of the seed-mean goodputs),
    next to the paper's band."""
    by = {}
    for d in drives:
        seed, rest = d["label"].split("/", 1)
        by.setdefault(seed, {})[rest] = d["run"]["goodput_mbps"][0]
    seeds = list(by)

    def ratio(w, b):
        return w / b if b > 0 else float("inf")

    lines = ["fig13 paper shape: WGTT / Enhanced 802.11r goodput "
             f"(base seed {seeds[0]}; all {len(seeds)} seeds)"]
    lines.append(f"  {'speed':>6}  {'TCP':>6} {'all':>6} {'':<8}  {'UDP':>6} {'all':>6}")
    inversions = []
    for speed in (0, 5, 10, 15, 20, 25, 35):
        row = f"  {speed:>3}mph"
        for traffic, tag in (("tcp", "tcp"), ("udp_down", "udp")):
            w = [by[s][f"{tag}/wgtt/{speed}mph"] for s in seeds]
            b = [by[s][f"{tag}/80211r/{speed}mph"] for s in seeds]
            base = ratio(w[0], b[0])
            lo, hi = PAPER_BAND[traffic]
            flag = ""
            if speed > 0:
                flag = "in" if lo <= base <= hi else ("INVERTED" if base < 1 else "out")
                if base < 1:
                    inversions.append(f"{tag} {speed} mph ({base:.2f}x)")
            row += f"  {base:6.2f} {ratio(sum(w), sum(b)):6.2f} {flag:<8}"
        lines.append(row)
    lines.append("  paper band at driving speeds: TCP 2.4-4.7x, UDP 2.6-4.0x")
    if inversions:
        lines.append("  WGTT loses to 802.11r at: " + ", ".join(inversions))
    return lines


def untraced_report(doc):
    drives, twins = split_twins(doc)
    failures = {}
    for d in drives:
        twin = twins.get(d["label"])
        why = check_drive(d["run"], twin=twin["run"] if twin else None)
        if why:
            failures[d["label"]] = why
    # sim_speed is the median over the run's seeds of each seed's speed,
    # calibrated by the kernel times measured during that seed's drives
    # (its twin's too), so a burst of load from other tenants during one
    # seed moves it little.  The set-up samples are spread over the whole
    # run, and so is the kernel median that calibrates them.
    by_seed = {}
    for d in doc["drives"]:
        acc = by_seed.setdefault(d["label"].split("/", 1)[0], [0.0, 0.0, []])
        acc[2] += d["reference_ms"]
    for d in drives:
        acc = by_seed[d["label"].split("/", 1)[0]]
        acc[0] += d["run"]["sim_s"]
        acc[1] += d["run"]["host_ns"] / 1e9
    kernel_ms = [ms for d in doc["drives"] for ms in d["reference_ms"]]
    simulated, n_switches = simulated_metrics(drives)
    raw_setup_s = sum(s["median_ns"] for s in doc["setup"]) / 1e9
    raw = {
        "setup_s": raw_setup_s,
        "sim_speed": statistics.median(sim / host for sim, host, _ in by_seed.values()),
    }
    metrics = {
        "setup_s": raw_setup_s / slowdown(kernel_ms),
        "sim_speed": statistics.median(sim / host * slowdown(ms)
                                       for sim, host, ms in by_seed.values()),
        "peak_rss_mb": doc["peak_rss_mb"],
        "pass_rate": (len(drives) - len(failures)) / len(drives),
        **simulated,
    }
    lines = [f"workload {doc['workload']}: {len(drives)} drives over "
             f"{len(by_seed)} seeds, {len(doc['drives'])} drive runs in "
             f"{doc['measured_s']:.1f} s"]
    for name, unit in END_TO_END.items():
        note = f"  (n = {n_switches} switches)" if name.startswith("switch_ms") else ""
        if name in raw:
            note = f"  (uncalibrated {raw[name]:.6g})"
        lines.append(f"  {name:<20} {metrics[name]:>14.6g} {unit}{note}")
    lines.append(f"  reference kernel: median {statistics.median(kernel_ms):.3f} ms "
                 f"over {len(kernel_ms)} runs, {REFERENCE_MS} ms nominal")
    if doc["workload"] == "fig13":
        lines += paper_shape(drives)
    for label, why in failures.items():
        lines.append(f"  FAIL {label}: {'; '.join(why)}")
    return metrics, len(drives), len(failures), lines


# --- per-layer --------------------------------------------------------------

def traced_report(doc, untraced):
    """Per-layer metrics of a traced run; `untraced` is the untraced run of
    the same workload and seed, whose base-seed drives carry the same labels
    and must have the same simulated outputs."""
    drives = doc["drives"]
    recs = [d["run"] for d in drives]
    reference = {d["label"]: d["run"] for d in untraced["drives"]}
    failures = {}
    for d in drives:
        ref = reference.get(d["label"])
        why = (check_drive(d["run"], reference=ref) if ref is not None
               else ["missing from the untraced run"])
        if why:
            failures[d["label"]] = why
    host = sum(r["host_ns"] for r in recs)
    untraced_host = sum(reference[d["label"]]["host_ns"] for d in drives
                        if d["label"] in reference)
    spans = doc["spans_ns"]
    obs = doc["observer"]
    ms = obs["best_ms"]
    events = max(obs["events"], 1)

    def counter(name):
        return sum(r["counters"].get(name, 0) for r in recs)

    def calls(section):
        return sum(r["profile"].get(section, {}).get("calls", 0) for r in recs)

    def hists(name):
        return [r["hists"][name] for r in recs if name in r["hists"]]

    sim_events = counter("sim.events_dispatched")
    ampdu = hists("mac.ampdu_mpdus")
    baseline = [(d, r) for d, r in zip(drives, recs) if d["system"] == "80211r"]
    base_goodput = [g for _, r in baseline for g in r["goodput_mbps"]]
    m = {
        "sim.events": sim_events,
        "sim.cancelled": counter("sim.events_cancelled"),
        "sim.queue_depth_p99": max(
            (hist_quantile([h], 0.99) for h in hists("sim.queue_depth")), default=0.0),
        "sim.ns_per_event": host / max(sim_events, 1),
        "sim.schedule_run_ns": spans["sim.schedule_run_ns"],
        "channel.csi_calls": calls("channel.csi"),
        "channel.csi_ns": spans["channel.csi_ns"],
        "phy.esnr_evals": sum(h["count"] for h in hists("phy.esnr_db")),
        "phy.esnr_ns": spans["phy.esnr_ns"],
        "phy.rate_selects": calls("phy.rate_select"),
        "phy.mcs_p50": hist_quantile(hists("phy.mcs_index"), 0.5),
        "mac.exchanges": calls("mac.exchange"),
        "mac.ampdu_build_ns": spans["mac.ampdu_build_ns"],
        "mac.mpdus_per_ampdu": (sum(h["sum"] for h in ampdu)
                                / max(sum(h["count"] for h in ampdu), 1)),
        "mac.medium_utilization": statistics.fmean(r["medium_utilization"] for r in recs),
        "core.selections": calls("core.selection"),
        "core.selection_ns": spans["core.selection_ns"],
        "core.csi_reports": calls("core.csi_report"),
        "core.switches": counter("core.switches_completed"),
        "core.dedup_hits": counter("core.dedup_hits") + counter("client.dedup_hits"),
        "core.backlog_p99": hist_quantile(hists("core.queue_stack_backlog"), 0.99),
        "net.backhaul_frames": sum(h["count"] for h in hists("net.backhaul_latency_us")),
        "net.backhaul_mb": counter("net.backhaul_bytes") / 1e6,
        "net.packet_ns": spans["net.packet_ns"],
        "net.flow_router_drops": counter("net.flow_router_drops"),
        "transport.tcp_retx": sum(r["tcp_retx"] for r in recs),
        "transport.tcp_timeouts": sum(r["tcp_timeouts"] for r in recs),
        "baseline.goodput_mbps": statistics.fmean(base_goodput) if base_goodput else 0.0,
        "baseline.handovers": sum(r["handovers"] for _, r in baseline),
        "baseline.failed_handovers": sum(r["failed_handovers"] for _, r in baseline),
        "baseline.host_share": sum(r["host_ns"] for _, r in baseline) / host,
        "obs.records": sum(s["records"] for r in recs for s in r["streams"].values()),
        "obs.stream_mb": sum(s["bytes"] for r in recs for s in r["streams"].values()) / 1e6,
        "obs.overhead_ns_per_event": (ms["all"] - ms["off"]) * 1e6 / events,
        "obs.rss_mb": (obs["peak_rss_growth_mb"].get("all", 0.0)
                       - obs["peak_rss_growth_mb"].get("off", 0.0)),
        "util.always_on_ns_per_event": (ms["off"] - ms["always_on_off"]) * 1e6 / events,
        "util.profiler_calls": sum(s["calls"] for r in recs for s in r["profile"].values()),
        "util.histogram_records": sum(h["count"] for r in recs for h in r["hists"].values()),
        "scenario.unattributed_share": 1.0 - sum(r["profile_total_ns"] for r in recs) / host,
        "trace.overhead_share": host / untraced_host - 1.0 if untraced_host else 0.0,
    }
    m["channel.share"] = m["channel.csi_calls"] * m["channel.csi_ns"] / host
    for s in STREAMS:
        m[f"obs.overhead_ms.{s}"] = ms[s] - ms["off"]

    sections = {}
    for r in recs:
        for name, s in r["profile"].items():
            acc = sections.setdefault(name, [0, 0])
            acc[0] += s["calls"]
            acc[1] += s["self_ns"]
    lines = [f"per-layer table, workload {doc['workload']} "
             f"(seed {doc['seed']}, {len(drives)} drives, traced pass "
             f"{host / 1e9:.2f} s host; spans shaped like {doc['shape']['drive']}: "
             f"queue depth {doc['shape']['queue_depth']}, "
             f"{doc['shape']['mpdus_per_ampdu']} MPDUs/A-MPDU, "
             f"MCS {doc['shape']['mcs_index']})"]
    lines.append(f"  {'layer':<10} {'metric':<30} {'value':>14} unit")
    layer = None
    for lyr, name, unit in PER_LAYER:
        if lyr != layer:
            layer = lyr
            for sec in PROFILE_OF_LAYER.get(lyr, []):
                c, ns = sections.get(sec, (0, 0))
                lines.append(f"  {lyr:<10} profile {sec:<22} {c:>10} calls "
                             f"{ns / max(c, 1):10.1f} ns/call  share {ns / host:.3f}")
        lines.append(f"  {lyr:<10} {name:<30} {m[name]:>14.6g} {unit}")
    lines.append(f"  observer-cost rows on {obs['probe']} "
                 f"({obs['events']} events, best of {obs['rounds']}):")
    for row in ("off",) + STREAMS + ("all", "always_on_off"):
        lines.append(f"    {row:<14} {ms[row]:10.1f} ms  "
                     f"peak RSS +{obs['peak_rss_growth_mb'].get(row, 0.0):.1f} MB")
    sim_s = sum(r["sim_s"] for r in recs)
    lines.append(f"  tracing overhead: traced sim_speed {sim_s / (host / 1e9):.2f} "
                 f"vs untraced {sim_s / (max(untraced_host, 1) / 1e9):.2f} sim_s/s "
                 f"on the same drives ({m['trace.overhead_share']:+.1%})")
    for label, why in failures.items():
        lines.append(f"  FAIL {label}: {'; '.join(why)}")
    return m, len(drives), len(failures), lines


def main(argv):
    args = parse_args(argv)
    if not build():
        return 1
    if args.trace:
        untraced = untraced_run(args.workload, args.seed)
        doc = untraced and run_harness(args.workload, args.seed, "traced")
    else:
        doc = run_harness(args.workload, args.seed, "untraced")
    if doc is None:
        return 1
    if args.trace:
        values, attempted, failed, lines = traced_report(doc, untraced)
        units = {name: unit for _, name, unit in PER_LAYER}
        table = OUT_DIR / f"layers-{args.workload}-{args.seed}.txt"
        table.write_text("\n".join(lines) + "\n")
        lines.append(f"  saved {table.relative_to(ROOT)}")
    else:
        values, attempted, failed, lines = untraced_report(doc)
        units = END_TO_END
    print("\n".join(lines))
    finite = all(math.isfinite(values[n]) for n in units)
    result = {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
