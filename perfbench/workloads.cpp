#include "workloads.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>

#include "util/sha256.h"

namespace perfbench {

using wgtt::Time;
using wgtt::scenario::DriveScenarioConfig;
using wgtt::scenario::SystemType;
using wgtt::scenario::TrafficType;

namespace {

// Paper Fig. 13 speeds (mph).  The 5 mph point stays in: WGTT TCP loses to
// Enhanced 802.11r there at the default seed, and the benchmark reports it.
constexpr double kFig13Speeds[] = {0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 35.0};

DriveScenarioConfig fig13_config(double mph, bool tcp, bool wgtt,
                                 std::uint64_t seed) {
  DriveScenarioConfig cfg;
  cfg.speed_mph = mph;
  cfg.seed = seed;
  cfg.traffic = tcp ? TrafficType::kTcpDownlink : TrafficType::kUdpDownlink;
  cfg.system = wgtt ? SystemType::kWgtt : SystemType::kEnhanced80211r;
  return cfg;
}

std::string fig13_label(double mph, bool tcp, bool wgtt) {
  char label[64];
  std::snprintf(label, sizeof label, "%s/%s/%.0fmph", tcp ? "tcp" : "udp",
                wgtt ? "wgtt" : "80211r", mph);
  return label;
}

std::vector<DriveSpec> fig13(std::uint64_t seed) {
  // Speed major, then traffic, then system: bench_fig13_speed_sweep's order.
  std::vector<DriveSpec> out;
  for (double mph : kFig13Speeds) {
    for (bool tcp : {true, false}) {
      for (bool wgtt : {true, false}) {
        out.push_back(DriveSpec(fig13_label(mph, tcp, wgtt),
                              fig13_config(mph, tcp, wgtt, seed)));
      }
    }
  }
  return out;
}

std::vector<DriveSpec> fleet(std::uint64_t seed) {
  // An 8-client shuttle (following, 3 m gaps, 15 mph) for 20 simulated
  // seconds, once with TCP downlink and once with 2 Mb/s UDP uplink per
  // client.
  std::vector<DriveSpec> out;
  for (bool tcp : {true, false}) {
    DriveScenarioConfig cfg;
    cfg.seed = seed;
    cfg.speed_mph = 15.0;
    cfg.num_clients = 8;
    cfg.pattern = wgtt::scenario::MultiClientPattern::kFollowing;
    cfg.following_gap_m = 3.0;
    cfg.shuttle = true;
    cfg.duration = Time::sec(20);
    if (tcp) {
      cfg.traffic = TrafficType::kTcpDownlink;
    } else {
      cfg.traffic = TrafficType::kUdpUplink;
      cfg.udp_offered_mbps = 2.0;
    }
    out.push_back(DriveSpec(tcp ? "fleet/tcp_down/8c" : "fleet/udp_up/8c",
                          std::move(cfg)));
  }
  return out;
}

std::vector<DriveSpec> observed(std::uint64_t seed,
                                const std::string& scratch_dir) {
  // fig13's tcp/wgtt/5mph drive with every stream on, sampled 1-in-1 and
  // kept in memory.  The Chrome trace has no in-memory form, so the
  // Testbed writes it into the scratch directory at teardown.
  DriveScenarioConfig cfg = fig13_config(5.0, true, true, seed);
  wgtt::scenario::TestbedConfig& tb = cfg.testbed;
  tb.trace_path = scratch_dir + "/observed_trace.json";
  tb.enable_decision_log = true;
  tb.enable_packet_log = true;
  tb.packet_sample = 1;
  tb.enable_causal = true;
  tb.causal_sample = 1;
  tb.enable_health = true;
  tb.enable_telemetry = true;
  return {DriveSpec("observed/" + fig13_label(5.0, true, true), cfg)};
}

void add_tcp(DriveRecord& rec, const wgtt::transport::TcpStats& s) {
  rec.tcp_retx += s.retransmissions;
  rec.tcp_timeouts += s.timeouts;
}

std::string fingerprint(const wgtt::scenario::DriveResult& r) {
  std::string text;
  char buf[160];
  for (const auto& c : r.clients) {
    const auto& t = c.tcp_stats;
    std::snprintf(buf, sizeof buf,
                  "c%u %.17g %.17g %llu %llu %llu %llu %llu %llu %llu %zu %zu\n",
                  static_cast<unsigned>(c.client), c.goodput_mbps,
                  c.udp_loss_rate,
                  static_cast<unsigned long long>(t.segments_sent),
                  static_cast<unsigned long long>(t.retransmissions),
                  static_cast<unsigned long long>(t.fast_retransmits),
                  static_cast<unsigned long long>(t.timeouts),
                  static_cast<unsigned long long>(t.acks_sent),
                  static_cast<unsigned long long>(t.acks_received),
                  static_cast<unsigned long long>(t.dup_acks), c.handovers,
                  c.failed_handovers);
    text += buf;
  }
  for (const auto& s : r.switches) {
    std::snprintf(buf, sizeof buf, "s %lld %lld %u %u %u %u\n",
                  static_cast<long long>(s.initiated.to_ns()),
                  static_cast<long long>(s.completed.to_ns()),
                  static_cast<unsigned>(s.client),
                  static_cast<unsigned>(s.from_ap),
                  static_cast<unsigned>(s.to_ap), s.stop_retransmissions);
    text += buf;
  }
  return wgtt::sha256_hex(text);
}

std::uint64_t count_occurrences(const std::string& hay, std::string_view needle) {
  std::uint64_t n = 0;
  for (auto pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

void record_streams(DriveRecord& rec, const DriveSpec& spec,
                    const wgtt::scenario::DriveResult& r) {
  auto put = [&rec](const char* name, std::uint64_t records,
                    std::uint64_t bytes) {
    rec.stream_records[name] = records;
    rec.stream_bytes[name] = bytes;
  };
  put("decisions", r.decision_records, r.decision_jsonl.size());
  put("packets", r.packet_records, r.packet_jsonl.size());
  put("causal", r.causal_records, r.causal_jsonl.size());
  put("health", r.health_windows, r.health_jsonl.size());
  put("telemetry", r.telemetry.row_count(),
      r.telemetry.row_count() * r.telemetry.columns.size() * sizeof(double));
  std::uint64_t trace_records = 0;
  std::uint64_t trace_bytes = 0;
  if (const std::string& path = spec.cfg.testbed.trace_path; !path.empty()) {
    std::ifstream in(path, std::ios::binary);
    const std::string doc{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
    trace_records = count_occurrences(doc, "\"ph\":");
    trace_bytes = doc.size();
  }
  put("trace", trace_records, trace_bytes);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig13", "fleet",
                                                 "observed"};
  return names;
}

std::vector<std::uint64_t> workload_seeds(const std::string& workload,
                                          std::uint64_t seed) {
  // Seeds per run, sized so one pass takes about 25 s on a 4-vCPU x86-64
  // box: a fig13 sweep 7.5-9.5 s, a fleet pair 3.3-3.7 s, an observed drive
  // ~2 s (plus ~1 s for the base seed's streams-off twin).
  const std::size_t n = workload == "fig13" ? 3 : workload == "fleet" ? 7 : 11;
  std::vector<std::uint64_t> seeds = {seed};
  for (std::uint64_t k = 1; seeds.size() < n; ++k) {
    // splitmix64 finalizer over (seed, k); 32 bits keep labels short.
    std::uint64_t z = seed + k * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    seeds.push_back((z ^ (z >> 31)) >> 32);
  }
  return seeds;
}

std::vector<DriveSpec> make_workload(const std::string& workload,
                                     const std::vector<std::uint64_t>& seeds,
                                     const std::string& scratch_dir) {
  std::vector<DriveSpec> out;
  for (std::uint64_t seed : seeds) {
    std::vector<DriveSpec> drives;
    if (workload == "fig13") drives = fig13(seed);
    if (workload == "fleet") drives = fleet(seed);
    if (workload == "observed") drives = observed(seed, scratch_dir);
    for (DriveSpec& d : drives) {
      d.label = std::to_string(seed) + "/" + d.label;
      out.push_back(std::move(d));
    }
  }
  return out;
}

DriveSpec streams_off(const DriveSpec& spec) {
  DriveSpec twin = spec;
  twin.label += "/streams_off";
  wgtt::scenario::TestbedConfig& tb = twin.cfg.testbed;
  tb.trace_path.clear();
  tb.enable_decision_log = false;
  tb.enable_packet_log = false;
  tb.enable_causal = false;
  tb.enable_health = false;
  tb.enable_telemetry = false;
  return twin;
}

DriveSpec truncated(const DriveSpec& spec, double max_sim_s) {
  DriveSpec probe = spec;
  if (probe.cfg.duration > Time::sec(max_sim_s)) {
    probe.cfg.duration = Time::sec(max_sim_s);
  }
  return probe;
}

DriveRecord run_measured(const DriveSpec& spec) {
  DriveRecord rec;
  wgtt::scenario::DriveResult r;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    r = wgtt::scenario::run_drive(spec.cfg);
  } catch (const std::exception& e) {
    rec.error = e.what();
    return rec;
  } catch (...) {
    rec.error = "unknown exception";
    return rec;
  }
  const auto t1 = std::chrono::steady_clock::now();
  rec.ok = true;
  rec.host_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  rec.sim_s = (r.measured_duration + spec.cfg.app_start).to_sec();
  rec.fingerprint = fingerprint(r);
  rec.switch_latencies_ms = r.switch_latencies_ms;
  rec.medium_utilization = r.medium_utilization;
  for (const auto& c : r.clients) {
    rec.goodput_mbps.push_back(c.goodput_mbps);
    add_tcp(rec, c.tcp_stats);
    rec.handovers += c.handovers;
    rec.failed_handovers += c.failed_handovers;
  }
  for (const auto& [name, v] : r.metrics.counters) rec.counters[name] = v;
  for (const auto& h : r.metrics.histograms) {
    rec.hists[h.name] = Hist{h.bounds, h.buckets, h.count, h.sum, h.min, h.max};
  }
  for (const auto& s : r.profile.sections) {
    rec.profile[s.name] = Section{s.calls, s.self_ns};
  }
  rec.profile_total_ns = r.profile.total_ns();
  record_streams(rec, spec, r);
  rec.health_errors = r.health_errors;
  return rec;
}

}  // namespace perfbench
