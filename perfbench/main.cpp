// wgtt_perfbench: runs one benchmark workload in this process, serially on
// one thread, and writes the raw measurements as JSON.  run.py builds this
// program, runs it once per workload and turns the JSON into the metrics.
//
//   wgtt_perfbench --workload NAME --seed N --mode MODE --scratch DIR
//                  --out FILE
//
// MODE "untraced" measures set-up cost and runs each of the workload's
// drives once at each of its seeds.  MODE "traced" runs the base seed's
// drives once for their counters, then times each layer on workload-shaped
// inputs inside the benchmark's own spans, and the observer-cost rows.
// The untraced mode also times a fixed reference kernel between the drives.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "layers.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wgtt::JsonWriter;
using wgtt::Time;

// Keeps the reference kernel's result observable.
volatile double g_reference_sink = 0.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  std::string mode = "untraced";
  std::string scratch = ".";
  std::string out;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "wgtt_perfbench: %s\nusage: wgtt_perfbench --workload "
               "fig13|fleet|observed --seed N --mode "
               "untraced|traced --scratch DIR --out FILE\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& a, std::string& why) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      why = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') {
        why = "bad --seed " + v;
        return false;
      }
    } else if (flag == "--mode") {
      a.mode = v;
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--out") {
      a.out = v;
    } else {
      why = "unknown flag " + flag;
      return false;
    }
  }
  if (std::find(workload_names().begin(), workload_names().end(),
                a.workload) == workload_names().end()) {
    why = "unknown workload '" + a.workload + "'";
    return false;
  }
  if (a.mode != "untraced" && a.mode != "traced") {
    why = "unknown mode '" + a.mode + "'";
    return false;
  }
  if (a.out.empty()) {
    why = "--out is required";
    return false;
  }
  return true;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::int64_t median_ns(std::vector<std::int64_t> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Set-up cost of each config: run_drive truncated to 1 ns of simulated
// time, median per config.  After a warm-up, sample rounds (one call per
// config) run between the drives, so the medians cover the whole run rather
// than one moment of a shared host.  The sampled configs leave the Chrome
// trace path unset: with it, every 1 ns drive also truncates and rewrites a
// file, and that file-system latency swings 2-3x from minute to minute
// (about 110-280 us against 30-50 us for the rest of the set-up).
constexpr int kSetupWarmupRounds = 5;
constexpr int kSetupSamples = 101;

class SetupSampler {
 public:
  explicit SetupSampler(const std::vector<DriveSpec>& drives)
      : zero_(drives), samples_(drives.size()) {
    for (DriveSpec& d : zero_) {
      d.cfg.duration = Time::ns(1);
      d.cfg.testbed.trace_path.clear();
    }
    for (int r = 0; r < kSetupWarmupRounds; ++r) round(false);
  }

  void round(bool keep = true) {
    for (std::size_t i = 0; i < zero_.size(); ++i) {
      const DriveRecord rec = run_measured(zero_[i]);
      if (keep) samples_[i].push_back(rec.host_ns);
    }
  }

  void write(JsonWriter& w) const {
    w.key("setup").begin_array();
    for (std::size_t i = 0; i < zero_.size(); ++i) {
      w.begin_object();
      w.field("label", zero_[i].label);
      w.field("median_ns", median_ns(samples_[i]));
      w.field("samples", static_cast<std::uint64_t>(samples_[i].size()));
      w.end_object();
    }
    w.end_array();
  }

 private:
  std::vector<DriveSpec> zero_;
  std::vector<std::vector<std::int64_t>> samples_;
};

void write_hist(JsonWriter& w, const Hist& h) {
  w.begin_object();
  w.key("bounds").begin_array();
  for (double b : h.bounds) w.value(b);
  w.end_array();
  w.key("buckets").begin_array();
  for (std::uint64_t b : h.buckets) w.value(b);
  w.end_array();
  w.field("count", h.count).field("sum", h.sum);
  w.field("min", h.min).field("max", h.max);
  w.end_object();
}

void write_record(JsonWriter& w, const DriveRecord& r) {
  w.begin_object();
  w.field("ok", r.ok);
  w.field("error", r.error);
  w.field("host_ns", r.host_ns);
  w.field("sim_s", r.sim_s);
  w.field("fingerprint", r.fingerprint);
  w.key("goodput_mbps").begin_array();
  for (double g : r.goodput_mbps) w.value(g);
  w.end_array();
  w.key("switch_latencies_ms").begin_array();
  for (double s : r.switch_latencies_ms) w.value(s);
  w.end_array();
  w.field("tcp_retx", r.tcp_retx).field("tcp_timeouts", r.tcp_timeouts);
  w.field("handovers", r.handovers);
  w.field("failed_handovers", r.failed_handovers);
  w.field("medium_utilization", r.medium_utilization);
  w.field("health_errors", r.health_errors);
  w.key("counters").begin_object();
  for (const auto& [k, v] : r.counters) w.field(k, v);
  w.end_object();
  w.key("hists").begin_object();
  for (const auto& [k, h] : r.hists) {
    w.key(k);
    write_hist(w, h);
  }
  w.end_object();
  w.key("profile").begin_object();
  for (const auto& [k, s] : r.profile) {
    w.key(k).begin_object();
    w.field("calls", s.calls).field("self_ns", s.self_ns);
    w.end_object();
  }
  w.end_object();
  w.field("profile_total_ns", r.profile_total_ns);
  w.key("streams").begin_object();
  for (const auto& [k, n] : r.stream_records) {
    w.key(k).begin_object();
    w.field("records", n).field("bytes", r.stream_bytes.at(k));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

// `reference_ms`, when given, holds the reference-kernel times measured
// right after each drive.
void write_drives(JsonWriter& w, const std::vector<DriveSpec>& drives,
                  const std::vector<DriveRecord>& records,
                  const std::vector<std::vector<double>>* reference_ms =
                      nullptr) {
  w.key("drives").begin_array();
  for (std::size_t i = 0; i < drives.size(); ++i) {
    const auto& cfg = drives[i].cfg;
    w.begin_object();
    w.field("label", drives[i].label);
    w.field("system", cfg.system == wgtt::scenario::SystemType::kWgtt
                          ? "wgtt"
                          : "80211r");
    w.field("traffic",
            cfg.traffic == wgtt::scenario::TrafficType::kTcpDownlink ? "tcp"
            : cfg.traffic == wgtt::scenario::TrafficType::kUdpDownlink
                ? "udp_down"
                : "udp_up");
    w.field("speed_mph", cfg.speed_mph);
    w.field("clients", static_cast<std::uint64_t>(cfg.num_clients));
    w.key("run");
    write_record(w, records[i]);
    if (reference_ms != nullptr) {
      w.key("reference_ms").begin_array();
      for (double ms : (*reference_ms)[i]) w.value(ms);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
}

double peak_rss_of_process_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// A fixed CPU and memory workload that shares no code and no heap with the
// simulator: a timer heap, an open-addressed hash table and transcendental
// math, all in static arrays.  Its host time tracks how fast the shared
// machine runs at the moment, so run.py can express host times in
// calibrated seconds.  It allocates nothing, so a change to the simulator's
// use of the allocator cannot move it.
double reference_kernel_ms() {
  constexpr std::size_t kHeapCap = 512;
  constexpr std::size_t kSlots = std::size_t{1} << 15;
  constexpr std::size_t kTable = 4096;
  static double heap[kHeapCap];
  static std::uint32_t keys[kSlots];
  static double counts[kSlots];
  static double table[kTable];
  const auto t0 = std::chrono::steady_clock::now();
  std::fill(std::begin(keys), std::end(keys), 0u);
  std::fill(std::begin(counts), std::end(counts), 0.0);
  std::size_t n = 0;
  std::uint32_t x = 12345;
  double acc = 0.0;
  for (int it = 0; it < 15000; ++it) {
    x = x * 1664525u + 1013904223u;
    heap[n++] = static_cast<double>(x >> 8) * 1e-6;
    std::push_heap(heap, heap + n);
    if (n > 500) {
      acc += heap[0];
      std::pop_heap(heap, heap + n--);
    }
    const std::uint32_t key = x % 20000 + 1;  // 0 marks an empty slot
    std::size_t slot = (key * 2654435761u) & (kSlots - 1);
    while (keys[slot] != 0 && keys[slot] != key) slot = (slot + 1) & (kSlots - 1);
    keys[slot] = key;
    counts[slot] += 1.0;
    if (it % 8 == 0) acc += counts[slot];
    table[x % kTable] =
        std::sin(acc * 1e-3) + std::exp(-static_cast<double>(x % 100) / 50.0);
    if (it % 64 == 0) {
      for (std::size_t k = 0; k < kTable; k += 8) acc += table[k];
    }
  }
  g_reference_sink = acc;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Reference-kernel samples per run, spread over the drives.  run.py scales
// each seed's drives by the kernel times measured during them.
constexpr std::size_t kReferenceSamples = 60;

int per_drive(std::size_t samples, std::size_t drives) {
  return static_cast<int>((samples + drives - 1) / drives);
}

void run_untraced(const Args& a, const std::vector<DriveSpec>& drives,
                  JsonWriter& w) {
  SetupSampler setup(drives);
  // The base seed's observed drive is followed by its streams-off twin.
  std::vector<DriveSpec> all;
  for (const DriveSpec& d : drives) {
    all.push_back(d);
    if (a.workload == "observed" && d.cfg.seed == a.seed) {
      all.push_back(streams_off(d));
    }
  }
  const int setup_rounds = per_drive(kSetupSamples, all.size());
  const int reference_runs = per_drive(kReferenceSamples, all.size());
  std::vector<std::vector<double>> reference_ms(all.size());

  // Each drive runs once, followed by set-up sample rounds and reference
  // kernel runs, so both sample the whole run.  After each seed the heap
  // the allocator kept goes back to the kernel, so the process peak is the
  // largest single seed's, not fragmentation piled up over seeds.
  std::vector<DriveRecord> records;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < all.size(); ++i) {
    records.push_back(run_measured(all[i]));
    for (int r = 0; r < setup_rounds; ++r) setup.round();
    for (int r = 0; r < reference_runs; ++r) {
      reference_ms[i].push_back(reference_kernel_ms());
    }
    if (i + 1 == all.size() || all[i + 1].cfg.seed != all[i].cfg.seed) {
      malloc_trim(0);
    }
  }
  w.field("measured_s", seconds_since(t0));
  setup.write(w);
  write_drives(w, all, records, &reference_ms);
}

void run_traced(const Args& a, const std::vector<DriveSpec>& drives,
                JsonWriter& w) {
  // Each drive runs once; run.py checks its outputs and host time against
  // the untraced run of the same seed.  The set-up warm-up the untraced run
  // does first comes first here too, so both time warm drives.
  SetupSampler warm_up(drives);
  std::vector<DriveRecord> records;
  for (const DriveSpec& d : drives) records.push_back(run_measured(d));
  write_drives(w, drives, records);

  // Layer spans, shaped like the workload's heaviest drive (most events).
  std::size_t heaviest = 0;
  std::uint64_t most = 0;
  LayerShape shape;
  double mpdus = 0.0;
  std::uint64_t ampdus = 0;
  for (std::size_t i = 0; i < drives.size(); ++i) {
    const DriveRecord& r = records[i];
    const auto ev = r.counters.find("sim.events_dispatched");
    if (ev != r.counters.end() && ev->second > most) {
      most = ev->second;
      heaviest = i;
    }
    if (const auto h = r.hists.find("mac.ampdu_mpdus"); h != r.hists.end()) {
      mpdus += h->second.sum;
      ampdus += h->second.count;
    }
  }
  shape.drive = drives[heaviest];
  const DriveRecord& heavy = records[heaviest];
  if (const auto h = heavy.hists.find("sim.queue_depth"); h != heavy.hists.end()) {
    // Upper bound of the bucket holding the 99th-percentile sample.
    const std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(0.99 * static_cast<double>(h->second.count)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < h->second.buckets.size(); ++b) {
      seen += h->second.buckets[b];
      if (seen >= rank) {
        shape.queue_depth = static_cast<std::size_t>(
            b < h->second.bounds.size() ? h->second.bounds[b] : h->second.max);
        break;
      }
    }
  }
  shape.queue_depth = std::max<std::size_t>(shape.queue_depth, 1);
  shape.mpdus_per_ampdu = ampdus > 0 ? static_cast<std::size_t>(std::lround(
                                           mpdus / static_cast<double>(ampdus)))
                                     : 1;
  shape.mpdus_per_ampdu = std::max<std::size_t>(shape.mpdus_per_ampdu, 1);
  if (const auto h = heavy.hists.find("phy.mcs_index"); h != heavy.hists.end() &&
                                                        h->second.count > 0) {
    shape.mcs_index = static_cast<unsigned>(
        std::lround(h->second.sum / static_cast<double>(h->second.count)));
  }
  w.key("shape").begin_object();
  w.field("drive", shape.drive.label);
  w.field("queue_depth", static_cast<std::uint64_t>(shape.queue_depth));
  w.field("mpdus_per_ampdu", static_cast<std::uint64_t>(shape.mpdus_per_ampdu));
  w.field("mcs_index", shape.mcs_index);
  w.end_object();
  w.key("spans_ns").begin_object();
  for (const auto& [k, v] : measure_layer_spans(shape)) w.field(k, v);
  w.end_object();

  // Observer-cost rows on the workload's probe drive: the observed drive
  // itself, fig13's 15 mph TCP drive, or 4 s of the fleet's TCP drive.
  DriveSpec probe = drives.front();
  for (const DriveSpec& d : drives) {
    if (d.label.ends_with("/tcp/wgtt/15mph")) probe = d;
  }
  const ObserverCosts costs =
      measure_observer_costs(truncated(probe, 4.0), a.scratch, 3);
  w.key("observer").begin_object();
  w.field("probe", costs.probe_label);
  w.field("rounds", costs.rounds);
  w.field("events", costs.events);
  w.key("best_ms").begin_object();
  for (const auto& [k, v] : costs.best_ms) w.field(k, v);
  w.end_object();
  w.key("peak_rss_growth_mb").begin_object();
  for (const auto& [k, v] : costs.peak_rss_growth_mb) w.field(k, v);
  w.end_object();
  w.end_object();
}

int run(int argc, char** argv) {
  Args a;
  std::string why;
  if (!parse(argc, argv, a, why)) return usage(why.c_str());
  // The traced run covers the base seed only; its table is per drive shape,
  // not a seed average.
  const std::vector<DriveSpec> drives = make_workload(
      a.workload,
      a.mode == "untraced" ? workload_seeds(a.workload, a.seed)
                           : std::vector<std::uint64_t>{a.seed},
      a.scratch);

  JsonWriter w;
  w.begin_object();
  w.field("workload", a.workload);
  w.field("seed", a.seed);
  w.field("mode", a.mode);
  if (a.mode == "untraced") {
    run_untraced(a, drives, w);
  } else {
    run_traced(a, drives, w);
  }
  w.field("peak_rss_mb", peak_rss_of_process_mb());
  w.end_object();
  if (!wgtt::write_text_file(a.out, w.str())) {
    std::fprintf(stderr, "wgtt_perfbench: cannot write %s\n", a.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
