// Workload definitions and per-drive measurement for the wgtt benchmark.
//
// A workload is a fixed list of drive configurations generated from the
// benchmark seed.  Each drive runs through the public scenario::run_drive
// entry point; this header also reduces a DriveResult to the deterministic
// fingerprint and the per-layer counts the benchmark reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/experiment.h"

namespace perfbench {

struct DriveSpec {
  std::string label;  // "<seed>/<drive>"
  wgtt::scenario::DriveScenarioConfig cfg;
};

/// Names accepted by --workload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// The simulator seeds one untraced run of `workload` covers: `seed` itself
/// first, then seeds derived from it.  A single seed's goodput and TCP
/// timeouts swing by 10-35 % from seed to seed (the seed draws the
/// shadowing map every drive of it shares), so a run averages several.
std::vector<std::uint64_t> workload_seeds(const std::string& workload,
                                          std::uint64_t seed);

/// The drive list of `workload` at each of `seeds`, seed-major, or an empty
/// list for an unknown name.  `scratch_dir` receives the files a drive must
/// write (the Chrome trace, which the Testbed only writes to disk).
std::vector<DriveSpec> make_workload(const std::string& workload,
                                     const std::vector<std::uint64_t>& seeds,
                                     const std::string& scratch_dir);

/// `spec` with every observability stream switched off and nothing written
/// to disk: the observed drive's streams-off twin.
DriveSpec streams_off(const DriveSpec& spec);

/// `spec` with a fixed duration cut to at most `max_sim_s` simulated seconds
/// (the probe drive of the observer-cost rows).  Transits stay whole.
DriveSpec truncated(const DriveSpec& spec, double max_sim_s);

/// Histogram as it left the drive: bucket bounds, counts and sum.
struct Hist {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct Section {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

/// Everything the benchmark keeps of one drive run.
struct DriveRecord {
  bool ok = false;
  std::string error;
  std::int64_t host_ns = 0;
  /// Simulated seconds the drive covered (app start included).
  double sim_s = 0.0;
  /// SHA-256 over the simulated outputs the checks compare: per-client
  /// goodput, UDP loss, TCP stats and handovers, plus the whole switch log.
  std::string fingerprint;
  std::vector<double> goodput_mbps;
  std::vector<double> switch_latencies_ms;
  std::uint64_t tcp_retx = 0;
  std::uint64_t tcp_timeouts = 0;
  std::uint64_t handovers = 0;
  std::uint64_t failed_handovers = 0;
  double medium_utilization = 0.0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Hist> hists;
  std::map<std::string, Section> profile;
  std::int64_t profile_total_ns = 0;
  /// Observability output of the drive: records and bytes per stream.
  std::map<std::string, std::uint64_t> stream_records;
  std::map<std::string, std::uint64_t> stream_bytes;
  std::uint64_t health_errors = 0;
};

/// Runs one drive, timing run_drive with the host's steady clock.  A throw
/// is caught and recorded as a failed drive.
DriveRecord run_measured(const DriveSpec& spec);

}  // namespace perfbench
