// The traced run's own spans: host time per call into one layer's public
// function, fed inputs shaped like the workload, and the observer-cost rows
// that time each observability stream on against off.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// Workload properties the spans copy into their inputs.
struct LayerShape {
  /// A drive of the workload whose testbed, mobility and client count the
  /// channel/PHY/core spans reproduce.
  DriveSpec drive;
  std::size_t queue_depth = 1;      // scheduler pending events (p99)
  std::size_t mpdus_per_ampdu = 1;  // mean A-MPDU size
  unsigned mcs_index = 0;           // mean MCS index, rounded
};

/// Median ns per call of each span, keyed by per-layer metric name:
/// sim.schedule_run_ns, channel.csi_ns, phy.esnr_ns, mac.ampdu_build_ns,
/// core.selection_ns, net.packet_ns.
std::map<std::string, double> measure_layer_spans(const LayerShape& shape);

/// Observer-cost rows over one probe drive: the best host time over
/// `rounds` interleaved rounds of the drive with all streams off, with each
/// stream alone on, with all of them on, and with the always-on profiler
/// and metrics off too.  Best-of, because load from other tenants only ever
/// adds time, and the rows are differences of a few percent.
struct ObserverCosts {
  std::string probe_label;
  int rounds = 0;
  std::uint64_t events = 0;  // events dispatched with every stream off
  std::map<std::string, double> best_ms;
  /// Peak RSS growth during one drive (MB), by configuration.
  std::map<std::string, double> peak_rss_growth_mb;
};

/// Streams timed one at a time, in report order.
const std::vector<std::string>& stream_names();

ObserverCosts measure_observer_costs(const DriveSpec& probe,
                                     const std::string& scratch_dir,
                                     int rounds);

}  // namespace perfbench
