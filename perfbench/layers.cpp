#include "layers.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>

#include "core/ap_selector.h"
#include "mac/airtime.h"
#include "mac/ampdu.h"
#include "net/backhaul.h"
#include "net/packet.h"
#include "phy/esnr.h"
#include "phy/mcs.h"
#include "scenario/testbed.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace perfbench {

using wgtt::Time;

namespace {

// Keeps span results observable so the compiler cannot drop the work.
volatile double g_sink = 0.0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median over `batches` runs of `batch` (which performs `calls` calls) of
// the host ns per call.  One untimed batch first warms caches and memos.
double ns_per_call(std::size_t calls, int batches,
                   const std::function<void()>& batch) {
  batch();
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    batch();
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(calls));
  }
  return median(per_call);
}

constexpr int kBatches = 7;

// sim: schedule + dispatch with the workload's p99 pending-event depth.
// Every dispatched event schedules its successor, so the depth holds.
double schedule_run_ns(std::size_t depth) {
  const std::size_t events = 200000;
  return ns_per_call(events, kBatches, [depth, events] {
    wgtt::sim::Scheduler sched;
    wgtt::Rng rng(11);
    std::size_t fired = 0;
    std::function<void()> tick = [&] {
      if (++fired + depth <= events) {
        sched.schedule(Time::us(rng.uniform(1.0, 500.0)), tick);
      }
    };
    for (std::size_t i = 0; i < depth; ++i) {
      sched.schedule(Time::us(rng.uniform(1.0, 500.0)), tick);
    }
    sched.run();
    g_sink = g_sink + static_cast<double>(fired);
  });
}

// The workload's testbed, WGTT overlay (which creates the APs) and clients
// on their drive, for the channel/PHY/core spans.  The scheduler never runs.
struct ShapedBed {
  explicit ShapedBed(const DriveSpec& drive)
      : bed(testbed_config(drive)),
        overlay(bed, drive.cfg.wgtt),
        duration(drive.cfg.duration > Time::zero()
                     ? drive.cfg.duration
                     : bed.transit_duration(drive.cfg.speed_mph)) {
    for (std::size_t i = 0; i < drive.cfg.num_clients; ++i) {
      clients.push_back(overlay.add_client(bed.drive_mobility(
          drive.cfg.speed_mph, 15.0, 0.0, +1,
          drive.cfg.following_gap_m * static_cast<double>(i))));
    }
  }

  static wgtt::scenario::TestbedConfig testbed_config(const DriveSpec& d) {
    wgtt::scenario::TestbedConfig tb = streams_off(d).cfg.testbed;
    tb.seed = d.cfg.seed;
    return tb;
  }

  // Query time of step i: CSI reports arrive every 250 us of simulated time,
  // wrapped over the drive so the geometry sweeps the whole deployment.
  Time at(std::size_t i) const {
    const std::int64_t step = Time::us(250).to_ns();
    return Time::ns((static_cast<std::int64_t>(i) * step) %
                    std::max<std::int64_t>(duration.to_ns(), step));
  }

  wgtt::scenario::Testbed bed;
  wgtt::scenario::WgttNetwork overlay;
  Time duration;
  std::vector<wgtt::net::NodeId> clients;
};

// core: one selection pass (prune + argmax-median) over every client's
// median-ESNR window.  Between passes each AP that hears the client (ESNR
// above 0 dB) reports once per millisecond, outside the timed part.
double selection_pass_ns(ShapedBed& shaped) {
  const auto& aps = shaped.bed.ap_ids();
  const std::size_t steps = 4000;
  const Time step = Time::ms(1);
  // Selection ESNR per (step, client, AP), computed once up front.
  std::vector<double> esnr;
  esnr.reserve(steps * shaped.clients.size() * aps.size());
  for (std::size_t s = 0; s < steps; ++s) {
    for (wgtt::net::NodeId c : shaped.clients) {
      for (wgtt::net::NodeId ap : aps) {
        esnr.push_back(shaped.bed.channel().downlink_selection_esnr_db(
            ap, c, shaped.at(s * 4)));
      }
    }
  }
  std::vector<double> per_pass;
  for (int b = 0; b <= kBatches; ++b) {
    std::vector<wgtt::core::MedianEsnrSelector> selectors(
        shaped.clients.size());
    std::size_t k = 0;
    double acc = 0.0;
    std::int64_t busy = 0;
    for (std::size_t s = 0; s < steps; ++s) {
      const Time t = Time::ns(step.to_ns() * static_cast<std::int64_t>(s));
      for (auto& sel : selectors) {
        for (wgtt::net::NodeId ap : aps) {
          if (esnr[k] > 0.0) sel.add_reading(ap, t, esnr[k]);
          ++k;
        }
      }
      const std::int64_t t0 = now_ns();
      for (auto& sel : selectors) {
        sel.prune(t);
        acc += static_cast<double>(sel.select(t));
      }
      busy += now_ns() - t0;
    }
    g_sink = g_sink + acc;
    // Batch 0 warms up and is not kept.
    if (b > 0) {
      per_pass.push_back(static_cast<double>(busy) /
                         static_cast<double>(steps));
    }
  }
  return median(per_pass);
}

// mac: A-MPDU assembly from a per-peer FIFO refilled with the workload's
// mean aggregate size, at its median MCS.
double ampdu_build_ns(std::size_t mpdus, unsigned mcs_index) {
  const wgtt::mac::AirtimeCalculator airtime;
  const wgtt::mac::AmpduAggregator agg(airtime);
  const wgtt::phy::McsInfo& mcs = wgtt::phy::mcs(mcs_index);
  std::vector<wgtt::net::PacketPtr> pkts;
  for (std::size_t i = 0; i < mpdus; ++i) {
    wgtt::net::Packet p;
    p.size_bytes = 1460;
    p.seq = i;
    pkts.push_back(wgtt::net::make_packet(std::move(p)));
  }
  const std::size_t builds = 100000;
  std::deque<wgtt::mac::Mpdu> queue;
  std::uint16_t seq = 0;
  return ns_per_call(builds, kBatches, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < builds; ++i) {
      for (const auto& pkt : pkts) {
        queue.push_back({pkt, static_cast<std::uint16_t>(seq++ & 0x0FFF), 0});
      }
      while (!queue.empty()) {
        acc += static_cast<double>(
            wgtt::mac::AmpduAggregator::total_bytes(agg.build(queue, mcs)));
      }
    }
    g_sink = g_sink + acc;
  });
}

// net: one data packet's wired hop — allocation from the per-sim pool,
// tunnel encapsulation, backhaul send and delivery through the scheduler.
double packet_hop_ns() {
  const std::size_t frames = 200000;
  return ns_per_call(frames, kBatches, [frames] {
    wgtt::net::PacketUidAllocator uids;
    wgtt::net::ScopedPacketUidAllocator uid_scope(&uids);
    wgtt::net::PacketPool pool;
    wgtt::net::ScopedPacketPool pool_scope(&pool);
    wgtt::sim::Scheduler sched;
    wgtt::net::Backhaul backhaul(sched, {}, wgtt::Rng(5));
    std::uint64_t delivered = 0;
    backhaul.attach(1, [&delivered](const wgtt::net::TunneledPacket& f) {
      delivered += f.inner->size_bytes;
    });
    for (std::size_t i = 0; i < frames; ++i) {
      wgtt::net::Packet p;
      p.size_bytes = 1460;
      p.seq = i;
      backhaul.send(wgtt::net::encapsulate(
          wgtt::net::make_packet(std::move(p)), wgtt::net::kControllerId, 1));
      if (i % 64 == 63) sched.run();
    }
    sched.run();
    g_sink = g_sink + static_cast<double>(delivered);
  });
}

}  // namespace

std::map<std::string, double> measure_layer_spans(const LayerShape& shape) {
  std::map<std::string, double> ns;
  ns["sim.schedule_run_ns"] = schedule_run_ns(shape.queue_depth);

  ShapedBed shaped(shape.drive);
  const auto& aps = shaped.bed.ap_ids();
  const std::size_t steps = 2000;
  const std::size_t csi_calls = steps * shaped.clients.size() * aps.size();
  std::vector<wgtt::phy::Csi> csis;
  ns["channel.csi_ns"] = ns_per_call(csi_calls, kBatches, [&] {
    csis.clear();
    for (std::size_t s = 0; s < steps; ++s) {
      for (wgtt::net::NodeId c : shaped.clients) {
        for (wgtt::net::NodeId ap : aps) {
          csis.push_back(
              shaped.bed.channel().downlink_csi(ap, c, shaped.at(s)));
        }
      }
    }
  });
  const wgtt::phy::Modulation mod =
      wgtt::phy::mcs(shape.mcs_index).modulation;
  ns["phy.esnr_ns"] = ns_per_call(csis.size(), kBatches, [&] {
    double acc = 0.0;
    for (const auto& csi : csis) acc += wgtt::phy::effective_snr_db(csi, mod);
    g_sink = g_sink + acc;
  });
  ns["core.selection_ns"] = selection_pass_ns(shaped);
  ns["mac.ampdu_build_ns"] =
      ampdu_build_ns(shape.mpdus_per_ampdu, shape.mcs_index);
  ns["net.packet_ns"] = packet_hop_ns();
  return ns;
}

const std::vector<std::string>& stream_names() {
  static const std::vector<std::string> names = {
      "trace", "decisions", "packets", "causal", "health", "telemetry"};
  return names;
}

namespace {

double status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

// Current and peak resident set size of this process (MB).
double rss_mb() { return status_mb("VmRSS"); }
double peak_rss_mb() { return status_mb("VmHWM"); }

// Returns freed heap to the kernel and restarts the peak-RSS high-water mark
// at the current RSS; false when the kernel does not allow the restart.
bool reset_peak_rss() {
  // Hand memory freed by earlier drives back to the kernel first, so the
  // next peak counts what the next drive holds, not leftover heap.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

DriveSpec with_stream(const DriveSpec& off, const std::string& stream,
                      const std::string& scratch_dir) {
  DriveSpec s = off;
  s.label += "/+" + stream;
  wgtt::scenario::TestbedConfig& tb = s.cfg.testbed;
  if (stream == "trace") tb.trace_path = scratch_dir + "/probe_trace.json";
  if (stream == "decisions") tb.enable_decision_log = true;
  if (stream == "packets") {
    tb.enable_packet_log = true;
    tb.packet_sample = 1;
  }
  if (stream == "causal") {
    tb.enable_causal = true;
    tb.causal_sample = 1;
  }
  if (stream == "health") tb.enable_health = true;
  if (stream == "telemetry") tb.enable_telemetry = true;
  return s;
}

}  // namespace

ObserverCosts measure_observer_costs(const DriveSpec& probe,
                                     const std::string& scratch_dir,
                                     int rounds) {
  const DriveSpec off = streams_off(probe);
  std::vector<std::pair<std::string, DriveSpec>> rows;
  rows.emplace_back("off", off);
  DriveSpec all = off;
  for (const std::string& s : stream_names()) {
    rows.emplace_back(s, with_stream(off, s, scratch_dir));
    all = with_stream(all, s, scratch_dir);
  }
  rows.emplace_back("all", all);
  DriveSpec bare = off;
  bare.cfg.testbed.enable_profiler = false;
  bare.cfg.testbed.enable_metrics = false;
  rows.emplace_back("always_on_off", bare);

  ObserverCosts out;
  out.probe_label = probe.label;
  out.rounds = rounds;
  std::map<std::string, std::vector<double>> ms;
  // Round-robin so slow phases of a shared host spread over every row.
  for (int r = 0; r < rounds; ++r) {
    for (const auto& [name, spec] : rows) {
      const bool reset = reset_peak_rss();
      const double base = rss_mb();
      const DriveRecord rec = run_measured(spec);
      if (reset) {
        out.peak_rss_growth_mb[name] =
            std::max(out.peak_rss_growth_mb[name], peak_rss_mb() - base);
      }
      ms[name].push_back(static_cast<double>(rec.host_ns) / 1e6);
      if (const auto ev = rec.counters.find("sim.events_dispatched");
          name == "off" && ev != rec.counters.end()) {
        out.events = ev->second;
      }
    }
  }
  for (const auto& [name, v] : ms) {
    out.best_ms[name] = *std::min_element(v.begin(), v.end());
  }
  return out;
}

}  // namespace perfbench
