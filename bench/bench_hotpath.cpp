// Hot-path microbenchmarks.
//
// Times the primitives the fig13 acceleration campaign optimized — the
// fading response, the ESNR kernel, the full CSI/selection stack, A-MPDU
// assembly, packet allocation, and scheduler churn — plus the per-packet
// AP/controller primitives (cyclic queue, uplink de-duplication, Minstrel
// rate control) and the observability streams' per-record append cost,
// each in isolation, and leaves a BENCH_hotpath.json behind in the same
// report schema the sweep benches use.  CI diffs it
// against bench/baselines/hotpath.json with a hard `--budget-ms` ceiling,
// so a reverted optimization (or an accidentally quadratic "improvement")
// fails the perf gate even though every correctness test still passes.
//
// Timing protocol: each kernel runs a fixed-iteration batch `reps` times
// and reports the MINIMUM batch wall time.  Best-of-N is deliberately the
// statistic of record: noise on a shared CI box only ever inflates a
// batch, so the minimum tracks the true cost of the code and the hard
// budget can sit close above it without flaking.
#include <algorithm>
#include <array>
#include <chrono>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "channel/antenna.h"
#include "channel/channel_model.h"
#include "channel/fading.h"
#include "channel/mobility.h"
#include "core/cyclic_queue.h"
#include "core/dedup.h"
#include "mac/airtime.h"
#include "mac/ampdu.h"
#include "net/flight_recorder.h"
#include "net/packet.h"
#include "phy/esnr.h"
#include "phy/mcs.h"
#include "phy/rate_control.h"
#include "sim/context.h"
#include "sim/scheduler.h"
#include "util/causal.h"
#include "util/json.h"
#include "util/rng.h"

namespace wgtt::bench {
namespace {

// Defeats dead-code elimination; printed at the end so the compiler must
// materialize every kernel's result.
double g_sink = 0.0;

double run_batch_ms(const std::function<void()>& batch) {
  const auto t0 = std::chrono::steady_clock::now();
  batch();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct Row {
  std::string label;
  std::size_t iters = 0;
  double wall_ms = 0.0;  // best-of-reps batch time
};

Row time_kernel(const std::string& label, std::size_t iters, int reps,
                const std::function<void()>& batch) {
  double best = run_batch_ms(batch);
  for (int r = 1; r < reps; ++r) best = std::min(best, run_batch_ms(batch));
  std::printf("  %-24s %9zu iters   %9.2f ms   %8.1f ns/iter\n", label.c_str(),
              iters, best, best * 1e6 / static_cast<double>(iters));
  std::fflush(stdout);
  return {label, iters, best};
}

// --- Kernels -------------------------------------------------------------

// Per-subcarrier fading response over the production HT20 grid: the
// shared-twiddle-table SoA sum-of-sinusoids path (campaign item 1).
Row bench_fading_response(int reps) {
  const channel::FadingConfig cfg;  // production street-canyon profile
  const channel::FadingProcess fp(cfg, Rng(42));
  const auto grid = channel::ht20_subcarrier_offsets_hz();
  std::vector<std::complex<double>> h(grid.size());
  const std::size_t iters = 80000;
  return time_kernel("fading/response", iters, reps, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      fp.response(0.005 * static_cast<double>(i), grid, h);
      acc += h[0].real() + h[grid.size() - 1].imag();
    }
    g_sink += acc;
  });
}

// ESNR over a bare 56-subcarrier SNR array: the vectorized erfc/exp10
// kernel (the inner loop of every selection decision).
Row bench_esnr(int reps) {
  std::vector<std::array<double, phy::kNumSubcarriers>> spans(64);
  Rng rng(7);
  for (auto& s : spans)
    for (double& v : s) v = rng.uniform(-5.0, 35.0);
  const std::size_t iters = 100000;
  return time_kernel("phy/esnr", iters, reps, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      const auto& s = spans[i % spans.size()];
      acc += phy::effective_snr_db(s, phy::Modulation::kQam16);
    }
    g_sink += acc;
  });
}

// Full selection-ESNR stack for a moving client — geometry, shadowing,
// fading refresh, ESNR — via the lazy-CSI entry point (campaign item 2).
// Time advances every query so the per-link memos cannot absorb the work.
Row bench_selection_stack(int reps) {
  channel::ChannelModel model({}, {}, {}, {}, Rng(3));
  for (int i = 0; i < 8; ++i) {
    channel::ApSite site;
    site.id = static_cast<net::NodeId>(i + 1);
    site.position = {30.0 * i, 0.0, 6.0};
    site.boresight = {0.0, 1.0, 0.0};
    site.antenna = std::make_shared<channel::OmniAntenna>(8.0);
    model.add_ap(site);
  }
  const net::NodeId client = 100;
  model.add_client(client, std::make_shared<channel::LinearMobility>(
                               channel::Vec3{0.0, 12.0, 1.5},
                               channel::Vec3{11.0, 0.0, 0.0}));
  const auto& aps = model.ap_ids();
  const std::size_t iters = 30000;
  return time_kernel("channel/selection_esnr", iters, reps, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      const Time t = Time::us(static_cast<double>(i % 2000000) * 0.5);
      acc += model.downlink_selection_esnr_db(aps[i % aps.size()], client, t);
    }
    g_sink += acc;
  });
}

// A-MPDU assembly: refill a 64-deep per-peer FIFO and build the aggregate
// under the duration / frame-count / block-ACK-window caps.
Row bench_ampdu_build(int reps) {
  const mac::AirtimeCalculator airtime;
  const mac::AmpduAggregator agg(airtime);
  const phy::McsInfo mcs = phy::mcs_table()[5];
  std::vector<net::PacketPtr> pkts;
  for (int i = 0; i < 64; ++i) {
    net::Packet p;
    p.size_bytes = 1460;
    p.seq = static_cast<std::uint64_t>(i);
    pkts.push_back(net::make_packet(std::move(p)));
  }
  std::deque<mac::Mpdu> queue;
  const std::size_t iters = 200000;
  std::uint16_t seq = 0;
  return time_kernel("mac/ampdu_build", iters, reps, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      if (queue.empty()) {
        for (const auto& pkt : pkts)
          queue.push_back({pkt, static_cast<std::uint16_t>(seq++ & 0x0FFF), 0});
      }
      const auto aggregate = agg.build(queue, mcs);
      acc += static_cast<double>(
          mac::AmpduAggregator::total_bytes(aggregate));
    }
    g_sink += acc;
  });
}

// Packet allocate/release churn through the per-sim freelist pool
// (campaign item 3): the lifecycle every forwarded frame pays.
Row bench_packet_churn(int reps) {
  net::PacketUidAllocator uids;
  net::PacketPool pool;
  sim::ScopedContext scope(
      sim::Context{.uid_allocator = &uids, .packet_pool = &pool});
  const std::size_t iters = 2000000;
  Row row = time_kernel("net/packet_churn", iters, reps, [&] {
    double acc = 0.0;
    net::PacketPtr window[8];
    for (std::size_t i = 0; i < iters; ++i) {
      net::Packet p;
      p.size_bytes = 1460;
      p.seq = i;
      window[i % 8] = net::make_packet(std::move(p));
      acc += static_cast<double>(window[i % 8]->uid & 1);
    }
    g_sink += acc;
  });
  std::printf("  %-24s pool reused %zu / fresh %zu\n", "", pool.reused(),
              pool.fresh());
  return row;
}

// Scheduler churn: push a pseudo-random burst of timers, drain it, repeat
// — the event-queue cost under the MAC's batched delivery pattern
// (campaign item 4).
Row bench_scheduler_churn(int reps) {
  const std::size_t iters = 200000;  // total events pushed+popped per batch
  return time_kernel("sim/scheduler_churn", iters, reps, [&] {
    sim::Scheduler sched;
    Rng rng(11);
    std::uint64_t fired = 0;
    constexpr std::size_t kBurst = 1000;
    for (std::size_t done = 0; done < iters; done += kBurst) {
      for (std::size_t i = 0; i < kBurst; ++i) {
        sched.schedule(Time::us(rng.uniform(0.0, 500.0)), [&] { ++fired; });
      }
      sched.run();
    }
    g_sink += static_cast<double>(fired);
  });
}

// Per-client cyclic queue: insert at the next 12-bit index and pop it
// straight back — the AP's per-packet enqueue/dequeue (paper §3.1.3).
Row bench_cyclic_queue(int reps) {
  core::CyclicQueue queue;
  net::Packet p;
  p.size_bytes = 1500;
  const net::PacketPtr pkt = net::make_packet(std::move(p));
  const std::size_t iters = 4000000;
  std::uint32_t index = 0;
  return time_kernel("core/cyclic_queue", iters, reps, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      queue.insert(index++ & 0xFFF, pkt);
      if (auto popped = queue.pop()) acc += popped->first & 1;
    }
    g_sink += acc;
  });
}

// Uplink de-duplication on (src, IP-ID) at one packet per 10 us: the
// controller's per-uplink-copy lookup (paper §3.2.2).  IP-IDs wrap inside
// the 2 s window, so the stream mixes first sightings and duplicates.
Row bench_dedup_lookup(int reps) {
  core::Deduplicator dedup;
  net::Packet p;
  p.type = net::PacketType::kData;
  p.src = net::kClientBase;
  const std::size_t iters = 2000000;
  std::uint16_t ip_id = 0;
  Time now = Time::zero();
  return time_kernel("core/dedup_lookup", iters, reps, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      p.ip_id = ip_id++;
      now += Time::us(10);
      acc += dedup.is_duplicate(p, now) ? 1.0 : 0.0;
    }
    g_sink += acc;
  });
}

// Minstrel rate control: one select + one A-MPDU outcome report per 2 ms,
// the per-transmission cost every radio pays.
Row bench_minstrel(int reps) {
  phy::MinstrelRateControl rc;
  Time now = Time::zero();
  const std::size_t iters = 800000;
  return time_kernel("phy/minstrel", iters, reps, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      now += Time::ms(2);
      const phy::McsInfo& mcs = rc.select(now);
      rc.report(mcs, 32, 30, now);
      acc += mcs.index;
    }
    g_sink += acc;
  });
}

// Stream emission: one flight-recorder hop record (uid, timestamp, node and
// three integer args) appended to the packets document, the per-hop cost of
// `--packets`.  A fresh recorder per batch keeps the document's growth in
// the measured cost without carrying it from one batch to the next.
Row bench_packet_record(int reps) {
  const std::size_t iters = 200000;
  return time_kernel("obs/packet_record", iters, reps, [&] {
    net::FlightRecorder fr;
    for (std::size_t i = 0; i < iters; ++i) {
      const auto n = static_cast<std::int64_t>(i);
      fr.record(i + 1, Time::ns(n * 1237), net::Hop::kMacTx, 7,
                {{"ap", 3}, {"seq", n & 0xFFF}, {"mcs", n % 8}});
    }
    g_sink += static_cast<double>(fr.jsonl().size());
  });
}

// Stream emission: one scheduler provenance edge appended to the causal
// document, which `--causal` pays on every schedule().
Row bench_causal_edge(int reps) {
  const std::size_t iters = 300000;
  return time_kernel("obs/causal_edge", iters, reps, [&] {
    obs::CausalTracer causal;
    for (std::size_t i = 0; i < iters; ++i) {
      causal.edge(i + 2, i + 1 - i % 3,
                  Time::ns(static_cast<std::int64_t>(i) * 811));
    }
    g_sink += static_cast<double>(causal.jsonl().size());
  });
}

// --- Report --------------------------------------------------------------

void write_report(const std::string& path, const std::vector<Row>& rows) {
  JsonWriter w;
  w.begin_object();
  w.field("bench", "hotpath");
  w.field("title", "hot-path microbenchmarks (best-of-reps batch times)");
  w.field("jobs", 1);
  double total = 0.0;
  for (const Row& r : rows) total += r.wall_ms;
  w.field("wall_ms", total);
  w.key("runs").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.field("label", r.label);
    w.field("policy", "microbench");
    w.field("wall_ms", r.wall_ms);
    w.field("goodput_mbps", 0.0);
    w.field("switches", 0);
    w.key("metrics").begin_object();
    w.field("iters", static_cast<double>(r.iters));
    w.field("ns_per_iter", r.wall_ms * 1e6 / static_cast<double>(r.iters));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  if (!write_text_file(path, w.str())) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("report: %s (%zu rows, %.2f ms best-of total)\n", path.c_str(),
              rows.size(), total);
}

int run(int argc, char** argv) {
  bool force = false;
  int reps = 5;
  std::string out = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--force") {
      force = true;
    } else if ((arg == "-o" || arg == "--out") && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpath [--reps N] [-o PATH] [--force]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  header("hotpath", "hot-path microbenchmarks");
  note("best-of-" + std::to_string(reps) +
       " batch times; CI gates rows with wgtt-report diff --budget-ms");
  const std::string path = claim_output_path(out, force, "report");

  std::vector<Row> rows;
  rows.push_back(bench_fading_response(reps));
  rows.push_back(bench_esnr(reps));
  rows.push_back(bench_selection_stack(reps));
  rows.push_back(bench_ampdu_build(reps));
  rows.push_back(bench_packet_churn(reps));
  rows.push_back(bench_scheduler_churn(reps));
  rows.push_back(bench_cyclic_queue(reps));
  rows.push_back(bench_dedup_lookup(reps));
  rows.push_back(bench_minstrel(reps));
  rows.push_back(bench_packet_record(reps));
  rows.push_back(bench_causal_edge(reps));
  write_report(path, rows);
  std::printf("(sink %.3g)\n", g_sink);
  return 0;
}

}  // namespace
}  // namespace wgtt::bench

int main(int argc, char** argv) { return wgtt::bench::run(argc, argv); }
