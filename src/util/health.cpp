#include "util/health.h"

#include <cstdio>

#include "util/jsonl.h"

#ifdef __linux__
#include <unistd.h>
#endif

namespace wgtt::obs {

namespace {

/// Resident set size in KiB from /proc/self/statm, or -1 off Linux.
std::int64_t read_rss_kb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long long vm_pages = 0, rss_pages = 0;
  const int n = std::fscanf(f, "%lld %lld", &vm_pages, &rss_pages);
  std::fclose(f);
  if (n != 2) return -1;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<std::int64_t>(rss_pages) * page / 1024;
#else
  return -1;
#endif
}

}  // namespace

HealthEngine::HealthEngine(HealthConfig cfg,
                           metrics::MetricsRegistry* metrics)
    : cfg_(cfg), metrics_(metrics) {
  if (cfg_.ring_capacity == 0) cfg_.ring_capacity = 1;
  out_.reserve(1 << 14);
  JsonlLine(out_)
      .raw("{\"kind\":\"schema\",\"stream\":\"wgtt.health\",\"version\":")
      .num(cfg_.fault_aware ? kHealthSchemaVersionFaultAware
                            : kHealthSchemaVersion)
      .raw("}\n");
}

void HealthEngine::client_stranded(std::uint32_t client, bool stranded,
                                   Time t) {
  if (!cfg_.fault_aware) return;
  auto it = open_outages_.find(client);
  if (stranded) {
    if (it == open_outages_.end()) open_outages_.emplace(client, t);
    return;
  }
  if (it == open_outages_.end()) return;
  append_outage({client, it->second, t, false});
  open_outages_.erase(it);
}

void HealthEngine::fault_mark(Time t, const char* kind, std::uint32_t node,
                              bool active) {
  if (!cfg_.fault_aware) return;
  JsonlLine(out_)
      .raw("{\"kind\":\"fault\",\"t_us\":").ts(t)
      .raw(",\"fault\":\"").escaped(kind)
      .raw("\",\"node\":").num(node)
      .raw(",\"active\":").boolean(active)
      .raw("}\n");
  if (!active) last_fault_clear_ = t;
}

void HealthEngine::add_gauge(std::string name, std::function<double()> probe,
                             double ceiling) {
  gauges_.push_back({std::move(name), std::move(probe), ceiling});
}

void HealthEngine::append_outage(const OutageRecord& rec) {
  JsonlLine(out_)
      .raw("{\"kind\":\"outage\",\"client\":").num(rec.client)
      .raw(",\"begin_us\":").ts(rec.begin)
      .raw(",\"end_us\":").ts(rec.end)
      .raw(rec.open ? ",\"open\":true}\n" : ",\"open\":false}\n");
  outages_.push_back(rec);
}

void HealthEngine::append_window_line(const HealthWindow& w) {
  JsonlLine line(out_);
  line.raw("{\"kind\":\"window\",\"t_us\":").ts(w.t)
      .raw(",\"sent\":").num(w.sent)
      .raw(",\"copies\":").num(w.copies)
      .raw(",\"delivered\":").num(w.delivered)
      .raw(",\"retired\":").num(w.retired)
      .raw(",\"dropped\":").num(w.dropped)
      .raw(",\"in_flight\":").num(w.in_flight)
      .raw(",\"gauges\":{");
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    line.raw(i > 0 ? ",\"" : "\"").escaped(gauges_[i].name).raw("\":")
        .fixed3(w.gauges[i]);
  }
  line.raw("}");
  if (w.rss_kb >= 0) line.raw(",\"rss_kb\":").num(w.rss_kb);
  line.raw("}\n");
}

void HealthEngine::violate(std::string watchdog, std::string severity, Time t,
                           double value, double limit, std::string detail) {
  JsonlLine(out_)
      .raw("{\"kind\":\"violation\",\"t_us\":").ts(t)
      .raw(",\"watchdog\":\"").escaped(watchdog)
      .raw("\",\"severity\":\"").escaped(severity)
      .raw("\",\"value\":").fixed3(value)
      .raw(",\"limit\":").fixed3(limit)
      .raw(",\"detail\":\"").escaped(detail)
      .raw("\"}\n");
  violations_.push_back({std::move(watchdog), std::move(severity), t, value,
                         limit, std::move(detail)});
}

void HealthEngine::run_watchdogs(const HealthWindow& w) {
  // 1. Packet conservation: every instance that came into existence must be
  // accounted for; a negative balance means double-termination.
  ++checks_;
  if (w.in_flight < 0) {
    violate("packet_conservation", "error", w.t,
            static_cast<double>(w.in_flight), 0.0,
            "ledger in_flight went negative (double-terminated instances)");
  }
  // 2. In-flight ceiling: monotone in_flight growth is the signature of a
  // drop site missing its ledger mirror (a packet leak).
  if (cfg_.max_in_flight > 0) {
    ++checks_;
    if (w.in_flight > static_cast<std::int64_t>(cfg_.max_in_flight)) {
      violate("in_flight_ceiling", "error", w.t,
              static_cast<double>(w.in_flight),
              static_cast<double>(cfg_.max_in_flight),
              "in-flight instances exceed the configured ceiling "
              "(unterminated packets are accumulating)");
    }
  }
  // 3. Bounded gauges: any registered gauge with a ceiling must stay under
  // it (queue depths, pool census, log cardinality).
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (gauges_[i].ceiling <= 0.0) continue;
    ++checks_;
    if (w.gauges[i] > gauges_[i].ceiling) {
      violate("bounded_gauge", "warn", w.t, w.gauges[i], gauges_[i].ceiling,
              "gauge " + gauges_[i].name + " above its ceiling");
    }
  }
  // 4 + 5. Metrics-registry invariants: counters are monotone by contract
  // (saturating, never decreasing), and the controller's liveness FSM never
  // reacts (failover / quarantine) more often than it suspects.
  if (metrics_ != nullptr) {
    std::uint64_t suspects = 0, failovers = 0, quarantines = 0;
    const metrics::Snapshot snap = metrics_->snapshot();
    for (const auto& [name, value] : snap.counters) {
      ++checks_;
      auto it = prev_counters_.find(name);
      if (it != prev_counters_.end() && value < it->second) {
        violate("monotone_counters", "error", w.t,
                static_cast<double>(value), static_cast<double>(it->second),
                "counter " + name + " decreased between windows");
      }
      prev_counters_[name] = value;
      if (name == "controller.liveness.suspects") suspects = value;
      if (name == "controller.liveness.failovers") failovers = value;
      if (name == "controller.liveness.quarantines") quarantines = value;
    }
    ++checks_;
    if (failovers > suspects || quarantines > suspects) {
      violate("liveness_fsm", "error", w.t,
              static_cast<double>(failovers > suspects ? failovers
                                                       : quarantines),
              static_cast<double>(suspects),
              "liveness reactions outnumber suspect events");
    }
  }
}

void HealthEngine::on_window_close(Time t) {
  HealthWindow w;
  w.t = t;
  w.sent = sent_;
  w.copies = copies_;
  w.delivered = delivered_;
  w.retired = retired_;
  w.dropped = dropped_;
  w.in_flight = in_flight();
  w.gauges.reserve(gauges_.size());
  for (const GaugeSlot& g : gauges_) w.gauges.push_back(g.probe());
  if (cfg_.sample_host_rss) w.rss_kb = read_rss_kb();

  append_window_line(w);
  run_watchdogs(w);

  if (ring_.size() < cfg_.ring_capacity) {
    ring_.push_back(std::move(w));
  } else {
    ring_[ring_next_ % cfg_.ring_capacity] = std::move(w);
  }
  ++ring_next_;
  ++windows_closed_;
}

void HealthEngine::finalize(Time t) {
  if (finalized_) return;
  finalized_ = true;
  // Flush still-open outages: a client stranded at teardown is exactly what
  // the convergence gate must see, so each one becomes an open=true record.
  for (const auto& [client, begin] : open_outages_) {
    append_outage({client, begin, t, true});
  }
  const std::size_t unconverged = open_outages_.size();
  open_outages_.clear();
  JsonlLine line(out_);
  line.raw("{\"kind\":\"summary\",\"t_us\":").ts(t)
      .raw(",\"windows\":").num(windows_closed_)
      .raw(",\"checks\":").num(checks_)
      .raw(",\"violations\":").num(violations_.size())
      .raw(",\"sent\":").num(sent_)
      .raw(",\"copies\":").num(copies_)
      .raw(",\"delivered\":").num(delivered_)
      .raw(",\"retired\":").num(retired_)
      .raw(",\"dropped\":").num(dropped_)
      .raw(",\"in_flight\":").num(in_flight());
  if (cfg_.fault_aware) {
    line.raw(",\"outages\":").num(outages_.size())
        .raw(",\"unconverged\":").num(unconverged);
  }
  line.raw("}\n");
}

std::vector<HealthWindow> HealthEngine::windows() const {
  std::vector<HealthWindow> out;
  const std::size_t n = ring_.size();
  out.reserve(n);
  // Oldest first: once the ring has wrapped, ring_next_ points past the
  // newest entry, so the oldest lives at ring_next_ % capacity.
  const std::size_t start = ring_next_ >= n ? ring_next_ - n : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % cfg_.ring_capacity]);
  }
  return out;
}

}  // namespace wgtt::obs
