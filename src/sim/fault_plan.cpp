#include "sim/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/rng.h"

namespace wgtt::sim {
namespace {

bool fail(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

/// "250ms" / "80us" / "1.5s" -> Time.  The suffix is mandatory so specs
/// never silently mean the wrong unit.
bool parse_time(std::string_view v, Time& out) {
  double num = 0.0;
  std::size_t used = 0;
  try {
    num = std::stod(std::string(v), &used);
  } catch (...) {
    return false;
  }
  const std::string_view suffix = v.substr(used);
  if (suffix == "us") out = Time::us(num);
  else if (suffix == "ms") out = Time::ms(num);
  else if (suffix == "s") out = Time::sec(num);
  else return false;
  return true;
}

bool parse_kind(std::string_view v, FaultKind& out) {
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const auto k = static_cast<FaultKind>(i);
    if (v == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kApCrash: return "ap_crash";
    case FaultKind::kLinkDrop: return "link_drop";
    case FaultKind::kLinkLatency: return "link_latency";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kCsiFreeze: return "csi_freeze";
    case FaultKind::kCsiGarbage: return "csi_garbage";
    case FaultKind::kMsgDup: return "msg_dup";
    case FaultKind::kMsgReorder: return "msg_reorder";
    case FaultKind::kCtrlCrash: return "ctrl_crash";
  }
  return "?";
}

bool FaultPlan::parse(std::string_view spec, FaultPlan& out,
                      std::string* error) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;

    const std::size_t colon = clause.find(':');
    if (colon == std::string_view::npos)
      return fail(error, "missing ':' in clause '" + std::string(clause) + "'");
    FaultEvent ev;
    if (!parse_kind(clause.substr(0, colon), ev.kind))
      return fail(error, "unknown fault kind '" +
                             std::string(clause.substr(0, colon)) + "'");

    bool have_at = false, have_node = false, have_rate = false;
    std::size_t kpos = colon + 1;
    while (kpos < clause.size()) {
      std::size_t kend = clause.find(',', kpos);
      if (kend == std::string_view::npos) kend = clause.size();
      const std::string_view kv = clause.substr(kpos, kend - kpos);
      kpos = kend + 1;
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos)
        return fail(error, "missing '=' in '" + std::string(kv) + "'");
      const std::string_view key = kv.substr(0, eq);
      const std::string_view val = kv.substr(eq + 1);
      if (key == "ap" || key == "src") {
        ev.node = static_cast<std::uint32_t>(std::atoll(std::string(val).c_str()));
        have_node = true;
      } else if (key == "dst") {
        ev.peer = static_cast<std::uint32_t>(std::atoll(std::string(val).c_str()));
      } else if (key == "at") {
        if (!parse_time(val, ev.at))
          return fail(error, "bad time '" + std::string(val) + "' (use us/ms/s)");
        have_at = true;
      } else if (key == "for") {
        if (!parse_time(val, ev.duration))
          return fail(error, "bad time '" + std::string(val) + "' (use us/ms/s)");
      } else if (key == "rate") {
        ev.rate = std::atof(std::string(val).c_str());
        if (!(ev.rate >= 0.0 && ev.rate <= 1.0))
          return fail(error, "rate must be in [0, 1]");
        have_rate = true;
      } else if (key == "extra") {
        if (!parse_time(val, ev.extra))
          return fail(error, "bad time '" + std::string(val) + "' (use us/ms/s)");
      } else {
        return fail(error, "unknown key '" + std::string(key) + "'");
      }
    }
    // ctrl_crash always targets the controller (node 0), so its node id is
    // optional; every other kind must name the faulted AP / link endpoint.
    if (!have_node && ev.kind != FaultKind::kCtrlCrash)
      return fail(error, std::string(to_string(ev.kind)) +
                             ": missing ap=/src= node id");
    if (!have_at)
      return fail(error, std::string(to_string(ev.kind)) + ": missing at=");
    if (ev.kind == FaultKind::kLinkDrop && ev.rate <= 0.0)
      return fail(error, "link_drop: missing rate=");
    if (ev.kind == FaultKind::kLinkLatency && ev.extra <= Time::zero())
      return fail(error, "link_latency: missing extra=");
    // Unlike link_drop (where the 1.0 default means blackout), a dup or
    // reorder burst has no meaningful default probability: require rate=.
    if (ev.kind == FaultKind::kMsgDup && (!have_rate || ev.rate <= 0.0))
      return fail(error, "msg_dup: missing rate=");
    if (ev.kind == FaultKind::kMsgReorder && (!have_rate || ev.rate <= 0.0))
      return fail(error, "msg_reorder: missing rate=");
    if (ev.kind == FaultKind::kMsgReorder && ev.extra <= Time::zero())
      return fail(error, "msg_reorder: missing extra= (jitter bound)");
    plan.events.push_back(ev);
  }
  out = std::move(plan);
  return true;
}

FaultPlan FaultPlan::chaos(double intensity, Time horizon,
                           std::uint32_t n_aps, std::uint64_t seed) {
  FaultPlan plan;
  if (intensity <= 0.0 || horizon <= Time::zero() || n_aps == 0) return plan;
  Rng rng = Rng(seed).fork("chaos");
  const double horizon_s = horizon.to_sec();
  const auto n = static_cast<std::size_t>(std::llround(intensity * horizon_s));
  const Time lo = horizon * 0.15;
  const Time hi = horizon * 0.85;
  for (std::size_t i = 0; i < n; ++i) {
    FaultEvent ev;
    ev.kind = static_cast<FaultKind>(rng.uniform_int(
        0, static_cast<std::int64_t>(kClassicChaosKindCount) - 1));
    ev.node = static_cast<std::uint32_t>(rng.uniform_int(1, n_aps));
    ev.peer = 0;  // link faults hit the AP <-> controller leg
    ev.at = Time::ns(rng.uniform_int(lo.to_ns(), hi.to_ns()));
    ev.duration = Time::ms(rng.uniform(80.0, 400.0));
    ev.rate = rng.uniform(0.3, 0.9);
    ev.extra = Time::ms(rng.uniform(2.0, 20.0));
    plan.events.push_back(ev);
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.at < b.at;
            });
  return plan;
}

FaultPlan FaultPlan::control_chaos(double intensity, Time horizon,
                                   std::uint32_t n_aps, std::uint64_t seed,
                                   unsigned kind_mask) {
  FaultPlan plan;
  if (intensity <= 0.0 || horizon <= Time::zero() || n_aps == 0) return plan;
  std::vector<FaultKind> kinds;
  if (kind_mask & kChaosMsgDup) kinds.push_back(FaultKind::kMsgDup);
  if (kind_mask & kChaosMsgReorder) kinds.push_back(FaultKind::kMsgReorder);
  if (kind_mask & kChaosCtrlCrash) kinds.push_back(FaultKind::kCtrlCrash);
  if (kind_mask & kChaosLinkDrop) kinds.push_back(FaultKind::kLinkDrop);
  if (kind_mask & kChaosLinkLatency) kinds.push_back(FaultKind::kLinkLatency);
  if (kinds.empty()) return plan;
  Rng rng = Rng(seed).fork("control-chaos");
  const double horizon_s = horizon.to_sec();
  const auto n = static_cast<std::size_t>(std::llround(intensity * horizon_s));
  // Windows end by 75% of the horizon plus the longest duration below, so
  // the fuzzer's reconvergence check always has fault-free tail time.
  const Time lo = horizon * 0.10;
  const Time hi = horizon * 0.75;
  for (std::size_t i = 0; i < n; ++i) {
    FaultEvent ev;
    ev.kind = kinds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kinds.size()) - 1))];
    ev.node = static_cast<std::uint32_t>(rng.uniform_int(1, n_aps));
    ev.peer = 0;  // control traffic rides the AP <-> controller leg
    ev.at = Time::ns(rng.uniform_int(lo.to_ns(), hi.to_ns()));
    ev.duration = Time::ms(rng.uniform(60.0, 250.0));
    ev.rate = rng.uniform(0.2, 0.8);
    ev.extra = Time::ms(rng.uniform(1.0, 8.0));
    if (ev.kind == FaultKind::kCtrlCrash) {
      ev.node = 0;
      // Keep controller blackouts short relative to the horizon: the
      // interesting behaviour is the warm restart, not a long outage.
      ev.duration = Time::ms(rng.uniform(40.0, 120.0));
    }
    plan.events.push_back(ev);
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.at < b.at;
            });
  return plan;
}

std::string FaultPlan::describe() const {
  if (events.empty()) return "no faults";
  std::string out;
  char line[160];
  for (const FaultEvent& ev : events) {
    std::snprintf(line, sizeof line, "%s node=%u peer=%u at=%.3fs for=%.0fms",
                  to_string(ev.kind), ev.node, ev.peer, ev.at.to_sec(),
                  ev.duration.to_ms());
    out += line;
    if (ev.kind == FaultKind::kLinkDrop || ev.kind == FaultKind::kMsgDup ||
        ev.kind == FaultKind::kMsgReorder) {
      std::snprintf(line, sizeof line, " rate=%.2f", ev.rate);
      out += line;
    }
    if (ev.kind == FaultKind::kLinkLatency ||
        ev.kind == FaultKind::kMsgReorder) {
      std::snprintf(line, sizeof line, " extra=%.1fms", ev.extra.to_ms());
      out += line;
    }
    out += '\n';
  }
  return out;
}

}  // namespace wgtt::sim
