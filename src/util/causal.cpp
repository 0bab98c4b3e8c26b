#include "util/causal.h"

#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/trace.h"

namespace wgtt::obs {

CausalTracer::CausalTracer(CausalTracerConfig cfg) : cfg_(cfg) {
  out_.reserve(1 << 20);
  out_ += "{\"kind\":\"schema\",\"stream\":\"wgtt.causal\",\"version\":";
  out_ += std::to_string(kCausalSchemaVersion);
  out_ += "}\n";
}

bool CausalTracer::sampled(std::uint64_t uid) const {
  return uid_sampled(uid, cfg_.seed, cfg_.sample);
}

std::uint64_t CausalTracer::current_event() const {
  return sched_ != nullptr ? sched_->current_event() : 0;
}

void CausalTracer::edge(std::uint64_t child, std::uint64_t parent, Time when) {
  std::string& s = out_;
  s += "{\"ev\":";
  s += std::to_string(child);
  s += ",\"parent\":";
  s += std::to_string(parent);
  s += ",\"at_us\":";
  s += trace::Tracer::format_ts(when);
  s += "}\n";
  ++records_;
}

void CausalTracer::annotate(const char* site,
                            std::initializer_list<CausalArg> args) {
  std::uint64_t ev = 0;
  Time t = Time::zero();
  if (sched_ != nullptr) {
    ev = sched_->current_event();
    t = sched_->now();
  }
  std::string& s = out_;
  s += "{\"ev\":";
  s += std::to_string(ev);
  s += ",\"site\":\"";
  s += site;
  s += "\",\"t_us\":";
  s += trace::Tracer::format_ts(t);
  for (const CausalArg& a : args) {
    s += ",\"";
    s += a.key;
    s += "\":";
    s += std::to_string(a.value);
  }
  s += "}\n";
  ++records_;
}

}  // namespace wgtt::obs
