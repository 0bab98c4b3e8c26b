#include "util/causal.h"

#include "sim/scheduler.h"
#include "util/jsonl.h"
#include "util/rng.h"

namespace wgtt::obs {

CausalTracer::CausalTracer(CausalTracerConfig cfg) : cfg_(cfg) {
  out_.reserve(1 << 20);
  JsonlLine(out_)
      .raw("{\"kind\":\"schema\",\"stream\":\"wgtt.causal\",\"version\":")
      .num(kCausalSchemaVersion)
      .raw("}\n");
}

bool CausalTracer::sampled(std::uint64_t uid) const {
  return uid_sampled(uid, cfg_.seed, cfg_.sample);
}

std::uint64_t CausalTracer::current_event() const {
  return sched_ != nullptr ? sched_->current_event() : 0;
}

void CausalTracer::edge(std::uint64_t child, std::uint64_t parent, Time when) {
  JsonlLine(out_).raw("{\"ev\":").num(child).raw(",\"parent\":").num(parent)
      .raw(",\"at_us\":").ts(when).raw("}\n");
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
  JsonlLine line(out_);
  line.raw("{\"ev\":").num(ev).raw(",\"site\":\"").raw(site)
      .raw("\",\"t_us\":").ts(t);
  for (const CausalArg& a : args) {
    line.raw(",\"").raw(a.key).raw("\":").num(a.value);
  }
  line.raw("}\n");
  ++records_;
}

}  // namespace wgtt::obs
