#include "sim/context.h"

#include <cassert>

namespace wgtt::sim {
namespace {

thread_local Context t_context;

template <typename T>
T* either(T* override, T* enclosing) {
  return override != nullptr ? override : enclosing;
}

}  // namespace

const Context& Context::current() { return t_context; }

ScopedContext::ScopedContext(const Context& s) : enclosing_(t_context) {
  const Context& e = enclosing_;
  installed_ = Context{either(s.log_sink, e.log_sink),
                       either(s.metrics, e.metrics),
                       either(s.tracer, e.tracer),
                       either(s.profiler, e.profiler),
                       either(s.decision_log, e.decision_log),
                       either(s.uid_allocator, e.uid_allocator),
                       either(s.packet_pool, e.packet_pool),
                       either(s.flight_recorder, e.flight_recorder),
                       either(s.health, e.health),
                       either(s.causal, e.causal),
                       either(s.fault_injector, e.fault_injector)};
  t_context = installed_;
}

ScopedContext::~ScopedContext() {
  assert(t_context == installed_ && "ScopedContext destroyed out of order");
  t_context = enclosing_;
}

void ScopedContext::set_fault_injector(net::FaultInjector* injector) {
  assert(t_context == installed_ && "not the innermost ScopedContext");
  installed_.fault_injector = either(injector, enclosing_.fault_injector);
  t_context = installed_;
}

}  // namespace wgtt::sim
