// The simulation context: the per-run services of one simulated world.
//
// A simulation owns one instance of each service below and installs them
// together as the calling thread's context, so concurrent simulations on
// different threads (the parallel sweep workers) never share mutable state.
// Components read `Context::current()` once, at construction, and cache the
// pointers they need: a null pointer (the service is off, the default
// outside a Testbed) makes every instrumentation site a single branch.
//
// Installation is RAII and nests.  A null field in a ScopedContext inherits
// the enclosing value, so a scope only overrides what it sets; destruction
// restores the enclosing context exactly.
#pragma once

namespace wgtt {
class LogSink;
}  // namespace wgtt
namespace wgtt::metrics {
class MetricsRegistry;
}  // namespace wgtt::metrics
namespace wgtt::trace {
class Tracer;
}  // namespace wgtt::trace
namespace wgtt::prof {
class Profiler;
}  // namespace wgtt::prof
namespace wgtt::core {
class DecisionLog;
}  // namespace wgtt::core
namespace wgtt::net {
class PacketUidAllocator;
class PacketPool;
class FlightRecorder;
class FaultInjector;
}  // namespace wgtt::net
namespace wgtt::obs {
class HealthEngine;
class CausalTracer;
}  // namespace wgtt::obs

namespace wgtt::sim {

/// One pointer per per-run service; null means "off" (or, inside a
/// ScopedContext argument, "inherit the enclosing value").
struct Context {
  /// WGTT_LOG destination; null falls back to default_log_sink().
  LogSink* log_sink = nullptr;
  metrics::MetricsRegistry* metrics = nullptr;
  trace::Tracer* tracer = nullptr;
  prof::Profiler* profiler = nullptr;
  core::DecisionLog* decision_log = nullptr;
  /// Packet uid source; null falls back to a process-global counter.
  net::PacketUidAllocator* uid_allocator = nullptr;
  /// Packet-node freelist; null falls back to plain make_shared.
  net::PacketPool* packet_pool = nullptr;
  net::FlightRecorder* flight_recorder = nullptr;
  obs::HealthEngine* health = nullptr;
  obs::CausalTracer* causal = nullptr;
  net::FaultInjector* fault_injector = nullptr;

  bool operator==(const Context&) const = default;

  /// The calling thread's context (all null when nothing is installed).
  static const Context& current();
};

/// Install `services` over the calling thread's context for this object's
/// lifetime.  Scopes must be destroyed in reverse order of construction.
class ScopedContext {
 public:
  explicit ScopedContext(const Context& services);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

  /// Install the fault injector into this (innermost) scope after
  /// construction.  An injector schedules its plan on the scheduler, and
  /// the scheduler itself must be built under this scope, so the injector
  /// cannot be passed to the constructor.  Null inherits the enclosing one.
  void set_fault_injector(net::FaultInjector* injector);

 private:
  Context enclosing_;
  Context installed_;
};

}  // namespace wgtt::sim
