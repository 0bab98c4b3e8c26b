// The simulation context (sim/context.h): the one thread-scoped install
// point for every per-run service.
#include "sim/context.h"

#include <gtest/gtest.h>

#include <thread>

#include "core/decision_log.h"
#include "net/fault_injector.h"
#include "net/flight_recorder.h"
#include "net/packet.h"
#include "scenario/testbed.h"
#include "sim/scheduler.h"
#include "util/causal.h"
#include "util/health.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/trace.h"

namespace wgtt::sim {
namespace {

/// One instance of every service, so a test can install a full context.
struct Services {
  Scheduler sched;  // the fault injector's; never run
  CapturingLogSink sink;
  metrics::MetricsRegistry metrics;
  trace::Tracer tracer;
  prof::Profiler profiler;
  core::DecisionLog decisions;
  net::PacketUidAllocator uids;
  net::PacketPool pool;
  net::FlightRecorder recorder;
  obs::HealthEngine health;
  obs::CausalTracer causal;
  net::FaultInjector faults{sched, FaultPlan{}, Rng(1)};

  Context context() {
    return Context{&sink,     &metrics, &tracer,   &profiler,
                   &decisions, &uids,   &pool,     &recorder,
                   &health,   &causal,  &faults};
  }
};

TEST(ContextTest, ScopesOverrideInheritNullFieldsAndRestore) {
  Services a, b;
  const Context before = Context::current();
  {
    ScopedContext outer(a.context());
    EXPECT_EQ(Context::current(), a.context());
    {
      ScopedContext keep(Context{});  // all null: inherits every field
      EXPECT_EQ(Context::current(), a.context());
      ScopedContext inner(b.context());
      EXPECT_EQ(Context::current(), b.context());
      {
        ScopedContext partial(Context{.tracer = &a.tracer});
        Context expected = b.context();
        expected.tracer = &a.tracer;
        EXPECT_EQ(Context::current(), expected);
      }
      EXPECT_EQ(Context::current(), b.context());
    }
    EXPECT_EQ(Context::current(), a.context());
  }
  EXPECT_EQ(Context::current(), before);
}

TEST(ContextTest, LateFaultInjectorJoinsTheScopeAndNullInherits) {
  Services outer_services, late_services;
  ScopedContext outer(Context{.fault_injector = &outer_services.faults});
  {
    ScopedContext scope(Context{.metrics = &late_services.metrics});
    scope.set_fault_injector(&late_services.faults);
    EXPECT_EQ(Context::current().fault_injector, &late_services.faults);
    EXPECT_EQ(Context::current().metrics, &late_services.metrics);
    scope.set_fault_injector(nullptr);
    EXPECT_EQ(Context::current().fault_injector, &outer_services.faults);
    scope.set_fault_injector(&late_services.faults);
  }
  EXPECT_EQ(Context::current().fault_injector, &outer_services.faults);
  EXPECT_EQ(Context::current().metrics, nullptr);
}

TEST(ContextTest, IsPerThread) {
  Services s;
  ScopedContext scope(s.context());
  Context seen = s.context();
  LogSink* seen_sink = nullptr;
  std::thread([&] {
    seen = Context::current();
    seen_sink = &current_log_sink();
  }).join();
  // A sibling thread sees no services and logs to the default sink.
  EXPECT_EQ(seen, Context{});
  EXPECT_EQ(seen_sink, &default_log_sink());
  EXPECT_EQ(Context::current(), s.context());
}

TEST(ContextTest, LogSinkFallsBackToTheDefaultSink) {
  EXPECT_EQ(&current_log_sink(), &default_log_sink());
  CapturingLogSink sink(LogLevel::kOff);
  {
    ScopedContext scope(Context{.log_sink = &sink});
    EXPECT_EQ(&current_log_sink(), &sink);
  }
  EXPECT_EQ(&current_log_sink(), &default_log_sink());
  // With no sink in the context, set_log_level() adjusts the default sink.
  const LogLevel saved = default_log_sink().threshold();
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(default_log_sink().threshold(), LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  set_log_level(saved);
  EXPECT_EQ(sink.threshold(), LogLevel::kOff);
}

TEST(ContextTest, PacketsFallBackToTheGlobalUidCounterAndMakeShared) {
  // No allocator installed: uids come from the process-global counter.
  const std::uint64_t first = net::make_packet({})->uid;
  EXPECT_EQ(net::make_packet({})->uid, first + 1);
  net::PacketUidAllocator uids;
  net::PacketPool pool;
  {
    ScopedContext scope(Context{.uid_allocator = &uids, .packet_pool = &pool});
    EXPECT_EQ(net::make_packet({})->uid, 1u);
    EXPECT_EQ(net::make_packet({})->uid, 2u);
  }
  EXPECT_EQ(pool.fresh() + pool.reused(), 2u);
  // Back outside: the global counter resumes where it was and the pool is
  // no longer drawn from.
  EXPECT_EQ(net::make_packet({})->uid, first + 2);
  EXPECT_EQ(pool.fresh() + pool.reused(), 2u);
}

TEST(ContextTest, DestroyedTestbedLeavesTheContextAsItFoundIt) {
  Services enclosing;
  ScopedContext outer(Context{.log_sink = &enclosing.sink,
                              .metrics = &enclosing.metrics});
  const Context before = Context::current();
  {
    scenario::TestbedConfig cfg;
    cfg.enable_health = true;
    cfg.enable_causal = true;
    ASSERT_TRUE(FaultPlan::parse("ap_crash:ap=2,at=1s,for=1s", cfg.faults));
    scenario::Testbed bed(cfg);
    const Context& inside = Context::current();
    // The testbed's own services override; the log sink it was not given
    // is inherited from the enclosing context.
    EXPECT_EQ(inside.log_sink, &enclosing.sink);
    EXPECT_EQ(inside.metrics, bed.metrics());
    EXPECT_NE(inside.metrics, nullptr);
    EXPECT_EQ(inside.health, bed.health());
    EXPECT_EQ(inside.causal, bed.causal());
    EXPECT_EQ(inside.fault_injector, bed.fault_injector());
    EXPECT_NE(inside.fault_injector, nullptr);
    EXPECT_NE(inside.uid_allocator, nullptr);
    EXPECT_NE(inside.packet_pool, nullptr);
  }
  EXPECT_EQ(Context::current(), before);
}

}  // namespace
}  // namespace wgtt::sim
