// Tests for the scenario layer: testbed geometry, mobility helpers, flow
// routing, metrics collection, and the ablation knobs added on top of the
// paper's design.
#include <gtest/gtest.h>

#include "phy/esnr.h"
#include "scenario/experiment.h"
#include "scenario/metrics.h"
#include "scenario/testbed.h"
#include "sim/context.h"
#include "util/units.h"

namespace wgtt::scenario {
namespace {

TEST(TestbedTest, DefaultLayoutMatchesPaper) {
  TestbedConfig cfg;
  ASSERT_EQ(cfg.ap_x.size(), 8u);
  // Dense cluster AP1-AP4 at 7.5 m; sparse stretch AP5-AP7 at ~12 m.
  EXPECT_DOUBLE_EQ(cfg.ap_x[1] - cfg.ap_x[0], 7.5);
  EXPECT_DOUBLE_EQ(cfg.ap_x[2] - cfg.ap_x[1], 7.5);
  EXPECT_GE(cfg.ap_x[5] - cfg.ap_x[4], 11.0);
  EXPECT_GE(cfg.ap_x[6] - cfg.ap_x[5], 11.0);
}

TEST(TestbedTest, RoadLengthAndTransit) {
  Testbed bed{TestbedConfig{}};
  EXPECT_DOUBLE_EQ(bed.road_length(), 65.5);
  // 95.5 m at 15 mph (6.7 m/s) ~ 14.2 s.
  EXPECT_NEAR(bed.transit_duration(15.0).to_sec(), 14.2, 0.2);
  // Static clients get a fixed observation window.
  EXPECT_DOUBLE_EQ(bed.transit_duration(0.0).to_sec(), 10.0);
}

TEST(TestbedTest, DriveMobilityDirections) {
  Testbed bed{TestbedConfig{}};
  auto fwd = bed.drive_mobility(15.0, 15.0, 0.0, +1);
  auto rev = bed.drive_mobility(15.0, 15.0, 3.0, -1);
  EXPECT_DOUBLE_EQ(fwd->position(Time::zero()).x, -15.0);
  EXPECT_GT(fwd->velocity(Time::zero()).x, 0.0);
  EXPECT_DOUBLE_EQ(rev->position(Time::zero()).x, 95.5 - 15.0);
  EXPECT_LT(rev->velocity(Time::zero()).x, 0.0);
  EXPECT_DOUBLE_EQ(rev->position(Time::zero()).y, 3.0);
}

TEST(TestbedTest, ApDevicesGetSitesInOrder) {
  Testbed bed{TestbedConfig{}};
  WgttNetwork net(bed);
  ASSERT_EQ(bed.ap_ids().size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    const auto& site = bed.channel().ap(bed.ap_ids()[i]);
    EXPECT_DOUBLE_EQ(site.position.x, bed.config().ap_x[i]);
  }
}

TEST(FlowRouterTest, DispatchesByFlowId) {
  FlowRouter router;
  int a = 0;
  int b = 0;
  router.register_flow(1, [&](const net::PacketPtr&) { ++a; });
  router.register_flow(2, [&](const net::PacketPtr&) { ++b; });
  net::Packet p;
  p.flow_id = 2;
  router.deliver(net::make_packet(p));
  p.flow_id = 9;  // unregistered: counted as dropped
  router.deliver(net::make_packet(p));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(router.dropped(), 1u);
}

TEST(FlowRouterTest, UnhandledFlowCountsAndLogs) {
  CapturingLogSink sink(LogLevel::kDebug);
  sim::ScopedContext scope(sim::Context{.log_sink = &sink});
  FlowRouter router;
  net::Packet p;
  p.flow_id = 77;
  router.deliver(net::make_packet(p));
  router.deliver(net::make_packet(p));
  EXPECT_EQ(router.dropped(), 2u);
  ASSERT_EQ(sink.entries().size(), 2u);
  EXPECT_EQ(sink.entries()[0].level, LogLevel::kDebug);
  EXPECT_EQ(sink.entries()[0].component, "flow");
  EXPECT_NE(sink.entries()[0].message.find("flow 77"), std::string::npos);
}

TEST(TestbedTest, InstallsConfiguredLogSinkForItsLifetime) {
  auto sink = std::make_shared<CapturingLogSink>(LogLevel::kDebug);
  {
    TestbedConfig cfg;
    cfg.log_sink = sink;
    Testbed bed{cfg};
    EXPECT_EQ(&current_log_sink(), sink.get());
    WGTT_LOG(kInfo, "test", "inside testbed scope");
  }
  EXPECT_EQ(&current_log_sink(), &default_log_sink());
  ASSERT_EQ(sink->entries().size(), 1u);
  EXPECT_EQ(sink->entries()[0].message, "inside testbed scope");
}

TEST(MetricsTest, AccuracyIsOneWhenFollowingOptimal) {
  Testbed bed{TestbedConfig{}};
  WgttNetwork net(bed);
  const net::NodeId client =
      bed.add_client(bed.drive_mobility(15.0), kWgttBssid);
  // An oracle lookup that always reports the optimal AP.
  DriveMetrics metrics(bed, [&](net::NodeId c) {
    return bed.channel().best_ap(c, bed.sched().now());
  });
  metrics.track_client(client);
  metrics.start();
  bed.sched().run_until(Time::sec(5));
  EXPECT_DOUBLE_EQ(metrics.switching_accuracy(client), 1.0);
}

TEST(MetricsTest, OutOfCoverageSamplesExcluded) {
  TestbedConfig cfg;
  Testbed bed{cfg};
  WgttNetwork net(bed);
  // Parked 300 m away: never in coverage; accuracy is 0-of-0.
  const net::NodeId client = bed.add_client(
      std::make_shared<channel::StaticMobility>(
          channel::Vec3{300.0, 0.0, 1.5}),
      kWgttBssid);
  DriveMetrics metrics(bed, [&](net::NodeId) { return net::NodeId{1}; });
  metrics.track_client(client);
  metrics.start();
  bed.sched().run_until(Time::sec(2));
  EXPECT_DOUBLE_EQ(metrics.switching_accuracy(client), 0.0);
  for (const auto& pt : metrics.timeline(client)) {
    EXPECT_FALSE(pt.in_coverage);
  }
}

TEST(MetricsTest, UntrackedClientYieldsEmptyResultsNotUB) {
  // Regression: these accessors used to assert(it != end()) and then
  // dereference — in a release build the assert compiles away and an
  // untracked client id walked straight into UB.  They now degrade to empty
  // results.
  Testbed bed{TestbedConfig{}};
  DriveMetrics metrics(bed, {});
  metrics.track_client(net::kClientBase);
  const net::NodeId never_tracked = net::kClientBase + 7;
  EXPECT_TRUE(metrics.timeline(never_tracked).empty());
  EXPECT_EQ(metrics.bitrate_samples(never_tracked).count(), 0u);
  EXPECT_TRUE(metrics.bitrate_series(never_tracked).empty());
  EXPECT_DOUBLE_EQ(metrics.switching_accuracy(never_tracked), 0.0);
  // The tracked client is unaffected.
  metrics.start();
  bed.sched().run_until(Time::ms(50));
  EXPECT_FALSE(metrics.timeline(net::kClientBase).empty());
}

TEST(AblationTest, LatestReadingSelectorSwitchesMore) {
  DriveScenarioConfig cfg;
  cfg.traffic = TrafficType::kUdpDownlink;
  cfg.speed_mph = 15.0;
  cfg.seed = 42;
  auto median = run_drive(cfg);
  cfg.wgtt.controller.use_latest_reading = true;
  auto latest = run_drive(cfg);
  // A single-reading metric chases fading spikes: more switches, equal or
  // worse accuracy.
  EXPECT_GE(latest.switches.size(), median.switches.size());
  EXPECT_LE(latest.clients[0].switching_accuracy,
            median.clients[0].switching_accuracy + 0.02);
}

TEST(AblationTest, FanoutActiveOnlyStillDelivers) {
  DriveScenarioConfig cfg;
  cfg.traffic = TrafficType::kUdpDownlink;
  cfg.speed_mph = 15.0;
  cfg.seed = 42;
  cfg.wgtt.controller.fanout_active_only = true;
  auto r = run_drive(cfg);
  EXPECT_GT(r.clients[0].goodput_mbps, 3.0);
  // Without fan-out the new AP starts with an empty ring at each handover;
  // downlink copies drop to ~one per packet.
  EXPECT_GT(r.switches.size(), 10u);
}

TEST(AblationTest, EsnrRateControlWorksEndToEnd) {
  DriveScenarioConfig cfg;
  cfg.traffic = TrafficType::kUdpDownlink;
  cfg.speed_mph = 15.0;
  cfg.seed = 42;
  cfg.wgtt.rate_control = RateControlKind::kEsnr;
  auto r = run_drive(cfg);
  EXPECT_GT(r.clients[0].goodput_mbps, 5.0);
  EXPECT_GT(r.clients[0].switching_accuracy, 0.8);
}

TEST(AblationTest, NoBaForwardingStillWorks) {
  DriveScenarioConfig cfg;
  cfg.traffic = TrafficType::kUdpDownlink;
  cfg.speed_mph = 15.0;
  cfg.seed = 42;
  cfg.wgtt.enable_ba_forwarding = false;
  auto r = run_drive(cfg);
  EXPECT_GT(r.clients[0].goodput_mbps, 5.0);
}

TEST(ScenarioTest, HysteresisKnobChangesSwitchRate) {
  DriveScenarioConfig cfg;
  cfg.traffic = TrafficType::kUdpDownlink;
  cfg.speed_mph = 15.0;
  cfg.seed = 42;
  cfg.wgtt.controller.switch_hysteresis = Time::ms(40);
  auto fast = run_drive(cfg);
  cfg.wgtt.controller.switch_hysteresis = Time::ms(400);
  auto slow = run_drive(cfg);
  EXPECT_GT(fast.switches.size(), slow.switches.size() * 2);
}

TEST(MultiChannelTest, ApChannelPlanApplied) {
  Testbed bed{TestbedConfig{}};
  WgttNetworkConfig cfg;
  cfg.ap_channels = {1, 6, 11};
  WgttNetwork net(bed, cfg);
  EXPECT_EQ(net.ap_channel(1), 1u);
  EXPECT_EQ(net.ap_channel(2), 6u);
  EXPECT_EQ(net.ap_channel(3), 11u);
  EXPECT_EQ(net.ap_channel(4), 1u);  // round-robin
  EXPECT_EQ(bed.ap_device(1).channel(), 1u);
  EXPECT_EQ(bed.ap_device(2).channel(), 6u);
}

TEST(MultiChannelTest, ClientFollowsActiveApAcrossChannels) {
  DriveScenarioConfig cfg;
  cfg.traffic = TrafficType::kUdpDownlink;
  cfg.speed_mph = 15.0;
  cfg.seed = 42;
  cfg.wgtt.ap_channels = {1, 11};
  auto r = run_drive(cfg);
  // The system keeps working across channel boundaries: switches happen
  // and a usable fraction of traffic is delivered.
  EXPECT_GT(r.switches.size(), 5u);
  EXPECT_GT(r.clients[0].goodput_mbps, 1.0);
  // But (the paper's §7 point) it costs substantially vs single channel.
  cfg.wgtt.ap_channels.clear();
  auto single = run_drive(cfg);
  EXPECT_GT(single.mean_goodput_mbps(), r.mean_goodput_mbps());
}

TEST(ScenarioTest, MeasuredDurationExcludesSetup) {
  DriveScenarioConfig cfg;
  cfg.traffic = TrafficType::kUdpDownlink;
  cfg.speed_mph = 25.0;
  cfg.seed = 1;
  auto r = run_drive(cfg);
  const Time expected = Testbed{TestbedConfig{}}.transit_duration(25.0);
  EXPECT_NEAR(r.measured_duration.to_sec(), expected.to_sec(), 0.01);
}

}  // namespace
}  // namespace wgtt::scenario
