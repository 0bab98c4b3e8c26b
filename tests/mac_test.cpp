// Unit + integration tests for the MAC: airtime accounting, A-MPDU
// construction, the block-ACK reorder buffer, the medium's carrier-sense
// behaviour, and end-to-end WifiDevice exchanges over a real channel.
#include <gtest/gtest.h>

#include <memory>

#include "channel/channel_model.h"
#include "mac/airtime.h"
#include "mac/ampdu.h"
#include "mac/block_ack.h"
#include "mac/medium.h"
#include "mac/wifi_device.h"
#include "phy/error_model.h"

namespace wgtt::mac {
namespace {

// ---------------------------------------------------------------------------
// Airtime
// ---------------------------------------------------------------------------

TEST(AirtimeTest, HigherMcsIsFaster) {
  AirtimeCalculator at;
  EXPECT_GT(at.mpdu_duration(phy::mcs(0), 1500).to_ns(),
            at.mpdu_duration(phy::mcs(7), 1500).to_ns());
}

TEST(AirtimeTest, Mcs0MpduDurationBallpark) {
  AirtimeCalculator at;
  // ~1534 B at 6.5 Mb/s ~ 1.9 ms.
  const double ms = at.mpdu_duration(phy::mcs(0), 1500).to_ms();
  EXPECT_GT(ms, 1.5);
  EXPECT_LT(ms, 2.3);
}

TEST(AirtimeTest, ExchangeIncludesOverheads) {
  AirtimeCalculator at;
  const Time one = at.exchange_duration(phy::mcs(7), 1, 1500);
  // preamble + data + SIFS + BA must exceed the raw bits duration.
  EXPECT_GT(one, at.mpdu_duration(phy::mcs(7), 1500));
  EXPECT_GT(one, at.block_ack_duration());
}

TEST(AirtimeTest, AggregationAmortizesOverhead) {
  AirtimeCalculator at;
  const Time one = at.exchange_duration(phy::mcs(7), 1, 1500);
  const Time many = at.exchange_duration(phy::mcs(7), 32, 32 * 1500);
  // 32 MPDUs cost far less than 32 single exchanges (the reason frame
  // aggregation exists, paper §1).
  EXPECT_LT(many.to_ns(), one.to_ns() * 32 * 7 / 10);
}

TEST(AirtimeTest, MaxMpdusRespectsDurationCap) {
  AirtimeCalculator at;
  // At MCS 0 only a couple of 1500 B MPDUs fit under 4 ms.
  EXPECT_LE(at.max_mpdus_in_ampdu(phy::mcs(0), 1500), 3u);
  // At MCS 7 roughly twenty 1500 B MPDUs fit under 4 ms.
  EXPECT_GE(at.max_mpdus_in_ampdu(phy::mcs(7), 1500), 19u);
  EXPECT_LE(at.max_mpdus_in_ampdu(phy::mcs(7), 1500), 22u);
}

TEST(AirtimeTest, ShortGiIsFaster) {
  AirtimeConfig cfg;
  cfg.short_gi = true;
  AirtimeCalculator sgi(cfg);
  AirtimeCalculator lgi;
  EXPECT_LT(sgi.mpdu_duration(phy::mcs(7), 1500).to_ns(),
            lgi.mpdu_duration(phy::mcs(7), 1500).to_ns());
}

// ---------------------------------------------------------------------------
// A-MPDU aggregation
// ---------------------------------------------------------------------------

std::deque<Mpdu> make_queue(std::size_t n, std::uint16_t first_seq = 0,
                            std::size_t bytes = 1500) {
  std::deque<Mpdu> q;
  for (std::size_t i = 0; i < n; ++i) {
    net::Packet p;
    p.size_bytes = bytes;
    Mpdu m;
    m.pkt = net::make_packet(p);
    m.seq = static_cast<std::uint16_t>((first_seq + i) & (kSeqModulo - 1));
    q.push_back(std::move(m));
  }
  return q;
}

TEST(AmpduTest, RespectsFrameCap) {
  AirtimeCalculator at;
  AmpduAggregator agg(at);
  auto q = make_queue(100, 0, 100);  // tiny MPDUs: the 64-frame cap binds
  auto a = agg.build(q, phy::mcs(7));
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(q.size(), 36u);
}

TEST(AmpduTest, RespectsDurationCap) {
  AirtimeCalculator at;
  AmpduAggregator agg(at);
  auto q = make_queue(100);
  auto a = agg.build(q, phy::mcs(0));
  EXPECT_LE(a.size(), 3u);
  EXPECT_GE(a.size(), 1u);
}

TEST(AmpduTest, RespectsBaWindow) {
  AirtimeCalculator at;
  AmpduAggregator agg(at);
  // Sequence numbers jump beyond the 64-wide window mid-queue.
  auto q = make_queue(10, 0, 100);
  auto extra = make_queue(5, 200, 100);
  for (auto& m : extra) q.push_back(std::move(m));
  auto a = agg.build(q, phy::mcs(7));
  EXPECT_EQ(a.size(), 10u);  // stops at the window break
}

TEST(AmpduTest, MaxFramesParameter) {
  AirtimeCalculator at;
  AmpduAggregator agg(at);
  auto q = make_queue(50, 0, 100);
  auto a = agg.build(q, phy::mcs(7), 4);  // probe-sized
  EXPECT_EQ(a.size(), 4u);
}

TEST(AmpduTest, AlwaysReturnsAtLeastOne) {
  AirtimeCalculator at;
  AmpduAggregator agg(at);
  auto q = make_queue(1, 0, 64000);  // huge MPDU, still must go
  auto a = agg.build(q, phy::mcs(0));
  EXPECT_EQ(a.size(), 1u);
}

// ---------------------------------------------------------------------------
// Reorder buffer
// ---------------------------------------------------------------------------

net::PacketPtr pkt_with_seq(std::uint64_t seq) {
  net::Packet p;
  p.seq = seq;
  p.size_bytes = 100;
  return net::make_packet(p);
}

TEST(ReorderBufferTest, InOrderPassThrough) {
  std::vector<std::uint64_t> out;
  ReorderBuffer rb([&](net::PacketPtr p) { out.push_back(p->seq); });
  for (std::uint16_t s = 0; s < 10; ++s) {
    rb.on_mpdu(s, pkt_with_seq(s), Time::ms(s));
  }
  EXPECT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST(ReorderBufferTest, HoldsGapThenReleasesInOrder) {
  std::vector<std::uint64_t> out;
  ReorderBuffer rb([&](net::PacketPtr p) { out.push_back(p->seq); });
  rb.on_mpdu(0, pkt_with_seq(0), Time::zero());
  rb.on_mpdu(2, pkt_with_seq(2), Time::zero());  // hole at 1
  EXPECT_EQ(out.size(), 1u);
  rb.on_mpdu(1, pkt_with_seq(1), Time::zero());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1], 1u);
  EXPECT_EQ(out[2], 2u);
}

TEST(ReorderBufferTest, DuplicatesDropped) {
  std::vector<std::uint64_t> out;
  ReorderBuffer rb([&](net::PacketPtr p) { out.push_back(p->seq); });
  rb.on_mpdu(0, pkt_with_seq(0), Time::zero());
  rb.on_mpdu(0, pkt_with_seq(0), Time::zero());
  rb.on_mpdu(2, pkt_with_seq(2), Time::zero());
  rb.on_mpdu(2, pkt_with_seq(2), Time::zero());
  EXPECT_EQ(rb.duplicates_dropped(), 2u);
  EXPECT_EQ(out.size(), 1u);
}

TEST(ReorderBufferTest, GapTimeoutFlushes) {
  std::vector<std::uint64_t> out;
  ReorderBuffer rb([&](net::PacketPtr p) { out.push_back(p->seq); },
                   Time::ms(10));
  rb.on_mpdu(0, pkt_with_seq(0), Time::zero());
  rb.on_mpdu(2, pkt_with_seq(2), Time::ms(1));
  EXPECT_EQ(rb.flush_expired(Time::ms(5)), 0u);   // too early
  EXPECT_EQ(rb.flush_expired(Time::ms(20)), 1u);  // hole skipped
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.back(), 2u);
}

TEST(ReorderBufferTest, WindowJumpReleases) {
  std::vector<std::uint64_t> out;
  ReorderBuffer rb([&](net::PacketPtr p) { out.push_back(p->seq); });
  rb.on_mpdu(0, pkt_with_seq(0), Time::zero());
  rb.on_mpdu(5, pkt_with_seq(5), Time::zero());
  // Jump far beyond the 64-window: buffered 5 must be released.
  rb.on_mpdu(200, pkt_with_seq(200), Time::zero());
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[1], 5u);
}

TEST(ReorderBufferTest, SequenceWraparound) {
  std::vector<std::uint64_t> out;
  ReorderBuffer rb([&](net::PacketPtr p) { out.push_back(p->seq); });
  for (std::uint16_t i = 0; i < 10; ++i) {
    const std::uint16_t seq = (4090 + i) & (kSeqModulo - 1);
    rb.on_mpdu(seq, pkt_with_seq(seq), Time::zero());
  }
  EXPECT_EQ(out.size(), 10u);  // wrap 4094,4095,0,1,... all in order
}

TEST(SeqDistanceTest, Wraparound) {
  EXPECT_EQ(seq_distance(4095, 0), 1u);
  EXPECT_EQ(seq_distance(0, 4095), 4095u);
  EXPECT_EQ(seq_distance(100, 100), 0u);
}

TEST(BlockAckInfoTest, BitmapSemantics) {
  BlockAckInfo ba;
  ba.start_seq = 4090;
  ba.bitmap.set(0);
  ba.bitmap.set(7);
  EXPECT_TRUE(ba.acks(4090));
  EXPECT_TRUE(ba.acks((4090 + 7) & (kSeqModulo - 1)));  // wraps to 1
  EXPECT_FALSE(ba.acks(4091));
  EXPECT_FALSE(ba.acks(2000));  // outside the window
}

// ---------------------------------------------------------------------------
// Medium + WifiDevice end-to-end over a real channel
// ---------------------------------------------------------------------------

class MacWorld {
 public:
  explicit MacWorld(std::uint64_t seed = 1)
      : channel(channel::RadioConfig{18.0, 20.0, 0.0, 20e6, 6.0, 2.462e9},
                channel::PathLossConfig{}, channel::ShadowingConfig{},
                channel::FadingConfig{}, Rng(seed)),
        medium(sched, channel),
        ctx(sched, medium, channel, error_model, Rng(seed + 1)) {
    channel::ApSite site;
    site.id = 1;
    site.position = {0.0, 10.0, 5.0};
    site.boresight = channel::Vec3{0, -10, -3.5}.normalized();
    site.antenna = std::make_shared<channel::ParabolicAntenna>();
    channel.add_ap(site);
    channel.add_client(net::kClientBase,
                       std::make_shared<channel::StaticMobility>(
                           channel::Vec3{0, 0, 1.5}));

    mac::WifiDeviceConfig ap_cfg;
    ap_cfg.is_ap = true;
    ap_cfg.bssid = 1;
    ap = std::make_unique<WifiDevice>(ctx, 1, ap_cfg);
    mac::WifiDeviceConfig cl_cfg;
    cl_cfg.bssid = 1;
    client = std::make_unique<WifiDevice>(ctx, net::kClientBase, cl_cfg);
  }

  sim::Scheduler sched;
  phy::ErrorModel error_model;
  channel::ChannelModel channel;
  Medium medium;
  MacContext ctx;
  std::unique_ptr<WifiDevice> ap;
  std::unique_ptr<WifiDevice> client;
};

net::PacketPtr data_pkt(net::NodeId src, net::NodeId dst, std::uint64_t seq) {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.src = src;
  p.dst = dst;
  p.seq = seq;
  p.size_bytes = 1500;
  return net::make_packet(p);
}

TEST(WifiDeviceTest, DownlinkDeliveryOverGoodLink) {
  MacWorld w;
  std::vector<std::uint64_t> delivered;
  w.client->on_deliver = [&](net::PacketPtr p, const RxMeta& meta) {
    delivered.push_back(p->seq);
    EXPECT_EQ(meta.transmitter, 1u);
    EXPECT_TRUE(meta.addressed);
  };
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(w.ap->enqueue(net::kClientBase,
                              data_pkt(net::kServerBase, net::kClientBase, i)));
  }
  w.sched.run_until(Time::ms(200));
  ASSERT_EQ(delivered.size(), 20u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], i);  // in order
  }
  EXPECT_GT(w.ap->stats().mpdus_delivered, 0u);
}

TEST(WifiDeviceTest, UplinkDeliveryAndCsiReports) {
  MacWorld w;
  int delivered = 0;
  int heard = 0;
  w.ap->on_deliver = [&](net::PacketPtr, const RxMeta&) { ++delivered; };
  w.ap->on_frame_heard = [&](const RxMeta& meta) {
    ++heard;
    EXPECT_GT(meta.csi.mean_snr_db(), 0.0);
  };
  for (std::uint64_t i = 0; i < 10; ++i) {
    w.client->enqueue(1, data_pkt(net::kClientBase, net::kServerBase, i));
  }
  w.sched.run_until(Time::ms(200));
  EXPECT_EQ(delivered, 10);
  EXPECT_GT(heard, 0);  // every decoded uplink frame is a CSI source
}

TEST(WifiDeviceTest, ExplicitSequenceNumbers) {
  // The WGTT integration: the 12-bit cyclic index is the 802.11 sequence.
  MacWorld w;
  std::vector<std::uint64_t> delivered;
  w.client->on_deliver = [&](net::PacketPtr p, const RxMeta&) {
    delivered.push_back(p->seq);
  };
  for (std::uint64_t i = 0; i < 5; ++i) {
    w.ap->enqueue(net::kClientBase,
                  data_pkt(net::kServerBase, net::kClientBase, i),
                  static_cast<std::uint16_t>(1000 + i));
  }
  w.sched.run_until(Time::ms(100));
  EXPECT_EQ(delivered.size(), 5u);
}

TEST(WifiDeviceTest, QueueLimitEnforced) {
  MacWorld w;
  mac::WifiDeviceConfig cfg;  // default hw_queue_limit = 32
  int accepted = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (w.ap->enqueue(net::kClientBase,
                      data_pkt(net::kServerBase, net::kClientBase, i))) {
      ++accepted;
    }
  }
  // The first aggregate may already be in flight, so allow a little slack.
  EXPECT_LE(accepted, 32 + 64);
  EXPECT_LT(accepted, 100);
}

TEST(WifiDeviceTest, FlushQueueDropsPending) {
  MacWorld w;
  for (std::uint64_t i = 0; i < 30; ++i) {
    w.ap->enqueue(net::kClientBase,
                  data_pkt(net::kServerBase, net::kClientBase, i));
  }
  const std::size_t flushed = w.ap->flush_queue(net::kClientBase);
  EXPECT_GT(flushed, 0u);
  EXPECT_EQ(w.ap->queue_depth(net::kClientBase) -
                (w.ap->queue_depth(net::kClientBase) - 0),
            0u);
}

TEST(WifiDeviceTest, RefillHandlerInvoked) {
  MacWorld w;
  int refills = 0;
  w.ap->set_refill_handler(net::kClientBase, [&]() { ++refills; });
  for (std::uint64_t i = 0; i < 10; ++i) {
    w.ap->enqueue(net::kClientBase,
                  data_pkt(net::kServerBase, net::kClientBase, i));
  }
  w.sched.run_until(Time::ms(100));
  EXPECT_GT(refills, 0);
}

TEST(WifiDeviceTest, BroadcastBeaconReachesClient) {
  MacWorld w;
  int beacons = 0;
  w.client->on_management = [&](net::PacketPtr p, const RxMeta&) {
    if (p->type == net::PacketType::kBeacon) ++beacons;
  };
  net::Packet b;
  b.type = net::PacketType::kBeacon;
  b.src = 1;
  b.dst = net::kBroadcast;
  b.size_bytes = 128;
  w.ap->send_management(net::kBroadcast, net::make_packet(b));
  w.sched.run_until(Time::ms(50));
  EXPECT_EQ(beacons, 1);
}

TEST(WifiDeviceTest, UnicastManagementAcked) {
  MacWorld w;
  bool done_ok = false;
  net::Packet m;
  m.type = net::PacketType::kMgmt;
  m.src = net::kClientBase;
  m.dst = 1;
  m.size_bytes = 90;
  w.client->send_management(1, net::make_packet(m),
                            [&](bool ok) { done_ok = ok; });
  w.sched.run_until(Time::ms(50));
  EXPECT_TRUE(done_ok);
}

TEST(WifiDeviceTest, ExternalBlockAckRecoversExchange) {
  // Force BA loss by parking the client out of uplink range... instead we
  // inject a forwarded BA while an exchange awaits completion, using a
  // device configured with a long grace window and a dead reverse channel.
  MacWorld w;
  // Move the client out of range so the AP's own BA reception fails: use a
  // second client stationed far away.
  w.channel.add_client(net::kClientBase + 1,
                       std::make_shared<channel::StaticMobility>(
                           channel::Vec3{500, 0, 1.5}));
  mac::WifiDeviceConfig cfg;
  cfg.bssid = 1;
  WifiDevice far_client(w.ctx, net::kClientBase + 1, cfg);

  mac::WifiDeviceConfig ap2_cfg;
  ap2_cfg.is_ap = true;
  ap2_cfg.bssid = 1;
  ap2_cfg.ba_completion_grace = Time::ms(50);
  WifiDevice ap2(w.ctx, 2, ap2_cfg);
  // AP2 has no channel entry for itself... it transmits to the far client;
  // every MPDU will be lost, and no BA will arrive.
  // Note: AP2 needs a channel site.
  channel::ApSite site;
  site.id = 2;
  site.position = {0.0, 10.0, 5.0};
  site.boresight = channel::Vec3{0, -10, -3.5}.normalized();
  site.antenna = std::make_shared<channel::ParabolicAntenna>();
  w.channel.add_ap(site);

  ap2.enqueue(net::kClientBase + 1,
              data_pkt(net::kServerBase, net::kClientBase + 1, 0),
              std::uint16_t{100});
  // Let the exchange start and finish on air, then inject a forwarded BA
  // inside the grace window claiming successful delivery.
  w.sched.run_until(Time::ms(4));
  BlockAckInfo ba;
  ba.client = net::kClientBase + 1;
  ba.addressed_ap = 2;
  ba.start_seq = 100;
  ba.bitmap.set(0);
  const bool applied = ap2.apply_external_block_ack(ba);
  w.sched.run_until(Time::ms(100));
  EXPECT_TRUE(applied);
  EXPECT_EQ(ap2.stats().block_acks_recovered, 1u);
  EXPECT_EQ(ap2.stats().mpdus_delivered, 1u);
}

// Several AP-mode radios of one shared BSSID all answer the client's uplink
// frames, so every exchange runs the multi-AP response race (§5.3.2).  The
// client's overlap window is widened to most of the jitter spread so the
// capture-power comparison decides most races instead of a few.
class MultiApWorld {
 public:
  static constexpr int kAps = 4;

  MultiApWorld()
      : channel(channel::RadioConfig{18.0, 20.0, 0.0, 20e6, 6.0, 2.462e9},
                channel::PathLossConfig{}, channel::ShadowingConfig{},
                channel::FadingConfig{}, Rng(7)),
        medium(sched, channel),
        ctx(sched, medium, channel, error_model, Rng(8)) {
    for (int i = 0; i < kAps; ++i) {
      channel::ApSite site;
      site.id = static_cast<net::NodeId>(i + 1);
      site.position = {-7.5 + 5.0 * i, 10.0, 5.0};
      site.boresight = channel::Vec3{0, -10, -3.5}.normalized();
      site.antenna = std::make_shared<channel::ParabolicAntenna>();
      channel.add_ap(site);
      mac::WifiDeviceConfig cfg;
      cfg.is_ap = true;
      cfg.bssid = 1;
      aps.push_back(std::make_unique<WifiDevice>(ctx, site.id, cfg));
    }
    // A slow drive past the APs: the responders' relative powers change
    // from frame to frame, so races go both ways.
    channel.add_client(net::kClientBase,
                       std::make_shared<channel::LinearMobility>(
                           channel::Vec3{-10, 0, 1.5},
                           channel::Vec3{4.0, 0, 0}));
    mac::WifiDeviceConfig cl_cfg;
    cl_cfg.bssid = 1;
    cl_cfg.ack_overlap_us = 15.0;
    client = std::make_unique<WifiDevice>(ctx, net::kClientBase, cl_cfg);
  }

  sim::Scheduler sched;
  phy::ErrorModel error_model;
  channel::ChannelModel channel;
  Medium medium;
  MacContext ctx;
  std::vector<std::unique_ptr<WifiDevice>> aps;
  std::unique_ptr<WifiDevice> client;
};

TEST(WifiDeviceTest, MultiApAckRaceOutcomesPinned) {
  // Pins the ACK-race model end to end: the collision count, the BA
  // outcomes, and the management-ACK results are exact functions of the
  // seeds, so any change to which responder powers are compared, or to the
  // instants they are sampled at, moves these numbers.
  MultiApWorld w;
  int mgmt_ok = 0;
  int mgmt_failed = 0;
  for (std::uint64_t i = 0; i < 400; ++i) {
    w.sched.schedule_at(Time::ms(5 * static_cast<std::int64_t>(i)), [&w, i]() {
      w.client->enqueue(1, data_pkt(net::kClientBase, net::kServerBase, i));
    });
  }
  for (std::int64_t i = 0; i < 40; ++i) {
    w.sched.schedule_at(Time::ms(50 * i + 2), [&]() {
      net::Packet m;
      m.type = net::PacketType::kMgmt;
      m.src = net::kClientBase;
      m.dst = 1;
      m.size_bytes = 90;
      w.client->send_management(1, net::make_packet(m), [&](bool ok) {
        ++(ok ? mgmt_ok : mgmt_failed);
      });
    });
  }
  w.sched.run_until(Time::sec(2.2));
  const DeviceStats& st = w.client->stats();
  EXPECT_EQ(st.ack_collisions, 546u);
  EXPECT_EQ(st.block_acks_lost, 447u);
  EXPECT_EQ(st.aggregates_sent, 611u);
  EXPECT_EQ(st.mpdus_sent, 1323u);
  EXPECT_EQ(st.mpdus_delivered, 379u);
  EXPECT_EQ(st.mpdus_dropped, 11u);
  EXPECT_EQ(mgmt_ok, 35);
  EXPECT_EQ(mgmt_failed, 5);
}

TEST(MediumTest, SerializesAudibleTransmitters) {
  MacWorld w;
  // Two clients close together must not overlap their transmissions.
  w.channel.add_client(net::kClientBase + 1,
                       std::make_shared<channel::StaticMobility>(
                           channel::Vec3{2, 0, 1.5}));
  int grants = 0;
  Time first_end;
  Time second_start;
  w.medium.request(net::kClientBase, Time::ms(2), 0, [&]() {
    ++grants;
    first_end = w.sched.now() + Time::ms(2);
  });
  w.sched.schedule(Time::us(100), [&]() {
    w.medium.attach(net::kClientBase + 1, 20.0);
    w.medium.request(net::kClientBase + 1, Time::ms(2), 0, [&]() {
      ++grants;
      second_start = w.sched.now();
    });
  });
  w.sched.run_until(Time::ms(20));
  EXPECT_EQ(grants, 2);
  EXPECT_GE(second_start, first_end);
}

TEST(MediumTest, OrthogonalChannelsDoNotCarrierSense) {
  MacWorld w;
  // Put a second client right next to the first but on another channel.
  w.channel.add_client(net::kClientBase + 1,
                       std::make_shared<channel::StaticMobility>(
                           channel::Vec3{1, 0, 1.5}));
  w.medium.attach(net::kClientBase + 1, 20.0, /*channel=*/6);
  Time first_grant;
  Time second_grant;
  w.medium.request(net::kClientBase, Time::ms(5), 0,
                   [&]() { first_grant = w.sched.now(); });
  w.sched.schedule(Time::us(100), [&]() {
    w.medium.request(net::kClientBase + 1, Time::ms(5), 0,
                     [&]() { second_grant = w.sched.now(); });
  });
  w.sched.run_until(Time::ms(20));
  // Concurrent transmissions: the second did not wait for the first.
  EXPECT_LT(second_grant, first_grant + Time::ms(5));
}

TEST(MediumTest, OrthogonalChannelsDoNotInterfere) {
  MacWorld w;
  w.channel.add_client(net::kClientBase + 1,
                       std::make_shared<channel::StaticMobility>(
                           channel::Vec3{1, 0, 1.5}));
  w.medium.attach(net::kClientBase + 1, 20.0, /*channel=*/6);
  w.medium.request(net::kClientBase + 1, Time::ms(10), 0, []() {});
  w.sched.run_until(Time::ms(1));
  // The channel-11 AP sees no interference from the channel-6 transmitter.
  EXPECT_EQ(w.medium.interference_mw_at(1, net::kClientBase), 0.0);
}

TEST(WifiDeviceTest, CrossChannelFramesNotReceived) {
  MacWorld w;
  w.client->set_channel(6, Time::zero());
  int delivered = 0;
  w.client->on_deliver = [&](net::PacketPtr, const RxMeta&) { ++delivered; };
  for (std::uint64_t i = 0; i < 5; ++i) {
    w.ap->enqueue(net::kClientBase,
                  data_pkt(net::kServerBase, net::kClientBase, i));
  }
  w.sched.run_until(Time::ms(100));
  EXPECT_EQ(delivered, 0);  // AP is on 11, client on 6
}

TEST(WifiDeviceTest, RetunePauseMakesRadioDeaf) {
  MacWorld w;
  EXPECT_TRUE(w.client->can_receive(w.sched.now()));
  w.client->set_channel(6, Time::ms(3));
  EXPECT_FALSE(w.client->can_receive(w.sched.now()));
  EXPECT_FALSE(w.client->can_receive(w.sched.now() + Time::ms(2)));
  EXPECT_TRUE(w.client->can_receive(w.sched.now() + Time::ms(4)));
  EXPECT_EQ(w.client->channel(), 6u);
}

TEST(MediumTest, UtilizationTracksOccupancy) {
  MacWorld w;
  w.medium.request(net::kClientBase, Time::ms(10), 0, []() {});
  w.sched.run_until(Time::ms(100));
  EXPECT_NEAR(w.medium.utilization(), 0.1, 0.02);
}

}  // namespace
}  // namespace wgtt::mac
