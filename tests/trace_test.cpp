// Golden-trace regression suite (ctest label: trace).
//
// Locks down the deterministic event-tracing pipeline end to end: a
// fixed-seed drive must emit Chrome trace-event JSON whose SHA-256 matches
// the hash pinned below, and the very same bytes must come out of a repeat
// run and of a 4-worker parallel sweep.  If an intentional change to the
// simulation or to the instrumentation shifts the trace, rerun this test and
// update kGoldenTraceSha256 to the "actual" value it prints.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/experiment.h"
#include "scenario/report.h"
#include "scenario/sweep.h"
#include "sim/fault_plan.h"
#include "util/json.h"
#include "util/profiler.h"
#include "util/sha256.h"
#include "util/trace.h"

namespace wgtt {
namespace {

// SHA-256 of the trace JSON emitted by golden_config() below.  Pinned from a
// run of this test; any drift in event content, ordering, or formatting for
// a fixed seed is a determinism regression.
constexpr char kGoldenTraceSha256[] =
    "83faa7a2e27a813a4981e548320d062dbc09f3d66a4fc0e08646920f4fea67ba";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The pinned scenario: a short fixed-seed WGTT drive through the testbed.
scenario::DriveScenarioConfig golden_config(std::string trace_path) {
  scenario::DriveScenarioConfig cfg;
  cfg.system = scenario::SystemType::kWgtt;
  cfg.traffic = scenario::TrafficType::kTcpDownlink;
  cfg.speed_mph = 25.0;
  cfg.duration = Time::sec(2);
  cfg.seed = 7;
  cfg.testbed.trace_path = std::move(trace_path);
  return cfg;
}

std::string run_golden_drive(const std::string& path) {
  scenario::run_drive(golden_config(path));  // trace flushes on teardown
  const std::string trace = read_file(path);
  std::remove(path.c_str());
  return trace;
}

TEST(TracerTest, FormatTsIsPureIntegerMath) {
  EXPECT_EQ(trace::Tracer::format_ts(Time::zero()), "0.000");
  EXPECT_EQ(trace::Tracer::format_ts(Time::ns(1)), "0.001");
  EXPECT_EQ(trace::Tracer::format_ts(Time::us(1)), "1.000");
  EXPECT_EQ(trace::Tracer::format_ts(Time::ns(1'234'567)), "1234.567");
  EXPECT_EQ(trace::Tracer::format_ts(Time::sec(3)), "3000000.000");
}

TEST(TracerTest, FormatTsStaysExactAtSoakHorizons) {
  // Multi-hour simulated timestamps sit far past double's 2^53 ns mantissa
  // range; the integer formatter must not lose the sub-microsecond digits.
  EXPECT_EQ(trace::Tracer::format_ts(Time::sec(3600)), "3600000000.000");
  EXPECT_EQ(trace::Tracer::format_ts(Time::sec(8 * 3600)), "28800000000.000");
  EXPECT_EQ(trace::Tracer::format_ts(Time::sec(24 * 3600) + Time::ns(1)),
            "86400000000.001");
  EXPECT_EQ(trace::Tracer::format_ts(Time::sec(7 * 24 * 3600) + Time::ns(999)),
            "604800000000.999");
  // ~106 simulated days, near the int64 microsecond scale used by reports.
  EXPECT_EQ(trace::Tracer::format_ts(Time::ns(9'216'000'000'000'000)),
            "9216000000000.000");
}

TEST(TracerTest, EmitsWellFormedChromeTraceDocument) {
  trace::Tracer t;
  t.instant("core", "switch_start", Time::ms(1), 0, {{"client", 100.0}});
  t.complete("mac", "ampdu_dl", Time::ms(2), Time::us(500), 5,
             {{"mpdus", 16.0}});
  t.counter("core", "backlog", Time::ms(3), 1700.0, 1);
  EXPECT_EQ(t.events(), 3u);
  const std::string& json = t.finish();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"name\":\"switch_start\",\"cat\":\"core\",\"ph\":\"i\","
                      "\"ts\":1000.000,\"pid\":1,\"tid\":0,\"s\":\"t\","
                      "\"args\":{\"client\":100}"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":2000.000,\"pid\":1,\"tid\":5,"
                      "\"dur\":500.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // finish() is idempotent.
  EXPECT_EQ(&t.finish(), &json);
}

TEST(Sha256Test, MatchesKnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                       "nopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // Tail spanning two blocks (length 56..63 forces the 2-block padding path).
  EXPECT_EQ(sha256_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(GoldenTraceTest, FixedSeedDriveMatchesPinnedHash) {
  const std::string trace = run_golden_drive("golden_trace_pin.json");
  ASSERT_FALSE(trace.empty());
  // Structural sanity: a loadable Chrome trace document with real events.
  EXPECT_EQ(trace.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(trace.substr(trace.size() - 2), "]}");
  EXPECT_NE(trace.find("\"cat\":\"mac\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"core\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"switch\""), std::string::npos);

  // Keep a copy for CI artifact upload when requested.
  if (const char* keep = std::getenv("WGTT_TRACE_KEEP")) {
    write_text_file(keep, trace);
  }

  EXPECT_EQ(sha256_hex(trace), kGoldenTraceSha256)
      << "trace drifted for a fixed seed; if intentional, repin the hash";
}

TEST(GoldenTraceTest, ByteIdenticalAcrossRunsAndParallelSweep) {
  const std::string first = run_golden_drive("golden_trace_a.json");
  const std::string second = run_golden_drive("golden_trace_b.json");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "repeat run produced a different trace";

  // The same config as run i of a 4-worker sweep: the trace must not care
  // which thread ran the simulation.  The other runs vary seed/system so
  // the workers genuinely interleave different sims.
  std::vector<scenario::DriveScenarioConfig> configs;
  configs.push_back(golden_config("golden_trace_sweep.json"));
  for (std::uint64_t seed : {8, 9, 10}) {
    scenario::DriveScenarioConfig cfg = golden_config({});
    cfg.seed = seed;
    if (seed == 9) cfg.system = scenario::SystemType::kEnhanced80211r;
    configs.push_back(cfg);
  }
  scenario::SweepRunner runner(scenario::SweepOptions{.jobs = 4});
  runner.run(configs);
  const std::string swept = read_file("golden_trace_sweep.json");
  std::remove("golden_trace_sweep.json");
  EXPECT_EQ(first, swept) << "parallel sweep produced a different trace";
}

// ---------------------------------------------------------------------------
// Decision audit log + telemetry: same determinism contract as the trace
// ---------------------------------------------------------------------------

/// Golden config plus the observability layer this suite locks down.
scenario::DriveScenarioConfig observed_config() {
  scenario::DriveScenarioConfig cfg = golden_config({});
  cfg.testbed.enable_decision_log = true;
  cfg.testbed.enable_telemetry = true;
  cfg.testbed.telemetry_period = Time::ms(100);
  return cfg;
}

TEST(DecisionLogTest, ByteIdenticalAcrossRunsAndParallelSweep) {
  const auto cfg = observed_config();
  const scenario::DriveResult first = scenario::run_drive(cfg);
  const scenario::DriveResult second = scenario::run_drive(cfg);
  ASSERT_GT(first.decision_records, 0u);
  ASSERT_FALSE(first.decision_jsonl.empty());
  EXPECT_EQ(first.decision_jsonl, second.decision_jsonl)
      << "repeat run produced a different decision log";
  EXPECT_EQ(first.decision_records, second.decision_records);

  // Same config as run 0 of an 8-worker sweep; the other seven runs vary
  // seed/system so the workers genuinely interleave different sims.
  std::vector<scenario::DriveScenarioConfig> configs{cfg};
  for (std::uint64_t seed = 8; seed < 15; ++seed) {
    scenario::DriveScenarioConfig other = observed_config();
    other.seed = seed;
    if (seed % 3 == 0) other.system = scenario::SystemType::kEnhanced80211r;
    configs.push_back(other);
  }
  scenario::SweepRunner runner(scenario::SweepOptions{.jobs = 8});
  const scenario::SweepOutcome outcome = runner.run(configs);
  EXPECT_EQ(first.decision_jsonl, outcome.runs[0].result.decision_jsonl)
      << "8-worker sweep produced a different decision log";
  EXPECT_EQ(first.telemetry.to_csv(), outcome.runs[0].result.telemetry.to_csv())
      << "8-worker sweep produced a different telemetry CSV";
}

TEST(DecisionLogTest, RecordsEverySwitchCountedInMetrics) {
  const scenario::DriveResult r = scenario::run_drive(observed_config());
  // One JSONL line per decision evaluation, plus the schema header.
  std::size_t lines = 0;
  for (char ch : r.decision_jsonl) lines += ch == '\n';
  EXPECT_EQ(lines, r.decision_records + 1);
  EXPECT_EQ(r.decision_jsonl.rfind(
                "{\"kind\":\"schema\",\"stream\":\"wgtt.decisions\"", 0),
            0u);
  // "switch" outcomes in the log match the counted switch records...
  std::size_t switch_lines = 0;
  for (std::size_t pos = r.decision_jsonl.find("\"outcome\":\"switch\"");
       pos != std::string::npos;
       pos = r.decision_jsonl.find("\"outcome\":\"switch\"", pos + 1)) {
    ++switch_lines;
  }
  EXPECT_EQ(switch_lines, r.decision_switch_records);
  // ...and every switch the metrics block counted has an audit entry
  // (decisions are recorded at initiation, so completed <= logged).
  std::uint64_t completed = 0;
  for (const auto& [name, value] : r.metrics.counters) {
    if (name == "core.switches_completed") completed = value;
  }
  ASSERT_GT(completed, 0u);
  EXPECT_GE(r.decision_switch_records, completed);
  EXPECT_EQ(r.switches.size(), static_cast<std::size_t>(completed));
}

TEST(TelemetryTest, CsvShapeAndDeterminism) {
  const auto cfg = observed_config();
  const scenario::DriveResult a = scenario::run_drive(cfg);
  const scenario::DriveResult b = scenario::run_drive(cfg);
  const std::string csv = a.telemetry.to_csv();
  ASSERT_FALSE(csv.empty());
  EXPECT_EQ(csv, b.telemetry.to_csv())
      << "repeat run produced a different telemetry CSV";

  // Header names the standard drive columns.
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header.rfind("t_us,", 0), 0u);
  EXPECT_NE(header.find(".ap"), std::string::npos);
  EXPECT_NE(header.find(".goodput_mbps"), std::string::npos);
  EXPECT_NE(header.find(".cwnd"), std::string::npos);  // golden run is TCP
  EXPECT_NE(header.find(".backlog"), std::string::npos);

  // Rectangular: every line has the header's field count.
  const std::size_t fields = 1 + static_cast<std::size_t>(std::count(
                                     header.begin(), header.end(), ','));
  std::size_t rows = 0;
  std::size_t start = header.size() + 1;
  while (start < csv.size()) {
    std::size_t end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    const std::string line = csv.substr(start, end - start);
    EXPECT_EQ(1 + static_cast<std::size_t>(
                      std::count(line.begin(), line.end(), ',')),
              fields);
    ++rows;
    start = end + 1;
  }
  EXPECT_EQ(rows, a.telemetry.row_count());
  ASSERT_GT(rows, 10u);  // 2 s drive, 100 ms period, started at app_start
}

TEST(TelemetryTest, CsvTimestampsStayExactAtSoakHorizons) {
  // An hourly sampler ticking for eight simulated hours: every t_us in the
  // CSV must be the exact integer-formatted microsecond count — a double
  // round-trip would corrupt the low digits past a few simulated hours.
  sim::Scheduler sched;
  scenario::TelemetrySampler sampler(sched, Time::sec(3600));
  double ticks = 0.0;
  sampler.add_column("unit.ticks", 0, [&ticks]() { return ticks++; });
  sampler.start();
  sched.run_until(Time::sec(8 * 3600) + Time::ms(1));

  const std::string csv = sampler.to_csv();
  EXPECT_EQ(sampler.table().row_count(), 9u);  // t=0h..8h inclusive
  EXPECT_NE(csv.find("\n3600000000.000,"), std::string::npos);
  EXPECT_NE(csv.find("\n28800000000.000,"), std::string::npos);
  ASSERT_EQ(sampler.table().times.size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(sampler.table().times[i], Time::sec(3600) * static_cast<int>(i));
  }
}

TEST(ProfilerTest, RunProfileIsNonEmptyAndBoundedByWallTime) {
  const std::int64_t start = prof::Profiler::now_ns();
  const scenario::DriveResult r = scenario::run_drive(golden_config({}));
  const std::int64_t wall_ns = prof::Profiler::now_ns() - start;
  ASSERT_FALSE(r.profile.empty());
  // Exclusive self-time: the per-section totals can never sum past the
  // run's wall clock.
  EXPECT_LE(r.profile.total_ns(), wall_ns);
  bool saw_dispatch = false;
  for (const auto& s : r.profile.sections) {
    EXPECT_GT(s.calls, 0u);
    EXPECT_GE(s.self_ns, 0);
    if (s.name == "sim.dispatch") saw_dispatch = true;
  }
  EXPECT_TRUE(saw_dispatch);

  // The profile lands in the bench-report JSON and parses back.
  scenario::SweepReport report;
  report.bench_id = "unit";
  report.runs.push_back(
      scenario::make_run_report("run", golden_config({}), r, 1.0));
  JsonValue parsed;
  std::string err;
  ASSERT_TRUE(json_parse(report.to_json(), parsed, &err)) << err;
  const JsonValue* run = &parsed.find("runs")->as_array()[0];
  const JsonValue* profile = run->find("profile");
  ASSERT_TRUE(profile != nullptr);
  EXPECT_TRUE(profile->find("sections") != nullptr);
}

// ---------------------------------------------------------------------------
// JSONL streams: the same SHA-256 lockdown as the trace
// ---------------------------------------------------------------------------

/// SHA-256 of each JSONL stream of one streams_config() drive.
struct StreamPins {
  const char* decisions;
  const char* packets;
  const char* causal;
  const char* health;
};

// Pinned from runs of this test.  Any drift in record content, ordering or
// number formatting for a fixed seed is a determinism regression.
constexpr StreamPins kGoldenStreamSha256 = {
    "737fa633fa5619fbc8b1187f143aa0c8c61333f722db34539c7c9510261ab3a6",
    "c7859064a950b18cd3d696fcae3e4544a7a55c289ef5b089fa596c8dd289de5f",
    "0063d4a37608aa19fceb6443adc8c4fe8e16127614c164774180eb659a68774d",
    "3834e3f15a31de0ba0deb54ef24e3ac28d5c9503bfe111c5bdd58defdacc3bb6",
};
// The same drive under a seeded chaos plan: adds the liveness, fault and
// outage record kinds and the version-2 schema headers.
constexpr StreamPins kGoldenChaosStreamSha256 = {
    "f6d3c45302dc0ec2b176558ad23aba3f12fd7d42b394947f7a8b28f8033fd5a7",
    "7a1ea17686f8f2692eaf65b5fcb542fe44e50d608e49404539cdb34a7b735b4a",
    "01c84319aeab166853fa5f9fbb1100c58442232fa23f1494e96cf3e689bef61b",
    "74039904ecf2194bb17a1f57424835ae8a2a8847896d4f6b7ff1ee5fa0db196d",
};

/// The golden drive with every JSONL stream on, optionally under chaos.
scenario::DriveScenarioConfig streams_config(bool chaos) {
  scenario::DriveScenarioConfig cfg = golden_config({});
  cfg.testbed.enable_decision_log = true;
  cfg.testbed.enable_packet_log = true;
  cfg.testbed.enable_causal = true;
  cfg.testbed.enable_health = true;
  if (chaos) {
    cfg.testbed.faults = sim::FaultPlan::chaos(
        /*intensity=*/1.0, cfg.duration,
        static_cast<std::uint32_t>(cfg.testbed.ap_x.size()), cfg.seed);
  }
  return cfg;
}

void expect_pinned(const scenario::DriveResult& r, const StreamPins& pins) {
  EXPECT_EQ(sha256_hex(r.decision_jsonl), pins.decisions)
      << "decision stream drifted for a fixed seed";
  EXPECT_EQ(sha256_hex(r.packet_jsonl), pins.packets)
      << "packet stream drifted for a fixed seed";
  EXPECT_EQ(sha256_hex(r.causal_jsonl), pins.causal)
      << "causal stream drifted for a fixed seed";
  EXPECT_EQ(sha256_hex(r.health_jsonl), pins.health)
      << "health stream drifted for a fixed seed";
}

TEST(GoldenStreamsTest, FixedSeedStreamsMatchPinnedHashes) {
  const scenario::DriveResult r = scenario::run_drive(streams_config(false));
  ASSERT_GT(r.decision_records, 0u);
  ASSERT_GT(r.packet_records, 0u);
  ASSERT_GT(r.causal_records, 0u);
  ASSERT_GT(r.health_windows, 0u);
  expect_pinned(r, kGoldenStreamSha256);
}

TEST(GoldenStreamsTest, ChaosStreamsMatchPinnedHashes) {
  const scenario::DriveResult r = scenario::run_drive(streams_config(true));
  EXPECT_NE(r.decision_jsonl.find("\"kind\":\"liveness\""), std::string::npos);
  EXPECT_NE(r.health_jsonl.find("\"kind\":\"fault\""), std::string::npos);
  EXPECT_NE(r.health_jsonl.find("\"kind\":\"outage\""), std::string::npos);
  expect_pinned(r, kGoldenChaosStreamSha256);
}

TEST(GoldenStreamsTest, WrittenFilesEqualTheResultDocuments) {
  // The files the Testbed writes and the documents handed back in the
  // DriveResult are the same bytes.
  scenario::DriveScenarioConfig cfg = streams_config(true);
  cfg.testbed.decision_log_path = "golden_streams_decisions.jsonl";
  cfg.testbed.packet_log_path = "golden_streams_packets.jsonl";
  cfg.testbed.causal_path = "golden_streams_causal.jsonl";
  cfg.testbed.health_path = "golden_streams_health.jsonl";
  const scenario::DriveResult r = scenario::run_drive(cfg);
  const auto take = [](const std::string& path) {
    std::string text = read_file(path);
    std::remove(path.c_str());
    return text;
  };
  ASSERT_FALSE(r.decision_jsonl.empty());
  EXPECT_EQ(take(cfg.testbed.decision_log_path), r.decision_jsonl);
  EXPECT_EQ(take(cfg.testbed.packet_log_path), r.packet_jsonl);
  EXPECT_EQ(take(cfg.testbed.causal_path), r.causal_jsonl);
  EXPECT_EQ(take(cfg.testbed.health_path), r.health_jsonl);
}

TEST(GoldenTraceTest, MetricsSnapshotIdenticalAcrossRunsAndJson) {
  // Metrics ride the same determinism guarantee as the trace: snapshot JSON
  // (ordered maps, %.10g doubles) must be byte-stable for a fixed seed.
  const auto cfg = golden_config({});
  const std::string a = scenario::run_drive(cfg).metrics.to_json();
  const std::string b = scenario::run_drive(cfg).metrics.to_json();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The counters the bench reports surface are present and non-trivial.
  EXPECT_NE(a.find("\"sim.events_dispatched\":"), std::string::npos);
  EXPECT_NE(a.find("\"mac.airtime_ns_total\":"), std::string::npos);
  EXPECT_NE(a.find("\"core.switches_completed\":"), std::string::npos);
}

}  // namespace
}  // namespace wgtt
