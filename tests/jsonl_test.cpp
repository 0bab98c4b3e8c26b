// JSONL line-writer suite: the shared stream formatter must render every
// record exactly as the std::to_string expressions it replaced, at the
// extremes of every field, and a record longer than its stack buffer must
// come out whole (the ASan job checks the buffer bounds).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "core/decision_log.h"
#include "net/flight_recorder.h"
#include "util/causal.h"
#include "util/jsonl.h"
#include "util/trace.h"

namespace wgtt {
namespace {

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

// --- the expressions the streams used before the shared writer -----------

std::string old_ts(Time t) {
  const std::int64_t ns = t.to_ns();
  std::string out = std::to_string(ns / 1000);
  const std::int64_t frac = ns % 1000;
  out += '.';
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
  return out;
}

std::string old_milli(double v) {
  return std::to_string(std::llround(v * 1000.0));
}

std::string old_fixed3(double v) {
  if (!std::isfinite(v)) return "0.000";
  const bool neg = v < 0.0;
  const long long scaled = std::llround(std::fabs(v) * 1000.0);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%lld.%03lld", neg ? "-" : "",
                scaled / 1000, scaled % 1000);
  return buf;
}

std::string line_of(Time t) {
  std::string out;
  JsonlLine(out).ts(t);
  return out;
}

// The soak horizon (a week of simulated time, sub-microsecond digits set)
// and the largest representable sim time.
const Time kSoakHorizon = Time::sec(7 * 24 * 3600) + Time::ns(999);
const Time kLatest = Time::infinity();

TEST(JsonlLineTest, IntegersMatchToStringAtTheExtremes) {
  std::string out;
  JsonlLine(out)
      .num(kI64Min).raw(",").num(kI64Max).raw(",").num(kU64Max).raw(",")
      .num(std::int64_t{0}).raw(",").num(std::uint32_t{4294967295u});
  EXPECT_EQ(out, std::to_string(kI64Min) + "," + std::to_string(kI64Max) +
                     "," + std::to_string(kU64Max) + ",0,4294967295");
}

TEST(JsonlLineTest, TimestampsMatchTheTracerFormat) {
  for (const Time t : {Time::zero(), Time::ns(1), Time::ns(1'234'567),
                       kSoakHorizon, kLatest}) {
    EXPECT_EQ(line_of(t), old_ts(t));
    EXPECT_EQ(trace::Tracer::format_ts(t), old_ts(t));
  }
  EXPECT_EQ(line_of(kLatest), "9223372036854775.807");
}

TEST(JsonlLineTest, FixedPointMatchesTheOldFormatters) {
  for (const double v : {0.0, -0.0, 0.0004, -0.0004, 0.0005, -12.3456,
                         1e12, -1e12, 123456.7895}) {
    std::string milli;
    JsonlLine(milli).milli(v);
    EXPECT_EQ(milli, old_milli(v)) << v;
    std::string fixed;
    JsonlLine(fixed).fixed3(v);
    EXPECT_EQ(fixed, old_fixed3(v)) << v;
  }
  for (const double v : {std::nan(""), std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::string fixed;
    JsonlLine(fixed).fixed3(v);
    EXPECT_EQ(fixed, "0.000");
  }
}

TEST(JsonlLineTest, RecordsLongerThanTheBufferComeOutWhole) {
  // Several buffers' worth of escaped text, numbers and one raw run longer
  // than the whole buffer, interleaved so every spill path runs.
  const std::string name(700, 'n');
  std::string text;
  for (int i = 0; i < 300; ++i) text += i % 7 == 0 ? "\"\\" : "ab";
  std::string expected = "{";
  std::string out = "{";
  {
    JsonlLine line(out);
    for (int i = 0; i < 40; ++i) {
      line.num(kI64Min).raw(",").ts(kLatest).raw(",");
      expected += std::to_string(kI64Min) + "," + old_ts(kLatest) + ",";
    }
    line.raw(name).escaped(text).boolean(true);
  }
  expected += name;
  for (char c : text) {
    if (c == '"' || c == '\\') expected += '\\';
    expected += c;
  }
  expected += "true";
  EXPECT_EQ(out, expected);
}

TEST(JsonlLineTest, PacketRecordMatchesTheOldLineAtTheExtremes) {
  net::FlightRecorder fr;
  fr.record(kU64Max, kSoakHorizon, net::Hop::kMacTx, 4294967295u,
            {{"ap", kI64Min}, {"seq", kI64Max}, {"mcs", -1}, {"tries", 0},
             {"index", 1}});
  fr.drop(kU64Max, kLatest, net::Hop::kMacDrop, 0,
          net::DropCause::kRetryLimit,
          {{"ap", kI64Min}, {"seq", kI64Max}, {"tries", 7}});
  const std::string args = ",\"ap\":" + std::to_string(kI64Min) +
                           ",\"seq\":" + std::to_string(kI64Max);
  const std::string expected =
      "{\"kind\":\"schema\",\"stream\":\"wgtt.packets\",\"version\":" +
      std::to_string(net::kPacketLogSchemaVersion) + "}\n" +
      "{\"uid\":" + std::to_string(kU64Max) + ",\"t_us\":" +
      old_ts(kSoakHorizon) + ",\"hop\":\"mac_tx\",\"node\":4294967295" +
      args + ",\"mcs\":-1,\"tries\":0,\"index\":1}\n" +
      "{\"uid\":" + std::to_string(kU64Max) + ",\"t_us\":" + old_ts(kLatest) +
      ",\"hop\":\"mac_drop\",\"node\":0" + args +
      ",\"tries\":7,\"cause\":\"retry_limit\"}\n";
  EXPECT_EQ(fr.jsonl(), expected);
  EXPECT_EQ(fr.records(), 2u);
}

TEST(JsonlLineTest, CausalRecordsMatchTheOldLinesAtTheExtremes) {
  obs::CausalTracer causal;
  causal.edge(kU64Max, kU64Max - 1, kSoakHorizon);
  causal.annotate("ctrl.switch", {{"client", kI64Min},
                                  {"from", kI64Max},
                                  {"to", -1},
                                  {"switch_id", 0},
                                  {"epoch", 3}});
  const std::string expected =
      "{\"kind\":\"schema\",\"stream\":\"wgtt.causal\",\"version\":" +
      std::to_string(obs::kCausalSchemaVersion) + "}\n" +
      "{\"ev\":" + std::to_string(kU64Max) +
      ",\"parent\":" + std::to_string(kU64Max - 1) +
      ",\"at_us\":" + old_ts(kSoakHorizon) + "}\n" +
      "{\"ev\":0,\"site\":\"ctrl.switch\",\"t_us\":0.000,\"client\":" +
      std::to_string(kI64Min) + ",\"from\":" + std::to_string(kI64Max) +
      ",\"to\":-1,\"switch_id\":0,\"epoch\":3}\n";
  EXPECT_EQ(causal.jsonl(), expected);
}

TEST(JsonlLineTest, DecisionRecordWithManyCandidatesMatchesTheOldLine) {
  core::DecisionRecord rec;
  rec.t = kSoakHorizon;
  rec.client = 4294967295u;
  rec.incumbent = 3;
  rec.chosen = 17;
  rec.policy = "median_esnr";
  rec.outcome = core::DecisionOutcome::kSwitch;
  rec.reason = core::DecisionReason::kChallengerAhead;
  rec.margin_db = -2.0005;
  rec.hysteresis_remaining = kLatest;
  // Enough candidates that the record outgrows the line buffer.
  std::string candidates;
  for (std::uint32_t ap = 1; ap <= 24; ++ap) {
    core::DecisionCandidate c;
    c.ap = ap;
    c.median_db = ap % 2 == 0 ? 1e9 / ap : -31.2345 * ap;
    c.readings = ap == 24 ? std::numeric_limits<std::size_t>::max() : ap;
    c.eligible = ap % 3 == 0;
    rec.candidates.push_back(c);
    if (ap > 1) candidates += ',';
    candidates += "{\"ap\":" + std::to_string(c.ap) +
                  ",\"median_mdb\":" + old_milli(c.median_db) +
                  ",\"readings\":" + std::to_string(c.readings) +
                  ",\"eligible\":" + (c.eligible ? "true" : "false") + "}";
  }
  core::DecisionLog log;
  log.append(rec);
  const std::string expected =
      "{\"kind\":\"schema\",\"stream\":\"wgtt.decisions\",\"version\":" +
      std::to_string(core::kDecisionLogSchemaVersion) + "}\n" +
      "{\"t_us\":" + old_ts(kSoakHorizon) +
      ",\"client\":4294967295,\"incumbent\":3,\"chosen\":17,"
      "\"policy\":\"median_esnr\",\"outcome\":\"switch\","
      "\"reason\":\"challenger_ahead\",\"margin_mdb\":" +
      old_milli(rec.margin_db) + ",\"hyst_remaining_us\":" + old_ts(kLatest) +
      ",\"candidates\":[" + candidates + "]}\n";
  ASSERT_GT(expected.size(), 1024u);
  EXPECT_EQ(log.jsonl(), expected);
  EXPECT_EQ(log.switches(), 1u);
}

TEST(JsonlLineTest, TakeMovesTheDocumentOut) {
  net::FlightRecorder fr;
  fr.marker(Time::ms(1), net::Hop::kSwitchStart, 0, {{"client", 100}});
  const std::string copy = fr.jsonl();
  EXPECT_EQ(fr.take_jsonl(), copy);
  EXPECT_EQ(fr.records(), 1u);
}

}  // namespace
}  // namespace wgtt
