// Bench output flags: a flag either does what its help text says or is
// rejected.  Numeric flags take positive integers only, an output path that
// cannot be written is refused before any simulation runs, and a write that
// still fails at the end of a run is logged at error level.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "scenario/testbed.h"
#include "util/logging.h"

namespace wgtt {
namespace {

const char kUnwritable[] = "/nonexistent/dir/p.jsonl";

bench::BenchArgs parse(std::vector<std::string> args) {
  std::string prog = "bench";
  std::vector<char*> argv{prog.data()};
  for (std::string& a : args) argv.push_back(a.data());
  return bench::parse_args(static_cast<int>(argv.size()), argv.data());
}

bool exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(BenchArgsTest, RejectsNumericFlagsThatAreNotPositiveIntegers) {
  const std::vector<std::vector<std::string>> bad = {
      {"--packet-sample", "0"}, {"--packet-sample", "abc"},
      {"--packet-sample=-3"},   {"--packet-sample", "4294967296"},
      {"--jobs", "abc"},        {"--jobs=0"},
      {"-j", "4x"},             {"--jobs"},
  };
  for (const auto& args : bad) {
    EXPECT_EXIT(parse(args), testing::ExitedWithCode(2),
                "expects a positive integer")
        << args[0];
  }
}

TEST(BenchArgsTest, AcceptsPositiveNumericFlags) {
  const bench::BenchArgs a = parse({"--jobs", "3", "--packet-sample=64"});
  EXPECT_EQ(a.sweep.jobs, 3u);
  EXPECT_EQ(a.packet_sample, 64u);
  const bench::BenchArgs b = parse({"-j", "2", "--packet-sample", "1"});
  EXPECT_EQ(b.sweep.jobs, 2u);
  EXPECT_EQ(b.packet_sample, 1u);
}

TEST(BenchArgsTest, UnwritableOutputPathExitsTwo) {
  EXPECT_EXIT(bench::claim_output_path(kUnwritable, /*force=*/true, "packets"),
              testing::ExitedWithCode(2), "cannot write packets output");
}

TEST(BenchArgsTest, WritabilityProbeLeavesFilesAsTheyWere) {
  const std::string fresh = "output_test_fresh.jsonl";
  std::remove(fresh.c_str());
  EXPECT_EQ(bench::claim_output_path(fresh, /*force=*/false, "packets"),
            fresh);
  EXPECT_FALSE(exists(fresh)) << "the probe must not leave an empty file";

  const std::string kept = "output_test_kept.jsonl";
  ASSERT_TRUE(write_text_file(kept, "old"));
  EXPECT_EQ(bench::claim_output_path(kept, /*force=*/true, "packets"), kept);
  std::string text;
  ASSERT_TRUE(read_text_file(kept, text));
  EXPECT_EQ(text, "old") << "the probe must not truncate under --force";
  std::remove(kept.c_str());
}

TEST(TestbedFinishTest, FailedWriteIsLoggedAtErrorLevel) {
  auto sink = std::make_shared<CapturingLogSink>(LogLevel::kError);
  scenario::TestbedConfig cfg;
  cfg.log_sink = sink;
  cfg.packet_log_path = kUnwritable;
  {
    scenario::Testbed bed(cfg);
    EXPECT_FALSE(bed.finish());
    EXPECT_FALSE(bed.finish());  // idempotent: one attempt, one message
  }
  ASSERT_EQ(sink->entries().size(), 1u);
  EXPECT_EQ(sink->entries()[0].level, LogLevel::kError);
  EXPECT_NE(sink->entries()[0].message.find(kUnwritable), std::string::npos);
}

}  // namespace
}  // namespace wgtt
