// Tests for the bench_suite command-line parser (bench/bench_flags.h): every
// rejection path must name the offending flag and token -- no silent atoi
// clamping, no anonymous "usage" bail-outs.

#include "bench/bench_flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace xk {
namespace {

// argv helper: builds a mutable char** from string literals.
bool Parse(std::vector<std::string> args, Options* opt, std::string* error) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("bench_suite"));
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return ParseBenchArgs(static_cast<int>(argv.size()), argv.data(), opt, error);
}

TEST(BenchFlagsTest, ParsesEveryFlag) {
  Options opt;
  std::string error;
  ASSERT_TRUE(Parse({"--threads=3", "--out=o.json", "--trace=td", "--pcap=pd",
                     "--stats=sd", "--filter=^manyhost", "--faults=seed:7",
                     "--arrivals=poisson:rate=200,horizon=100ms", "--session-scale=1000",
                     "--list"},
                    &opt, &error))
      << error;
  EXPECT_EQ(opt.threads, 3u);
  EXPECT_EQ(opt.out_path, "o.json");
  EXPECT_EQ(opt.trace_dir, "td");
  EXPECT_EQ(opt.pcap_dir, "pd");
  EXPECT_EQ(opt.stats_dir, "sd");
  EXPECT_EQ(opt.filter, "^manyhost");
  EXPECT_EQ(opt.faults, "seed:7");
  EXPECT_EQ(opt.arrivals, "poisson:rate=200,horizon=100ms");
  EXPECT_EQ(opt.session_scale, 1000);
  EXPECT_TRUE(opt.list);
}

TEST(BenchFlagsTest, UnknownFlagIsNamed) {
  Options opt;
  std::string error;
  EXPECT_FALSE(Parse({"--wibble=3"}, &opt, &error));
  EXPECT_NE(error.find("--wibble=3"), std::string::npos) << error;
}

TEST(BenchFlagsTest, NonIntegerThreadsNamesFlagAndToken) {
  Options opt;
  std::string error;
  EXPECT_FALSE(Parse({"--threads=abc"}, &opt, &error));
  EXPECT_NE(error.find("--threads"), std::string::npos) << error;
  EXPECT_NE(error.find("'abc'"), std::string::npos) << error;
}

TEST(BenchFlagsTest, TrailingGarbageThreadsIsRejected) {
  Options opt;
  std::string error;
  // std::atoi would silently read this as 4.
  EXPECT_FALSE(Parse({"--threads=4x"}, &opt, &error));
  EXPECT_NE(error.find("'4x'"), std::string::npos) << error;
}

TEST(BenchFlagsTest, ZeroThreadsIsRejectedWithBound) {
  Options opt;
  std::string error;
  EXPECT_FALSE(Parse({"--threads=0"}, &opt, &error));
  EXPECT_NE(error.find("--threads"), std::string::npos) << error;
  EXPECT_NE(error.find(">= 1"), std::string::npos) << error;
}

// Flags of deleted features are rejected as unknown, not silently ignored.
TEST(BenchFlagsTest, EngineThreadsIsRejectedAsUnknown) {
  Options opt;
  std::string error;
  EXPECT_FALSE(Parse({"--engine-threads=2"}, &opt, &error));
  EXPECT_NE(error.find("unknown flag '--engine-threads=2'"), std::string::npos) << error;
}

TEST(BenchFlagsTest, BareEngineSpeedupIsRejectedAsUnknown) {
  Options opt;
  std::string error;
  EXPECT_FALSE(Parse({"--engine-speedup"}, &opt, &error));
  EXPECT_NE(error.find("unknown flag '--engine-speedup'"), std::string::npos) << error;
}

TEST(BenchFlagsTest, EngineSpeedupIsRejectedAsUnknown) {
  Options opt;
  std::string error;
  EXPECT_FALSE(Parse({"--engine-speedup=1"}, &opt, &error));
  EXPECT_NE(error.find("unknown flag '--engine-speedup=1'"), std::string::npos) << error;
}

TEST(BenchFlagsTest, StableIsRejectedAsUnknown) {
  Options opt;
  std::string error;
  EXPECT_FALSE(Parse({"--stable"}, &opt, &error));
  EXPECT_NE(error.find("unknown flag '--stable'"), std::string::npos) << error;
}

TEST(BenchFlagsTest, EmptyIntegerValueIsRejected) {
  Options opt;
  std::string error;
  EXPECT_FALSE(Parse({"--session-scale="}, &opt, &error));
  EXPECT_NE(error.find("--session-scale"), std::string::npos) << error;
}

// Values past INT_MAX used to be truncated to int: 2^32 + 1 threads ran one
// worker, 2^32 sessions added no job, and 10^11 threads aborted the run.
TEST(BenchFlagsTest, ValuesAboveIntMaxAreRejected) {
  for (const std::string arg : {"--threads=4294967297", "--threads=99999999999",
                                "--threads=99999999999999999999999",
                                "--session-scale=4294967296"}) {
    Options opt;
    std::string error;
    EXPECT_FALSE(Parse({arg}, &opt, &error)) << arg;
    EXPECT_NE(error.find(arg.substr(0, arg.find('=')) + ": bad value"), std::string::npos) << error;
    EXPECT_NE(error.find("<= 2147483647"), std::string::npos) << error;
    EXPECT_EQ(opt.threads, 1u) << arg;
    EXPECT_EQ(opt.session_scale, 0) << arg;
  }
}

TEST(BenchFlagsTest, IntMaxIsAccepted) {
  Options opt;
  std::string error;
  ASSERT_TRUE(Parse({"--threads=2147483647"}, &opt, &error)) << error;
  EXPECT_EQ(opt.threads, 2147483647u);
}

}  // namespace
}  // namespace xk
