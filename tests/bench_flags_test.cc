// Tests for the bench_suite command-line parser (bench/bench_flags.h) and the
// flag value parsers it shares with the tools (src/tools/flag_parse.h): every
// rejection path must name the offending flag and token -- no silent atoi
// clamping, no anonymous "usage" bail-outs.

#include "bench/bench_flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
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
  ASSERT_TRUE(Parse({"--out=o.json", "--trace=td", "--pcap=pd", "--filter=^manyhost",
                     "--faults=seed:7", "--arrivals=poisson:rate=200,horizon=100ms",
                     "--session-scale=1000", "--list"},
                    &opt, &error))
      << error;
  EXPECT_EQ(opt.out_path, "o.json");
  EXPECT_EQ(opt.trace_dir, "td");
  EXPECT_EQ(opt.pcap_dir, "pd");
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

// Flags of deleted features are rejected as unknown, not silently ignored.
// One table row per flag, each a test under its own name.
void ExpectUnknown(const std::string& arg) {
  Options opt;
  std::string error;
  EXPECT_FALSE(Parse({arg}, &opt, &error)) << arg;
  EXPECT_NE(error.find("unknown flag '" + arg + "'"), std::string::npos) << error;
}
TEST(BenchFlagsTest, EngineThreadsIsRejectedAsUnknown) { ExpectUnknown("--engine-threads=2"); }
TEST(BenchFlagsTest, BareEngineSpeedupIsRejectedAsUnknown) { ExpectUnknown("--engine-speedup"); }
TEST(BenchFlagsTest, EngineSpeedupIsRejectedAsUnknown) { ExpectUnknown("--engine-speedup=1"); }
TEST(BenchFlagsTest, StableIsRejectedAsUnknown) { ExpectUnknown("--stable"); }
TEST(BenchFlagsTest, ThreadsIsRejectedAsUnknown) { ExpectUnknown("--threads=4"); }
TEST(BenchFlagsTest, FlowIsRejectedAsUnknown) { ExpectUnknown("--flow=x"); }
TEST(BenchFlagsTest, StatsIsRejectedAsUnknown) { ExpectUnknown("--stats=x"); }

// The malformed values --threads was tested with: --threads itself is now an
// unknown flag, and the same value on --session-scale, the remaining integer
// flag, names the flag, the quoted token and why it was refused.
void ExpectMalformedInteger(const std::string& value, const std::string& reason) {
  ExpectUnknown("--threads=" + value);
  Options opt;
  std::string error;
  EXPECT_FALSE(Parse({"--session-scale=" + value}, &opt, &error)) << value;
  EXPECT_NE(error.find("--session-scale: bad value '" + value + "'"), std::string::npos) << error;
  EXPECT_NE(error.find(reason), std::string::npos) << error;
  EXPECT_EQ(opt.session_scale, 0) << value;
}
TEST(BenchFlagsTest, NonIntegerThreadsNamesFlagAndToken) {
  ExpectMalformedInteger("abc", "expected an integer");
}
// std::atoi would silently read this as 4.
TEST(BenchFlagsTest, TrailingGarbageThreadsIsRejected) {
  ExpectMalformedInteger("4x", "expected an integer");
}
TEST(BenchFlagsTest, ZeroThreadsIsRejectedWithBound) { ExpectMalformedInteger("0", ">= 1"); }

TEST(BenchFlagsTest, EmptyIntegerValueIsRejected) {
  Options opt;
  std::string error;
  EXPECT_FALSE(Parse({"--session-scale="}, &opt, &error));
  EXPECT_NE(error.find("--session-scale"), std::string::npos) << error;
}

// Values past INT_MAX used to be truncated to int: 2^32 sessions added no
// job.
TEST(BenchFlagsTest, ValuesAboveIntMaxAreRejected) {
  for (const std::string arg : {"--session-scale=2147483648", "--session-scale=4294967296",
                                "--session-scale=99999999999999999999999"}) {
    Options opt;
    std::string error;
    EXPECT_FALSE(Parse({arg}, &opt, &error)) << arg;
    EXPECT_NE(error.find("--session-scale: bad value"), std::string::npos) << error;
    EXPECT_NE(error.find("<= 2147483647"), std::string::npos) << error;
    EXPECT_EQ(opt.session_scale, 0) << arg;
  }
}

TEST(BenchFlagsTest, IntMaxIsAccepted) {
  Options opt;
  std::string error;
  ASSERT_TRUE(Parse({"--session-scale=2147483647"}, &opt, &error)) << error;
  EXPECT_EQ(opt.session_scale, 2147483647);
}

// xktrace call TRACE ID: call ids exceed INT_MAX.
TEST(BenchFlagsTest, Uint64FlagTakesTheWholeToken) {
  for (const auto& [value, want] :
       {std::pair<const char*, uint64_t>{"0", 0}, {"8589934593", 8589934593u},
        {"18446744073709551615", UINT64_MAX}}) {
    uint64_t out = 1;
    std::string error;
    EXPECT_TRUE(ParseFlagUint64("--call", value, &out, &error)) << error;
    EXPECT_EQ(out, want) << value;
  }
  for (const char* value : {"", "abc", "7x", "-1", "+1", " 1", "18446744073709551616"}) {
    uint64_t out = 7;
    std::string error;
    EXPECT_FALSE(ParseFlagUint64("--call", value, &out, &error)) << value;
    EXPECT_NE(error.find(std::string("--call: bad value '") + value + "'"), std::string::npos)
        << error;
    EXPECT_EQ(out, 7u) << value;
  }
}

}  // namespace
}  // namespace xk
