// Tests for the bench regression comparator (src/tools/bench_diff.h): the
// exact code path the xkbench_diff CLI runs on suite-shaped JSON.

#include "src/tools/bench_diff.h"

#include <string>

#include "gtest/gtest.h"

namespace xk::benchdiff {
namespace {

// A miniature BENCH_RESULTS.json with the shapes the comparator must handle:
// group/name-keyed results, nested metrics, percentiles, and segments.
std::string SuiteJson(double latency_ms, double throughput, double util_ppm,
                      bool include_udp = true) {
  std::string out = R"({
  "schema_version": 2,
  "results": [
    {"group": "table3", "name": "L_RPC",
     "metrics": {"latency_ms": )" + std::to_string(latency_ms) + R"(,
                 "throughput_kbytes_per_sec": )" + std::to_string(throughput) + R"(},
     "percentiles": {"count": 64, "p50_ms": )" + std::to_string(latency_ms) + R"(,
                     "p999_ms": )" + std::to_string(latency_ms * 1.2) + R"(}},
    {"group": "manyhost", "name": "pairs",
     "metrics": {"completed": 512, "failed": 0},
     "segments": [
       {"segment": 0, "frames": 100, "utilization_ppm": )" + std::to_string(util_ppm) + R"(},
       {"segment": 1, "frames": 100, "utilization_ppm": 5000}
     ]})";
  if (include_udp) {
    out += R"(,
    {"group": "table5", "name": "UDP", "metrics": {"latency_ms": 1.5}})";
  }
  out += "\n  ]\n}\n";
  return out;
}

TEST(BenchDiff, IdenticalFilesPass) {
  const std::string j = SuiteJson(2.0, 400, 9000);
  const Report r = Compare(j, j);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.compared, 5u);
  EXPECT_TRUE(r.regressions.empty());
}

TEST(BenchDiff, LatencyIncreaseIsRegression) {
  const Report r = Compare(SuiteJson(2.0, 400, 9000), SuiteJson(2.2, 400, 9000));
  ASSERT_FALSE(r.regressions.empty());
  bool found = false;
  for (const Finding& f : r.regressions) {
    if (f.path.find("table3.L_RPC") != std::string::npos &&
        f.path.find("latency_ms") != std::string::npos) {
      found = true;
      EXPECT_EQ(f.direction, Direction::kLowerBetter);
      EXPECT_GT(f.rel_err, 0.02);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchDiff, LatencyDecreaseIsImprovement) {
  const Report r = Compare(SuiteJson(2.0, 400, 9000), SuiteJson(1.5, 400, 9000));
  EXPECT_TRUE(r.ok());
}

TEST(BenchDiff, ThroughputDropIsRegressionRiseIsNot) {
  const Report drop = Compare(SuiteJson(2.0, 400, 9000), SuiteJson(2.0, 300, 9000));
  EXPECT_FALSE(drop.regressions.empty());
  EXPECT_EQ(drop.regressions[0].direction, Direction::kHigherBetter);
  const Report rise = Compare(SuiteJson(2.0, 400, 9000), SuiteJson(2.0, 500, 9000));
  EXPECT_TRUE(rise.ok());
}

TEST(BenchDiff, UtilizationDriftIsTwoSided) {
  const Report up = Compare(SuiteJson(2.0, 400, 9000), SuiteJson(2.0, 400, 12000));
  EXPECT_FALSE(up.regressions.empty());
  const Report down = Compare(SuiteJson(2.0, 400, 9000), SuiteJson(2.0, 400, 6000));
  EXPECT_FALSE(down.regressions.empty());
  EXPECT_EQ(down.regressions[0].direction, Direction::kTwoSided);
}

// Datacenter-job metric directions: goodput is higher-better (a drop
// regresses, a rise does not), while offered load and per-replica call
// counts are workload/routing facts -- drift either way is flagged.
std::string DatacenterJson(double goodput, double offered, int r0_calls) {
  return R"({
  "schema_version": 2,
  "results": [
    {"group": "datacenter", "name": "sat-low",
     "metrics": {"goodput_cps": )" + std::to_string(goodput) + R"(,
                 "offered_cps": )" + std::to_string(offered) + R"(},
     "replica_calls": {"r0_calls": )" + std::to_string(r0_calls) + R"(, "r1_calls": 60}}
  ]
}
)";
}

TEST(BenchDiff, GoodputDropIsRegressionRiseIsNot) {
  const Report drop = Compare(DatacenterJson(400, 500, 60), DatacenterJson(300, 500, 60));
  ASSERT_FALSE(drop.regressions.empty());
  EXPECT_EQ(drop.regressions[0].direction, Direction::kHigherBetter);
  const Report rise = Compare(DatacenterJson(400, 500, 60), DatacenterJson(500, 500, 60));
  EXPECT_TRUE(rise.ok());
}

TEST(BenchDiff, OfferedLoadDriftIsTwoSided) {
  const Report down = Compare(DatacenterJson(400, 500, 60), DatacenterJson(400, 400, 60));
  ASSERT_FALSE(down.regressions.empty());
  EXPECT_EQ(down.regressions[0].direction, Direction::kTwoSided);
  const Report up = Compare(DatacenterJson(400, 500, 60), DatacenterJson(400, 600, 60));
  EXPECT_FALSE(up.regressions.empty());
}

TEST(BenchDiff, ReplicaCallShareDriftIsTwoSided) {
  const Report down = Compare(DatacenterJson(400, 500, 60), DatacenterJson(400, 500, 40));
  ASSERT_FALSE(down.regressions.empty());
  EXPECT_EQ(down.regressions[0].direction, Direction::kTwoSided);
}

// Overload-control verdict counters are policy outcomes, not performance:
// drift in either direction must be flagged. One leaf name per new metric
// the overload jobs emit.
TEST(BenchDiff, OverloadVerdictLeavesAreTwoSided) {
  for (const char* leaf :
       {"shed", "rejected", "budget_exhausted", "hedges", "hedge_cancels", "capped_rejects",
        "breaker_trips", "admitted", "busy_rejects", "deadline_sheds", "deadline_giveups",
        "hedged_duplicate_executions"}) {
    EXPECT_EQ(DirectionFor(std::string("datacenter.sat-overload-controlled.metrics.") + leaf),
              Direction::kTwoSided)
        << leaf;
  }
}

TEST(BenchDiff, AdmittedSuccessIsHigherBetter) {
  EXPECT_EQ(DirectionFor("datacenter.sat-overload-controlled.oracle.admitted_success_ppm"),
            Direction::kHigherBetter);
}

std::string OverloadJson(int shed, int hedges) {
  return R"({
  "schema_version": 2,
  "results": [
    {"group": "datacenter", "name": "sat-overload-controlled",
     "metrics": {"shed": )" + std::to_string(shed) + R"(,
                 "hedges": )" + std::to_string(hedges) + R"(}}
  ]
}
)";
}

TEST(BenchDiff, ShedAndHedgeDriftFlaggedBothWays) {
  const Report fewer = Compare(OverloadJson(100, 40), OverloadJson(50, 40));
  ASSERT_FALSE(fewer.regressions.empty());
  EXPECT_EQ(fewer.regressions[0].direction, Direction::kTwoSided);
  const Report more = Compare(OverloadJson(100, 40), OverloadJson(100, 80));
  ASSERT_FALSE(more.regressions.empty());
  EXPECT_EQ(more.regressions[0].direction, Direction::kTwoSided);
}

TEST(BenchDiff, SmallDriftWithinThresholdPasses) {
  const Report r = Compare(SuiteJson(2.0, 400, 9000), SuiteJson(2.02, 396, 9050));
  EXPECT_TRUE(r.ok()) << (r.regressions.empty() ? "" : r.regressions[0].path);
}

TEST(BenchDiff, MissingJobIsRegressionUnlessAllowed) {
  const std::string base = SuiteJson(2.0, 400, 9000, /*include_udp=*/true);
  const std::string cur = SuiteJson(2.0, 400, 9000, /*include_udp=*/false);
  const Report strict = Compare(base, cur);
  ASSERT_FALSE(strict.regressions.empty());
  EXPECT_TRUE(strict.regressions[0].missing);
  EXPECT_NE(strict.regressions[0].path.find("table5.UDP"), std::string::npos);

  Options opt;
  opt.allow_missing = true;
  EXPECT_TRUE(Compare(base, cur, opt).ok());
}

TEST(BenchDiff, ThresholdOverrideFirstMatchWins) {
  const std::string base =
      R"({"results": [{"group": "g", "name": "j", "metrics": {"latency_ms": 2.0}}]})";
  const std::string cur =
      R"({"results": [{"group": "g", "name": "j", "metrics": {"latency_ms": 2.2}}]})";
  Options opt;
  opt.thresholds.emplace_back("latency_ms", 0.50);  // 50%: exempts the 10% rise
  EXPECT_TRUE(Compare(base, cur, opt).ok());
  // A tighter first match beats a looser later one.
  Options tight;
  tight.thresholds.emplace_back("g\\.j\\.metrics\\.latency_ms", 0.01);
  tight.thresholds.emplace_back("latency_ms", 0.50);
  EXPECT_FALSE(Compare(base, cur, tight).regressions.empty());
}

TEST(BenchDiff, BookkeepingFieldsMayDiffer) {
  // Every field SkippedKey names differs between the two runs; the one
  // simulated result matches, so the comparison passes and compares only it.
  const auto doc = [](int v) {
    const std::string n = std::to_string(v);
    return R"({"schema_version": )" + n + R"(, "jobs": )" + n +
           R"(, "events_fired_total": )" + n + R"(, "results": [
      {"group": "table3", "name": "L_RPC", "events_fired": )" + n +
           R"(, "metrics": {"latency_ms": 2.0, "sum_done_at_ns": )" + n + "}}]}";
  };
  const Report r = Compare(doc(2), doc(7));
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.regressions.empty());
  EXPECT_EQ(r.compared, 1u);
}

TEST(BenchDiff, JobReorderDoesNotCompareAcrossJobs) {
  // Results keyed by group.name: swapping array order changes nothing.
  const std::string base = SuiteJson(2.0, 400, 9000);
  const std::string reordered = R"({
  "results": [
    {"group": "table5", "name": "UDP", "metrics": {"latency_ms": 1.5}},
    {"group": "manyhost", "name": "pairs",
     "metrics": {"completed": 512, "failed": 0},
     "segments": [
       {"segment": 0, "frames": 100, "utilization_ppm": 9000.000000},
       {"segment": 1, "frames": 100, "utilization_ppm": 5000}
     ]},
    {"group": "table3", "name": "L_RPC",
     "metrics": {"latency_ms": 2.000000, "throughput_kbytes_per_sec": 400.000000},
     "percentiles": {"count": 64, "p50_ms": 2.000000, "p999_ms": 2.400000}}
  ]
})";
  EXPECT_TRUE(Compare(base, reordered).ok());
}

TEST(BenchDiff, ParseErrorReported) {
  // A number token must parse in full: no prefix reads of "1-2" as 1.
  for (const char* bad : {"{not json", "{\"x\": 1-2}", "{\"x\": 1e}", "{\"x\": --1}"}) {
    const Report r = Compare(bad, SuiteJson(2.0, 400, 9000));
    EXPECT_FALSE(r.error.empty()) << bad;
    EXPECT_EQ(r.compared, 0u) << bad;
  }
  const Report r2 = Compare("{\"a\": \"strings only\"}", "{\"a\": \"strings only\"}");
  EXPECT_FALSE(r2.error.empty()) << "no numeric metrics must be an error";
}

}  // namespace
}  // namespace xk::benchdiff
