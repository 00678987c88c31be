// Self-tests of the host-speed benchmark: every workload runs at smoke
// scale, span self time is exact on a synthetic tree, digests reproduce per
// seed, and the reference gate catches a perturbed digest, for recorded and
// unrecorded seeds alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "hostbench/ladder.h"
#include "hostbench/spans.h"
#include "hostbench/workloads.h"

namespace hostbench {
namespace {

Span MakeSpan(uint32_t parent, Ns start, Ns end) {
  Span s;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SpanSelfTime, SyntheticTree) {
  // 0 [0,100]: children 1 [10,30] and 2 [20,40] overlap, 3 [90,120] sticks
  // out of the parent; covered = [10,40] + [90,100] = 40.
  // 1 [10,30]: child 4 [12,15] -> self 17. 5 is a second root.
  const std::vector<Span> spans = {
      MakeSpan(kNoSpan, 0, 100), MakeSpan(0, 10, 30),  MakeSpan(0, 20, 40),
      MakeSpan(0, 90, 120),      MakeSpan(1, 12, 15),  MakeSpan(kNoSpan, 200, 260),
  };
  const std::vector<Ns> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 17);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 3);
  EXPECT_EQ(self[5], 60);
}

TEST(SpanRecorderTest, ScopesNestAndSummarize) {
  SpanRecorder rec;
  {
    Scope outer(&rec, "outer", 7);
    Scope inner(&rec, "inner", 7);
  }
  { Scope again(&rec, "inner", 8); }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, kNoSpan);
  EXPECT_EQ(rec.spans()[1].parent, 0u);
  EXPECT_EQ(rec.spans()[2].parent, kNoSpan);
  EXPECT_EQ(rec.spans()[1].op, 7u);
  const SpanRecorder::Totals inner = rec.Summarize("inner");
  EXPECT_EQ(inner.count, 2u);
  EXPECT_EQ(inner.self, inner.total);
  const SpanRecorder::Totals outer = rec.Summarize("outer");
  EXPECT_EQ(outer.self, outer.total - (rec.spans()[1].end - rec.spans()[1].start));
  EXPECT_EQ(rec.Durations("inner").size(), 2u);
  EXPECT_EQ(rec.Summarize("absent").count, 0u);
}

TEST(QuantileTest, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(Quantile({}, 0.5), 0);
  EXPECT_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_EQ(Quantile({4, 1, 3, 2}, 0), 1);
  EXPECT_EQ(Quantile({4, 1, 3, 2}, 1), 4);
  EXPECT_DOUBLE_EQ(Quantile({0, 10}, 0.99), 9.9);
  EXPECT_EQ(Median({5, 1, 3}), 3);
}

TEST(KeepFastestTest, KeepsEachPartsFastestTime) {
  std::vector<double> fastest;
  KeepFastest({3, 5, 1}, &fastest);
  KeepFastest({4, 2, 2}, &fastest);
  EXPECT_EQ(fastest, (std::vector<double>{3, 2, 1}));
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, SmokeRunHoldsEveryInvariant) {
  const Workload* w = FindWorkload(GetParam());
  ASSERT_NE(w, nullptr);
  const EpisodeStats e = w->run(1, Scale::Smoke(), nullptr);
  EXPECT_EQ(e.error, "");
  EXPECT_GT(e.ops, 0u);
  EXPECT_EQ(e.failed, 0u);
  ASSERT_FALSE(e.step_ns.empty());
  EXPECT_GT(*std::min_element(e.step_ns.begin(), e.step_ns.end()), 0);
  ASSERT_FALSE(e.op_ns.empty());
  EXPECT_GT(*std::min_element(e.op_ns.begin(), e.op_ns.end()), 0);
  EXPECT_GT(e.setup_s, 0);
  EXPECT_EQ(e.digest.issued, e.digest.completed + e.digest.failed);
  EXPECT_GT(e.digest.events, 0u);
  EXPECT_GT(e.digest.frames, 0u);
}

TEST_P(WorkloadTest, SetupOnlyRunHoldsEveryInvariant) {
  const Workload* w = FindWorkload(GetParam());
  ASSERT_NE(w, nullptr);
  const EpisodeStats e = w->run(1, Scale::SetupOnly(), nullptr);
  EXPECT_EQ(e.error, "");
  EXPECT_EQ(e.failed, 0u);
  EXPECT_GT(e.setup_s, 0);
}

TEST_P(WorkloadTest, SameSeedSameDigestTracedOrNot) {
  const Workload* w = FindWorkload(GetParam());
  ASSERT_NE(w, nullptr);
  SpanRecorder rec;
  const EpisodeStats a = w->run(3, Scale::Smoke(), nullptr);
  const EpisodeStats b = w->run(3, Scale::Smoke(), &rec);
  EXPECT_EQ(a.digest, b.digest) << a.digest.FirstDifference(b.digest);
  EXPECT_GT(rec.Summarize("run").count, 0u);
  EXPECT_GT(rec.Summarize("topology").count, 0u);
}

TEST_P(WorkloadTest, SecondSeedPassesEveryInvariant) {
  const Workload* w = FindWorkload(GetParam());
  ASSERT_NE(w, nullptr);
  const EpisodeStats a = w->run(1, Scale::Smoke(), nullptr);
  const EpisodeStats b = w->run(2, Scale::Smoke(), nullptr);
  EXPECT_EQ(b.error, "");
  EXPECT_EQ(b.failed, 0u);
  // The seed drives the inputs, so the simulation differs.
  EXPECT_NE(a.digest, b.digest);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadTest,
                         ::testing::Values("paper-rpc", "cluster-openloop", "session-churn"),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             c = c == '-' ? '_' : c;
                           }
                           return name;
                         });

TEST(ReferenceTest, PerturbedDigestIsCaughtByField) {
  const Workload& w = *FindWorkload("paper-rpc");
  const EpisodeStats e = w.run(5, Scale::Smoke(), nullptr);
  ReferenceTable ref;
  ref[{"paper-rpc", 5}] = e.digest;
  EXPECT_EQ(CheckReference(ref, w, 5, e.digest, Scale::Smoke()), "");
  Digest perturbed = e.digest;
  ++perturbed.rtt_sum_ns;
  const std::string why = CheckReference(ref, w, 5, perturbed, Scale::Smoke());
  EXPECT_NE(why.find("paper-rpc seed 5"), std::string::npos) << why;
  EXPECT_NE(why.find("'rtt_sum_ns'"), std::string::npos) << why;
}

TEST(ReferenceTest, UnrecordedSeedIsCheckedThroughARecordedOne) {
  const Workload& w = *FindWorkload("session-churn");
  const uint64_t unrecorded = kReferenceSeeds + 5;
  const EpisodeStats e = w.run(unrecorded, Scale::Smoke(), nullptr);
  ReferenceTable ref;
  ref[{"session-churn", 5}] = w.run(5, Scale::Smoke(), nullptr).digest;
  EXPECT_EQ(CheckReference(ref, w, unrecorded, e.digest, Scale::Smoke()), "");
  // A simulation change shows on the recorded seed, whatever seed was run.
  ++ref[{"session-churn", 5}].events;
  const std::string why = CheckReference(ref, w, unrecorded, e.digest, Scale::Smoke());
  EXPECT_NE(why.find("session-churn seed 5"), std::string::npos) << why;
  EXPECT_NE(why.find("'events'"), std::string::npos) << why;
  // Without a recorded seed to fall back on, the gate fails rather than pass.
  ref.clear();
  EXPECT_NE(CheckReference(ref, w, unrecorded, e.digest, Scale::Smoke()).find("no reference"),
            std::string::npos);
}

TEST(ReferenceTest, DigestTextRoundTripsAndRejectsJunk) {
  Digest d;
  d.events = 1;
  d.issued = 2;
  d.completed = 2;
  d.rtt_sum_ns = 99;
  d.last_done_ns = 1234567;
  d.frames = 4;
  Digest back;
  ASSERT_TRUE(Digest::Parse(d.ToString(), &back));
  EXPECT_EQ(back, d);
  EXPECT_FALSE(Digest::Parse("events=1", &back));             // fields missing
  EXPECT_FALSE(Digest::Parse(d.ToString() + " extra=1", &back));  // unknown field
  EXPECT_FALSE(Digest::Parse("events=x issued=2", &back));
}

TEST(ReferenceTest, ShippedReferenceLoadsAndCoversEveryWorkload) {
  ReferenceTable ref;
  std::string error;
  ASSERT_TRUE(LoadReference(HOSTBENCH_REFERENCE, &ref, &error)) << error;
  for (const Workload& w : Workloads()) {
    for (uint64_t seed = 0; seed < kReferenceSeeds; ++seed) {
      EXPECT_EQ(ref.count({w.name, seed}), 1u) << w.name << " seed " << seed;
    }
  }
}

TEST(LadderTest, EveryRungRoundTripsAndReportsSimulatedTime) {
  const LadderResult lad = RunLadder(0.05, nullptr);
  ASSERT_EQ(lad.error, "");
  ASSERT_EQ(lad.rungs.size(), 11u);
  for (const RungResult& r : lad.rungs) {
    EXPECT_GT(r.host_ns, 0) << r.name;
    EXPECT_GT(r.sim_ms, 0) << r.name;
  }
  // The simulated costs reproduce the paper's ordering: every layer added on
  // the testbed ladder costs simulated time.
  for (const LadderMetric& m : lad.metrics) {
    EXPECT_GT(m.sim_ms, 0) << m.metric;
  }
}

}  // namespace
}  // namespace hostbench
