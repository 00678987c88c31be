// Causal call-flow stitching (src/trace/causal.h): the observer-side join
// must reconstruct every call's RTT exactly from the trace and attribute
// retransmissions to their cause through a replica crash/failover campaign.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "src/cluster/datacenter.h"
#include "src/sim/fault.h"
#include "src/trace/causal.h"
#include "src/trace/trace.h"

namespace xk {
namespace {

ArrivalSpec Arrivals(const std::string& text) {
  ArrivalSpec spec;
  std::string error;
  EXPECT_TRUE(ArrivalSpec::Parse(text, &spec, &error)) << error;
  return spec;
}

// The bench_suite saturation-knee shape, scaled down for test time.
DatacenterSpec KneeSpec() {
  DatacenterSpec spec;
  spec.client_segments = 2;
  spec.clients_per_segment = 2;
  spec.replicas = 4;
  spec.arrivals = Arrivals("poisson:rate=160,horizon=200ms,seed=7");
  return spec;
}

// The replica-crash failover campaign from the cluster fault tests: s0
// crashes mid-run, clients fail over, s0 restarts and is readmitted.
DatacenterSpec CrashSpec() {
  DatacenterSpec spec;
  spec.client_segments = 2;
  spec.clients_per_segment = 1;
  spec.replicas = 3;
  spec.readmit_after = Msec(120);
  spec.arrivals = Arrivals("poisson:rate=100,horizon=900ms,seed=17");
  spec.faults.Crash("s0", Msec(80), Msec(500));
  return spec;
}

struct TracedRun {
  DatacenterResult result;
  std::string trace;
  std::string flow;
  std::string folded;
};

TracedRun RunTraced(const DatacenterSpec& spec) {
  TracedRun out;
  TraceSink sink;
  TraceSink::set_thread_default(&sink);
  out.result = MeasureDatacenter(spec);
  TraceSink::set_thread_default(nullptr);
  out.trace = sink.ToJsonl();
  const causal::FlowAnalysis fa = causal::Stitch(tracetool::Parse(out.trace));
  out.flow = causal::ToFlowJsonl(fa);
  out.folded = causal::ToFolded(fa);
  return out;
}

// Every settled call's category sums must partition [issue, done] exactly:
// the stitcher reconstructs the same RTT the benchmark histogram recorded,
// call by call and in aggregate.
TEST(CausalStitch, ReconstructsRttExactly) {
  TraceSink sink;
  TraceSink::set_thread_default(&sink);
  const DatacenterResult r = MeasureDatacenter(KneeSpec());
  TraceSink::set_thread_default(nullptr);

  const causal::FlowAnalysis fa = causal::Stitch(tracetool::Parse(sink.ToJsonl()));

  EXPECT_EQ(fa.calls.size(), r.issued);
  EXPECT_EQ(fa.completed, r.completed);
  EXPECT_EQ(fa.failed, r.failed);

  for (const causal::CallFlow& c : fa.calls) {
    if (!c.completed) {
      continue;
    }
    int64_t sum = 0;
    for (int k = 0; k < causal::kNumCategories; ++k) {
      sum += c.ns[static_cast<size_t>(k)];
    }
    ASSERT_EQ(sum, c.rtt()) << "call " << c.id << " attribution does not partition its rtt";
    ASSERT_FALSE(c.client.empty()) << "call " << c.id;
    ASSERT_GT(c.hops.size(), 0u) << "call " << c.id;
  }

  // Aggregate agreement with the benchmark's own histogram: the ISSUE.md
  // acceptance bound is 1%; by construction the match is exact.
  ASSERT_GT(r.rtt.count(), 0u);
  const double bench_mean = r.rtt.Mean();
  const double flow_mean = fa.MeanRttNs();
  EXPECT_LT(std::fabs(flow_mean - bench_mean), 0.01 * bench_mean)
      << "bench=" << bench_mean << " flow=" << flow_mean;
  EXPECT_DOUBLE_EQ(flow_mean, bench_mean);
}

// The failover campaign's causal story: the crash and restart are visible,
// VPOOL's down/readmit cycle is counted, retransmissions exist and are
// attributed to causes, and calls routed after failover carry reroutes.
TEST(CausalStitch, ReplicaCrashAttributesRetryCauses) {
  const TracedRun run = RunTraced(CrashSpec());
  const causal::FlowAnalysis fa = causal::Stitch(tracetool::Parse(run.trace));

  EXPECT_EQ(fa.crashes, 1u);
  EXPECT_EQ(fa.restarts, 1u);
  EXPECT_GE(fa.replica_downs, 1u);
  EXPECT_GE(fa.replica_readmits, 1u);
  EXPECT_EQ(fa.replica_downs, run.result.down_marks);
  EXPECT_EQ(fa.replica_readmits, run.result.readmits);
  EXPECT_GT(fa.retransmits, 0u);
  EXPECT_FALSE(fa.retry_causes.empty());

  // Each retransmission got exactly one cause, and the window around the
  // crash pinned at least one of them on it.
  uint64_t caused = 0;
  for (const auto& [cause, n] : fa.retry_causes) {
    EXPECT_TRUE(cause == "crash" || cause == "reroute" || cause == "corruption" ||
                cause == "drop" || cause == "timeout")
        << cause;
    caused += n;
  }
  EXPECT_EQ(caused, fa.retransmits);
  // Calls that never reached a server while s0 was down retried because of
  // the crash; the outage-aware ladder must say so.
  EXPECT_GT(fa.retry_causes.count("crash"), 0u);

  // The three replicas all took traffic, and the pick counters agree with
  // the client-side VPOOL share counters.
  for (int i = 0; i < 3; ++i) {
    auto it = fa.replica_picks.find(i);
    ASSERT_NE(it, fa.replica_picks.end()) << "replica " << i << " never picked";
    EXPECT_EQ(it->second, run.result.replica_calls[static_cast<size_t>(i)]) << "replica " << i;
  }
}

// Flow JSONL shape: a meta head, one line per call, an aggregate tail.
TEST(CausalStitch, FlowJsonlShape) {
  const TracedRun run = RunTraced(KneeSpec());

  size_t lines = 0;
  for (char ch : run.flow) {
    lines += ch == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, run.result.issued + 2);
  EXPECT_EQ(run.flow.rfind("{\"k\":\"meta\"", 0), 0u);
  EXPECT_NE(run.flow.find("{\"k\":\"call\""), std::string::npos);
  EXPECT_NE(run.flow.find("{\"k\":\"total\""), std::string::npos);
  EXPECT_NE(run.flow.find("\"critical\":"), std::string::npos);
  EXPECT_NE(run.folded.find("call;client_cpu;"), std::string::npos);
  EXPECT_NE(run.folded.find("call;wire;seg"), std::string::npos);
}

}  // namespace
}  // namespace xk
