// Table III from a trace: the per-call latency reconstructed from observed
// spans and wire records must match the benchmark's measured latency within
// 1% (the acceptance bar for the trace-based layer-cost methodology).

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/tools/trace_reader.h"
#include "src/trace/trace.h"

namespace xk {
namespace {

struct TracedLatency {
  double measured_ms = 0;   // what the workload reports
  double estimated_ms = 0;  // reconstructed from the trace
  uint64_t calls = 0;
};

TracedLatency RunTraced(std::string_view spec) {
  TraceSink sink;
  TraceSink::set_thread_default(&sink);
  EchoExperiment e = MakeEchoExperiment(spec);
  TraceSink::set_thread_default(nullptr);
  // Drop the setup-phase records (opens, enables) so the trace covers exactly
  // the measured calls, mirroring how steady-state latency is reported.
  sink.Clear();

  LatencyResult lat = RpcWorkload::MeasureLatency(*e.net, *e.ch->kernel, e.MakeCall(), 64);
  EXPECT_EQ(lat.completed, 64);
  EXPECT_EQ(sink.dropped(), 0u);

  const tracetool::TraceFile tf = tracetool::Parse(sink.ToJsonl());
  EXPECT_FALSE(tf.spans.empty());
  EXPECT_FALSE(tf.wires.empty());
  const tracetool::Breakdown b = tracetool::Analyze(tf);

  TracedLatency out;
  out.measured_ms = ToMsec(lat.per_call);
  out.estimated_ms = b.PerCallUsec() / 1000.0;
  out.calls = b.calls;
  return out;
}

TEST(TraceLayerCosts, EstimateWithinOnePercentOfMeasurement) {
  for (std::string_view spec : {"vip", "fragment/vip", "channel/fragment/vip"}) {
    SCOPED_TRACE(std::string(spec));
    const TracedLatency r = RunTraced(spec);
    EXPECT_EQ(r.calls, 64u);  // inferred from per-layer push counts
    EXPECT_GT(r.measured_ms, 0.0);
    EXPECT_NEAR(r.estimated_ms, r.measured_ms, r.measured_ms * 0.01)
        << "estimated " << r.estimated_ms << " ms vs measured " << r.measured_ms << " ms";
  }
}

// The incremental cost of adding a layer, as seen by the trace estimates,
// must track the benchmark's deltas (Table III's methodology).
TEST(TraceLayerCosts, IncrementalCostsTrackMeasurement) {
  const TracedLatency l0 = RunTraced("vip");
  const TracedLatency l1 = RunTraced("fragment/vip");
  const TracedLatency l2 = RunTraced("channel/fragment/vip");

  const double measured_d1 = l1.measured_ms - l0.measured_ms;
  const double estimated_d1 = l1.estimated_ms - l0.estimated_ms;
  const double measured_d2 = l2.measured_ms - l1.measured_ms;
  const double estimated_d2 = l2.estimated_ms - l1.estimated_ms;

  EXPECT_GT(measured_d1, 0.0);
  EXPECT_GT(measured_d2, 0.0);
  // Deltas are differences of two ~1%-accurate numbers; allow 5% of the
  // larger endpoint latency.
  EXPECT_NEAR(estimated_d1, measured_d1, l1.measured_ms * 0.05);
  EXPECT_NEAR(estimated_d2, measured_d2, l2.measured_ms * 0.05);
}

}  // namespace
}  // namespace xk
