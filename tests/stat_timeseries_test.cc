// Tests for the StatSampler time series (src/stat/timeseries):
//
//   1. Zero simulated cost: enabling the sampler leaves every simulated
//      result and the trace byte-identical to an unobserved run.
//   2. Shape: the sampled JSONL carries its meta line plus host and segment
//      samples.

#include "src/stat/timeseries.h"

#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "gtest/gtest.h"
#include "src/trace/trace.h"

namespace xk {
namespace {

constexpr int kPairs = 4;
constexpr size_t kBytes = 2048;
constexpr int kIters = 4;

TEST(StatSampler, ZeroSimulatedCostOnManyPairs) {
  // Baseline: traced but unsampled.
  TraceSink base_sink;
  TraceSink::set_thread_default(&base_sink);
  const ManyPairsBench base = MeasureManyPairsBench(kPairs, kBytes, kIters);
  TraceSink::set_thread_default(nullptr);

  // Same run with the sampler attached.
  TraceSink obs_sink;
  StatSampler sampler;
  TraceSink::set_thread_default(&obs_sink);
  StatSampler::set_thread_default(&sampler);
  const ManyPairsBench obs = MeasureManyPairsBench(kPairs, kBytes, kIters);
  StatSampler::set_thread_default(nullptr);
  TraceSink::set_thread_default(nullptr);

  EXPECT_GT(sampler.num_samples(), 0u);
  EXPECT_EQ(base.completed, obs.completed);
  EXPECT_EQ(base.failed, obs.failed);
  EXPECT_EQ(base.sum_done_at, obs.sum_done_at);
  EXPECT_EQ(base.events_fired, obs.events_fired);
  EXPECT_DOUBLE_EQ(base.agg_kbytes_per_sec, obs.agg_kbytes_per_sec);
  EXPECT_EQ(base.rtt.count(), obs.rtt.count());
  EXPECT_EQ(base.rtt.sum(), obs.rtt.sum());
  EXPECT_EQ(base.rtt.P999(), obs.rtt.P999());
  EXPECT_EQ(base.service.sum(), obs.service.sum());
  EXPECT_EQ(base_sink.ToJsonl(), obs_sink.ToJsonl());
}

TEST(StatSampler, ZeroSimulatedCostOnTwoHostConfig) {
  const RpcBench::Builder builder = [](HostStack& h) { return BuildLRpc(h, Delivery::kVip); };
  const ConfigResult base = RpcBench::Measure(builder);

  StatSampler sampler;
  StatSampler::set_thread_default(&sampler);
  const ConfigResult obs = RpcBench::Measure(builder);
  StatSampler::set_thread_default(nullptr);

  EXPECT_GT(sampler.num_samples(), 0u);
  EXPECT_DOUBLE_EQ(base.latency_ms, obs.latency_ms);
  EXPECT_DOUBLE_EQ(base.throughput_kbs, obs.throughput_kbs);
  EXPECT_DOUBLE_EQ(base.incr_ms_per_kb, obs.incr_ms_per_kb);
  EXPECT_DOUBLE_EQ(base.client_cpu_ms, obs.client_cpu_ms);
  EXPECT_DOUBLE_EQ(base.server_cpu_ms, obs.server_cpu_ms);
  EXPECT_EQ(base.events_fired, obs.events_fired);
  EXPECT_EQ(base.latency_rtt.count(), obs.latency_rtt.count());
  EXPECT_EQ(base.latency_rtt.sum(), obs.latency_rtt.sum());
  EXPECT_EQ(base.service.sum(), obs.service.sum());
}

TEST(StatSampler, SeriesCarriesEveryRecordKind) {
  StatSampler sampler;
  StatSampler::set_thread_default(&sampler);
  (void)MeasureManyPairsBench(kPairs, kBytes, kIters);
  StatSampler::set_thread_default(nullptr);

  EXPECT_GT(sampler.num_samples(), 0u);
  const std::string a = sampler.ToJsonl();
  EXPECT_NE(a.find("\"k\":\"host\""), std::string::npos);
  EXPECT_NE(a.find("\"k\":\"seg\""), std::string::npos);
  EXPECT_NE(a.find("\"k\":\"meta\""), std::string::npos);
}

}  // namespace
}  // namespace xk
