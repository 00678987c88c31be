// Shape tests: every quantitative claim reproduced from the paper's
// evaluation, asserted with tolerances. These are the repository's contract
// with EXPERIMENTS.md -- if a refactor breaks a shape, this suite fails.
//
// Absolute numbers are expected to land near the paper's (the cost model is
// calibrated to a Sun 3/75); relative claims (who wins, by roughly what
// factor) are asserted more tightly.

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace xk {
namespace {

// Measured once, shared across the assertions below.
struct Measurements {
  ConfigResult n_rpc = RpcBench::Measure(kMRpcEth, HostEnv::kNativeSprite);
  ConfigResult m_eth = RpcBench::Measure(kMRpcEth);
  ConfigResult m_ip = RpcBench::Measure(kMRpcIp);
  ConfigResult m_vip = RpcBench::Measure(kMRpcVip);
  ConfigResult l_vip = RpcBench::Measure(kLRpcVip);
  ConfigResult dynamic = RpcBench::Measure(kLRpcVipSize);
};

const Measurements& M() {
  static Measurements m;
  return m;
}

// Latency within `tol_pct`% of the paper's value.
void ExpectNear(double measured, double paper, double tol_pct, const char* what) {
  EXPECT_NEAR(measured, paper, paper * tol_pct / 100.0) << what;
}

// --- Table I -------------------------------------------------------------------

TEST(ShapeTableI, AbsoluteLatenciesNearPaper) {
  ExpectNear(M().m_eth.latency_ms, 1.73, 10, "M_RPC-ETH");
  ExpectNear(M().m_ip.latency_ms, 2.10, 10, "M_RPC-IP");
  ExpectNear(M().m_vip.latency_ms, 1.79, 10, "M_RPC-VIP");
  ExpectNear(M().n_rpc.latency_ms, 2.60, 12, "N_RPC");
}

TEST(ShapeTableI, XKernelBeatsNativeSprite) {
  EXPECT_LT(M().m_eth.latency_ms, M().n_rpc.latency_ms);
  EXPECT_GT(M().m_eth.throughput_kbs, M().n_rpc.throughput_kbs);
}

TEST(ShapeTableI, IpPenaltyAbout21Percent) {
  const double penalty = M().m_ip.latency_ms - M().m_eth.latency_ms;
  EXPECT_GT(penalty, 0.25);  // paper: 0.37
  EXPECT_LT(penalty, 0.50);
  const double pct = 100.0 * penalty / M().m_eth.latency_ms;
  EXPECT_GT(pct, 14.0);  // paper: 21%
  EXPECT_LT(pct, 28.0);
}

TEST(ShapeTableI, VipOverheadSmall) {
  const double overhead = M().m_vip.latency_ms - M().m_eth.latency_ms;
  EXPECT_GT(overhead, 0.0);
  EXPECT_LT(overhead, 0.10);  // paper: 0.06
  // VIP eliminates most of the IP penalty.
  EXPECT_LT(M().m_vip.latency_ms - M().m_eth.latency_ms,
            0.3 * (M().m_ip.latency_ms - M().m_eth.latency_ms));
}

TEST(ShapeTableI, ThroughputOrderingEthVipIp) {
  EXPECT_GE(M().m_eth.throughput_kbs, M().m_vip.throughput_kbs);
  EXPECT_GT(M().m_vip.throughput_kbs, M().m_ip.throughput_kbs);
  // All x-kernel stacks near the paper's ~860 (within 10%).
  ExpectNear(M().m_eth.throughput_kbs, 863, 10, "ETH tput");
  ExpectNear(M().m_vip.throughput_kbs, 860, 10, "VIP tput");
}

TEST(ShapeTableI, VipUsesLessCpuThanIp) {
  EXPECT_LT(M().m_vip.client_cpu_ms + M().m_vip.server_cpu_ms,
            M().m_ip.client_cpu_ms + M().m_ip.server_cpu_ms);
}

TEST(ShapeTableI, IncrementalCostNearOneMsPerKb) {
  ExpectNear(M().m_eth.incr_ms_per_kb, 1.04, 12, "ETH incr");
  ExpectNear(M().m_ip.incr_ms_per_kb, 1.05, 12, "IP incr");
  EXPECT_GT(M().n_rpc.incr_ms_per_kb, M().m_eth.incr_ms_per_kb);  // native is worse
}

// --- Table II ------------------------------------------------------------------

TEST(ShapeTableII, LayeringPenaltySmall) {
  const double penalty = M().l_vip.latency_ms - M().m_vip.latency_ms;
  EXPECT_GT(penalty, 0.05);  // layering is not free...
  EXPECT_LT(penalty, 0.25);  // ...but close to the paper's 0.14
}

TEST(ShapeTableII, ThroughputNearlyIdentical) {
  EXPECT_NEAR(M().l_vip.throughput_kbs, M().m_vip.throughput_kbs,
              0.05 * M().m_vip.throughput_kbs);
}

TEST(ShapeTableII, LayeredUsesSlightlyLessCpuOnBulk) {
  // "Only FRAGMENT handles the individual packets" of a 16 KB message.
  EXPECT_LT(M().l_vip.client_cpu_ms + M().l_vip.server_cpu_ms,
            M().m_vip.client_cpu_ms + M().m_vip.server_cpu_ms);
}

// --- Table III -----------------------------------------------------------------

// Null round trip through each partial stack; the full stack is Table II's
// layered row.
TEST(ShapeTableIII, FragmentAndChannelIncrementsNearPaper) {
  const double vip = MeasurePartialLatency("vip").ms;
  const double fragment = MeasurePartialLatency("fragment/vip").ms;
  const double channel = MeasurePartialLatency("channel/fragment/vip").ms;
  const double full = M().l_vip.latency_ms;
  EXPECT_NEAR(fragment - vip, 0.21, 0.05);  // paper: +0.21
  EXPECT_NEAR(channel - fragment, 0.49, 0.07);  // paper: +0.49
  // CHANNEL's request/reply synchronization makes it the most expensive layer.
  EXPECT_GT(channel - fragment, fragment - vip);
  EXPECT_GT(channel - fragment, full - channel);
}

TEST(ShapeTableIII, FragmentStandaloneThroughputNearPaper) {
  ExpectNear(MeasureFragmentThroughput().kbytes_per_sec, 865, 5, "FRAGMENT tput");
}

// --- Throughput sweep ----------------------------------------------------------

TEST(ShapeSweep, OrderingSlopeAndLayeringHoldAtEverySize) {
  const SweepSeries eth = MeasureSweep(kMRpcEth), ip = MeasureSweep(kMRpcIp),
                    vip = MeasureSweep(kMRpcVip), layered = MeasureSweep(kLRpcVip);
  ASSERT_EQ(eth.per_call_ms.size(), 16u);
  for (size_t i = 0; i < eth.per_call_ms.size(); ++i) {
    const size_t kb = i + 1;
    EXPECT_LE(eth.per_call_ms[i], vip.per_call_ms[i]) << kb << "k";
    EXPECT_LT(vip.per_call_ms[i], ip.per_call_ms[i]) << kb << "k";
    // Layering costs a fraction of a millisecond at any size.
    EXPECT_NEAR(layered.per_call_ms[i], vip.per_call_ms[i], 0.5) << kb << "k";
  }
  // Every x-kernel stack's incremental cost is ~1 ms per KB (paper: 1.03-1.05).
  for (const SweepSeries* s : {&eth, &ip, &vip, &layered}) {
    ExpectNear((s->per_call_ms.back() - s->per_call_ms.front()) / 15.0, 1.04, 10, "slope");
  }
}

// --- Section 5 ablation (session caching) ----------------------------------------

TEST(ShapeAblation, SessionSetupCostsMoreThanSteadyState) {
  const ColdWarmResult mono = MeasureColdWarm(kMRpcVip), layered = MeasureColdWarm(kLRpcVip),
                       dynamic = MeasureColdWarm(kLRpcVipSize);
  for (const ColdWarmResult* cw : {&mono, &layered, &dynamic}) {
    EXPECT_GT(cw->first_ms, cw->steady_ms);
  }
  // Three layers of sessions cost more to establish than one.
  EXPECT_GT(layered.first_ms - layered.steady_ms, mono.first_ms - mono.steady_ms);
}

// --- Section 4.3 ----------------------------------------------------------------

TEST(ShapeSec43, BypassingFragmentRecoversMonolithicLatency) {
  // SELECT-CHANNEL-VIPsize ~ M_RPC-VIP (paper: 1.78 vs 1.79).
  EXPECT_NEAR(M().dynamic.latency_ms, M().m_vip.latency_ms, 0.08);
  // And clearly better than the static layered stack.
  EXPECT_LT(M().dynamic.latency_ms, M().l_vip.latency_ms - 0.08);
}

// --- Section 1 (UDP cross-kernel) ------------------------------------------------

TEST(ShapeSec1, UdpCrossKernelRatio) {
  const double xk = MeasureUdpEcho(HostEnv::kXKernel).ms;
  const double sunos = MeasureUdpEcho(HostEnv::kSunOs).ms;
  EXPECT_NEAR(xk, 2.00, 0.25);
  EXPECT_NEAR(sunos, 5.36, 0.90);
  EXPECT_GT(sunos / xk, 2.0);  // paper: 2.68x
  EXPECT_LT(sunos / xk, 3.5);
}

// --- Section 5 ablation (header buffers) -----------------------------------------

TEST(ShapeAblation, PerLayerAllocMuchWorse) {
  ConfigResult adjust = RpcBench::Measure(kLRpcVip, HostEnv::kXKernel);
  ConfigResult alloc = RpcBench::Measure(kLRpcVip, HostEnv::kXKernelAllocPerHeader);
  // The paper: 0.11 -> 0.50 per layer, i.e. roughly +0.39/layer. Over the
  // whole stack (and the anchors' headers) the penalty is >1 ms of latency.
  EXPECT_GT(alloc.latency_ms - adjust.latency_ms, 1.0);
}

// --- determinism -----------------------------------------------------------------

TEST(ShapeDeterminism, RepeatedMeasurementIsBitIdentical) {
  ConfigResult a = RpcBench::Measure(kMRpcVip);
  ConfigResult b = RpcBench::Measure(kMRpcVip);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.throughput_kbs, b.throughput_kbs);
}

}  // namespace
}  // namespace xk
