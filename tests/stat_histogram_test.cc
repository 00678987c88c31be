// Unit tests for the HDR-style log-linear histogram (src/stat/histogram).

#include "src/stat/histogram.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace xk {
namespace {

TEST(HistogramBuckets, ExactBelowSubBuckets) {
  for (SimTime v = 0; v < Histogram::kSubBuckets; ++v) {
    const int b = Histogram::BucketIndex(v);
    EXPECT_EQ(b, static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketLow(b), v);
    EXPECT_EQ(Histogram::BucketHigh(b), v);
  }
}

TEST(HistogramBuckets, CoverAndAreContiguous) {
  // Every bucket's range covers exactly the values that map to it, and
  // consecutive buckets tile the number line with no gap or overlap.
  for (int b = 0; b + 1 < Histogram::kNumBuckets; ++b) {
    const SimTime lo = Histogram::BucketLow(b);
    const SimTime hi = Histogram::BucketHigh(b);
    ASSERT_LE(lo, hi) << "bucket " << b;
    EXPECT_EQ(Histogram::BucketIndex(lo), b);
    EXPECT_EQ(Histogram::BucketIndex(hi), b);
    EXPECT_EQ(Histogram::BucketLow(b + 1), hi + 1) << "gap after bucket " << b;
  }
}

TEST(HistogramBuckets, OctaveBoundaries) {
  // The interesting seams: the linear/log transition at 32 and the first
  // octave rollover at 64.
  for (const SimTime v : {31, 32, 33, 63, 64, 65, 127, 128, 1023, 1024, 1025}) {
    const int b = Histogram::BucketIndex(v);
    EXPECT_LE(Histogram::BucketLow(b), v);
    EXPECT_GE(Histogram::BucketHigh(b), v);
    // Relative width bound: high - low < low / kSubBuckets + 1.
    const SimTime width = Histogram::BucketHigh(b) - Histogram::BucketLow(b);
    EXPECT_LE(width * Histogram::kSubBuckets, Histogram::BucketLow(b));
  }
  EXPECT_EQ(Histogram::BucketIndex(31), Histogram::BucketIndex(32) - 1);
}

TEST(Histogram, BasicStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0);
  h.Record(100);
  h.Record(300);
  h.Record(200);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), 300);
  EXPECT_EQ(h.sum(), 600);
  EXPECT_DOUBLE_EQ(h.Mean(), 200.0);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.Record(-50);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 0);
}

TEST(Histogram, QuantileErrorBound) {
  // Deterministic pseudo-random values spanning several octaves; a reported
  // quantile is never below the exact one and overshoots by at most one
  // sub-bucket (relative error <= 1/32 = 3.125%).
  Histogram h;
  std::vector<SimTime> vals;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const SimTime v = static_cast<SimTime>(x % 5000000ull);
    vals.push_back(v);
    h.Record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    size_t rank = static_cast<size_t>(q * static_cast<double>(vals.size()));
    if (rank > 0) {
      --rank;
    }
    const SimTime exact = vals[std::min(rank, vals.size() - 1)];
    const SimTime got = h.ValueAtQuantile(q);
    EXPECT_GE(got, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(got),
              static_cast<double>(exact) * (1.0 + 1.0 / Histogram::kSubBuckets) + 1.0)
        << "q=" << q;
  }
  EXPECT_EQ(h.ValueAtQuantile(1.0), h.max());
}

TEST(Histogram, MergeEquivalentToCombinedRecording) {
  Histogram a, b, combined;
  for (SimTime v = 1; v < 4000; v += 7) {
    a.Record(v);
    combined.Record(v);
  }
  for (SimTime v = 100000; v < 900000; v += 1111) {
    b.Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.sum(), combined.sum());
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.ValueAtQuantile(q), combined.ValueAtQuantile(q)) << "q=" << q;
  }
}

TEST(Histogram, JsonBlockShape) {
  Histogram h;
  h.Record(Msec(1));
  h.Record(Msec(2));
  std::string out;
  AppendPercentilesMsJson(out, h, "percentiles");
  EXPECT_EQ(out.rfind("\"percentiles\": {\"count\": 2", 0), 0u) << out;
  EXPECT_NE(out.find("\"p50_ms\":"), std::string::npos);
  EXPECT_NE(out.find("\"p999_ms\":"), std::string::npos);
  EXPECT_NE(out.find("\"max_ms\": 2"), std::string::npos);
  EXPECT_EQ(out.back(), '}');
  // Deterministic: same records, byte-identical block.
  std::string again;
  AppendPercentilesMsJson(again, h, "percentiles");
  EXPECT_EQ(out, again);
}

}  // namespace
}  // namespace xk
