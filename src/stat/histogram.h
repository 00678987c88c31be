// HDR-style log-linear histogram for simulated durations.
//
// Fixed bucket layout, exact counts, mergeable, and deterministic: two runs
// that record the same values produce bit-identical histograms, so percentile
// blocks can appear in outputs that are diffed byte-for-byte.
//
// Layout: values below kSubBuckets (32) get one bucket each (exact); above
// that, each power-of-two octave is split into 32 linear sub-buckets, so the
// relative quantization error of any reported value is bounded by
// 1/kSubBuckets = 3.125%. Reported quantiles are the inclusive upper edge of
// the covering bucket, clamped to the exact observed [min, max] -- a reported
// pXX is never below the true pXX and overshoots by at most one sub-bucket.
//
// Values are SimTime (int64 nanoseconds); negatives clamp to 0. Recording is
// a few shifts and one array increment -- cheap enough to stay on in every
// benchmark -- and charges zero simulated cost (it never touches a Kernel).

#ifndef XK_SRC_STAT_HISTOGRAM_H_
#define XK_SRC_STAT_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/types.h"

namespace xk {

class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 32 linear steps per octave
  // Octave groups: values < 32 are linear (group 0); groups 1..58 cover
  // [2^5, 2^63). int64 values never reach group 59.
  static constexpr int kNumBuckets = 59 * kSubBuckets;

  // The bucket covering `v` (v < 0 records as 0).
  static int BucketIndex(SimTime v);
  // Inclusive [low, high] range of bucket `b`.
  static SimTime BucketLow(int b);
  static SimTime BucketHigh(int b);

  void Record(SimTime v);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  SimTime min() const { return count_ == 0 ? 0 : min_; }
  SimTime max() const { return max_; }
  SimTime sum() const { return sum_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Smallest recorded value v such that at least ceil(q * count) recorded
  // values are <= v, reported as the covering bucket's upper edge clamped to
  // the exact [min, max]. q outside [0, 1] is clamped; 0 on an empty
  // histogram.
  SimTime ValueAtQuantile(double q) const;

  SimTime P50() const { return ValueAtQuantile(0.50); }
  SimTime P90() const { return ValueAtQuantile(0.90); }
  SimTime P99() const { return ValueAtQuantile(0.99); }
  SimTime P999() const { return ValueAtQuantile(0.999); }

 private:
  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  SimTime sum_ = 0;
  SimTime min_ = 0;
  SimTime max_ = 0;
};

// Appends `"key": {"count": N, "p50_ms": ..., "p90_ms": ..., "p99_ms": ...,
// "p999_ms": ..., "max_ms": ..., "mean_ms": ...}` (no surrounding comma) with
// the same %.10g number formatting the bench JSON uses, so percentile blocks
// are byte-stable for deterministic inputs.
void AppendPercentilesMsJson(std::string& out, const Histogram& h, std::string_view key);

}  // namespace xk

#endif  // XK_SRC_STAT_HISTOGRAM_H_
