#include "src/stat/histogram.h"

#include <bit>
#include <cmath>
#include <cstdio>

namespace xk {

int Histogram::BucketIndex(SimTime v) {
  if (v < kSubBuckets) {
    return v < 0 ? 0 : static_cast<int>(v);
  }
  const auto u = static_cast<uint64_t>(v);
  // Highest set bit index; >= kSubBits because v >= 2^kSubBits.
  const int msb = 63 - std::countl_zero(u);
  const int shift = msb - kSubBits;
  // Octave group (msb - kSubBits + 1), then the linear position within it.
  // (u >> shift) is in [32, 64); subtracting 32 yields the sub-bucket.
  return (msb - kSubBits + 1) * kSubBuckets + static_cast<int>((u >> shift) - kSubBuckets);
}

SimTime Histogram::BucketLow(int b) {
  if (b < kSubBuckets) {
    return b;
  }
  const int group = b / kSubBuckets;  // >= 1
  const int sub = b % kSubBuckets;
  const int shift = group - 1;
  return static_cast<SimTime>(static_cast<uint64_t>(kSubBuckets + sub) << shift);
}

SimTime Histogram::BucketHigh(int b) {
  if (b < kSubBuckets) {
    return b;
  }
  const int shift = b / kSubBuckets - 1;
  return BucketLow(b) + static_cast<SimTime>((uint64_t{1} << shift) - 1);
}

void Histogram::Record(SimTime v) {
  if (v < 0) {
    v = 0;
  }
  ++buckets_[static_cast<size_t>(BucketIndex(v))];
  if (count_ == 0 || v < min_) {
    min_ = v;
  }
  if (v > max_) {
    max_ = v;
  }
  sum_ += v;
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  if (other.max_ > max_) {
    max_ = other.max_;
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

SimTime Histogram::ValueAtQuantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > count_) {
    rank = count_;
  }
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      SimTime v = BucketHigh(static_cast<int>(b));
      if (v > max_) {
        v = max_;
      }
      if (v < min_) {
        v = min_;
      }
      return v;
    }
  }
  return max_;
}

void AppendPercentilesMsJson(std::string& out, const Histogram& h, std::string_view key) {
  auto num = [&out](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    out += buf;
  };
  out += '"';
  out += key;
  out += "\": {\"count\": ";
  out += std::to_string(h.count());
  out += ", \"p50_ms\": ";
  num(ToMsec(h.P50()));
  out += ", \"p90_ms\": ";
  num(ToMsec(h.P90()));
  out += ", \"p99_ms\": ";
  num(ToMsec(h.P99()));
  out += ", \"p999_ms\": ";
  num(ToMsec(h.P999()));
  out += ", \"max_ms\": ";
  num(ToMsec(h.max()));
  out += ", \"mean_ms\": ";
  num(h.Mean() / 1e6);
  out += "}";
}

}  // namespace xk
