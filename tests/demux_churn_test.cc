// DemuxMap tombstone hygiene: a long-lived map under heavy bind/unbind churn
// at a fixed live size (the per-call CHANNEL binding pattern) must not let
// tombstones degrade probes or balloon the table. The map counts tombstones
// toward its load factor and rehashes in place, so both the table size and
// the worst probe chain stay bounded no matter how many keys pass through.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/core/map.h"
#include "src/sim/event_queue.h"

namespace xk {
namespace {

struct ChurnFixture : ::testing::Test {
  EventQueue events;
  Kernel kernel{"churn", events, HostEnv::kXKernel, IpAddr(10, 0, 1, 1),
                EthAddr::FromIndex(1)};
  DemuxMap<uint64_t, uint64_t> map{kernel};
};

TEST_F(ChurnFixture, FixedSizeChurnKeepsTableAndProbesBounded) {
  // Steady state: 8 live keys, while 40,000 distinct keys come and go.
  constexpr uint64_t kLive = 8;
  for (uint64_t k = 0; k < kLive; ++k) {
    map.Bind(k, k);
  }
  const size_t steady_capacity = map.capacity();
  size_t max_capacity = steady_capacity;
  size_t worst_probe = 0;
  for (uint64_t k = kLive; k < 40000; ++k) {
    map.Bind(k, k);                      // 9th binding...
    EXPECT_EQ(map.Take(k - kLive), k - kLive);  // ...oldest evicted: back to 8
    max_capacity = std::max(max_capacity, map.capacity());
    worst_probe = std::max(worst_probe, map.MaxProbeLength());
    ASSERT_EQ(map.size(), kLive);
  }
  // The table never grew past one doubling of its steady-state size even
  // though 5000x more keys than buckets passed through it...
  EXPECT_LE(max_capacity, 2 * steady_capacity);
  // ...tombstones were reclaimed by in-place rehashes rather than left to
  // poison probe chains...
  EXPECT_LT(map.tombstones(), map.capacity());
  // ...and the worst lookup anyone ever saw stayed within the 70% load
  // ceiling (11 of 16 buckets full-or-tombstone), not a crawl that scales
  // with the 40,000 keys that passed through.
  EXPECT_LE(worst_probe, 11u);

  // The survivors are still all resolvable.
  for (uint64_t k = 40000 - kLive; k < 40000; ++k) {
    EXPECT_EQ(map.Peek(k), k);
  }
}

TEST_F(ChurnFixture, MassUnbindKeepsTheDrainedTableForTheRefill) {
  // The idle-eviction drain pattern: a large population is bound once,
  // unbound en masse with no intervening inserts, then bound again by the
  // next cycle. An unbind never moves a key, so the drain keeps the table at
  // its peak size without lengthening any chain, and the last unbind leaves
  // every bucket empty: the refill needs no rehash.
  constexpr uint64_t kKeys = 1u << 17;  // 131072 live keys
  for (uint64_t k = 0; k < kKeys; ++k) {
    map.Bind(k, k);
  }
  const size_t peak_capacity = map.capacity();
  ASSERT_GE(peak_capacity, kKeys);  // table actually grew to hold them
  const size_t peak_probe = map.MaxProbeLength();

  size_t worst_probe_during_drain = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    map.Unbind(k);
    ASSERT_EQ(map.capacity(), peak_capacity) << "after unbinding " << k + 1 << " keys";
    if ((k & 0xFFF) == 0) {
      worst_probe_during_drain =
          std::max(worst_probe_during_drain, map.MaxProbeLength());
    }
  }

  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), peak_capacity);
  EXPECT_EQ(map.tombstones(), 0u);  // the last unbind emptied every bucket
  // No lookup during the drain walked further than one at the peak did.
  EXPECT_LE(worst_probe_during_drain, peak_probe);

  // The next cycle's refill fits the kept table: no regrowth.
  for (uint64_t k = 0; k < kKeys; ++k) {
    map.Bind(k, k + 1);
    ASSERT_EQ(map.capacity(), peak_capacity) << "after rebinding " << k + 1 << " keys";
  }
  EXPECT_EQ(map.size(), kKeys);
  EXPECT_EQ(map.tombstones(), 0u);
  EXPECT_EQ(map.Peek(7), 8u);
}

TEST_F(ChurnFixture, ProbeLengthReportsActualChainLengths) {
  EXPECT_EQ(map.ProbeLength(7), 0u);  // empty table: no buckets visited
  map.Bind(1, 10);
  EXPECT_GE(map.ProbeLength(1), 1u);
  EXPECT_LE(map.ProbeLength(1), map.MaxProbeLength());
  EXPECT_EQ(map.MaxProbeLength(), 1u);  // one key, landed on its home bucket
  map.Unbind(1);
  EXPECT_EQ(map.MaxProbeLength(), 0u);
  EXPECT_EQ(map.tombstones(), 0u);  // the last key out leaves no tombstone

  // With a key still bound, an unbind leaves its bucket a tombstone.
  map.Bind(1, 10);
  map.Bind(2, 20);
  map.Unbind(1);
  EXPECT_EQ(map.tombstones(), 1u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_GE(map.ProbeLength(2), 1u);
  EXPECT_EQ(map.MaxProbeLength(), map.ProbeLength(2));
  map.Unbind(2);
  EXPECT_EQ(map.tombstones(), 0u);
}

}  // namespace
}  // namespace xk
