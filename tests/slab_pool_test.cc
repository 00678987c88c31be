// SlabPool: the pooled session store. These tests pin the properties the
// protocols rely on -- stable addresses, allocation-free recycling past the
// high-water mark, and LIFO (deterministic) slot reuse.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/slab_pool.h"

namespace xk {
namespace {

struct Tracked {
  static int live_count;
  int value;
  explicit Tracked(int v) : value(v) { ++live_count; }
  ~Tracked() { --live_count; }
};
int Tracked::live_count = 0;

TEST(SlabPoolTest, CreateDestroyCountsAndRunsDestructors) {
  Tracked::live_count = 0;
  SlabPool<Tracked> pool;
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.capacity(), 0u);

  auto a = pool.Create(1);
  auto b = pool.Create(2);
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(pool.high_water(), 2u);
  EXPECT_EQ(Tracked::live_count, 2);
  EXPECT_EQ(a->value, 1);
  EXPECT_EQ(b->value, 2);

  a.reset();
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(Tracked::live_count, 1);
  EXPECT_EQ(pool.high_water(), 2u);  // high water sticks
  b.reset();
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(Tracked::live_count, 0);
}

TEST(SlabPoolTest, AddressesAreStableAcrossGrowth) {
  SlabPool<Tracked> pool;
  std::vector<std::shared_ptr<Tracked>> objs;
  std::vector<Tracked*> addrs;
  // Span several chunks so the backing store grows repeatedly.
  for (int i = 0; i < 500; ++i) {
    objs.push_back(pool.Create(i));
    addrs.push_back(objs.back().get());
  }
  EXPECT_GE(pool.capacity(), 500u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(objs[i].get(), addrs[i]);
    EXPECT_EQ(objs[i]->value, i);
  }
}

TEST(SlabPoolTest, RecyclingIsLifoAndCapacityPlateaus) {
  SlabPool<Tracked> pool;
  std::vector<std::shared_ptr<Tracked>> objs;
  for (int i = 0; i < 200; ++i) {
    objs.push_back(pool.Create(i));
  }
  const size_t cap = pool.capacity();
  Tracked* last_addr = objs.back().get();

  // Destroy the newest, create again: LIFO reuse lands on the same slot.
  objs.pop_back();
  auto again = pool.Create(999);
  EXPECT_EQ(again.get(), last_addr);
  EXPECT_EQ(again->value, 999);

  // Heavy churn below the high-water mark never grows the slab.
  for (int round = 0; round < 50; ++round) {
    objs.pop_back();
    objs.pop_back();
    objs.push_back(pool.Create(round));
    objs.push_back(pool.Create(round));
  }
  EXPECT_EQ(pool.capacity(), cap);
  EXPECT_EQ(pool.high_water(), 200u);
}

TEST(SlabPoolTest, ObjectOutlivesThePool) {
  // The deleter keeps the backing state alive: a session handed out by a
  // protocol must survive that protocol's destruction (crash teardown).
  Tracked::live_count = 0;
  std::shared_ptr<Tracked> survivor;
  {
    SlabPool<Tracked> pool;
    survivor = pool.Create(7);
  }
  EXPECT_EQ(Tracked::live_count, 1);
  EXPECT_EQ(survivor->value, 7);
  survivor.reset();
  EXPECT_EQ(Tracked::live_count, 0);
}

}  // namespace
}  // namespace xk
