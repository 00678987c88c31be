// SlabPool: the pooled session store. These tests pin the properties the
// protocols rely on -- stable addresses, allocation-free recycling past the
// high-water mark, LIFO (deterministic) slot reuse, and sessions that
// outlive their pool.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/kernel.h"
#include "src/sim/slab_pool.h"

namespace xk {
namespace {

// The protocol every Tracked session names as its owner.
class NullProtocol : public Protocol {
 public:
  explicit NullProtocol(Kernel& kernel) : Protocol(kernel, "null", {}) {}

 protected:
  Status DoDemux(Session* lls, Message& msg) override {
    (void)lls;
    (void)msg;
    return ErrStatus(StatusCode::kNotFound);
  }
};

struct Tracked : Session {
  static int live_count;
  int value;
  Tracked(Protocol& owner, int v) : Session(owner, nullptr), value(v) { ++live_count; }
  ~Tracked() override { --live_count; }

 protected:
  Status DoPush(Message& msg) override {
    (void)msg;
    return OkStatus();
  }
  Status DoPop(Message& msg, Session* lls) override {
    (void)msg;
    (void)lls;
    return OkStatus();
  }
};
int Tracked::live_count = 0;

// The owner of every Tracked session; it outlives every pool below.
Protocol& Owner() {
  static EventQueue events;
  static Kernel kernel("slab", events, HostEnv::kXKernel, IpAddr(10, 0, 1, 1),
                       EthAddr::FromIndex(1));
  static NullProtocol owner(kernel);
  return owner;
}

TEST(SlabPoolTest, CreateDestroyCountsAndRunsDestructors) {
  Tracked::live_count = 0;
  SlabPool<Tracked> pool;
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.capacity(), 0u);

  auto a = pool.Create(Owner(), 1);
  auto b = pool.Create(Owner(), 2);
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
  std::vector<SessionPtr<Tracked>> objs;
  std::vector<Tracked*> addrs;
  // Span several chunks so the backing store grows repeatedly.
  for (int i = 0; i < 500; ++i) {
    objs.push_back(pool.Create(Owner(), i));
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
  std::vector<SessionPtr<Tracked>> objs;
  for (int i = 0; i < 200; ++i) {
    objs.push_back(pool.Create(Owner(), i));
  }
  const size_t cap = pool.capacity();
  Tracked* last_addr = objs.back().get();

  // Destroy the newest, create again: LIFO reuse lands on the same slot.
  objs.pop_back();
  auto again = pool.Create(Owner(), 999);
  EXPECT_EQ(again.get(), last_addr);
  EXPECT_EQ(again->value, 999);

  // Heavy churn below the high-water mark never grows the slab.
  for (int round = 0; round < 50; ++round) {
    objs.pop_back();
    objs.pop_back();
    objs.push_back(pool.Create(Owner(), round));
    objs.push_back(pool.Create(Owner(), round));
  }
  EXPECT_EQ(pool.capacity(), cap);
  EXPECT_EQ(pool.high_water(), 200u);
}

TEST(SlabPoolTest, ObjectOutlivesThePool) {
  // The live session keeps the slab alive: a session handed out by a
  // protocol must survive that protocol's destruction (crash teardown).
  Tracked::live_count = 0;
  SessionPtr<Tracked> survivor;
  {
    SlabPool<Tracked> pool;
    survivor = pool.Create(Owner(), 7);
  }
  EXPECT_EQ(Tracked::live_count, 1);
  EXPECT_EQ(survivor->value, 7);
  survivor.reset();
  EXPECT_EQ(Tracked::live_count, 0);
}

}  // namespace
}  // namespace xk
