// Unit tests for the Kernel (tasks, timers, cost accounting), the shepherd
// semaphore, the demux map, and small core value types.

#include <gtest/gtest.h>

#include <map>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/participant.h"
#include "src/tools/semaphore.h"

namespace xk {
namespace {

struct KernelFixture : ::testing::Test {
  EventQueue events;
  Kernel kernel{"host", events, HostEnv::kXKernel, IpAddr(10, 0, 0, 1), EthAddr::FromIndex(1)};
};

TEST_F(KernelFixture, TasksAdvanceTheCpuClock) {
  SimTime seen = -1;
  kernel.RunTask(Usec(100), [&] {
    kernel.Charge(Usec(50));
    seen = kernel.now();
  });
  EXPECT_EQ(seen, Usec(150));
  EXPECT_EQ(kernel.cpu().busy_until(), Usec(150));
  EXPECT_EQ(kernel.cpu().total_busy(), Usec(50));
}

TEST_F(KernelFixture, ScheduledTasksSerializeOnTheCpu) {
  std::vector<SimTime> starts;
  kernel.ScheduleTask(Usec(10), [&] {
    starts.push_back(kernel.now());
    kernel.Charge(Usec(100));
  });
  kernel.ScheduleTask(Usec(20), [&] { starts.push_back(kernel.now()); });
  events.Run();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], Usec(10));
  EXPECT_EQ(starts[1], Usec(110));  // waited for the CPU, not just the clock
}

TEST_F(KernelFixture, TimerFiresAfterDelayAndCharges) {
  bool fired = false;
  kernel.RunTask(0, [&] {
    kernel.Charge(Usec(5));
    kernel.SetTimer(Usec(100), [&] { fired = true; });
  });
  const SimTime timer_set_cost = kernel.costs().timer_set;
  EXPECT_EQ(kernel.cpu().total_busy(), Usec(5) + timer_set_cost);
  events.RunUntil(Usec(104) + timer_set_cost);
  EXPECT_FALSE(fired);
  events.Run();
  EXPECT_TRUE(fired);
}

TEST_F(KernelFixture, CancelledTimerNeverFiresAndChargesCancel) {
  bool fired = false;
  EventHandle h;
  kernel.RunTask(0, [&] { h = kernel.SetTimer(Usec(50), [&] { fired = true; }); });
  const SimTime before = kernel.cpu().total_busy();
  kernel.RunTask(0, [&] { kernel.CancelTimer(h); });
  EXPECT_EQ(kernel.cpu().total_busy() - before, kernel.costs().timer_cancel);
  events.Run();
  EXPECT_FALSE(fired);
  // Cancelling again charges nothing.
  const SimTime before2 = kernel.cpu().total_busy();
  kernel.RunTask(0, [&] { kernel.CancelTimer(h); });
  EXPECT_EQ(kernel.cpu().total_busy(), before2);
}

TEST(KernelTimerTest, RearmedTimerFiresWhereCancelAndSetWouldAndCharges) {
  // The same push-back done both ways on fresh hosts: RearmTimer, and the
  // CancelTimer + SetTimer pair it replaces. Fire time and CPU charge match.
  struct Outcome {
    SimTime fired_at = -1;
    SimTime busy = 0;
  };
  auto run = [](bool rearm) {
    EventQueue events;
    Kernel kernel{"host", events, HostEnv::kXKernel, IpAddr(10, 0, 0, 1), EthAddr::FromIndex(1)};
    Outcome out;
    auto body = [&] { out.fired_at = events.now(); };
    EventHandle h;
    kernel.RunTask(0, [&] { h = kernel.SetTimer(Usec(50), body); });
    const EventHandle original = h;
    kernel.RunTask(Usec(10), [&] {
      if (rearm) {
        EXPECT_TRUE(kernel.RearmTimer(h, Usec(50)));
        EXPECT_EQ(h, original);  // pushed back in place
      } else {
        kernel.CancelTimer(h);
        h = kernel.SetTimer(Usec(50), body);
      }
    });
    EXPECT_EQ(events.pending_events(), 1u);
    events.Run();
    out.busy = kernel.cpu().total_busy();
    // A timer that already fired is not re-armed, and nothing is charged.
    kernel.RunTask(events.now(), [&] { EXPECT_FALSE(kernel.RearmTimer(h, Usec(50))); });
    EXPECT_EQ(kernel.cpu().total_busy(), out.busy);
    return out;
  };
  const Outcome rearmed = run(true);
  const Outcome pair = run(false);
  EXPECT_GT(rearmed.fired_at, Usec(60));
  EXPECT_EQ(rearmed.fired_at, pair.fired_at);
  EXPECT_EQ(rearmed.busy, pair.busy);
}

TEST_F(KernelFixture, CrashCancelsRearmedTimers) {
  // One timer pushed back in place, one pulled earlier (re-queued under a
  // new handle): the crash must cancel both.
  int fired = 0;
  EventHandle later, earlier;
  kernel.RunTask(0, [&] {
    later = kernel.SetTimer(Usec(20), [&] { ++fired; });
    earlier = kernel.SetTimer(Usec(500), [&] { ++fired; });
  });
  const EventHandle earlier_before = earlier;
  kernel.RunTask(Usec(5), [&] {
    EXPECT_TRUE(kernel.RearmTimer(later, Usec(100)));
    EXPECT_TRUE(kernel.RearmTimer(earlier, Usec(100)));
  });
  EXPECT_FALSE(earlier == earlier_before);
  EXPECT_FALSE(earlier_before.pending());
  EXPECT_EQ(events.pending_events(), 2u);
  kernel.Crash();
  EXPECT_FALSE(later.pending());
  EXPECT_FALSE(earlier.pending());
  events.Run();
  EXPECT_EQ(fired, 0);
}

TEST_F(KernelFixture, BootIdsAreUniqueAndBumpOnRestart) {
  Kernel other("other", events, HostEnv::kXKernel, IpAddr(10, 0, 0, 2), EthAddr::FromIndex(2));
  EXPECT_NE(kernel.boot_id(), other.boot_id());
  const uint32_t before = kernel.boot_id();
  EXPECT_TRUE(kernel.is_up());
  kernel.Crash();
  EXPECT_FALSE(kernel.is_up());
  kernel.Restart();
  EXPECT_TRUE(kernel.is_up());
  EXPECT_EQ(kernel.boot_id(), before + 1);
}

TEST_F(KernelFixture, CrashCancelsPendingTasksAndTimersAndClearsGraph) {
  bool fired = false;
  kernel.ScheduleTask(Usec(10), [&] { fired = true; });
  kernel.RunTask(0, [&] { kernel.SetTimer(Usec(20), [&] { fired = true; }); });
  EXPECT_EQ(events.pending_events(), 2u);
  kernel.Crash();
  EXPECT_EQ(events.pending_events(), 0u);
  events.Run();
  EXPECT_FALSE(fired);  // cancelled events never fire after the crash
  int protocols = 0;
  kernel.ForEachProtocol([&](const Protocol&) { ++protocols; });
  EXPECT_EQ(protocols, 0);  // the protocol graph is gone
}

TEST_F(KernelFixture, CrashCancelsTasksKeptAcrossRegistryCompaction) {
  // The pending-handle registry squeezes out fired handles as it grows; a
  // squeeze must keep every live one, or Crash() would miss it.
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    kernel.ScheduleTask(Usec(1), [&] { ++fired; });
  }
  events.Run();
  ASSERT_EQ(fired, 100);
  for (int i = 0; i < 200; ++i) {
    kernel.ScheduleTask(Usec(10), [&] { ++fired; });
  }
  EXPECT_EQ(events.pending_events(), 200u);
  kernel.Crash();
  EXPECT_EQ(events.pending_events(), 0u);
  events.Run();
  EXPECT_EQ(fired, 100);
}

// The Section 5 ablation is a cost environment: the same header push and pop
// cost the extra per-header allocate and free only under
// kXKernelAllocPerHeader.
TEST_F(KernelFixture, HeaderChargesFollowAllocPolicy) {
  Kernel alloc("alloc", events, HostEnv::kXKernelAllocPerHeader, IpAddr(10, 0, 0, 2),
               EthAddr::FromIndex(2));
  for (Kernel* k : {&kernel, &alloc}) {
    k->RunTask(0, [k] { k->ChargeHdrStore(20); });
  }
  EXPECT_EQ(alloc.cpu().total_busy() - kernel.cpu().total_busy(), Usec(130));
  for (Kernel* k : {&kernel, &alloc}) {
    k->RunTask(0, [k] { k->ChargeHdrLoad(20); });
  }
  EXPECT_EQ(alloc.cpu().total_busy() - kernel.cpu().total_busy(), Usec(130 + 65));
}

// kXKernelAllocPerHeader is the x-kernel with only the header-buffer scheme
// changed, so the ablation measures that and nothing else.
TEST(CostModelTest, AllocPerHeaderDiffersFromXKernelOnlyInHeaderBuffers) {
  CostModel expected = CostModel::For(HostEnv::kXKernel);
  EXPECT_EQ(expected.hdr_alloc_extra, 0);
  EXPECT_EQ(expected.hdr_free_extra, 0);
  expected.hdr_alloc_extra = Usec(130);
  expected.hdr_free_extra = Usec(65);
  EXPECT_EQ(CostModel::For(HostEnv::kXKernelAllocPerHeader), expected);
}

TEST_F(KernelFixture, EnvironmentsHaveDistinctCostModels) {
  Kernel sprite("sprite", events, HostEnv::kNativeSprite, IpAddr(10, 0, 0, 3),
                EthAddr::FromIndex(3));
  Kernel sunos("sunos", events, HostEnv::kSunOs, IpAddr(10, 0, 0, 4), EthAddr::FromIndex(4));
  Kernel alloc("alloc", events, HostEnv::kXKernelAllocPerHeader, IpAddr(10, 0, 0, 5),
               EthAddr::FromIndex(5));
  EXPECT_EQ(kernel.costs().layer_cross_extra, 0);
  EXPECT_GT(sprite.costs().layer_cross_extra, 0);
  EXPECT_GT(sunos.costs().layer_cross_extra, sprite.costs().layer_cross_extra);
  EXPECT_GT(sunos.costs().process_switch, kernel.costs().process_switch);
  EXPECT_GT(alloc.costs().hdr_alloc_extra, 0);
  EXPECT_EQ(sprite.costs().hdr_alloc_extra, 0);
  EXPECT_EQ(sunos.costs().hdr_alloc_extra, 0);
}

// --- XSemaphore -----------------------------------------------------------------

TEST_F(KernelFixture, SemaphorePassesWhenCountAvailable) {
  kernel.RunTask(0, [&] {
    XSemaphore sem(kernel, 2);
    int ran = 0;
    sem.P([&] { ++ran; });
    sem.P([&] { ++ran; });
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(sem.count(), 0);
    EXPECT_EQ(sem.waiting(), 0u);
  });
}

TEST_F(KernelFixture, SemaphoreQueuesAndReleasesFifo) {
  kernel.RunTask(0, [&] {
    XSemaphore sem(kernel, 1);
    std::vector<int> order;
    sem.P([&] { order.push_back(0); });
    sem.P([&] { order.push_back(1); });  // blocks
    sem.P([&] { order.push_back(2); });  // blocks
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(sem.waiting(), 2u);
    sem.V();
    sem.V();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    sem.V();  // banks the unit
    EXPECT_EQ(sem.count(), 1);
  });
}

TEST_F(KernelFixture, SemaphoreVChargesSwitchOnlyWhenWaking) {
  kernel.RunTask(0, [&] {
    XSemaphore sem(kernel, 0);
    const SimTime t0 = kernel.cpu().total_busy();
    sem.V();  // no waiter: just the semaphore op
    EXPECT_EQ(kernel.cpu().total_busy() - t0, kernel.costs().sem_op);
    sem.P([] {});  // consumes the banked unit
    sem.P([] {});  // blocks
    const SimTime t1 = kernel.cpu().total_busy();
    sem.V();  // wakes the waiter: semaphore op + process switch
    EXPECT_EQ(kernel.cpu().total_busy() - t1,
              kernel.costs().sem_op + kernel.costs().process_switch);
  });
}

// --- DemuxMap -------------------------------------------------------------------

TEST_F(KernelFixture, DemuxMapChargesResolveAndBind) {
  kernel.RunTask(0, [&] {
    DemuxMap<int, int> map(kernel);
    const SimTime t0 = kernel.cpu().total_busy();
    map.Bind(1, 42);
    EXPECT_EQ(kernel.cpu().total_busy() - t0, kernel.costs().map_bind);
    const SimTime t1 = kernel.cpu().total_busy();
    EXPECT_EQ(map.Resolve(1), 42);
    EXPECT_EQ(kernel.cpu().total_busy() - t1, kernel.costs().map_resolve);
    EXPECT_EQ(map.Resolve(9), 0);  // miss: default value
    // Peek does not charge.
    const SimTime t2 = kernel.cpu().total_busy();
    EXPECT_EQ(map.Peek(1), 42);
    EXPECT_EQ(kernel.cpu().total_busy(), t2);
    // Unbind charges like Bind: removal pays the same probe-and-unlink price.
    const SimTime t3 = kernel.cpu().total_busy();
    map.Unbind(1);
    EXPECT_EQ(kernel.cpu().total_busy() - t3, kernel.costs().map_bind);
    EXPECT_FALSE(map.Contains(1));
  });
}

TEST_F(KernelFixture, DemuxMapTryBindSingleProbe) {
  kernel.RunTask(0, [&] {
    DemuxMap<int, int> map(kernel);
    // Miss: installs and charges one map_bind.
    const SimTime t0 = kernel.cpu().total_busy();
    int existing = 0;
    EXPECT_TRUE(map.TryBind(7, 70, &existing));
    EXPECT_EQ(kernel.cpu().total_busy() - t0, kernel.costs().map_bind);
    // Hit: leaves the incumbent, reports it, and charges nothing (the same
    // total the old Peek-then-bail pattern paid).
    const SimTime t1 = kernel.cpu().total_busy();
    EXPECT_FALSE(map.TryBind(7, 99, &existing));
    EXPECT_EQ(existing, 70);
    EXPECT_EQ(kernel.cpu().total_busy(), t1);
    EXPECT_EQ(map.Peek(7), 70);
  });
}

TEST_F(KernelFixture, DemuxMapTakeRemovesAndReturns) {
  kernel.RunTask(0, [&] {
    DemuxMap<int, int> map(kernel);
    map.Bind(3, 30);
    const SimTime t0 = kernel.cpu().total_busy();
    EXPECT_EQ(map.Take(3), 30);
    // Removal probes and unlinks like installation, so it charges the same.
    EXPECT_EQ(kernel.cpu().total_busy() - t0, kernel.costs().map_bind);
    EXPECT_FALSE(map.Contains(3));
    EXPECT_EQ(map.Take(3), 0);  // miss: default value
  });
}

TEST_F(KernelFixture, DemuxMapSurvivesChurnAndRehash) {
  // Bind/unbind far more keys than the initial capacity, with interleaved
  // removals so probe chains cross tombstones and the table rehashes several
  // times. A shadowing std::map checks every answer.
  kernel.RunTask(0, [&] {
    DemuxMap<uint32_t, int> map(kernel);
    std::map<uint32_t, int> shadow;
    uint32_t rng = 1;
    for (int step = 0; step < 3000; ++step) {
      rng = rng * 1664525u + 1013904223u;
      const uint32_t key = (rng >> 8) % 256;  // dense keys force collisions
      if (step % 3 == 2) {
        map.Unbind(key);
        shadow.erase(key);
      } else {
        map.Bind(key, step);
        shadow[key] = step;
      }
      if (step % 97 == 0) {
        for (uint32_t k = 0; k < 256; ++k) {
          auto it = shadow.find(k);
          EXPECT_EQ(map.Peek(k), it == shadow.end() ? 0 : it->second);
        }
      }
      ASSERT_EQ(map.size(), shadow.size());
    }
  });
}

// --- Participant / Status ---------------------------------------------------------

TEST(ParticipantTest, ToStringShowsOnlySetFields) {
  Participant p;
  p.host = IpAddr(10, 0, 1, 2);
  p.command = 7;
  const std::string s = p.ToString();
  EXPECT_NE(s.find("host=10.0.1.2"), std::string::npos);
  EXPECT_NE(s.find("cmd=7"), std::string::npos);
  EXPECT_EQ(s.find("port="), std::string::npos);
  ParticipantSet set;
  set.peer = p;
  EXPECT_NE(set.ToString().find("peer="), std::string::npos);
}

TEST(StatusTest, NamesAndPredicates) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTimeout), "TIMEOUT");
  EXPECT_TRUE(OkStatus().ok());
  EXPECT_FALSE(ErrStatus(StatusCode::kError).ok());
  EXPECT_EQ(ErrStatus(StatusCode::kTooBig).code(), StatusCode::kTooBig);
  Result<int> good = 5;
  Result<int> bad = ErrStatus(StatusCode::kNotFound);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace xk
