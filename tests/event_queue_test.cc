// Tests for the discrete-event core.

#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <utility>
#include <vector>

namespace xk {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Usec(30), [&] { order.push_back(3); });
  q.ScheduleAt(Usec(10), [&] { order.push_back(1); });
  q.ScheduleAt(Usec(20), [&] { order.push_back(2); });
  EXPECT_EQ(q.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Usec(30));
}

TEST(EventQueueTest, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(Usec(10), [&order, i] { order.push_back(i); });
  }
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ScheduleInIsRelative) {
  EventQueue q;
  SimTime fired_at = -1;
  q.ScheduleAt(Usec(100), [&] {
    q.ScheduleIn(Usec(50), [&] { fired_at = q.now(); });
  });
  q.Run();
  EXPECT_EQ(fired_at, Usec(150));
}

TEST(EventQueueTest, PastTimesClampToNow) {
  EventQueue q;
  SimTime fired_at = -1;
  q.ScheduleAt(Usec(100), [&] {
    q.ScheduleAt(Usec(10), [&] { fired_at = q.now(); });  // in the past
  });
  q.Run();
  EXPECT_EQ(fired_at, Usec(100));
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.ScheduleAt(Usec(10), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());  // second cancel is a no-op
  q.Run();
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, HandleReportsFiredEventNotPending) {
  EventQueue q;
  EventHandle h = q.ScheduleAt(Usec(5), [] {});
  q.Run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Usec(10), [&] { order.push_back(1); });
  q.ScheduleAt(Usec(20), [&] { order.push_back(2); });
  q.ScheduleAt(Usec(30), [&] { order.push_back(3); });
  EXPECT_EQ(q.RunUntil(Usec(20)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(q.empty());
  q.Run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(EventQueueTest, RunUntilSkipsCancelledHead) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.ScheduleAt(Usec(5), [&] { fired = true; });
  q.ScheduleAt(Usec(10), [&] {});
  h.Cancel();
  EXPECT_EQ(q.RunUntil(Usec(20)), 1u);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, MaxEventsBound) {
  EventQueue q;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(Usec(i), [&] { ++count; });
  }
  EXPECT_EQ(q.Run(4), 4u);
  EXPECT_EQ(count, 4);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      q.ScheduleIn(Usec(1), chain);
    }
  };
  q.ScheduleAt(0, chain);
  q.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now(), Usec(99));
}

TEST(EventQueueTest, AdvanceToMovesClock) {
  EventQueue q;
  q.AdvanceTo(Msec(5));
  EXPECT_EQ(q.now(), Msec(5));
}

TEST(EventQueueTest, CancelInsideOwnHandlerIsNoOp) {
  // By the time a handler runs, its own handle is already retired: a Cancel()
  // from inside the handler must report false (the kernel uses this to decide
  // whether to charge timer_cancel).
  EventQueue q;
  EventHandle h;
  bool cancel_result = true;
  h = q.ScheduleAt(Usec(5), [&] { cancel_result = h.Cancel(); });
  q.Run();
  EXPECT_FALSE(cancel_result);
}

TEST(EventQueueTest, CancellationStorm) {
  // Schedule thousands of timers and cancel almost all of them -- the
  // retransmit pattern at scale. Only the survivors fire, in order, and the
  // queue's live accounting stays exact throughout.
  EventQueue q;
  constexpr int kEvents = 4096;
  std::vector<EventHandle> handles;
  handles.reserve(kEvents);
  std::vector<int> fired;
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(q.ScheduleAt(Usec(i), [&fired, i] { fired.push_back(i); }));
  }
  EXPECT_EQ(q.pending_events(), static_cast<size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    if (i % 64 != 0) {
      EXPECT_TRUE(handles[i].Cancel());
    }
  }
  EXPECT_EQ(q.pending_events(), static_cast<size_t>(kEvents / 64));
  q.Run();
  ASSERT_EQ(fired.size(), static_cast<size_t>(kEvents / 64));
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(i) * 64);
  }
  EXPECT_TRUE(q.empty());
  // Every cancelled handle stays dead.
  for (auto& h : handles) {
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.Cancel());
  }
}

TEST(EventQueueTest, HandleStaysDeadAfterSlotReuse) {
  // Once an event fires or is cancelled its slab slot is recycled for new
  // events. Old handles -- including copies -- must keep reporting dead even
  // while a new event occupies the same slot.
  EventQueue q;
  EventHandle first = q.ScheduleAt(Usec(1), [] {});
  EventHandle first_copy = first;
  q.Run();
  EXPECT_FALSE(first.pending());

  // With one slot free, this reuses it under a bumped generation.
  bool second_fired = false;
  EventHandle second = q.ScheduleIn(Usec(1), [&] { second_fired = true; });
  EXPECT_TRUE(second.pending());
  EXPECT_FALSE(first.pending());
  EXPECT_FALSE(first_copy.pending());
  EXPECT_FALSE(first.Cancel());  // must not kill the new occupant
  EXPECT_TRUE(second.pending());
  q.Run();
  EXPECT_TRUE(second_fired);

  // Same pattern through many reuse cycles.
  std::vector<EventHandle> stale;
  for (int i = 0; i < 100; ++i) {
    EventHandle h = q.ScheduleIn(Usec(1), [] {});
    for (auto& old : stale) {
      EXPECT_FALSE(old.Cancel());
    }
    EXPECT_TRUE(h.pending());
    if (i % 2 == 0) {
      EXPECT_TRUE(h.Cancel());
    } else {
      q.Run();
    }
    stale.push_back(h);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, DifferentialAgainstReferenceModel) {
  // Replay a long random schedule/cancel/reschedule/run trace against a
  // transparent reference implementation with the seed's priority-queue
  // semantics ((at, seq) ordering, cancellation by flag). A reschedule in the
  // model is a cancel plus a schedule of the same closure: the id's older
  // entries go stale and a new entry takes a fresh seq. Firing order, firing
  // times, cancel return values, live counts and fired totals must match
  // exactly.
  struct RefEvent {
    SimTime at;
    uint64_t seq;
    int id;
    bool operator>(const RefEvent& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };
  std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<RefEvent>>
      ref_heap;
  std::vector<bool> ref_dead;        // id -> cancelled-or-fired
  std::vector<uint64_t> ref_cur;     // id -> seq of its current entry
  std::vector<SimTime> ref_at;       // id -> time of its current entry
  SimTime ref_now = 0;
  uint64_t ref_seq = 0;
  uint64_t ref_fired = 0;

  EventQueue q;
  std::vector<EventHandle> handles;
  std::vector<std::pair<int, SimTime>> fired_real;
  std::vector<std::pair<int, SimTime>> fired_ref;

  auto ref_live = [&] {
    size_t n = 0;
    for (size_t i = 0; i < ref_dead.size(); ++i) {
      // Count ids scheduled but neither fired nor cancelled.
      n += ref_dead[i] ? 0 : 1;
    }
    return n;
  };
  auto ref_run = [&](size_t max_events) {
    size_t fired = 0;
    while (fired < max_events && !ref_heap.empty()) {
      RefEvent ev = ref_heap.top();
      ref_heap.pop();
      if (ref_dead[ev.id] || ev.seq != ref_cur[ev.id]) continue;
      ref_now = ev.at;
      ref_dead[ev.id] = true;
      fired_ref.emplace_back(ev.id, ev.at);
      ++fired;
    }
    ref_fired += fired;
    return fired;
  };

  std::mt19937 rng(20260806);
  int later = 0;
  int earlier = 0;
  for (int step = 0; step < 6000; ++step) {
    const int op = static_cast<int>(rng() % 100);
    if (op < 45) {  // schedule, sometimes in the "past" to exercise clamping
      const SimTime at = ref_now + static_cast<SimTime>(rng() % 500) - 50;
      const int id = static_cast<int>(ref_dead.size());
      const SimTime clamped = at < ref_now ? ref_now : at;
      ref_heap.push(RefEvent{clamped, ref_seq, id});
      ref_cur.push_back(ref_seq++);
      ref_at.push_back(clamped);
      ref_dead.push_back(false);
      handles.push_back(q.ScheduleAt(
          at, [&fired_real, &q, id] { fired_real.emplace_back(id, q.now()); }));
    } else if (op < 65 && !handles.empty()) {  // cancel a random id
      const size_t victim = rng() % handles.size();
      const bool ref_was_live = !ref_dead[victim];
      ref_dead[victim] = true;
      EXPECT_EQ(handles[victim].Cancel(), ref_was_live) << "step " << step;
      EXPECT_FALSE(handles[victim].pending());
    } else if (op < 85 && !handles.empty()) {  // reschedule, later or earlier
      // Mostly a recent id, which is likely still pending.
      const size_t victim =
          handles.size() - 1 - rng() % std::min<size_t>(handles.size(), 16);
      const SimTime at = ref_now + static_cast<SimTime>(rng() % 500) - 50;
      const SimTime clamped = at < ref_now ? ref_now : at;
      const EventHandle old = handles[victim];
      handles[victim] = q.Reschedule(old, at);
      if (ref_dead[victim]) {
        EXPECT_EQ(handles[victim], old) << "step " << step;
        EXPECT_FALSE(handles[victim].pending()) << "step " << step;
      } else {
        const bool moved_earlier = clamped < ref_at[victim];
        ++(moved_earlier ? earlier : later);
        ref_heap.push(RefEvent{clamped, ref_seq, static_cast<int>(victim)});
        ref_cur[victim] = ref_seq++;
        ref_at[victim] = clamped;
        EXPECT_TRUE(handles[victim].pending()) << "step " << step;
        EXPECT_EQ(handles[victim] == old, !moved_earlier) << "step " << step;
        EXPECT_EQ(old.pending(), !moved_earlier) << "step " << step;
      }
    } else {  // run a bounded burst
      const size_t burst = 1 + rng() % 8;
      EXPECT_EQ(q.Run(burst), ref_run(burst)) << "step " << step;
      EXPECT_EQ(q.now(), ref_now) << "step " << step;
    }
    EXPECT_EQ(q.pending_events(), ref_live()) << "step " << step;
    EXPECT_EQ(q.fired_total(), ref_fired) << "step " << step;
  }
  q.Run();
  ref_run(SIZE_MAX);
  EXPECT_EQ(q.now(), ref_now);
  EXPECT_EQ(fired_real, fired_ref);
  EXPECT_EQ(q.fired_total(), ref_fired);
  EXPECT_TRUE(q.empty());
  // Both kinds of move were exercised, many times.
  EXPECT_GT(later, 100);
  EXPECT_GT(earlier, 100);
}

TEST(EventQueueTest, RescheduleHandles) {
  EventQueue q;
  std::vector<int> order;
  EventHandle a = q.ScheduleAt(Usec(10), [&] { order.push_back(1); });
  EventHandle b = q.ScheduleAt(Usec(20), [&] { order.push_back(2); });
  const EventHandle a_copy = a;

  // Later: re-keyed in place; the handle and every copy of it stay pending.
  EXPECT_EQ(q.Reschedule(a, Usec(30)), a);
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(a_copy.pending());
  EXPECT_EQ(q.pending_events(), 2u);

  // Earlier: a new handle; the old one (and its copies) read !pending().
  EventHandle b2 = q.Reschedule(b, Usec(5));
  EXPECT_FALSE(b2 == b);
  EXPECT_TRUE(b2.pending());
  EXPECT_FALSE(b.pending());
  EXPECT_FALSE(b.Cancel());
  EXPECT_EQ(q.pending_events(), 2u);

  q.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(q.now(), Usec(30));
  EXPECT_FALSE(a_copy.pending());

  // Cancelling a re-keyed handle (through a copy) stops it firing, and its
  // stale heap entry is dropped when it surfaces.
  bool fired = false;
  EventHandle c = q.ScheduleIn(Usec(10), [&] { fired = true; });
  EventHandle c_copy = c;
  EXPECT_EQ(q.Reschedule(c, q.now() + Usec(50)), c);
  EXPECT_TRUE(c_copy.Cancel());
  EXPECT_FALSE(c.pending());
  EXPECT_TRUE(q.empty());
  q.Run();
  EXPECT_FALSE(fired);

  // A handle that is no longer pending is returned as it is.
  EXPECT_EQ(q.Reschedule(c, q.now() + Usec(1)), c);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RescheduledEventRunsUntilAtItsNewTime) {
  // RunUntil must not stop at (or fire) the stale, earlier key.
  EventQueue q;
  SimTime fired_at = -1;
  EventHandle h = q.ScheduleAt(Usec(10), [&] { fired_at = q.now(); });
  q.Reschedule(h, Usec(40));
  EXPECT_EQ(q.RunUntil(Usec(39)), 0u);
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(q.RunUntil(Usec(40)), 1u);
  EXPECT_EQ(fired_at, Usec(40));
}

TEST(EventQueueTest, CountersTrackHeapWork) {
  EventQueue q;
  EventHandle h = q.ScheduleAt(Usec(10), [] {});
  q.ScheduleAt(Usec(20), [] {});
  EXPECT_EQ(q.heap_pushes(), 2u);
  // Pushed back in place: no new entry until the stale one surfaces.
  q.Reschedule(h, Usec(30));
  EXPECT_EQ(q.heap_pushes(), 2u);
  EXPECT_EQ(q.cancels(), 0u);
  q.Run();
  EXPECT_EQ(q.heap_pushes(), 3u);  // the stale entry sifted down once
  EXPECT_EQ(q.dead_skimmed(), 0u);
  EXPECT_EQ(q.fired_total(), 2u);
  // Pulled earlier: a cancel, a second entry, and a dead one to skim.
  EventHandle g = q.ScheduleIn(Usec(50), [] {});
  q.Reschedule(g, q.now() + Usec(5));
  EXPECT_EQ(q.heap_pushes(), 5u);
  EXPECT_EQ(q.cancels(), 1u);
  q.Run();
  EXPECT_EQ(q.dead_skimmed(), 1u);
  EXPECT_EQ(q.fired_total(), 3u);
}

TEST(EventQueueTest, CountsFiredEvents) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(Usec(i), [] {});
  }
  EventHandle h = q.ScheduleAt(Usec(10), [] {});
  h.Cancel();
  q.Run();
  EXPECT_EQ(q.fired_total(), 5u);  // cancelled events don't count
  q.ScheduleIn(Usec(1), [] {});
  q.Run();
  EXPECT_EQ(q.fired_total(), 6u);  // lifetime counter, keeps accumulating
}

TEST(EventQueueTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      q.ScheduleAt(Usec((i * 7) % 5), [&order, i] { order.push_back(i); });
    }
    q.Run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace xk
