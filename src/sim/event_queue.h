// Deterministic discrete-event core.
//
// The EventQueue is the single clock of a simulation: every kernel, link, and
// timer in one experiment shares one queue. Events scheduled for the same
// instant fire in schedule order (a monotonically increasing sequence number
// breaks ties), which makes every run bit-for-bit reproducible.
//
// Host-side representation (invisible to simulated time): closures live in a
// slab of reusable slots, cancellation is a generation-counter bump, and the
// ready order is kept in a 4-ary min-heap of 24-byte POD entries. Scheduling,
// firing, and cancelling therefore allocate nothing in steady state -- the
// slab and the heap reach a high-water mark and stay there. This matters
// because the dominant pattern is a retransmit timer (CHANNEL, FRAGMENT, RDP)
// that is set per message and cancelled when the reply beats it: a cancel is
// one generation bump, and the stale heap entry is skipped when it surfaces
// (or swept out wholesale if the heap becomes mostly dead).
//
// The other pattern is a timer pushed back again and again (FRAGMENT's
// reassembly gap timer, once per fragment). Reschedule() to a later time
// re-keys the slot in place: the slot takes the new (time, seq) key, and its
// heap entry, now keyed too early, is sifted down under the slot's key if it
// ever reaches the top. The fire order is exactly that of cancelling the
// event and scheduling it anew, without the second heap entry.
//
// Handles are {slot index, generation} pairs into the queue's slab; they must
// not outlive the EventQueue they came from (in this repository queues always
// outlive the kernels holding timers on them).

#ifndef XK_SRC_SIM_EVENT_QUEUE_H_
#define XK_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/types.h"

namespace xk {

class EventQueue;

// Move-only callable holding an event closure. Closures up to kInlineSize
// bytes are stored inside the object itself, so scheduling one costs no heap
// traffic -- the slab slot below IS the storage. Larger closures (rare; none
// on the simulation hot path) fall back to a single allocation. Unlike
// std::function the wrapped callable may itself be move-only, which lets
// timers own their captured state instead of sharing it.
class EventFn {
 public:
  EventFn() = default;
  /*implicit*/ EventFn(std::nullptr_t) {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> && std::is_invocable_v<D&>>>
  /*implicit*/ EventFn(F&& f) {
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      new (static_cast<void*>(buf_)) (D*)(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

 private:
  // Sized so every closure the simulator schedules in steady state (timer
  // bodies wrapping a protocol callback, frame deliveries carrying a
  // shared_ptr) fits inline; with the ops pointer the object is one 64-byte
  // line.
  static constexpr size_t kInlineSize = 56;

  struct Ops {
    void (*invoke)(void* p);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void* p);
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(static_cast<D*>(p)))(); },
      [](void* dst, void* src) {
        D* s = std::launder(static_cast<D*>(src));
        new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) { std::launder(static_cast<D*>(p))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**std::launder(static_cast<D**>(p)))(); },
      [](void* dst, void* src) {
        new (dst) (D*)(*std::launder(static_cast<D**>(src)));
      },
      [](void* p) { delete *std::launder(static_cast<D**>(p)); },
  };

  void MoveFrom(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

// Handle used to cancel a pending event. Copies share fate: cancelling or
// firing the event makes every copy report !pending(). An event rescheduled
// to a later time keeps its handle, so copies of a re-keyed handle stay
// pending (see EventQueue::Reschedule).
class EventHandle {
 public:
  EventHandle() = default;

  // True if the event has neither fired nor been cancelled.
  inline bool pending() const;

  // Cancels the event if still pending. Returns true if it was pending.
  inline bool Cancel();

  friend bool operator==(const EventHandle&, const EventHandle&) = default;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, uint32_t slot, uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t gen_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Current simulated time. Advances only inside Run()/RunUntil().
  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute time `at` (clamped to now()).
  EventHandle ScheduleAt(SimTime at, EventFn fn);

  // Schedules `fn` to run `delay` from now.
  EventHandle ScheduleIn(SimTime delay, EventFn fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Moves the pending event behind `h` to absolute time `at` (clamped to
  // now()), taking a fresh sequence number, so it fires exactly where
  // cancelling it and scheduling the same closure at `at` would put it. A
  // move to a later or equal time re-keys the event in place and returns
  // `h`; a move to an earlier time is that cancel and schedule, and returns
  // the new handle (`h` then reads !pending()). A handle that is not pending
  // is returned as it is.
  EventHandle Reschedule(EventHandle h, SimTime at);

  // Runs events until the queue is empty or `max_events` have fired.
  // Returns the number of events fired.
  size_t Run(size_t max_events = SIZE_MAX);

  // Runs events with firing time <= deadline. The clock is left at
  // min(deadline, time of last event) -- callers that want the clock pinned
  // to the deadline should use AdvanceTo afterwards.
  size_t RunUntil(SimTime deadline);

  // Moves the clock forward without running anything (asserts no earlier
  // pending events exist; used by test harnesses between phases).
  void AdvanceTo(SimTime t);

  // Live (scheduled, not yet fired or cancelled) events. Exact: a Cancel()
  // takes effect immediately.
  bool empty() const { return live_count_ == 0; }
  size_t pending_events() const { return live_count_; }

  // Host-side counter of events fired over this queue's lifetime (benchmark
  // instrumentation; has no effect on simulated time).
  uint64_t fired_total() const { return fired_total_; }

  // Host-side work counters over this queue's lifetime (never charged):
  // entries placed in the heap (schedules, and re-keyed entries sifted back
  // down), events cancelled, and dead entries dropped from the heap.
  uint64_t heap_pushes() const { return heap_pushes_; }
  uint64_t cancels() const { return cancels_; }
  uint64_t dead_skimmed() const { return dead_skimmed_; }

  // Boot ids for kernels constructed over this queue. Per-queue (not
  // process-global) so a simulation's wire bytes depend only on its own
  // allocation order -- concurrent simulations in other threads can't
  // perturb them.
  uint32_t AllocateBootId() { return next_boot_id_++; }

 private:
  friend class EventHandle;

  static constexpr uint32_t kNil = UINT32_MAX;

  // One slab slot. `generation` advances every time the slot's event ends
  // (fires or is cancelled), so stale handles and stale heap entries are
  // recognized by mismatch. (`at`, `seq`) is the live event's key; a heap
  // entry of the right generation but an older seq was re-keyed later by
  // Reschedule. While free, `next_free` links the freelist.
  struct Slot {
    EventFn fn;
    SimTime at = 0;
    uint64_t seq = 0;
    uint32_t generation = 0;
    uint32_t next_free = kNil;
  };

  // Heap entry: plain data, cheap to sift. The closure stays in the slab.
  struct Entry {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };

  static bool Before(const Entry& a, const Entry& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.seq < b.seq;
  }

  uint32_t AcquireSlot();
  void RetireSlot(uint32_t index);
  bool SlotLive(uint32_t index, uint32_t gen) const {
    return index < slots_.size() && slots_[index].generation == gen;
  }
  bool CancelInternal(uint32_t index, uint32_t gen);

  void HeapPush(Entry e);
  void HeapPopTop();
  void SiftDown(size_t i);
  // Drops dead heap entries at the top and sifts a re-keyed one down under
  // its slot's key, until the top is live and current; returns false if the
  // heap drained.
  bool SkimDead();
  void MaybeSweepDead();

  // Pops the next live event, transferring its closure to `fn`.
  bool PopNext(Entry& out, EventFn& fn);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  uint64_t fired_total_ = 0;
  uint64_t heap_pushes_ = 0;
  uint64_t cancels_ = 0;
  uint64_t dead_skimmed_ = 0;
  uint32_t next_boot_id_ = 1000;

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNil;
  std::vector<Entry> heap_;
  size_t dead_in_heap_ = 0;  // cancelled entries not yet skipped/swept
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->SlotLive(slot_, gen_);
}

inline bool EventHandle::Cancel() {
  return queue_ != nullptr && queue_->CancelInternal(slot_, gen_);
}

}  // namespace xk

#endif  // XK_SRC_SIM_EVENT_QUEUE_H_
