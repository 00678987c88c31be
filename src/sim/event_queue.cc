#include "src/sim/event_queue.h"

#include <cassert>
#include <utility>

namespace xk {

namespace {
// 4-ary heap: shallower than binary for the same size, and the four children
// of a node sit in one cache line of 24-byte entries.
constexpr size_t Parent(size_t i) { return (i - 1) / 4; }
constexpr size_t FirstChild(size_t i) { return 4 * i + 1; }
}  // namespace

EventHandle EventQueue::ScheduleAt(SimTime at, EventFn fn) {
  if (at < now_) {
    at = now_;
  }
  const uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.at = at;
  s.seq = next_seq_++;
  const uint32_t gen = s.generation;
  HeapPush(Entry{at, s.seq, slot, gen});
  ++live_count_;
  return EventHandle(this, slot, gen);
}

EventHandle EventQueue::Reschedule(EventHandle h, SimTime at) {
  if (!h.pending()) {
    return h;
  }
  assert(h.queue_ == this);
  if (at < now_) {
    at = now_;
  }
  Slot& s = slots_[h.slot_];
  if (at < s.at) {
    // The heap entry would surface too late; only a new entry can fire
    // earlier.
    EventFn fn = std::move(s.fn);
    CancelInternal(h.slot_, h.gen_);
    return ScheduleAt(at, std::move(fn));
  }
  // The entry keeps its old, earlier key until SkimDead meets it at the top.
  s.at = at;
  s.seq = next_seq_++;
  return h;
}

size_t EventQueue::Run(size_t max_events) {
  size_t fired = 0;
  Entry e;
  EventFn fn;
  while (fired < max_events && PopNext(e, fn)) {
    now_ = e.at;
    ++fired;
    fn();
  }
  fired_total_ += fired;
  return fired;
}

size_t EventQueue::RunUntil(SimTime deadline) {
  size_t fired = 0;
  EventFn fn;
  while (SkimDead()) {
    if (heap_.front().at > deadline) {
      break;
    }
    Entry e;
    if (!PopNext(e, fn)) {
      break;
    }
    now_ = e.at;
    ++fired;
    fn();
  }
  fired_total_ += fired;
  return fired;
}

void EventQueue::AdvanceTo(SimTime t) {
  assert(t >= now_);
  now_ = t;
}

uint32_t EventQueue::AcquireSlot() {
  if (free_head_ != kNil) {
    const uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNil;
    return index;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::RetireSlot(uint32_t index) {
  Slot& s = slots_[index];
  s.fn = nullptr;
  ++s.generation;  // invalidates handles and the heap entry, if still queued
  s.next_free = free_head_;
  free_head_ = index;
}

bool EventQueue::CancelInternal(uint32_t index, uint32_t gen) {
  if (!SlotLive(index, gen)) {
    return false;
  }
  RetireSlot(index);
  --live_count_;
  ++cancels_;
  ++dead_in_heap_;  // its Entry is still queued; skipped or swept later
  MaybeSweepDead();
  return true;
}

void EventQueue::HeapPush(Entry e) {
  // Hole-based lift: shift parents down into the hole and write the new
  // entry once at its final position (vs. one 24-byte swap per level).
  ++heap_pushes_;
  heap_.push_back(e);
  size_t i = heap_.size() - 1;
  while (i > 0) {
    const size_t p = Parent(i);
    if (!Before(e, heap_[p])) {
      break;
    }
    heap_[i] = heap_[p];
    i = p;
  }
  heap_[i] = e;
}

void EventQueue::HeapPopTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  if (i >= n) {
    return;
  }
  // Hole-based sift: carry the displaced entry in a local, pull the winning
  // child up into the hole each level, and store the carried entry once.
  const Entry moving = heap_[i];
  for (;;) {
    const size_t first = FirstChild(i);
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t last = (first + 4 < n) ? first + 4 : n;
    for (size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], moving)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

bool EventQueue::SkimDead() {
  while (!heap_.empty()) {
    Entry& top = heap_.front();
    const Slot& s = slots_[top.slot];
    if (s.generation != top.gen) {
      --dead_in_heap_;
      ++dead_skimmed_;
      HeapPopTop();
    } else if (s.seq != top.seq) {
      // Re-keyed by Reschedule: the key only ever moved later, so sifting
      // the entry down from here puts it where it belongs.
      top.at = s.at;
      top.seq = s.seq;
      ++heap_pushes_;
      SiftDown(0);
    } else {
      return true;
    }
  }
  return false;
}

void EventQueue::MaybeSweepDead() {
  // Under a cancellation storm most heap entries are stale; compact them in
  // one O(n) pass instead of sifting each through the top. The pop order of
  // live entries is unchanged: same comparator, full re-heapify.
  if (heap_.size() < 64 || dead_in_heap_ * 2 < heap_.size()) {
    return;
  }
  size_t w = 0;
  for (size_t r = 0; r < heap_.size(); ++r) {
    const Entry& e = heap_[r];
    if (slots_[e.slot].generation == e.gen) {
      heap_[w++] = e;
    }
  }
  dead_skimmed_ += heap_.size() - w;
  heap_.resize(w);
  dead_in_heap_ = 0;
  if (w > 1) {
    for (size_t i = Parent(w - 1) + 1; i-- > 0;) {
      SiftDown(i);
    }
  }
}

bool EventQueue::PopNext(Entry& out, EventFn& fn) {
  if (!SkimDead()) {
    return false;
  }
  out = heap_.front();
  Slot& s = slots_[out.slot];
  // Retire before running: a Cancel() from inside the handler (or on a stale
  // copy of the handle) is a no-op and charges nothing.
  fn = std::move(s.fn);
  RetireSlot(out.slot);
  --live_count_;
  HeapPopTop();
  return true;
}

}  // namespace xk
