// Slab-allocated session storage: the session store behind the
// connection-scale work (ROADMAP: "millions of sessions without collapse").
//
// A session made with NewSession is one heap allocation of its own. A
// protocol that churns sessions (UDP, VIP, CHANNEL, SELECT, VPOOL) keeps a
// SlabPool instead:
//
//  * sessions live in fixed-size chunks (stable addresses), so a million
//    sessions are ~16k contiguous chunks instead of a million scattered heap
//    nodes;
//  * create/destroy after the high-water mark is allocation-free: the
//    reference count lives in the session (SessionPtr), so there is no
//    control block to allocate, and a destroyed session's slot parks on a
//    LIFO freelist threaded through the free slots themselves.
//
// Lifetime: a pooled session records its slab, and its last SessionPtr to
// drop runs the destructor and hands the slot back. A session handed out by a
// pool may outlive the pool (e.g. the owning protocol is destroyed first --
// the same "session outlives a crashed protocol graph" tolerance a heap
// session has): the pool's destructor leaves the slab to its live sessions,
// and the last one to go frees it.
//
// Determinism: freelist order is LIFO and purely a function of the
// create/destroy sequence, so slot assignment is reproducible bit-for-bit.

#ifndef XK_SRC_SIM_SLAB_POOL_H_
#define XK_SRC_SIM_SLAB_POOL_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/protocol.h"

namespace xk {

// The untyped slab behind a SlabPool<T>: chunks of equal slots and the
// freelist over them. Sessions point here (Session::slab_) to give their slot
// back.
class SessionSlab {
 public:
  explicit SessionSlab(size_t slot_size) : slot_size_(slot_size) {}

  SessionSlab(const SessionSlab&) = delete;
  SessionSlab& operator=(const SessionSlab&) = delete;

  // The most recently freed slot, or the lowest slot of a new chunk.
  void* Take() {
    if (free_ == nullptr) {
      Grow();
    }
    FreeSlot* slot = free_;
    free_ = slot->next;
    if (++live_ > high_water_) {
      high_water_ = live_;
    }
    return slot;
  }

  // Parks a destroyed session's slot; frees the slab when its pool is gone
  // and this was the last live slot.
  void Give(void* slot) {
    free_ = ::new (slot) FreeSlot{free_};
    --live_;
    if (abandoned_ && live_ == 0) {
      delete this;
    }
  }

  // The pool is going away: free now, or when the last live session does.
  void Abandon() {
    if (live_ == 0) {
      delete this;
    } else {
      abandoned_ = true;
    }
  }

  size_t live() const { return live_; }
  size_t high_water() const { return high_water_; }
  // Slots allocated (the slab's footprint; never shrinks -- that's the
  // "memory plateaus at the high-water mark" contract).
  size_t capacity() const { return chunks_.size() * kChunkSlots; }

 private:
  static constexpr size_t kChunkSlots = 64;

  struct FreeSlot {
    FreeSlot* next;
  };

  // Adds a chunk and parks its slots so they pop in ascending address order.
  void Grow() {
    chunks_.push_back(std::make_unique<std::byte[]>(kChunkSlots * slot_size_));
    std::byte* base = chunks_.back().get();
    for (size_t i = kChunkSlots; i-- > 0;) {
      free_ = ::new (static_cast<void*>(base + i * slot_size_)) FreeSlot{free_};
    }
  }

  size_t slot_size_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  FreeSlot* free_ = nullptr;  // LIFO; deterministic slot reuse
  size_t live_ = 0;
  size_t high_water_ = 0;
  bool abandoned_ = false;
};

template <typename T>
class SlabPool {
  static_assert(std::is_base_of_v<Session, T>, "SlabPool stores sessions");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__, "chunks are new[]-aligned");

 public:
  SlabPool() : slab_(new SessionSlab(sizeof(T))) {}
  ~SlabPool() { slab_->Abandon(); }

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  // Constructs a T in the most recently freed slot (allocation-free once the
  // slab has grown past the demand); the last reference's drop runs ~T and
  // recycles the slot.
  template <typename... Args>
  SessionPtr<T> Create(Args&&... args) {
    T* obj = ::new (slab_->Take()) T(std::forward<Args>(args)...);
    obj->slab_ = slab_;
    return SessionPtr<T>(obj);
  }

  size_t live() const { return slab_->live(); }
  size_t high_water() const { return slab_->high_water(); }
  size_t capacity() const { return slab_->capacity(); }

 private:
  SessionSlab* slab_;
};

}  // namespace xk

#endif  // XK_SRC_SIM_SLAB_POOL_H_
