// Slab-allocated object storage: the session store behind the
// connection-scale work (ROADMAP: "millions of sessions without collapse").
//
// object_pool.h recycles shared_ptr-managed hot-path objects through
// thread-local freelists, but each object still comes from its own heap
// allocation the first time around and the pool keeps no index over the live
// set. SlabPool goes further for per-connection state:
//
//  * objects live in fixed-size chunks (stable addresses), so a million
//    sessions are ~16k contiguous chunks instead of a million scattered heap
//    nodes;
//  * create/destroy after the high-water mark is allocation-free: destroyed
//    slots park on a LIFO freelist and are re-constructed in place;
//  * the shared_ptr control block recycles through the same pooling allocator
//    object_pool.h uses, so the steady state touches the allocator not at all.
//
// Lifetime: the returned shared_ptr's deleter owns a reference to the pool's
// backing state, so an object handed out by a pool keeps its slab alive even
// if the pool (e.g. the owning protocol) is destroyed first -- the same
// "session outlives a crashed protocol graph" tolerance plain make_shared
// gave us.
//
// Determinism: freelist order is LIFO and purely a function of the
// create/destroy sequence, so slot assignment is reproducible bit-for-bit.

#ifndef XK_SRC_SIM_SLAB_POOL_H_
#define XK_SRC_SIM_SLAB_POOL_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/sim/object_pool.h"

namespace xk {

template <typename T>
class SlabPool {
 public:
  SlabPool() : state_(std::make_shared<State>()) {}

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  // Constructs a T in the lowest free slot (allocation-free once the slab has
  // grown past the demand) and returns it shared_ptr-managed; destruction
  // runs ~T in place and recycles the slot.
  template <typename... Args>
  std::shared_ptr<T> Create(Args&&... args) {
    State& st = *state_;
    Slot* slot;
    if (!st.free.empty()) {
      slot = st.SlotAt(st.free.back());
      st.free.pop_back();
    } else {
      slot = st.Grow();
    }
    T* obj = new (static_cast<void*>(slot->storage)) T(std::forward<Args>(args)...);
    slot->live = true;
    ++st.live;
    if (st.live > st.high_water) {
      st.high_water = st.live;
    }
    return std::shared_ptr<T>(obj, Recycler{state_}, pool_internal::CtlAlloc<T>{});
  }

  size_t live() const { return state_->live; }
  size_t high_water() const { return state_->high_water; }
  // Slots allocated (the slab's footprint; never shrinks -- that's the
  // "memory plateaus at the high-water mark" contract).
  size_t capacity() const { return state_->chunks.size() * kChunkSlots; }

 private:
  static constexpr size_t kChunkSlots = 64;

  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];  // first member: Slot* == T*
    uint32_t index = 0;
    bool live = false;  // read by Destroy's double-destroy assert
  };

  struct State {
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::vector<uint32_t> free;  // LIFO; deterministic slot reuse
    size_t live = 0;
    size_t high_water = 0;

    Slot* SlotAt(uint32_t index) {
      return &chunks[index / kChunkSlots][index % kChunkSlots];
    }

    // Adds a chunk; returns its first slot, parking the rest on the freelist
    // so they pop in ascending index order.
    Slot* Grow() {
      const uint32_t base = static_cast<uint32_t>(chunks.size() * kChunkSlots);
      chunks.push_back(std::make_unique<Slot[]>(kChunkSlots));
      Slot* chunk = chunks.back().get();
      for (uint32_t i = 0; i < kChunkSlots; ++i) {
        chunk[i].index = base + i;
      }
      for (uint32_t i = kChunkSlots; i-- > 1;) {
        free.push_back(base + i);
      }
      return &chunk[0];
    }

    void Destroy(T* obj) {
      Slot* slot = reinterpret_cast<Slot*>(obj);
      assert(slot->live);
      obj->~T();
      slot->live = false;
      free.push_back(slot->index);
      --live;
    }
  };

  struct Recycler {
    std::shared_ptr<State> state;
    void operator()(T* p) const { state->Destroy(p); }
  };

  std::shared_ptr<State> state_;
};

}  // namespace xk

#endif  // XK_SRC_SIM_SLAB_POOL_H_
