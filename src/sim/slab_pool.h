// Slab-allocated object storage with generation-counted handles: the session
// store behind the connection-scale work (ROADMAP: "millions of sessions
// without collapse").
//
// object_pool.h recycles shared_ptr-managed hot-path objects through
// thread-local freelists, but each object still comes from its own heap
// allocation the first time around and the pool keeps no index over the live
// set. SlabPool goes further for per-connection state:
//
//  * objects live in fixed-size chunks (stable addresses, cache-friendly
//    iteration in index order), so a million sessions are ~16k contiguous
//    chunks instead of a million scattered heap nodes;
//  * create/destroy after the high-water mark is allocation-free: destroyed
//    slots park on a LIFO freelist and are re-constructed in place;
//  * every slot carries a generation counter, so a Handle{index, generation}
//    is a safe weak reference: it resolves to null -- never to a recycled
//    stranger -- once the slot it named has been reused;
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
// create/destroy sequence, so slot assignment -- and therefore iteration
// order -- is reproducible bit-for-bit.

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
  // Generation-counted weak reference. Value-semantic and trivially
  // copyable; a default-constructed Handle is null. Generations start at 1
  // and bump on every destroy, so a stale handle never resolves.
  struct Handle {
    uint32_t index = 0;
    uint32_t gen = 0;  // 0 = null
    explicit operator bool() const { return gen != 0; }
    bool operator==(const Handle& o) const { return index == o.index && gen == o.gen; }
    bool operator!=(const Handle& o) const { return !(*this == o); }
  };

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

  // The handle naming `obj`'s current residency. `obj` must be pool-owned.
  Handle HandleOf(const T* obj) const {
    const Slot* slot = reinterpret_cast<const Slot*>(obj);
    return Handle{slot->index, slot->gen};
  }

  // Resolves a handle: the object if its slot still holds the generation the
  // handle named, null once the slot was destroyed or recycled.
  T* Get(Handle h) const {
    if (h.gen == 0) {
      return nullptr;
    }
    State& st = *state_;
    if (h.index >= st.chunks.size() * kChunkSlots) {
      return nullptr;
    }
    Slot* slot = st.SlotAt(h.index);
    if (!slot->live || slot->gen != h.gen) {
      return nullptr;
    }
    return std::launder(reinterpret_cast<T*>(slot->storage));
  }

  size_t live() const { return state_->live; }
  size_t high_water() const { return state_->high_water; }
  // Slots allocated (the slab's footprint; never shrinks -- that's the
  // "memory plateaus at the high-water mark" contract).
  size_t capacity() const { return state_->chunks.size() * kChunkSlots; }

  // Visits every live object in slot-index order -- a linear walk over the
  // chunks, not a pointer chase.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const State& st = *state_;
    for (size_t c = 0; c < st.chunks.size(); ++c) {
      Slot* chunk = st.chunks[c].get();
      for (size_t i = 0; i < kChunkSlots; ++i) {
        if (chunk[i].live) {
          fn(*std::launder(reinterpret_cast<T*>(chunk[i].storage)));
        }
      }
    }
  }

 private:
  static constexpr size_t kChunkSlots = 64;

  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];  // first member: Slot* == T*
    uint32_t index = 0;
    uint32_t gen = 1;
    bool live = false;
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
      ++slot->gen;  // invalidates every outstanding Handle to this residency
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
