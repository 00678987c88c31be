// Thread-local object recycling for shared_ptr-managed hot-path objects: the
// message tool's payload Blocks and header Arenas (src/core/message.cc) and
// the EthFrame of every transmission. Sessions are not among them: they count
// their own references (SessionPtr), so they have no control block to pool,
// and the protocols that churn them keep a SlabPool (src/sim/slab_pool.h).
//
// The simulation's steady state churns through three allocation patterns per
// message: a header Arena (one per message that pushes a header, plus one per
// clone when a push cannot extend a shared arena in place), one or more
// payload Blocks (made where bytes enter a message: an application payload,
// FromBytes, an arena region spilled or sliced into a chunk), and a shared
// EthFrame per transmission (which references the sender's Message, so it
// holds no byte buffer of its own). Each lives behind a shared_ptr, so a
// plain make_shared costs one heap round trip per object -- roughly a third
// of all mallocs on the manyhost benchmark. AcquirePooled<T>() removes both the
// object and the shared_ptr control block from the allocator: retired objects
// park on a thread-local freelist with their internal buffers (vector
// capacity) intact, and control blocks recycle through a fixed-size pooling
// allocator.
//
// Reuse contract: a recycled object is handed back exactly as it was
// released, except that a type with a Park() member has it called as the
// object parks (EthFrame drops its Message there, so a parked frame pins no
// arena or block). Callers must fully overwrite any state they later read;
// every call site in this repository initializes via assign()/resize()+memcpy
// or assignment before reading, so stale bytes are never observable and
// determinism is unaffected.

#ifndef XK_SRC_SIM_OBJECT_POOL_H_
#define XK_SRC_SIM_OBJECT_POOL_H_

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace xk {
namespace pool_internal {

// Freelists stay bounded so a burst cannot hoard memory for the whole
// process lifetime; beyond the cap objects fall back to plain delete.
constexpr size_t kPoolCap = 256;

template <typename T>
struct ObjectPool {
  std::vector<T*> free;
  ~ObjectPool() {
    for (T* p : free) {
      delete p;
    }
  }
  static ObjectPool& Get() {
    static thread_local ObjectPool pool;
    return pool;
  }
};

// shared_ptr deleter that parks the object instead of destroying it.
template <typename T>
struct Recycle {
  void operator()(T* p) const {
    auto& pool = ObjectPool<T>::Get();
    if (pool.free.size() < kPoolCap) {
      if constexpr (requires { p->Park(); }) {
        p->Park();
      }
      pool.free.push_back(p);
    } else {
      delete p;
    }
  }
};

template <typename U>
struct RawPool {
  std::vector<void*> free;
  ~RawPool() {
    for (void* p : free) {
      ::operator delete(p);
    }
  }
  static RawPool& Get() {
    static thread_local RawPool pool;
    return pool;
  }
};

// Pooling allocator handed to shared_ptr for its control block. Each
// instantiated control-block type U has uniform size, so recycling raw
// storage per U is exact.
template <typename U>
struct CtlAlloc {
  using value_type = U;
  CtlAlloc() = default;
  template <typename V>
  /*implicit*/ CtlAlloc(const CtlAlloc<V>&) {}

  U* allocate(size_t n) {
    auto& pool = RawPool<U>::Get();
    if (n == 1 && !pool.free.empty()) {
      U* p = static_cast<U*>(pool.free.back());
      pool.free.pop_back();
      return p;
    }
    return static_cast<U*>(::operator new(n * sizeof(U)));
  }
  void deallocate(U* p, size_t n) {
    auto& pool = RawPool<U>::Get();
    if (n == 1 && pool.free.size() < kPoolCap) {
      pool.free.push_back(p);
      return;
    }
    ::operator delete(p);
  }
  template <typename V>
  bool operator==(const CtlAlloc<V>&) const {
    return true;
  }
  template <typename V>
  bool operator!=(const CtlAlloc<V>&) const {
    return false;
  }
};

}  // namespace pool_internal

// A default-constructed T, recycled through the calling thread's pool when
// the last shared_ptr drops. The object arrives in whatever state its
// previous user left it -- overwrite before reading (see header comment).
template <typename T>
std::shared_ptr<T> AcquirePooled() {
  auto& pool = pool_internal::ObjectPool<T>::Get();
  T* obj;
  if (!pool.free.empty()) {
    obj = pool.free.back();
    pool.free.pop_back();
  } else {
    obj = new T();
  }
  return std::shared_ptr<T>(obj, pool_internal::Recycle<T>{}, pool_internal::CtlAlloc<T>{});
}

}  // namespace xk

#endif  // XK_SRC_SIM_OBJECT_POOL_H_
