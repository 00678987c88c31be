// FlatTable: the repository's one hash table.
//
// Open addressing with linear probing over a power-of-two bucket array, keyed
// through the XkHash/XkEq customization points (src/core/hash.h). Erased
// buckets become tombstones so probe chains stay intact. Only an insert
// resizes: past a 70% load of full + tombstone buckets it rehashes to fit the
// live keys. The last erase empties every bucket in place, so a drained table
// keeps its buckets for the next fill; clear() frees them.
//
// One allocation holds the whole table: a control byte per bucket (empty,
// tombstone, or full with a 7-bit tag from the top bits of the key's hash),
// then a key/value slot per bucket, constructed on insert and destroyed on
// erase. A probe walks the control bytes and compares a key only where the
// tag matches, so a lookup reads one byte per bucket it passes and touches
// one slot; no node allocation, no pointer chasing.
//
// The table charges nothing: it is host bookkeeping. DemuxMap (src/core/map.h)
// wraps it with the map tool's simulated charges and hit/miss counters; the
// per-call bookkeeping tables (the oracle's sparse records, ClusterClient's
// pending calls) use it bare.

#ifndef XK_SRC_CORE_FLAT_TABLE_H_
#define XK_SRC_CORE_FLAT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#include "src/core/hash.h"

namespace xk {

template <typename Key, typename Value, typename Hash = XkHash<Key>,
          typename Eq = XkEq<Key>>
class FlatTable {
 public:
  FlatTable() = default;
  FlatTable(FlatTable&& other) noexcept { Steal(other); }
  FlatTable& operator=(FlatTable&& other) noexcept {
    if (this != &other) {
      clear();
      Steal(other);
    }
    return *this;
  }
  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;
  ~FlatTable() { clear(); }

  // The value bound to `key`, or null. Valid until the next insert or erase.
  Value* Find(const Key& key) {
    const size_t i = FindIndex(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  const Value* Find(const Key& key) const {
    const size_t i = FindIndex(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }

  bool Contains(const Key& key) const { return FindIndex(key) != kNpos; }

  // Binds `key` to a default-constructed value if it is absent. Returns the
  // bound value (valid until the next insert or erase) and whether it was
  // newly inserted. A new key lands on the first tombstone of its probe path.
  std::pair<Value*, bool> TryEmplace(const Key& key) {
    MaybeGrow();
    const uint64_t h = HashOf(key);
    const uint8_t tag = TagOf(h);
    const size_t mask = capacity_ - 1;
    size_t first_tombstone = kNpos;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const uint8_t c = ctrl_[i];
      if (c == tag) {
        if (Eq{}(slots_[i].key, key)) {
          return {&slots_[i].value, false};
        }
        continue;
      }
      if (c == kTombstone) {
        if (first_tombstone == kNpos) {
          first_tombstone = i;
        }
        continue;
      }
      if (c != kEmpty) {
        continue;
      }
      // Empty: the key is absent. Land on the earliest reusable bucket.
      const size_t dst = first_tombstone == kNpos ? i : first_tombstone;
      ::new (static_cast<void*>(slots_ + dst)) Slot{key, Value{}};
      if (ctrl_[dst] == kTombstone) {
        --tombstones_;
      }
      ctrl_[dst] = tag;
      ++size_;
      return {&slots_[dst].value, true};
    }
  }

  // Removes `key`. Returns false if it was not bound.
  bool Erase(const Key& key) {
    const size_t i = FindIndex(key);
    if (i == kNpos) {
      return false;
    }
    EraseBucket(i);
    return true;
  }

  // Removes `key`, moving its value into *out. Returns false (leaving *out
  // alone) if it was not bound.
  bool Take(const Key& key, Value* out) {
    const size_t i = FindIndex(key);
    if (i == kNpos) {
      return false;
    }
    *out = std::move(slots_[i].value);
    EraseBucket(i);
    return true;
  }

  // Calls fn(key, value) for every binding, in bucket order. The table must
  // not be modified during the walk.
  template <typename F>
  void ForEach(F&& fn) const {
    for (size_t i = 0; i < capacity_; ++i) {
      if (IsFull(ctrl_[i])) {
        fn(std::as_const(slots_[i].key), std::as_const(slots_[i].value));
      }
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  size_t tombstones() const { return tombstones_; }

  // Buckets a lookup of `key` visits (>= 1 on a non-empty table). Counts the
  // terminating bucket too, so a first-probe hit is 1.
  size_t ProbeLength(const Key& key) const {
    if (capacity_ == 0) {
      return 0;
    }
    const uint64_t h = HashOf(key);
    const uint8_t tag = TagOf(h);
    const size_t mask = capacity_ - 1;
    size_t n = 0;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      ++n;
      const uint8_t c = ctrl_[i];
      if (c == kEmpty || (c == tag && Eq{}(slots_[i].key, key))) {
        return n;
      }
    }
  }

  // Longest probe chain over every bound key. Tombstone buildup shows up
  // here first.
  size_t MaxProbeLength() const {
    size_t worst = 0;
    ForEach([&](const Key& key, const Value&) { worst = std::max(worst, ProbeLength(key)); });
    return worst;
  }

  // Destroys every binding and frees the table (capacity 0).
  void clear() {
    if (ctrl_ != nullptr) {
      for (size_t i = 0; i < capacity_; ++i) {
        if (IsFull(ctrl_[i])) {
          slots_[i].~Slot();
        }
      }
      ::operator delete(ctrl_);
    }
    ctrl_ = nullptr;
    slots_ = nullptr;
    capacity_ = 0;
    size_ = 0;
    tombstones_ = 0;
  }

 private:
  struct Slot {
    Key key;
    Value value;
  };
  static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "one plain operator new holds the control bytes and the slots");

  // Control bytes: a full bucket holds its key's 7-bit tag (top bit clear).
  static constexpr uint8_t kEmpty = 0x80;
  static constexpr uint8_t kTombstone = 0xFE;
  static constexpr size_t kNpos = SIZE_MAX;
  static constexpr size_t kMinCapacity = 16;

  static bool IsFull(uint8_t c) { return (c & 0x80) == 0; }
  static uint64_t HashOf(const Key& key) { return static_cast<uint64_t>(Hash{}(key)); }
  static uint8_t TagOf(uint64_t h) { return static_cast<uint8_t>(h >> 57); }

  // The control bytes come first; the slots start at the next multiple of
  // the slot's alignment (the capacity itself, for every slot type in use).
  static size_t SlotOffset(size_t cap) {
    return (cap + alignof(Slot) - 1) / alignof(Slot) * alignof(Slot);
  }

  // Points the table at fresh storage for `cap` buckets, every one empty.
  void Allocate(size_t cap) {
    auto* mem = static_cast<uint8_t*>(::operator new(SlotOffset(cap) + cap * sizeof(Slot)));
    std::memset(mem, kEmpty, cap);
    ctrl_ = mem;
    slots_ = reinterpret_cast<Slot*>(mem + SlotOffset(cap));
    capacity_ = cap;
  }

  void Steal(FlatTable& other) {
    ctrl_ = std::exchange(other.ctrl_, nullptr);
    slots_ = std::exchange(other.slots_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
    size_ = std::exchange(other.size_, 0);
    tombstones_ = std::exchange(other.tombstones_, 0);
  }

  // An erase moves no key, so it cannot lengthen a bound key's chain, and a
  // miss still stops at an empty bucket within MaybeGrow's 70%.
  void EraseBucket(size_t i) {
    slots_[i].~Slot();
    ctrl_[i] = kTombstone;
    ++tombstones_;
    if (--size_ == 0) {
      std::memset(ctrl_, kEmpty, capacity_);
      tombstones_ = 0;
    }
  }

  // Index of the full bucket holding `key`, or kNpos. The home slot is
  // prefetched while its control byte is read, so a hit on a large table
  // waits for one cache miss, not two in a row.
  size_t FindIndex(const Key& key) const {
    if (capacity_ == 0) {
      return kNpos;
    }
    const uint64_t h = HashOf(key);
    const uint8_t tag = TagOf(h);
    const size_t mask = capacity_ - 1;
    size_t i = h & mask;
    __builtin_prefetch(slots_ + i);
    for (;; i = (i + 1) & mask) {
      const uint8_t c = ctrl_[i];
      if (c == tag && Eq{}(slots_[i].key, key)) {
        return i;
      }
      if (c == kEmpty) {
        return kNpos;
      }
    }
  }

  void MaybeGrow() {
    if (capacity_ == 0) {
      Allocate(kMinCapacity);
      return;
    }
    // Count tombstones toward load so long-lived tables with heavy
    // insert/erase churn rehash instead of degrading.
    if ((size_ + tombstones_ + 1) * 10 <= capacity_ * 7) {
      return;
    }
    RehashForSize();
  }

  // Rebuilds the table at the smallest power-of-two capacity keeping the live
  // load (with one insertion of headroom) at or under 70%, dropping every
  // tombstone. Both grows and shrinks. Live slots move in bucket order, each
  // to the first empty bucket of its new probe path -- where inserting the
  // keys one by one would put them, since the new table has no tombstones
  // and no duplicate keys.
  void RehashForSize() {
    size_t new_cap = kMinCapacity;
    while ((size_ + 1) * 10 > new_cap * 7) {
      new_cap *= 2;
    }
    uint8_t* const old_ctrl = ctrl_;
    Slot* const old_slots = slots_;
    const size_t old_cap = capacity_;
    Allocate(new_cap);
    tombstones_ = 0;
    const size_t mask = new_cap - 1;
    for (size_t j = 0; j < old_cap; ++j) {
      if (!IsFull(old_ctrl[j])) {
        continue;
      }
      Slot& from = old_slots[j];
      const uint64_t h = HashOf(from.key);
      size_t i = h & mask;
      while (ctrl_[i] != kEmpty) {
        i = (i + 1) & mask;
      }
      ::new (static_cast<void*>(slots_ + i)) Slot{std::move(from.key), std::move(from.value)};
      ctrl_[i] = TagOf(h);
      from.~Slot();
    }
    ::operator delete(old_ctrl);
  }

  uint8_t* ctrl_ = nullptr;  // capacity_ control bytes, then the slots
  Slot* slots_ = nullptr;
  size_t capacity_ = 0;  // 0 or a power of two
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_CORE_FLAT_TABLE_H_
