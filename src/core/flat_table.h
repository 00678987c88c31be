// FlatTable: the repository's one hash table.
//
// Open addressing with linear probing over a power-of-two bucket array, keyed
// through the XkHash/XkEq customization points (src/core/hash.h). Erased
// buckets become tombstones so probe chains stay intact; an insert rehashes
// when full + tombstone buckets would pass a 70% load factor, and an erase
// compacts once a quarter of the table is tombstones, so a drained table
// gives its memory back. A lookup is one probe over a contiguous array -- no
// node allocation, no pointer chasing.
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
#include <utility>
#include <vector>

#include "src/core/hash.h"

namespace xk {

template <typename Key, typename Value, typename Hash = XkHash<Key>,
          typename Eq = XkEq<Key>>
class FlatTable {
 public:
  // The value bound to `key`, or null. Valid until the next insert or erase.
  Value* Find(const Key& key) {
    const size_t i = FindIndex(key);
    return i == kNpos ? nullptr : &buckets_[i].value;
  }
  const Value* Find(const Key& key) const {
    const size_t i = FindIndex(key);
    return i == kNpos ? nullptr : &buckets_[i].value;
  }

  bool Contains(const Key& key) const { return FindIndex(key) != kNpos; }

  // Binds `key` to a default-constructed value if it is absent. Returns the
  // bound value (valid until the next insert or erase) and whether it was
  // newly inserted. A new key lands on the first tombstone of its probe path.
  std::pair<Value*, bool> TryEmplace(const Key& key) {
    MaybeGrow();
    const size_t mask = buckets_.size() - 1;
    size_t first_tombstone = kNpos;
    for (size_t i = ProbeStart(key);; i = (i + 1) & mask) {
      Bucket& b = buckets_[i];
      if (b.state == kFull) {
        if (Eq{}(b.key, key)) {
          return {&b.value, false};
        }
        continue;
      }
      if (b.state == kTombstone) {
        if (first_tombstone == kNpos) {
          first_tombstone = i;
        }
        continue;
      }
      // Empty: the key is absent. Land on the earliest reusable bucket.
      Bucket& dst = first_tombstone == kNpos ? b : buckets_[first_tombstone];
      if (dst.state == kTombstone) {
        --tombstones_;
      }
      dst.key = key;
      dst.state = kFull;
      ++size_;
      return {&dst.value, true};
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
    *out = std::move(buckets_[i].value);
    EraseBucket(i);
    return true;
  }

  // Calls fn(key, value) for every binding, in bucket order. The table must
  // not be modified during the walk.
  template <typename F>
  void ForEach(F&& fn) const {
    for (const Bucket& b : buckets_) {
      if (b.state == kFull) {
        fn(b.key, b.value);
      }
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return buckets_.size(); }
  size_t tombstones() const { return tombstones_; }

  // Buckets a lookup of `key` visits (>= 1 on a non-empty table). Counts the
  // terminating bucket too, so a first-probe hit is 1.
  size_t ProbeLength(const Key& key) const {
    if (buckets_.empty()) {
      return 0;
    }
    const size_t mask = buckets_.size() - 1;
    size_t n = 0;
    for (size_t i = ProbeStart(key);; i = (i + 1) & mask) {
      ++n;
      const Bucket& b = buckets_[i];
      if (b.state == kEmpty || (b.state == kFull && Eq{}(b.key, key))) {
        return n;
      }
    }
  }

  // Longest probe chain over every bound key. Tombstone buildup shows up
  // here first.
  size_t MaxProbeLength() const {
    size_t worst = 0;
    for (const Bucket& b : buckets_) {
      if (b.state == kFull) {
        worst = std::max(worst, ProbeLength(b.key));
      }
    }
    return worst;
  }

  void clear() {
    buckets_.clear();
    size_ = 0;
    tombstones_ = 0;
  }

 private:
  enum BucketState : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  struct Bucket {
    Key key{};
    Value value{};
    uint8_t state = kEmpty;
  };

  static constexpr size_t kNpos = SIZE_MAX;
  static constexpr size_t kMinCapacity = 16;

  void EraseBucket(size_t i) {
    buckets_[i].state = kTombstone;
    buckets_[i].value = Value{};
    --size_;
    ++tombstones_;
    // Amortized compaction: erase-heavy phases (idle eviction draining a
    // million-session table) never insert, so the insert-side rehash in
    // MaybeGrow can't fire and probe chains would rot behind tombstones.
    // Rehash once a quarter of the table is tombstones; RehashForSize also
    // shrinks, so a drained table gives its memory back.
    if (tombstones_ * 4 >= buckets_.size() && buckets_.size() > kMinCapacity) {
      RehashForSize();
    }
  }

  size_t ProbeStart(const Key& key) const {
    return static_cast<size_t>(Hash{}(key)) & (buckets_.size() - 1);
  }

  // Index of the full bucket holding `key`, or kNpos.
  size_t FindIndex(const Key& key) const {
    if (buckets_.empty()) {
      return kNpos;
    }
    const size_t mask = buckets_.size() - 1;
    for (size_t i = ProbeStart(key);; i = (i + 1) & mask) {
      const Bucket& b = buckets_[i];
      if (b.state == kEmpty) {
        return kNpos;
      }
      if (b.state == kFull && Eq{}(b.key, key)) {
        return i;
      }
    }
  }

  void MaybeGrow() {
    if (buckets_.empty()) {
      buckets_.resize(kMinCapacity);
      return;
    }
    // Count tombstones toward load so long-lived tables with heavy
    // insert/erase churn rehash instead of degrading.
    if ((size_ + tombstones_ + 1) * 10 <= buckets_.size() * 7) {
      return;
    }
    RehashForSize();
  }

  // Rebuilds the table at the smallest power-of-two capacity keeping the live
  // load (with one insertion of headroom) at or under 70%, dropping every
  // tombstone. Both grows and shrinks. Live keys are reinserted in bucket
  // order.
  void RehashForSize() {
    size_t new_cap = kMinCapacity;
    while ((size_ + 1) * 10 > new_cap * 7) {
      new_cap *= 2;
    }
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(new_cap, Bucket{});
    size_ = 0;
    tombstones_ = 0;
    for (Bucket& b : old) {
      if (b.state == kFull) {
        *TryEmplace(b.key).first = std::move(b.value);
      }
    }
  }

  std::vector<Bucket> buckets_;  // size is 0 or a power of two
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_CORE_FLAT_TABLE_H_
