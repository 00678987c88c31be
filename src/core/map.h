// The x-kernel map tool: demultiplexing tables that bind external identifiers
// (header fields) to sessions, with cost accounting built in.
//
// Protocols keep an *active* map (fully-specified keys -> open sessions) and
// a *passive* map (partially-specified keys from open_enable -> the enabled
// high-level protocol). Every Resolve charges map_resolve and every Bind
// charges map_bind, so demux costs are accounted uniformly across protocols.
//
// Like the real map tool this is a hash table: the repository's one
// open-addressing table, FlatTable (src/core/flat_table.h), which this class
// wraps with the map tool's charges and the owner's hit/miss counters. Demux
// on the datapath is therefore one probe over a contiguous array -- no node
// allocation, no pointer chasing.

#ifndef XK_SRC_CORE_MAP_H_
#define XK_SRC_CORE_MAP_H_

#include <utility>

#include "src/core/flat_table.h"
#include "src/core/kernel.h"
#include "src/core/protocol.h"

namespace xk {

template <typename Key, typename Value = SessionRef,
          typename Hash = XkHash<Key>, typename Eq = XkEq<Key>>
class DemuxMap {
 public:
  explicit DemuxMap(Kernel& kernel) : kernel_(kernel) {}

  // Preferred: a map owned by `owner` counts its datapath hits/misses into
  // the owner's ProtoCounters (host bookkeeping; charged costs unchanged).
  explicit DemuxMap(Protocol& owner)
      : kernel_(owner.kernel()), counters_(&owner.counters()) {}

  // Looks up `key`, charging one map_resolve. Returns a default-constructed
  // Value (null SessionRef) on miss.
  Value Resolve(const Key& key) {
    kernel_.ChargeMapResolve();
    const Value* v = table_.Find(key);
    if (counters_ != nullptr) {
      ++(v == nullptr ? counters_->map_misses : counters_->map_hits);
    }
    return v == nullptr ? Value{} : *v;
  }

  // Lookup without charging (configuration-time bookkeeping, not datapath).
  Value Peek(const Key& key) const {
    const Value* v = table_.Find(key);
    return v == nullptr ? Value{} : *v;
  }

  bool Contains(const Key& key) const { return table_.Contains(key); }

  // Installs `key -> value`, charging one map_bind. Overwrites.
  void Bind(const Key& key, Value value) {
    kernel_.ChargeMapBind();
    *table_.TryEmplace(key).first = std::move(value);
  }

  // Single-probe insert-if-absent, replacing the Peek-then-Bind pattern.
  // Installs and charges one map_bind if `key` was unbound (returns true);
  // otherwise charges nothing -- exactly what the probe-then-install pair
  // cost -- and copies the incumbent into *existing when non-null.
  bool TryBind(const Key& key, Value value, Value* existing = nullptr) {
    auto [slot, inserted] = table_.TryEmplace(key);
    if (inserted) {
      *slot = std::move(value);
      kernel_.ChargeMapBind();
      return true;
    }
    if (existing != nullptr) {
      *existing = *slot;
    }
    return false;
  }

  // Removes `key`, charging one map_unbind so demux teardown (dynamic layer
  // removal, per-call channel release) is accounted like installation.
  void Unbind(const Key& key) {
    kernel_.ChargeMapUnbind();
    table_.Erase(key);
  }

  // Removes `key` and returns its value in one probe (default-constructed
  // Value on miss) -- the Peek-then-Unbind teardown pattern. Charges one
  // map_unbind, like Unbind.
  Value Take(const Key& key) {
    kernel_.ChargeMapUnbind();
    Value out{};
    table_.Take(key, &out);
    return out;
  }

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }

  // --- introspection (tests and debugging, not part of the map-tool API) ---

  size_t capacity() const { return table_.capacity(); }
  size_t tombstones() const { return table_.tombstones(); }

  // Buckets a lookup of `key` visits (>= 1 on a non-empty table).
  size_t ProbeLength(const Key& key) const { return table_.ProbeLength(key); }

  // Longest probe chain over every bound key: the worst-case demux cost the
  // table currently offers. Tombstone buildup shows up here first.
  size_t MaxProbeLength() const { return table_.MaxProbeLength(); }

  void clear() { table_.clear(); }

 private:
  Kernel& kernel_;
  ProtoCounters* counters_ = nullptr;  // owner's counters; null for bare-kernel maps
  FlatTable<Key, Value, Hash, Eq> table_;
};

}  // namespace xk

#endif  // XK_SRC_CORE_MAP_H_
