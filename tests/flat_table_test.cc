// FlatTable, tested directly: contents against a std::unordered_map model,
// the documented load and resize rules, the probe chains an LRU sweep's
// erase order leaves, the exact bucket layout a fixed sequence produces, and
// the lifetime of every value it holds.
//
// The layout test pins "same bucket for every key": capacity, tombstones,
// MaxProbeLength and the ForEach key order after a fixed seeded sequence.
// The simulated results do not depend on it (nothing iterates a demux table
// on the datapath), but session_scale's map_capacity_peak,
// map_max_probe_peak and map_tombstones_after and hostbench's digests do,
// so a change to the probe sequence, the growth rule or the rehash order
// fails here first.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/flat_table.h"
#include "src/core/types.h"

namespace xk {
namespace {

// A portable seeded stream (std:: distributions differ across libraries).
struct Rng {
  uint64_t state;
  uint64_t Next() { return MixBits(state++); }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// --- differential test against std::unordered_map --------------------------

using Table = FlatTable<uint64_t, uint64_t>;
using Model = std::unordered_map<uint64_t, uint64_t>;

void ExpectSameContents(const Table& t, const Model& m) {
  ASSERT_EQ(t.size(), m.size());
  ASSERT_EQ(t.empty(), m.empty());
  size_t seen = 0;
  t.ForEach([&](uint64_t k, uint64_t v) {
    ++seen;
    const auto it = m.find(k);
    ASSERT_NE(it, m.end()) << "key " << k << " is in the table, not the model";
    ASSERT_EQ(v, it->second) << "key " << k;
  });
  ASSERT_EQ(seen, m.size());
  for (const auto& [k, v] : m) {
    const uint64_t* found = t.Find(k);
    ASSERT_NE(found, nullptr) << "key " << k << " is in the model, not the table";
    ASSERT_EQ(*found, v);
  }
}

// The table's geometry rules: capacity is 0 or a power of two >= 16; after
// an insert, full + tombstone buckets stay at or under 70% of the table; an
// erase (or a lookup) never changes the capacity; an empty table has no
// tombstones.
enum class Op { kInsert, kErase, kOther };

void ExpectGeometry(const Table& t, Op op, size_t capacity_before) {
  const size_t cap = t.capacity();
  ASSERT_TRUE(cap == 0 || (IsPowerOfTwo(cap) && cap >= 16)) << cap;
  ASSERT_LE(t.size() + t.tombstones(), cap);
  if (op == Op::kInsert) {
    ASSERT_LE((t.size() + t.tombstones()) * 10, cap * 7)
        << t.size() << " full + " << t.tombstones() << " tombstones in " << cap;
  } else {
    ASSERT_EQ(cap, capacity_before);
  }
  if (t.empty()) {
    ASSERT_EQ(t.tombstones(), 0u) << "an empty table of " << cap << " buckets";
  }
}

TEST(FlatTableTest, MatchesUnorderedMapOverSeededOperations) {
  Table t;
  Model m;
  Rng rng{101};
  // Three phases over a growing then shrinking key range, so the table grows,
  // churns at a steady size, and drains with few inserts.
  struct Phase {
    int ops;
    uint64_t key_range;
    unsigned insert_pct;  // the rest splits between find, erase and take
  };
  const Phase phases[] = {{4000, 2048, 70}, {6000, 1024, 45}, {4000, 2048, 10}};
  for (const Phase& ph : phases) {
    for (int i = 0; i < ph.ops; ++i) {
      const uint64_t key = rng.Below(ph.key_range);
      const size_t capacity_before = t.capacity();
      const unsigned pick = static_cast<unsigned>(rng.Below(100));
      Op op = Op::kOther;
      if (pick < ph.insert_pct) {
        const uint64_t value = rng.Next();
        auto [slot, inserted] = t.TryEmplace(key);
        ASSERT_EQ(inserted, m.count(key) == 0) << "key " << key;
        if (!inserted) {
          ASSERT_EQ(*slot, m[key]);  // an existing key keeps its value
        }
        *slot = value;
        m[key] = value;
        op = Op::kInsert;
      } else if (pick < ph.insert_pct + (100 - ph.insert_pct) / 3) {
        const uint64_t* found = t.Find(key);
        ASSERT_EQ(found != nullptr, m.count(key) == 1);
        ASSERT_EQ(t.Contains(key), m.count(key) == 1);
        if (found != nullptr) {
          ASSERT_EQ(*found, m[key]);
        }
      } else if (pick % 2 == 0) {
        ASSERT_EQ(t.Erase(key), m.erase(key) == 1) << "key " << key;
        op = Op::kErase;
      } else {
        uint64_t out = 12345;
        const auto it = m.find(key);
        ASSERT_EQ(t.Take(key, &out), it != m.end()) << "key " << key;
        if (it == m.end()) {
          ASSERT_EQ(out, 12345u);  // a miss leaves *out alone
        } else {
          ASSERT_EQ(out, it->second);
          m.erase(it);
        }
        op = Op::kErase;
      }
      ExpectGeometry(t, op, capacity_before);
      ExpectSameContents(t, m);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  // An erase-only drain of everything left, then clear on an empty and on a
  // refilled table.
  std::vector<uint64_t> keys;
  t.ForEach([&](uint64_t k, uint64_t) { keys.push_back(k); });
  const size_t capacity_before_drain = t.capacity();
  for (uint64_t k : keys) {
    ASSERT_TRUE(t.Erase(k));
    m.erase(k);
    ExpectGeometry(t, Op::kErase, capacity_before_drain);
    ExpectSameContents(t, m);
  }
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), capacity_before_drain);  // the drained table keeps its buckets
  EXPECT_EQ(t.tombstones(), 0u);
  t.clear();
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_EQ(t.tombstones(), 0u);
  EXPECT_EQ(t.Find(1), nullptr);
  EXPECT_FALSE(t.Erase(1));
  for (uint64_t k = 0; k < 100; ++k) {
    *t.TryEmplace(k).first = k * 3;
    m[k] = k * 3;
    ExpectGeometry(t, Op::kInsert, 0);
  }
  ExpectSameContents(t, m);
  t.clear();
  m.clear();
  ExpectSameContents(t, m);
  EXPECT_EQ(t.capacity(), 0u);
}

TEST(FlatTableTest, IsMoveOnly) {
  static_assert(!std::is_copy_constructible_v<Table>);
  static_assert(!std::is_copy_assignable_v<Table>);
  static_assert(std::is_nothrow_move_constructible_v<Table>);
  static_assert(std::is_nothrow_move_assignable_v<Table>);
  Table a;
  for (uint64_t k = 0; k < 40; ++k) {
    *a.TryEmplace(k).first = k + 1;
  }
  a.Erase(3);
  const size_t cap = a.capacity();
  const size_t tombs = a.tombstones();
  Table b(std::move(a));
  EXPECT_EQ(b.size(), 39u);
  EXPECT_EQ(b.capacity(), cap);
  EXPECT_EQ(b.tombstones(), tombs);
  EXPECT_EQ(*b.Find(39), 40u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(a.capacity(), 0u);
  *a.TryEmplace(7).first = 70;  // and still usable
  EXPECT_EQ(*a.Find(7), 70u);
  a = std::move(b);  // drops a's own binding of 7
  EXPECT_EQ(a.size(), 39u);
  EXPECT_EQ(*a.Find(7), 8u);
  EXPECT_EQ(a.Find(3), nullptr);
  EXPECT_EQ(b.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
}

// --- probe chains under the idle sweep's erase order -------------------------

// Keyed like UDP's active map in hostbench's session-churn: one peer address,
// and (peer port, local port) pairs that are distinct for every n.
using UdpKey = std::tuple<IpAddr, uint16_t, uint16_t>;

UdpKey ChurnKey(uint64_t n) {
  return UdpKey{IpAddr(10, 0, 0, 2), static_cast<uint16_t>(20000 + n / 60000),
                static_cast<uint16_t>(1 + n % 60000)};
}

// The idle sweep erases the least recently used session first. At a steady
// 55% load, erasing the oldest key and inserting a new one, 40 times the
// live count over, keeps every chain short: tombstones land where the
// oldest keys sat, spread over the table, not piled at its front (only an
// erase order that favours the lowest buckets builds the long clusters the
// golden sequence below records).
TEST(FlatTableTest, OldestFirstEvictionKeepsProbeChainsShort) {
  for (const size_t capacity : {size_t{8192}, size_t{16384}, size_t{65536}}) {
    const size_t live = capacity * 55 / 100;
    FlatTable<UdpKey, uint64_t> t;
    uint64_t oldest = 0;
    uint64_t next = 0;
    while (next < live) {
      *t.TryEmplace(ChurnKey(next)).first = next;
      ++next;
    }
    ASSERT_EQ(t.capacity(), capacity);
    size_t worst = t.MaxProbeLength();
    for (size_t step = 1; step <= 40 * live; ++step) {
      ASSERT_TRUE(t.Erase(ChurnKey(oldest++)));
      *t.TryEmplace(ChurnKey(next)).first = next;
      ++next;
      if (step % (live / 16) == 0) {
        ASSERT_EQ(t.capacity(), capacity);
        worst = std::max(worst, t.MaxProbeLength());
      }
    }
    EXPECT_EQ(t.size(), live);
    EXPECT_LE(worst, 64u) << live << " live keys in " << capacity << " buckets";
    RecordProperty("max_probe_" + std::to_string(live), std::to_string(worst));
  }
}

// --- golden layout -----------------------------------------------------------

// Folds the ForEach order (and so every key's bucket, relative to the others)
// into one number.
struct Layout {
  size_t size;
  size_t capacity;
  size_t tombstones;
  size_t max_probe;
  uint64_t order_digest;

  bool operator==(const Layout& o) const {
    return size == o.size && capacity == o.capacity && tombstones == o.tombstones &&
           max_probe == o.max_probe && order_digest == o.order_digest;
  }
};

std::ostream& operator<<(std::ostream& os, const Layout& l) {
  return os << "{" << l.size << ", " << l.capacity << ", " << l.tombstones << ", " << l.max_probe
            << ", 0x" << std::hex << l.order_digest << std::dec << "ull}";
}

template <typename T, typename KeyBits>
Layout LayoutOf(const T& t, KeyBits bits) {
  uint64_t digest = 0;
  t.ForEach([&](const auto& k, const auto&) { digest = HashCombine(digest, bits(k)); });
  return {t.size(), t.capacity(), t.tombstones(), t.MaxProbeLength(), digest};
}

// The same fixed sequence, recorded after each phase: growth to ~5k keys,
// churn (tombstones made, reused and rehashed away; the population drifts up
// to ~8k), then an erase-only drain to 300 keys, which keeps the capacity.
template <typename T, typename MakeKey, typename KeyBits>
std::vector<Layout> RunFixedSequence(MakeKey make_key, KeyBits bits) {
  using K = std::decay_t<decltype(make_key(0))>;
  T t;
  Rng rng{2024};
  std::vector<Layout> out;
  for (int i = 0; i < 5000; ++i) {
    *t.TryEmplace(make_key(rng.Below(1 << 20))).first = static_cast<uint64_t>(i);
  }
  out.push_back(LayoutOf(t, bits));
  for (int i = 0; i < 20000; ++i) {
    const auto key = make_key(rng.Below(1 << 20));
    if (rng.Below(2) == 0) {
      *t.TryEmplace(key).first = static_cast<uint64_t>(i);
    } else {
      t.Erase(key);
    }
    // Every third step, also erase one of the eight lowest-bucket keys.
    if (i % 3 == 0) {
      std::vector<K> resident;
      t.ForEach([&](const auto& k, const auto&) {
        if (resident.size() < 8) {
          resident.push_back(k);
        }
      });
      if (!resident.empty()) {
        t.Erase(resident[rng.Below(resident.size())]);
      }
    }
  }
  out.push_back(LayoutOf(t, bits));
  std::vector<K> keys;
  t.ForEach([&](const auto& k, const auto&) { keys.push_back(k); });
  for (size_t i = 0; i + 300 < keys.size(); ++i) {
    t.Erase(keys[(i * 7919) % keys.size()]);
  }
  out.push_back(LayoutOf(t, bits));
  return out;
}

TEST(FlatTableTest, GoldenLayoutOfIntegerKeys) {
  const std::vector<Layout> got = RunFixedSequence<FlatTable<uint64_t, uint64_t>>(
      [](uint64_t x) { return x; }, [](uint64_t k) { return k; });
  const std::vector<Layout> want = {
      {4993, 8192, 0, 40, 0x51e4419b32c1a3baull},
      {8212, 16384, 726, 367, 0x7e6da95ff7a2c4afull},
      {300, 16384, 8638, 197, 0x898c6726ee80c4c1ull},
  };
  EXPECT_EQ(got, want);
}

// Keyed like UDP's active map: (peer address, local port, remote port).
TEST(FlatTableTest, GoldenLayoutOfUdpStyleTupleKeys) {
  using Key = std::tuple<IpAddr, uint16_t, uint16_t>;
  const std::vector<Layout> got = RunFixedSequence<FlatTable<Key, uint64_t>>(
      [](uint64_t x) {
        return Key{IpAddr(10, 0, static_cast<uint8_t>(x >> 16 & 0xF), static_cast<uint8_t>(x)),
                   static_cast<uint16_t>(x >> 8), 7};
      },
      [](const Key& k) {
        return (uint64_t{std::get<0>(k).value()} << 32) | (uint64_t{std::get<1>(k)} << 16) |
               std::get<2>(k);
      });
  const std::vector<Layout> want = {
      {4993, 8192, 0, 25, 0x68a72c68e160de99ull},
      {8213, 16384, 751, 247, 0x9d14ff0a3ded64ccull},
      {300, 16384, 8664, 90, 0xe6555efc1e481a9dull},
  };
  EXPECT_EQ(got, want);
}

// --- value lifetimes ---------------------------------------------------------

// A value that counts its constructions and destructions and owns a heap
// block, so a leaked or twice-destroyed value shows in the counts and, under
// ASan, as a leak or a double free.
struct Counted {
  static inline int64_t constructed = 0;
  static inline int64_t destroyed = 0;
  static int64_t live() { return constructed - destroyed; }

  static constexpr uint32_t kAlive = 0xA11CEu;
  static constexpr uint32_t kDead = 0xDEADu;

  std::unique_ptr<uint64_t> payload;
  uint32_t magic = kAlive;

  Counted() { ++constructed; }
  explicit Counted(uint64_t v) : payload(std::make_unique<uint64_t>(v)) { ++constructed; }
  Counted(Counted&& o) noexcept : payload(std::move(o.payload)) { ++constructed; }
  Counted& operator=(Counted&& o) noexcept {
    EXPECT_EQ(magic, kAlive);
    payload = std::move(o.payload);
    return *this;
  }
  ~Counted() {
    EXPECT_EQ(magic, kAlive) << "a value destroyed twice";
    magic = kDead;
    ++destroyed;
  }
};

TEST(FlatTableTest, EveryValueIsDestroyedExactlyOnce) {
  Counted::constructed = 0;
  Counted::destroyed = 0;
  {
    FlatTable<uint64_t, Counted> t;
    // Growth rehashes move every value into the new slots.
    for (uint64_t k = 0; k < 2000; ++k) {
      *t.TryEmplace(k).first = Counted(k);
      ASSERT_EQ(Counted::live(), static_cast<int64_t>(t.size()));
    }
    // Erase destroys the value; Take moves it out and destroys the slot's.
    for (uint64_t k = 0; k < 500; ++k) {
      ASSERT_TRUE(t.Erase(k));
      ASSERT_EQ(Counted::live(), static_cast<int64_t>(t.size()));
    }
    for (uint64_t k = 500; k < 1000; ++k) {
      Counted out;
      ASSERT_TRUE(t.Take(k, &out));
      ASSERT_NE(out.payload, nullptr);
      ASSERT_EQ(*out.payload, k);
      ASSERT_EQ(Counted::live(), static_cast<int64_t>(t.size()) + 1);
    }
    // An erase-only drain keeps the table; the inserts after it cross the
    // 70% rule with tombstones and rehash them away, moving every survivor.
    const size_t peak = t.capacity();
    for (uint64_t k = 1000; k < 1990; ++k) {
      ASSERT_TRUE(t.Erase(k));
      ASSERT_EQ(Counted::live(), static_cast<int64_t>(t.size()));
    }
    EXPECT_EQ(t.capacity(), peak);
    EXPECT_EQ(t.tombstones(), 1990u);
    bool rehashed = false;  // a reused tombstone clears one; a rehash clears all
    for (uint64_t k = 2000; k < 4000; ++k) {
      const size_t tombstones_before = t.tombstones();
      *t.TryEmplace(k).first = Counted(k);
      ASSERT_EQ(Counted::live(), static_cast<int64_t>(t.size()));
      rehashed = rehashed || t.tombstones() + 1 < tombstones_before;
    }
    EXPECT_TRUE(rehashed);
    EXPECT_EQ(t.tombstones(), 0u);
    for (uint64_t k = 1990; k < 4000; ++k) {
      ASSERT_NE(t.Find(k), nullptr);
      EXPECT_EQ(*t.Find(k)->payload, k);
    }
    // Move construction and assignment hand the values over without
    // constructing or destroying any.
    const int64_t before_moves = Counted::constructed;
    FlatTable<uint64_t, Counted> moved(std::move(t));
    FlatTable<uint64_t, Counted> assigned;
    *assigned.TryEmplace(99999).first = Counted(1);
    assigned = std::move(moved);  // destroys the one value it held
    EXPECT_EQ(Counted::constructed, before_moves + 2);  // Counted(1) and its slot
    EXPECT_EQ(Counted::live(), 2010);
    EXPECT_EQ(*assigned.Find(1995)->payload, 1995u);
    assigned.clear();
    EXPECT_EQ(Counted::live(), 0);
    // A refilled table destroys its values with it.
    for (uint64_t k = 0; k < 300; ++k) {
      *assigned.TryEmplace(k).first = Counted(k);
    }
    EXPECT_EQ(Counted::live(), 300);
  }
  EXPECT_EQ(Counted::live(), 0);
  EXPECT_EQ(Counted::constructed, Counted::destroyed);
}

}  // namespace
}  // namespace xk
