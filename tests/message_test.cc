// Unit and property tests for the x-kernel message tool.

#include "src/core/message.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/sim/rng.h"

namespace xk {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 0) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 37 + (i >> 5));
  }
  return v;
}

TEST(MessageTest, EmptyMessage) {
  Message m;
  EXPECT_EQ(m.length(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.Flatten().empty());
}

TEST(MessageTest, PayloadConstructorZeroFills) {
  Message m(16);
  EXPECT_EQ(m.length(), 16u);
  std::vector<uint8_t> out = m.Flatten();
  EXPECT_EQ(out, std::vector<uint8_t>(16, 0));
}

TEST(MessageTest, FromBytesRoundTrips) {
  auto data = Pattern(100);
  Message m = Message::FromBytes(data);
  EXPECT_EQ(m.length(), 100u);
  EXPECT_EQ(m.Flatten(), data);
}

TEST(MessageTest, PushHeaderPrepends) {
  Message m = Message::FromBytes(Pattern(10, 50));
  auto hdr = Pattern(4, 200);
  m.PushHeader(hdr);
  EXPECT_EQ(m.length(), 14u);
  auto flat = m.Flatten();
  EXPECT_TRUE(std::equal(hdr.begin(), hdr.end(), flat.begin()));
  EXPECT_TRUE(std::equal(flat.begin() + 4, flat.end(), Pattern(10, 50).begin()));
}

TEST(MessageTest, PopHeaderReturnsPushedBytes) {
  Message m = Message::FromBytes(Pattern(10));
  auto hdr = Pattern(8, 99);
  m.PushHeader(hdr);
  std::vector<uint8_t> out(8);
  ASSERT_TRUE(m.PopHeader(out));
  EXPECT_EQ(out, hdr);
  EXPECT_EQ(m.length(), 10u);
  EXPECT_EQ(m.Flatten(), Pattern(10));
}

TEST(MessageTest, PopHeaderFailsWhenTooShort) {
  Message m = Message::FromBytes(Pattern(3));
  std::vector<uint8_t> out(4);
  EXPECT_FALSE(m.PopHeader(out));
  EXPECT_EQ(m.length(), 3u);  // unchanged
}

TEST(MessageTest, PopHeaderCrossesHeaderPayloadBoundary) {
  // Pop more bytes than the header region holds: spills into payload, the way
  // a receiver pops a large header off a flat received frame.
  Message m = Message::FromBytes(Pattern(10, 1));
  m.PushHeader(Pattern(4, 100));
  std::vector<uint8_t> out(8);
  ASSERT_TRUE(m.PopHeader(out));
  auto expect_hdr = Pattern(4, 100);
  auto expect_pay = Pattern(10, 1);
  EXPECT_TRUE(std::equal(expect_hdr.begin(), expect_hdr.end(), out.begin()));
  EXPECT_TRUE(std::equal(out.begin() + 4, out.end(), expect_pay.begin()));
  EXPECT_EQ(m.length(), 6u);
}

TEST(MessageTest, NestedPushPopIsLifo) {
  Message m = Message::FromBytes(Pattern(5));
  auto h1 = Pattern(6, 10);
  auto h2 = Pattern(3, 20);
  auto h3 = Pattern(9, 30);
  m.PushHeader(h1);
  m.PushHeader(h2);
  m.PushHeader(h3);
  EXPECT_EQ(m.length(), 5u + 6 + 3 + 9);
  std::vector<uint8_t> o3(9), o2(3), o1(6);
  ASSERT_TRUE(m.PopHeader(o3));
  ASSERT_TRUE(m.PopHeader(o2));
  ASSERT_TRUE(m.PopHeader(o1));
  EXPECT_EQ(o3, h3);
  EXPECT_EQ(o2, h2);
  EXPECT_EQ(o1, h1);
  EXPECT_EQ(m.Flatten(), Pattern(5));
}

TEST(MessageTest, PeekDoesNotConsume) {
  Message m = Message::FromBytes(Pattern(20));
  std::vector<uint8_t> a(8), b(8);
  ASSERT_TRUE(m.PeekHeader(a));
  ASSERT_TRUE(m.PeekHeader(b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.length(), 20u);
}

TEST(MessageTest, DiscardDropsFront) {
  Message m = Message::FromBytes(Pattern(20));
  ASSERT_TRUE(m.Discard(5));
  EXPECT_EQ(m.length(), 15u);
  auto expect = Pattern(20);
  expect.erase(expect.begin(), expect.begin() + 5);
  EXPECT_EQ(m.Flatten(), expect);
  EXPECT_FALSE(m.Discard(16));
}

TEST(MessageTest, TruncateKeepsPrefix) {
  Message m = Message::FromBytes(Pattern(20));
  m.PushHeader(Pattern(4, 77));
  m.Truncate(10);
  EXPECT_EQ(m.length(), 10u);
  auto flat = m.Flatten();
  auto hdr = Pattern(4, 77);
  EXPECT_TRUE(std::equal(hdr.begin(), hdr.end(), flat.begin()));
  // Truncate to something longer is a no-op.
  m.Truncate(100);
  EXPECT_EQ(m.length(), 10u);
  // Truncate within the header arena region.
  m.Truncate(2);
  EXPECT_EQ(m.length(), 2u);
  EXPECT_EQ(m.Flatten(), std::vector<uint8_t>(hdr.begin(), hdr.begin() + 2));
}

TEST(MessageTest, CopySharesPayloadButHeadersDiverge) {
  // The critical copy-on-write case: FRAGMENT saves a copy of a message, then
  // both the copy and the original push different headers.
  Message a = Message::FromBytes(Pattern(50));
  a.PushHeader(Pattern(4, 1));
  Message b = a;  // shares arena + payload
  a.PushHeader(Pattern(4, 2));
  b.PushHeader(Pattern(4, 3));
  std::vector<uint8_t> ha(4), hb(4);
  ASSERT_TRUE(a.PeekHeader(ha));
  ASSERT_TRUE(b.PeekHeader(hb));
  EXPECT_EQ(ha, Pattern(4, 2));
  EXPECT_EQ(hb, Pattern(4, 3));
  EXPECT_EQ(a.length(), 58u);
  EXPECT_EQ(b.length(), 58u);
}

TEST(MessageTest, CopyThenPopLeavesOriginalIntact) {
  Message a = Message::FromBytes(Pattern(10));
  a.PushHeader(Pattern(6, 9));
  Message b = a;
  std::vector<uint8_t> out(6);
  ASSERT_TRUE(b.PopHeader(out));
  EXPECT_EQ(b.length(), 10u);
  EXPECT_EQ(a.length(), 16u);  // untouched
}

TEST(MessageTest, SliceMiddle) {
  Message m = Message::FromBytes(Pattern(100));
  Message s = m.Slice(10, 20);
  EXPECT_EQ(s.length(), 20u);
  auto expect = Pattern(100);
  EXPECT_EQ(s.Flatten(), std::vector<uint8_t>(expect.begin() + 10, expect.begin() + 30));
}

TEST(MessageTest, SliceClampsOutOfRange) {
  Message m = Message::FromBytes(Pattern(10));
  EXPECT_EQ(m.Slice(5, 100).length(), 5u);
  EXPECT_EQ(m.Slice(20, 5).length(), 0u);
  EXPECT_EQ(m.Slice(0, 0).length(), 0u);
}

TEST(MessageTest, SliceSpansArenaAndChunks) {
  Message m = Message::FromBytes(Pattern(10, 5));
  m.PushHeader(Pattern(8, 60));
  Message s = m.Slice(4, 10);  // last 4 header bytes + first 6 payload bytes
  auto flat = m.Flatten();
  EXPECT_EQ(s.Flatten(), std::vector<uint8_t>(flat.begin() + 4, flat.begin() + 14));
}

TEST(MessageTest, SliceDoesNotCopyPayload) {
  // Slicing a large message should share the underlying block; we verify via
  // content equality after the original is modified non-destructively.
  Message m = Message::FromBytes(Pattern(4096));
  Message s1 = m.Slice(0, 2048);
  Message s2 = m.Slice(2048, 2048);
  Message joined;
  joined.Append(s1);
  joined.Append(s2);
  EXPECT_TRUE(joined.ContentEquals(m));
}

TEST(MessageTest, AppendJoinsSequences) {
  Message a = Message::FromBytes(Pattern(10, 1));
  Message b = Message::FromBytes(Pattern(10, 2));
  b.PushHeader(Pattern(3, 3));
  a.Append(b);
  EXPECT_EQ(a.length(), 23u);
  auto flat = a.Flatten();
  auto pb = Pattern(3, 3);
  EXPECT_TRUE(std::equal(pb.begin(), pb.end(), flat.begin() + 10));
}

TEST(MessageTest, AppendEmptyIsNoop) {
  Message a = Message::FromBytes(Pattern(5));
  Message e;
  a.Append(e);
  EXPECT_EQ(a.length(), 5u);
}

TEST(MessageTest, CopyOutPartial) {
  Message m = Message::FromBytes(Pattern(10));
  std::vector<uint8_t> out(4);
  EXPECT_EQ(m.CopyOut(out), 4u);
  auto expect = Pattern(10);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), expect.begin()));
  std::vector<uint8_t> big(20);
  EXPECT_EQ(m.CopyOut(big), 10u);
}

TEST(MessageTest, ArenaOverflowSpillsGracefully) {
  // Push more header bytes than the arena holds; message must stay correct.
  Message m = Message::FromBytes(Pattern(8));
  std::vector<std::vector<uint8_t>> hdrs;
  for (int i = 0; i < 10; ++i) {
    hdrs.push_back(Pattern(40, static_cast<uint8_t>(i)));
    m.PushHeader(hdrs.back());
  }
  EXPECT_EQ(m.length(), 8u + 400);
  for (int i = 9; i >= 0; --i) {
    std::vector<uint8_t> out(40);
    ASSERT_TRUE(m.PopHeader(out));
    EXPECT_EQ(out, hdrs[i]) << "header " << i;
  }
  EXPECT_EQ(m.Flatten(), Pattern(8));
}

TEST(MessageTest, ContentEquals) {
  Message a = Message::FromBytes(Pattern(10));
  Message b = Message::FromBytes(Pattern(10));
  Message c = Message::FromBytes(Pattern(11));
  EXPECT_TRUE(a.ContentEquals(b));
  EXPECT_FALSE(a.ContentEquals(c));
  b.PushHeader(Pattern(1));
  EXPECT_FALSE(a.ContentEquals(b));
}

// --- property tests ---------------------------------------------------------

// Random push/pop/slice sequences must always preserve the byte sequence a
// reference model (a plain std::vector) predicts.
class MessagePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MessagePropertyTest, RandomOpsMatchReferenceModel) {
  Rng rng(GetParam());

  auto initial = Pattern(rng.NextBelow(200), static_cast<uint8_t>(rng.NextU64()));
  Message m = Message::FromBytes(initial);
  std::vector<uint8_t> model = initial;

  for (int step = 0; step < 200; ++step) {
    switch (rng.NextBelow(7)) {
      case 0: {  // push
        auto hdr = Pattern(rng.NextInRange(1, 48), static_cast<uint8_t>(rng.NextU64()));
        m.PushHeader(hdr);
        model.insert(model.begin(), hdr.begin(), hdr.end());
        break;
      }
      case 1: {  // pop
        const size_t n = rng.NextInRange(1, 64);
        std::vector<uint8_t> out(n);
        const bool ok = m.PopHeader(out);
        if (n <= model.size()) {
          ASSERT_TRUE(ok);
          EXPECT_TRUE(std::equal(out.begin(), out.end(), model.begin()));
          model.erase(model.begin(), model.begin() + static_cast<ptrdiff_t>(n));
        } else {
          ASSERT_FALSE(ok);
        }
        break;
      }
      case 2: {  // slice (replaces the message with a sub-range)
        if (model.empty()) {
          break;
        }
        const size_t off = rng.NextBelow(model.size());
        const size_t len = rng.NextInRange(0, model.size() - off);
        m = m.Slice(off, len);
        model = std::vector<uint8_t>(model.begin() + static_cast<ptrdiff_t>(off),
                                     model.begin() + static_cast<ptrdiff_t>(off + len));
        break;
      }
      case 3: {  // append a fresh message
        auto extra = Pattern(rng.NextBelow(60), static_cast<uint8_t>(rng.NextU64()));
        Message other = Message::FromBytes(extra);
        if (rng.Chance(0.5) && !extra.empty()) {
          auto hdr = Pattern(4, 7);
          other.PushHeader(hdr);
          extra.insert(extra.begin(), hdr.begin(), hdr.end());
        }
        m.Append(other);
        model.insert(model.end(), extra.begin(), extra.end());
        break;
      }
      case 4: {  // copy fork: mutate the copy, original must be unaffected
        Message copy = m;
        const auto hdr = Pattern(8, 42);
        copy.PushHeader(hdr);  // shared arena: must clone, not scribble
        std::vector<uint8_t> expect_copy = model;
        expect_copy.insert(expect_copy.begin(), hdr.begin(), hdr.end());
        EXPECT_EQ(copy.Flatten(), expect_copy) << "step " << step;
        ASSERT_EQ(m.Flatten(), model)
            << "copy's push leaked into the original at step " << step;
        std::vector<uint8_t> sink(std::min<size_t>(model.size(), 8));
        copy.PopHeader(sink);
        break;
      }
      case 5: {  // discard from the front
        const size_t n = rng.NextInRange(0, 64);
        const bool ok = m.Discard(n);
        if (n <= model.size()) {
          ASSERT_TRUE(ok);
          model.erase(model.begin(), model.begin() + static_cast<ptrdiff_t>(n));
        } else {
          ASSERT_FALSE(ok);
        }
        break;
      }
      case 6: {  // truncate (strip trailing padding)
        const size_t n = rng.NextBelow(static_cast<size_t>(model.size()) + 32);
        m.Truncate(n);
        if (n < model.size()) {
          model.resize(n);
        }
        break;
      }
    }
    ASSERT_EQ(m.length(), model.size()) << "step " << step;
  }
  EXPECT_EQ(m.Flatten(), model);
}

// Up to four live forks of one message, each taking random push, pop,
// discard and truncate steps against its own reference model, every fork
// checked after every step. Forks share the header arena, and the holder at
// the arena's low-water mark pushes in place: a sibling must never see those
// bytes, whichever forks are alive, dropped or sole owners at the time.
TEST_P(MessagePropertyTest, LiveForksMatchTheirModels) {
  Rng rng(GetParam());
  struct Fork {
    Message m;
    std::vector<uint8_t> model;
  };
  constexpr size_t kMaxForks = 4;
  std::vector<Fork> forks;
  const auto initial = Pattern(rng.NextBelow(200), static_cast<uint8_t>(rng.NextU64()));
  forks.push_back(Fork{Message::FromBytes(initial), initial});

  for (int step = 0; step < 400; ++step) {
    const size_t i = rng.NextBelow(forks.size());
    switch (rng.NextBelow(6)) {
      case 0: {  // fork: a new live copy (or one replacing a sibling)
        Fork copy = forks[i];
        if (forks.size() < kMaxForks) {
          forks.push_back(std::move(copy));
        } else {
          forks[rng.NextBelow(forks.size())] = std::move(copy);
        }
        break;
      }
      case 1: {  // push
        auto hdr = Pattern(rng.NextInRange(1, 48), static_cast<uint8_t>(rng.NextU64()));
        forks[i].m.PushHeader(hdr);
        forks[i].model.insert(forks[i].model.begin(), hdr.begin(), hdr.end());
        break;
      }
      case 2: {  // pop
        std::vector<uint8_t> out(rng.NextInRange(1, 64));
        const bool ok = forks[i].m.PopHeader(out);
        ASSERT_EQ(ok, out.size() <= forks[i].model.size()) << "step " << step;
        if (ok) {
          EXPECT_TRUE(std::equal(out.begin(), out.end(), forks[i].model.begin()));
          forks[i].model.erase(forks[i].model.begin(),
                               forks[i].model.begin() + static_cast<ptrdiff_t>(out.size()));
        }
        break;
      }
      case 3: {  // discard from the front
        const size_t n = rng.NextInRange(0, 64);
        const bool ok = forks[i].m.Discard(n);
        ASSERT_EQ(ok, n <= forks[i].model.size()) << "step " << step;
        if (ok) {
          forks[i].model.erase(forks[i].model.begin(),
                               forks[i].model.begin() + static_cast<ptrdiff_t>(n));
        }
        break;
      }
      case 4: {  // truncate
        const size_t n = rng.NextBelow(forks[i].model.size() + 32);
        forks[i].m.Truncate(n);
        if (n < forks[i].model.size()) {
          forks[i].model.resize(n);
        }
        break;
      }
      case 5:  // drop a fork, so a survivor can become the sole owner
        if (forks.size() > 1) {
          forks.erase(forks.begin() + static_cast<ptrdiff_t>(i));
        }
        break;
    }
    for (size_t f = 0; f < forks.size(); ++f) {
      ASSERT_EQ(forks[f].m.length(), forks[f].model.size()) << "fork " << f << " step " << step;
      ASSERT_EQ(forks[f].m.Flatten(), forks[f].model) << "fork " << f << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessagePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

}  // namespace
}  // namespace xk
