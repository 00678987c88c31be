#include "src/core/message.h"

#include "src/sim/object_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace xk {

namespace {
// Parked chunk-tail buffers stay bounded, like the object pools.
constexpr size_t kMaxParkedTails = 64;

// Set once this thread's parking list is destroyed, so a ChunkVec dying later
// in thread teardown frees its tail instead of parking it. A plain bool, so
// it stays readable after every non-trivial thread_local is gone.
thread_local bool g_tails_closed = false;

thread_local Message::WorkCounters g_work;
}  // namespace

Message::WorkCounters& Message::work_counters() { return g_work; }

std::vector<std::vector<Message::Chunk>>& Message::ChunkVec::ParkedTails() {
  struct List {
    std::vector<std::vector<Chunk>> tails;
    ~List() { g_tails_closed = true; }
  };
  static thread_local List list;
  return list.tails;
}

void Message::ChunkVec::EnsureTail() {
  if (rest_.capacity() != 0 || g_tails_closed) {
    return;
  }
  std::vector<std::vector<Chunk>>& parked = ParkedTails();
  if (!parked.empty()) {
    rest_ = std::move(parked.back());
    parked.pop_back();
  }
}

void Message::ChunkVec::ParkTail() {
  if (g_tails_closed) {
    return;
  }
  std::vector<std::vector<Chunk>>& parked = ParkedTails();
  if (parked.size() < kMaxParkedTails) {
    rest_.clear();
    parked.push_back(std::move(rest_));
  }
}

Message::Message() = default;

const std::shared_ptr<const Message::Block>& Message::Zeros(size_t n) {
  static thread_local std::shared_ptr<const Block> zeros;
  if (zeros == nullptr || zeros->bytes.size() < n) {
    auto grown = std::make_shared<Block>();
    grown->bytes.assign(std::bit_ceil(n), 0);
    zeros = std::move(grown);
  }
  return zeros;
}

Message::Message(size_t payload_len) {
  if (payload_len > 0) {
    chunks_.push_back(Chunk{Zeros(payload_len), 0, payload_len});
    length_ = payload_len;
  }
}

Message Message::FromBytes(std::span<const uint8_t> bytes) {
  Message m;
  if (!bytes.empty()) {
    auto block = AcquirePooled<Block>();
    block->bytes.assign(bytes.begin(), bytes.end());
    m.chunks_.push_back(Chunk{std::move(block), 0, bytes.size()});
    m.length_ = bytes.size();
    g_work.bytes_copied += bytes.size();
  }
  return m;
}

Message Message::WireCopy() const {
  Message m = *this;
  m.trace_id_ = 0;
  m.deadline_ = 0;
  m.wire_error_ = 0;
  return m;
}

void Message::EnsureOwnedArenaFor(size_t more) {
  if (arena_ == nullptr) {
    arena_ = AcquirePooled<Arena>();
    arena_->buf.resize(kHeaderArenaSize);
    arena_->low = kHeaderArenaSize;
    arena_start_ = kHeaderArenaSize;
    arena_len_ = 0;
  }
  // Bytes below the low-water mark belong to no message (see Arena), so the
  // holder at the mark extends in place whether or not siblings share the
  // arena. A sole owner reclaims everything below its own start first.
  if (arena_.use_count() == 1) {
    arena_->low = arena_start_;
  }
  if (arena_->low == arena_start_ && arena_start_ >= more) {
    return;
  }
  // The live region must move to a fresh arena (a sibling pushed below it,
  // or out of space). If even a fresh arena cannot hold it, spill the live
  // region into a payload chunk first.
  if (arena_len_ + more > kHeaderArenaSize) {
    if (arena_len_ > 0) {
      auto block = AcquirePooled<Block>();
      block->bytes.assign(arena_->buf.begin() + static_cast<ptrdiff_t>(arena_start_),
                          arena_->buf.begin() + static_cast<ptrdiff_t>(arena_start_ + arena_len_));
      chunks_.push_front(Chunk{std::move(block), 0, arena_len_});
      g_work.bytes_copied += arena_len_;
    }
    arena_len_ = 0;
  }
  auto fresh = AcquirePooled<Arena>();
  fresh->buf.resize(std::max(kHeaderArenaSize, arena_len_ + more));
  const size_t new_start = fresh->buf.size() - arena_len_;
  if (arena_len_ > 0) {
    std::memcpy(fresh->buf.data() + new_start, arena_->buf.data() + arena_start_, arena_len_);
    g_work.bytes_copied += arena_len_;
  }
  ++g_work.arena_clones;
  fresh->low = new_start;
  arena_ = std::move(fresh);
  arena_start_ = new_start;
}

void Message::PushHeader(std::span<const uint8_t> header) {
  if (header.empty()) {
    return;
  }
  EnsureOwnedArenaFor(header.size());
  arena_start_ -= header.size();
  std::memcpy(arena_->buf.data() + arena_start_, header.data(), header.size());
  arena_->low = arena_start_;
  arena_len_ += header.size();
  length_ += header.size();
}

size_t Message::CopyOut(std::span<uint8_t> out) const {
  size_t want = std::min(out.size(), length_);
  size_t copied = 0;
  if (want > 0 && arena_len_ > 0) {
    const size_t take = std::min(want, arena_len_);
    std::memcpy(out.data(), arena_->buf.data() + arena_start_, take);
    copied += take;
    want -= take;
  }
  for (size_t i = 0; i < chunks_.size() && want > 0; ++i) {
    const Chunk& c = chunks_[i];
    const size_t take = std::min(want, c.len);
    std::memcpy(out.data() + copied, c.block->bytes.data() + c.off, take);
    copied += take;
    want -= take;
  }
  return copied;
}

bool Message::PeekHeader(std::span<uint8_t> out) const {
  if (out.size() > length_) {
    return false;
  }
  CopyOut(out);
  return true;
}

bool Message::Discard(size_t n) {
  if (n > length_) {
    return false;
  }
  size_t left = n;
  if (left > 0 && arena_len_ > 0) {
    const size_t take = std::min(left, arena_len_);
    arena_start_ += take;
    arena_len_ -= take;
    left -= take;
    if (arena_len_ == 0) {
      arena_.reset();
      arena_start_ = 0;
    }
  }
  while (left > 0) {
    Chunk& c = chunks_.front();
    const size_t take = std::min(left, c.len);
    c.off += take;
    c.len -= take;
    left -= take;
    if (c.len == 0) {
      chunks_.pop_front();
    }
  }
  length_ -= n;
  return true;
}

bool Message::PopHeader(std::span<uint8_t> out) {
  if (!PeekHeader(out)) {
    return false;
  }
  Discard(out.size());
  return true;
}

void Message::Truncate(size_t n) {
  if (n >= length_) {
    return;
  }
  if (n <= arena_len_) {
    arena_len_ = n;
    chunks_.clear();
    if (arena_len_ == 0) {
      arena_.reset();
      arena_start_ = 0;
    }
    length_ = n;
    return;
  }
  size_t remaining = n - arena_len_;
  size_t keep = 0;
  for (size_t i = 0; i < chunks_.size() && remaining > 0; ++i) {
    Chunk& c = chunks_[i];
    const size_t take = std::min(remaining, c.len);
    c.len = take;
    remaining -= take;
    ++keep;
  }
  chunks_.truncate(keep);
  length_ = n;
}

void Message::AppendArenaAsChunkTo(Message& dst, size_t skip, size_t take) const {
  if (take == 0) {
    return;
  }
  auto block = AcquirePooled<Block>();
  block->bytes.assign(
      arena_->buf.begin() + static_cast<ptrdiff_t>(arena_start_ + skip),
      arena_->buf.begin() + static_cast<ptrdiff_t>(arena_start_ + skip + take));
  dst.chunks_.push_back(Chunk{std::move(block), 0, take});
  dst.length_ += take;
  g_work.bytes_copied += take;
}

Message Message::Slice(size_t offset, size_t len) const {
  Message out;
  offset = std::min(offset, length_);
  len = std::min(len, length_ - offset);
  if (len == 0) {
    return out;
  }
  size_t skip = offset;
  size_t want = len;
  if (arena_len_ > 0) {
    if (skip < arena_len_) {
      const size_t take = std::min(want, arena_len_ - skip);
      AppendArenaAsChunkTo(out, skip, take);
      want -= take;
      skip = 0;
    } else {
      skip -= arena_len_;
    }
  }
  for (size_t i = 0; i < chunks_.size() && want > 0; ++i) {
    const Chunk& c = chunks_[i];
    if (skip >= c.len) {
      skip -= c.len;
      continue;
    }
    const size_t take = std::min(want, c.len - skip);
    out.chunks_.push_back(Chunk{c.block, c.off + skip, take});
    out.length_ += take;
    want -= take;
    skip = 0;
  }
  return out;
}

void Message::Append(const Message& m) {
  if (m.arena_len_ > 0) {
    m.AppendArenaAsChunkTo(*this, 0, m.arena_len_);
  }
  for (size_t i = 0; i < m.chunks_.size(); ++i) {
    const Chunk& c = m.chunks_[i];
    if (c.len > 0) {
      chunks_.push_back(c);
      length_ += c.len;
    }
  }
}

std::vector<uint8_t> Message::Flatten() const {
  std::vector<uint8_t> out;
  FlattenInto(out);
  return out;
}

void Message::FlattenInto(std::vector<uint8_t>& out) const {
  out.resize(length_);
  CopyOut(out);
  g_work.bytes_copied += length_;
}

bool Message::ContentEquals(const Message& other) const {
  if (length_ != other.length_) {
    return false;
  }
  return Flatten() == other.Flatten();
}

}  // namespace xk
