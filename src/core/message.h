// The x-kernel message tool.
//
// A Message is a byte sequence that flows up and down a protocol stack. The
// two defining operations are PushHeader (prepend bytes) and PopHeader
// (consume bytes from the front) -- "we think of the message as a stack,
// where the two operations push headers onto and pop headers off of the
// stack" (paper, Section 2).
//
// The representation embodies the optimization the paper's Discussion section
// credits for the 0.11 ms/layer floor: a single pre-allocated header arena is
// shared by all layers, and pushing a header just adjusts a pointer downward
// into that arena. The earlier x-kernel scheme -- allocating a fresh buffer
// for every header, at 0.50 ms/layer -- is preserved as
// HeaderAllocPolicy::kPerLayerAlloc so the ablation benchmark can measure the
// difference.
//
// Payload bytes live in immutable, reference-counted chunks, so fragmentation
// (Slice) and reassembly (Append) never copy payload data, and a protocol
// that "saves a copy of the fragments in the local state" (FRAGMENT) shares
// the underlying bytes with the in-flight message. This mirrors the paper's
// footnote: multiple protocol layers may hold references to pieces of the
// same message. The simulated wire keeps the rule too: an Ethernet frame
// carries a copy of the sender's Message, so crossing a segment copies no
// payload byte on the host.

#ifndef XK_SRC_CORE_MESSAGE_H_
#define XK_SRC_CORE_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/types.h"

namespace xk {

// How PushHeader obtains space for a new header.
enum class HeaderAllocPolicy : uint8_t {
  // Pre-allocated arena, pointer adjustment per header (current x-kernel
  // scheme; 0.11 ms/layer on a Sun 3/75).
  kPointerAdjust,
  // A fresh buffer per header (the original x-kernel scheme; 0.50 ms/layer).
  kPerLayerAlloc,
};

class Message {
 public:
  // Bytes reserved for the header arena. Large enough for the deepest stack
  // in this repository (SELECT+CHANNEL+FRAGMENT+IP+ETH < 100 bytes).
  static constexpr size_t kHeaderArenaSize = 192;

  // Process-wide default allocation policy; the ablation bench flips this.
  static HeaderAllocPolicy default_alloc_policy();
  static void set_default_alloc_policy(HeaderAllocPolicy policy);

  // An empty message.
  Message();

  // A message with `payload_len` zero bytes of payload.
  explicit Message(size_t payload_len);

  // A message whose payload is a copy of `bytes`.
  static Message FromBytes(std::span<const uint8_t> bytes);

  // Messages are cheap to copy: copies share payload chunks, and the header
  // arena is copied lazily on the next PushHeader if still shared.
  Message(const Message&) = default;
  Message& operator=(const Message&) = default;
  Message(Message&&) = default;
  Message& operator=(Message&&) = default;

  // Total length in bytes (headers currently pushed + payload). O(1).
  size_t length() const { return length_; }
  bool empty() const { return length_ == 0; }

  // Prepends `header` to the message.
  void PushHeader(std::span<const uint8_t> header);

  // Copies the first out.size() bytes into `out` and consumes them. Returns
  // false (leaving the message unchanged) if the message is shorter than the
  // requested header.
  bool PopHeader(std::span<uint8_t> out);

  // Like PopHeader but does not consume.
  bool PeekHeader(std::span<uint8_t> out) const;

  // Discards the first n bytes. Returns false if the message is shorter.
  bool Discard(size_t n);

  // Keeps only the first n bytes (used to strip Ethernet minimum-frame
  // padding once an inner length field is known). No-op if already shorter.
  void Truncate(size_t n);

  // A new message referencing bytes [offset, offset+len) of this one.
  // Payload chunks are shared, not copied. Out-of-range requests clamp.
  Message Slice(size_t offset, size_t len) const;

  // Appends the byte sequence of `m` to this message (reassembly join).
  // Chunks are shared with `m`.
  void Append(const Message& m);

  // Copies the whole byte sequence into a flat vector (used by device
  // drivers when handing a frame to the simulated wire).
  std::vector<uint8_t> Flatten() const;

  // Flattens into `out` (resized to length()), reusing its capacity -- the
  // allocation-free form of Flatten for pooled frame buffers.
  void FlattenInto(std::vector<uint8_t>& out) const;

  // Copies min(out.size(), length()) bytes from the front into `out`;
  // returns the number copied. Does not consume.
  size_t CopyOut(std::span<uint8_t> out) const;

  // Byte-wise comparison of contents (for tests).
  bool ContentEquals(const Message& other) const;

  // A copy carrying the byte sequence only: the host-side metadata below
  // (trace id, deadline, wire error) starts cleared, as on a message rebuilt
  // from bytes. What a frame puts on the wire.
  Message WireCopy() const;

  // Host work the message tool does, counted per thread and never charged to
  // simulated time: bytes copied between buffers (Flatten, FlattenInto,
  // FromBytes, an arena clone or spill, and an arena region sliced or
  // appended into a payload chunk) and arena clones (a push that had to move
  // the live header region to a fresh arena). Writing a pushed header and
  // reading a popped one are not counted.
  struct WorkCounters {
    uint64_t bytes_copied = 0;
    uint64_t arena_clones = 0;
  };
  static WorkCounters& work_counters();

  // Trace identity, assigned lazily by a TraceSink the first time the message
  // crosses an instrumented entry point (0 = never traced). Copies and moves
  // keep the id, so one logical message reads as one id up and down a stack.
  uint64_t trace_id() const { return trace_id_; }

  // Absolute sim-clock deadline for the call this message belongs to
  // (0 = none). Host-side metadata copied with the message; CHANNEL
  // serializes it onto the wire when nonzero (kFlagDeadline) so servers can
  // shed already-expired requests.
  SimTime deadline() const { return deadline_; }
  void set_deadline(SimTime d) { deadline_ = d; }

  // Application-level error a reply carries back through the transport's
  // header error field (a StatusCode as uint8; 0 = OK). Lets RpcServer tag a
  // fast-reject (BUSY) or shed (DEADLINE_EXCEEDED) reply without inventing a
  // payload convention; CHANNEL serializes it into its 16-bit error field.
  uint8_t wire_error() const { return wire_error_; }
  void set_wire_error(uint8_t e) { wire_error_ = e; }

 private:
  friend class TraceSink;

  // Immutable shared byte storage.
  struct Block {
    std::vector<uint8_t> bytes;
  };

  // A view [off, off+len) into a Block.
  struct Chunk {
    std::shared_ptr<const Block> block;
    size_t off = 0;
    size_t len = 0;
  };

  // Chunk sequence with the first two elements stored inline. Almost every
  // message on the RPC datapath is one payload chunk plus at most one spilled
  // header chunk, so the common push/pop/slice path never allocates a chunk
  // array; only reassembled bulk transfers (FRAGMENT joining 16 slices)
  // overflow into the heap-backed tail. A dying tail parks its buffer on a
  // per-thread list that the next overflowing ChunkVec takes it from, so
  // steady-state reassembly reuses tail capacity instead of allocating.
  class ChunkVec {
   public:
    static constexpr size_t kInline = 2;

    ChunkVec() = default;
    ChunkVec(const ChunkVec& other) { *this = other; }
    ChunkVec(ChunkVec&& other) noexcept = default;
    ChunkVec& operator=(const ChunkVec& other) {
      if (this != &other) {
        for (size_t i = 0; i < kInline; ++i) {
          inline_[i] = other.inline_[i];
        }
        if (!other.rest_.empty()) {
          EnsureTail();
          rest_ = other.rest_;
        } else {
          rest_.clear();  // keeps capacity; skips the out-of-line assignment
        }
        size_ = other.size_;
      }
      return *this;
    }
    ChunkVec& operator=(ChunkVec&& other) noexcept {
      if (this != &other) {
        if (rest_.capacity() != 0) {
          ParkTail();
        }
        for (size_t i = 0; i < kInline; ++i) {
          inline_[i] = std::move(other.inline_[i]);
        }
        rest_ = std::move(other.rest_);
        size_ = other.size_;
      }
      return *this;
    }
    ~ChunkVec() {
      if (rest_.capacity() != 0) {
        ParkTail();
      }
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    Chunk& operator[](size_t i) {
      return i < kInline ? inline_[i] : rest_[i - kInline];
    }
    const Chunk& operator[](size_t i) const {
      return i < kInline ? inline_[i] : rest_[i - kInline];
    }
    Chunk& front() { return inline_[0]; }

    void push_back(Chunk c) {
      if (size_ < kInline) {
        inline_[size_] = std::move(c);
      } else {
        EnsureTail();
        rest_.push_back(std::move(c));
      }
      ++size_;
    }

    void push_front(Chunk c) {
      if (size_ >= kInline) {
        EnsureTail();
        rest_.insert(rest_.begin(), std::move(inline_[kInline - 1]));
      }
      const size_t shift = size_ < kInline - 1 ? size_ : kInline - 1;
      for (size_t i = shift; i > 0; --i) {
        inline_[i] = std::move(inline_[i - 1]);
      }
      inline_[0] = std::move(c);
      ++size_;
    }

    void pop_front() {
      const size_t in_inline = size_ < kInline ? size_ : kInline;
      for (size_t i = 0; i + 1 < in_inline; ++i) {
        inline_[i] = std::move(inline_[i + 1]);
      }
      if (size_ > kInline) {
        inline_[kInline - 1] = std::move(rest_.front());
        rest_.erase(rest_.begin());
      } else {
        inline_[in_inline - 1] = Chunk{};  // release the block reference
      }
      --size_;
    }

    // Shrinks to the first n elements (n <= size()).
    void truncate(size_t n) {
      for (size_t i = n; i < size_ && i < kInline; ++i) {
        inline_[i] = Chunk{};
      }
      rest_.resize(n > kInline ? n - kInline : 0);
      size_ = n;
    }

    void clear() { truncate(0); }

   private:
    // Gives an empty tail a parked buffer, if one is waiting.
    void EnsureTail();
    // Parks the tail's buffer (emptied) for reuse; the tail has capacity.
    void ParkTail();
    // This thread's parked tail buffers.
    static std::vector<std::vector<Chunk>>& ParkedTails();

    Chunk inline_[kInline];
    std::vector<Chunk> rest_;
    size_t size_ = 0;
  };

  // Header arena: headers are written at decreasing offsets. `arena_start_`
  // is the offset of the first valid byte for *this* message; `arena_len_`
  // the number of valid arena bytes. Copies share the arena, and every holder
  // reads only at or above its own start, which is never below the arena's
  // low-water mark `low`. So the bytes below `low` belong to no message: the
  // holder whose start equals `low` may push in place even while siblings
  // share the arena, and a sole owner may first raise `low` to its own start.
  // Any other push clones the live region into a fresh arena first.
  struct Arena {
    std::vector<uint8_t> buf;
    size_t low = 0;  // lowest offset handed out so far
  };

  void EnsureOwnedArenaFor(size_t more);
  void AppendArenaAsChunkTo(Message& dst, size_t skip, size_t take) const;

  std::shared_ptr<Arena> arena_;  // may be null until first PushHeader
  size_t arena_start_ = 0;        // offset of first valid byte in arena_
  size_t arena_len_ = 0;          // number of valid bytes in arena_

  ChunkVec chunks_;
  size_t length_ = 0;  // arena_len_ + sum(chunk.len)
  // Mutable so a sink can tag a message observed through a const reference.
  mutable uint64_t trace_id_ = 0;
  SimTime deadline_ = 0;    // absolute sim-clock call deadline (0 = none)
  uint8_t wire_error_ = 0;  // StatusCode carried in the transport error field
};

}  // namespace xk

#endif  // XK_SRC_CORE_MESSAGE_H_
