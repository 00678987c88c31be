// Bounded big-endian serialization helpers for protocol headers.
//
// Every header in this repository (the paper's appendix structures and the
// substrate protocols' headers) is serialized explicitly with these helpers,
// never by casting structs onto buffers: headers are wire formats, and the
// simulated network carries real byte streams between kernels.

#ifndef XK_SRC_CORE_WIRE_H_
#define XK_SRC_CORE_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "src/core/types.h"

namespace xk {

// Writes fixed-width big-endian fields into a caller-provided buffer, tracking
// the cursor and overflow. Check ok() once after the last Put.
class WireWriter {
 public:
  explicit WireWriter(std::span<uint8_t> buf) : buf_(buf) {}

  void PutU8(uint8_t v) { PutBytes(&v, 1); }

  void PutU16(uint16_t v) {
    uint8_t b[2] = {static_cast<uint8_t>(v >> 8), static_cast<uint8_t>(v)};
    PutBytes(b, 2);
  }

  void PutU32(uint32_t v) {
    uint8_t b[4] = {static_cast<uint8_t>(v >> 24), static_cast<uint8_t>(v >> 16),
                    static_cast<uint8_t>(v >> 8), static_cast<uint8_t>(v)};
    PutBytes(b, 4);
  }

  void PutU64(uint64_t v) {
    PutU32(static_cast<uint32_t>(v >> 32));
    PutU32(static_cast<uint32_t>(v));
  }

  void PutIpAddr(IpAddr a) { PutU32(a.value()); }

  void PutEthAddr(const EthAddr& a) { PutBytes(a.bytes().data(), 6); }

  void PutBytes(const uint8_t* data, size_t n) {
    if (pos_ + n > buf_.size()) {
      overflow_ = true;
      return;
    }
    std::memcpy(buf_.data() + pos_, data, n);
    pos_ += n;
  }

  void PutZeros(size_t n) {
    if (pos_ + n > buf_.size()) {
      overflow_ = true;
      return;
    }
    std::memset(buf_.data() + pos_, 0, n);
    pos_ += n;
  }

  size_t pos() const { return pos_; }
  bool ok() const { return !overflow_; }

 private:
  std::span<uint8_t> buf_;
  size_t pos_ = 0;
  bool overflow_ = false;
};

// Reads fixed-width big-endian fields from a buffer. Out-of-bounds reads set
// a sticky error and return zeros, so a single ok() check after parsing a
// header validates the whole parse.
class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> buf) : buf_(buf) {}

  uint8_t GetU8() {
    uint8_t v = 0;
    GetBytes(&v, 1);
    return v;
  }

  uint16_t GetU16() {
    uint8_t b[2] = {};
    GetBytes(b, 2);
    return static_cast<uint16_t>((uint16_t{b[0]} << 8) | uint16_t{b[1]});
  }

  uint32_t GetU32() {
    uint8_t b[4] = {};
    GetBytes(b, 4);
    return (uint32_t{b[0]} << 24) | (uint32_t{b[1]} << 16) | (uint32_t{b[2]} << 8) | uint32_t{b[3]};
  }

  uint64_t GetU64() {
    const uint64_t hi = GetU32();
    return (hi << 32) | GetU32();
  }

  IpAddr GetIpAddr() { return IpAddr(GetU32()); }

  EthAddr GetEthAddr() {
    std::array<uint8_t, 6> b = {};
    GetBytes(b.data(), 6);
    return EthAddr(b);
  }

  void GetBytes(uint8_t* out, size_t n) {
    if (pos_ + n > buf_.size()) {
      error_ = true;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
  }

  void Skip(size_t n) {
    if (pos_ + n > buf_.size()) {
      error_ = true;
      return;
    }
    pos_ += n;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return buf_.size() - pos_; }
  bool ok() const { return !error_; }

 private:
  std::span<const uint8_t> buf_;
  size_t pos_ = 0;
  bool error_ = false;
};

// The fragment index a FRAGMENT or Sprite RPC fragment mask names: the sender
// sets exactly one bit. Returns -1 unless exactly one bit is set.
inline int SingleBitIndex(uint16_t mask) {
  return std::has_single_bit(mask) ? std::countr_zero(mask) : -1;
}

// The mask with one bit set for each of a message's `num_frags` fragments.
inline uint16_t FullMask(uint16_t num_frags) {
  return static_cast<uint16_t>(num_frags >= 16 ? 0xFFFFu : (1u << num_frags) - 1u);
}

}  // namespace xk

#endif  // XK_SRC_CORE_WIRE_H_
