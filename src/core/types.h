// Core value types shared by every x-kernel module: simulated time, network
// addresses, status/result plumbing, and small identifier types.
//
// Everything in this file is a plain value type with no dependency on the
// simulator or the protocol graph, so any module may include it.

#ifndef XK_SRC_CORE_TYPES_H_
#define XK_SRC_CORE_TYPES_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

namespace xk {

// ---------------------------------------------------------------------------
// Simulated time.
// ---------------------------------------------------------------------------

// Simulated time and durations, in nanoseconds. Signed so that subtracting two
// times is natural; the simulator never schedules negative times.
using SimTime = int64_t;

constexpr SimTime kSimTimeNever = INT64_MAX;

// Convenience constructors so cost tables read in the units the paper uses.
constexpr SimTime Nsec(int64_t n) { return n; }
constexpr SimTime Usec(int64_t u) { return u * 1000; }
constexpr SimTime Msec(int64_t m) { return m * 1000 * 1000; }
constexpr SimTime Sec(int64_t s) { return s * 1000 * 1000 * 1000; }

// Fractional microseconds, used by cost tables ("0.4 us per header byte").
constexpr SimTime UsecF(double u) { return static_cast<SimTime>(u * 1000.0); }

constexpr double ToMsec(SimTime t) { return static_cast<double>(t) / 1.0e6; }

// ---------------------------------------------------------------------------
// Status / Result.
// ---------------------------------------------------------------------------

// Error space for the uniform protocol interface. Deliberately small: the
// x-kernel's operations return XK_SUCCESS/XK_FAILURE; we keep slightly more
// detail for diagnosability but protocols only branch on Ok().
enum class StatusCode : uint8_t {
  kOk = 0,
  kError,           // generic failure
  kNotFound,        // no such session/binding/route
  kAlreadyExists,   // duplicate enable/bind
  kInvalidArgument, // malformed participants, bad control buffer
  kUnreachable,     // no route / unresolvable address
  kTimeout,         // retries exhausted
  kTooBig,          // message exceeds what the protocol can carry
  kRejected,        // peer refused (e.g., authentication, boot-id mismatch)
  kUnsupported,     // operation or control opcode not implemented
  kBusy,            // server admission control fast-rejected the request
  kDeadlineExceeded,   // call deadline passed (client gave up or server shed)
  kResourceExhausted,  // client-side retry budget drained
};

// Lightweight status value; converts to bool for "is ok" checks.
class [[nodiscard]] Status {
 public:
  constexpr Status() : code_(StatusCode::kOk) {}
  constexpr explicit Status(StatusCode code) : code_(code) {}

  static constexpr Status Ok() { return Status(); }
  static constexpr Status Error(StatusCode code) { return Status(code); }

  constexpr bool ok() const { return code_ == StatusCode::kOk; }
  constexpr StatusCode code() const { return code_; }

  friend constexpr bool operator==(Status a, Status b) { return a.code_ == b.code_; }

 private:
  StatusCode code_;
};

constexpr Status OkStatus() { return Status::Ok(); }
constexpr Status ErrStatus(StatusCode c) { return Status::Error(c); }

const char* StatusCodeName(StatusCode code);

// Minimal expected-like result carrier (the toolchain is C++20, which lacks
// std::expected). Holds either a value or an error status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)), status_() {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : value_(std::nullopt), status_(status) {}  // NOLINT
  Result(StatusCode code) : value_(std::nullopt), status_(code) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  Status status() const { return status_; }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return *std::move(value_); }

  T& operator*() & { return *value_; }
  const T& operator*() const& { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_;
};

// ---------------------------------------------------------------------------
// Network addresses.
// ---------------------------------------------------------------------------

// 32-bit IPv4-style host address, stored in host byte order. The paper's
// Sprite implementation identifies hosts with IP addresses; so do we.
class IpAddr {
 public:
  constexpr IpAddr() : addr_(0) {}
  constexpr explicit IpAddr(uint32_t addr) : addr_(addr) {}
  constexpr IpAddr(uint8_t a, uint8_t b, uint8_t c, uint8_t d)
      : addr_((uint32_t{a} << 24) | (uint32_t{b} << 16) | (uint32_t{c} << 8) | uint32_t{d}) {}

  constexpr uint32_t value() const { return addr_; }

  // True if `other` is on the same subnet under `mask_bits` (default /24,
  // which is how the simulated topologies are numbered).
  constexpr bool SameSubnet(IpAddr other, int mask_bits = 24) const {
    if (mask_bits <= 0) {
      return true;
    }
    const uint32_t mask = mask_bits >= 32 ? 0xFFFFFFFFu : ~((1u << (32 - mask_bits)) - 1u);
    return (addr_ & mask) == (other.addr_ & mask);
  }

  std::string ToString() const;

  friend constexpr bool operator==(IpAddr a, IpAddr b) { return a.addr_ == b.addr_; }
  friend constexpr bool operator!=(IpAddr a, IpAddr b) { return a.addr_ != b.addr_; }
  friend constexpr bool operator<(IpAddr a, IpAddr b) { return a.addr_ < b.addr_; }

 private:
  uint32_t addr_;
};

// 48-bit Ethernet address.
class EthAddr {
 public:
  constexpr EthAddr() : bytes_{} {}
  constexpr explicit EthAddr(std::array<uint8_t, 6> bytes) : bytes_(bytes) {}

  // Deterministic unicast address derived from a small host index.
  static constexpr EthAddr FromIndex(uint32_t index) {
    return EthAddr({0x08, 0x00, 0x20, static_cast<uint8_t>(index >> 16),
                    static_cast<uint8_t>(index >> 8), static_cast<uint8_t>(index)});
  }

  static constexpr EthAddr Broadcast() {
    return EthAddr({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF});
  }

  constexpr const std::array<uint8_t, 6>& bytes() const { return bytes_; }
  constexpr bool IsBroadcast() const {
    for (uint8_t b : bytes_) {
      if (b != 0xFF) {
        return false;
      }
    }
    return true;
  }

  std::string ToString() const;

  friend constexpr bool operator==(const EthAddr& a, const EthAddr& b) {
    return a.bytes_ == b.bytes_;
  }
  friend constexpr bool operator!=(const EthAddr& a, const EthAddr& b) { return !(a == b); }
  friend constexpr bool operator<(const EthAddr& a, const EthAddr& b) {
    return a.bytes_ < b.bytes_;
  }

 private:
  std::array<uint8_t, 6> bytes_;
};

// ---------------------------------------------------------------------------
// Protocol identifiers.
// ---------------------------------------------------------------------------

// Ethernet type field (16 bits).
using EthType = uint16_t;

constexpr EthType kEthTypeIp = 0x0800;
constexpr EthType kEthTypeArp = 0x0806;
// Base of the reserved range VIP uses to map 8-bit IP protocol numbers onto
// 16-bit Ethernet types (paper Section 3.1).
constexpr EthType kEthTypeVipBase = 0x3A00;

// IP protocol numbers (8 bits). The RPC protocols claim numbers from the
// experimental range.
using IpProtoNum = uint8_t;

constexpr IpProtoNum kIpProtoIcmp = 1;
constexpr IpProtoNum kIpProtoUdp = 17;
constexpr IpProtoNum kIpProtoRawTest = 249;     // raw echo test anchors
constexpr IpProtoNum kIpProtoSpriteRpc = 250;   // monolithic Sprite RPC
constexpr IpProtoNum kIpProtoFragment = 251;    // FRAGMENT bulk-transfer layer
constexpr IpProtoNum kIpProtoChannel = 252;     // CHANNEL when run without FRAGMENT
constexpr IpProtoNum kIpProtoPsync = 253;
constexpr IpProtoNum kIpProtoSunRpc = 254;      // REQUEST_REPLY when run bare

// "Relative protocol numbers" demultiplexed by FRAGMENT and CHANNEL (their
// headers carry a 32-bit protocol_num field; see the paper's appendix).
using RelProtoNum = uint32_t;

constexpr RelProtoNum kRelProtoChannel = 1;    // CHANNEL above FRAGMENT
constexpr RelProtoNum kRelProtoPsync = 2;      // Psync above FRAGMENT
constexpr RelProtoNum kRelProtoSelect = 3;     // SELECT above CHANNEL
constexpr RelProtoNum kRelProtoRdp = 4;        // reliable datagram above CHANNEL
constexpr RelProtoNum kRelProtoSelectFwd = 5;  // forwarding selector above CHANNEL
constexpr RelProtoNum kRelProtoSunSelect = 6;  // SUN_SELECT above REQUEST_REPLY
constexpr RelProtoNum kRelProtoAuthNone = 7;   // AUTH_NONE above REQUEST_REPLY
constexpr RelProtoNum kRelProtoAuthCred = 8;   // AUTH_CRED above REQUEST_REPLY
constexpr RelProtoNum kRelProtoRequestReply = 9;  // REQUEST_REPLY above FRAGMENT
constexpr RelProtoNum kRelProtoRawTest = 10;   // test anchors above FRAGMENT/CHANNEL

}  // namespace xk

#endif  // XK_SRC_CORE_TYPES_H_
