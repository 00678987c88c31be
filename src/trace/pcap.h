// Link-level packet capture: a pcap-style ring buffer attached to an
// EthernetSegment. Every (frame, receiver) delivery decision is recorded with
// simulated timestamps, the fault-injection verdict, and the leading frame
// bytes, so tests and tools can see exactly what the fault hook did to the
// wire. Like the trace sink, capturing charges zero simulated cost.

#ifndef XK_SRC_TRACE_PCAP_H_
#define XK_SRC_TRACE_PCAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/types.h"

namespace xk {

// What the link decided to do with one (frame, receiver) delivery.
enum class CaptureVerdict : uint8_t {
  kDelivered,
  kDropped,     // random drop rate or a fault hook kDrop
  kDuplicated,  // delivered twice
  kCorrupted,   // delivered with flipped bits
};

const char* CaptureVerdictName(CaptureVerdict v);

class PacketCapture {
 public:
  // Ring of `capacity` records; each keeps the first `snaplen` frame bytes.
  explicit PacketCapture(size_t capacity = 65536, size_t snaplen = 128);

  PacketCapture(const PacketCapture&) = delete;
  PacketCapture& operator=(const PacketCapture&) = delete;

  void Record(int segment, int receiver_id, SimTime tx_start, SimTime arrival,
              const std::vector<uint8_t>& frame, CaptureVerdict verdict);

  // JSON-lines, oldest record first; `seq` is the capture-order sequence
  // number (monotonic even after the ring wraps).
  std::string ToJsonl() const;

  void Clear();

  // Records currently held (<= capacity).
  size_t size() const { return ring_.size(); }
  uint64_t verdict_count(CaptureVerdict v) const {
    return verdict_counts_[static_cast<size_t>(v)];
  }

  // Thread-default instance picked up by Internet, like TraceSink's.
  static PacketCapture* thread_default();
  static void set_thread_default(PacketCapture* capture);

 private:
  struct Rec {
    uint64_t seq = 0;
    int segment = 0;
    int receiver = 0;
    SimTime tx_start = 0;
    SimTime arrival = 0;
    uint64_t len = 0;  // full frame length
    CaptureVerdict verdict = CaptureVerdict::kDelivered;
    std::vector<uint8_t> bytes;  // first snaplen bytes
  };

  size_t capacity_;
  size_t snaplen_;
  std::vector<Rec> ring_;
  size_t head_ = 0;  // index of the oldest record once the ring is full
  uint64_t next_seq_ = 0;
  uint64_t verdict_counts_[4] = {0, 0, 0, 0};
};

}  // namespace xk

#endif  // XK_SRC_TRACE_PCAP_H_
