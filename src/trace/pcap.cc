#include "src/trace/pcap.h"

#include <algorithm>

#include "src/trace/json_util.h"

namespace xk {

namespace {
thread_local PacketCapture* g_thread_default = nullptr;

constexpr char kHexDigits[] = "0123456789abcdef";

void AppendHex(std::string& out, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out += kHexDigits[p[i] >> 4];
    out += kHexDigits[p[i] & 0xF];
  }
}

// Ethernet addresses straight off the frame (dst at 0, src at 6), formatted
// aa:bb:cc:dd:ee:ff; "?" when the frame is too short to carry them.
void AppendEthAddr(std::string& out, const std::vector<uint8_t>& bytes, size_t off) {
  if (bytes.size() < off + 6) {
    out += '?';
    return;
  }
  for (size_t i = 0; i < 6; ++i) {
    if (i > 0) {
      out += ':';
    }
    out += kHexDigits[bytes[off + i] >> 4];
    out += kHexDigits[bytes[off + i] & 0xF];
  }
}
}  // namespace

const char* CaptureVerdictName(CaptureVerdict v) {
  switch (v) {
    case CaptureVerdict::kDelivered:
      return "delivered";
    case CaptureVerdict::kDropped:
      return "dropped";
    case CaptureVerdict::kDuplicated:
      return "duplicated";
    case CaptureVerdict::kCorrupted:
      return "corrupted";
  }
  return "?";
}

PacketCapture* PacketCapture::thread_default() { return g_thread_default; }

void PacketCapture::set_thread_default(PacketCapture* capture) { g_thread_default = capture; }

PacketCapture::PacketCapture(size_t capacity, size_t snaplen)
    : capacity_(capacity == 0 ? 1 : capacity), snaplen_(snaplen) {}

void PacketCapture::Record(int segment, int receiver_id, SimTime tx_start, SimTime arrival,
                           const std::vector<uint8_t>& frame, CaptureVerdict verdict) {
  Rec r;
  r.seq = next_seq_++;
  r.segment = segment;
  r.receiver = receiver_id;
  r.tx_start = tx_start;
  r.arrival = arrival;
  r.len = frame.size();
  r.verdict = verdict;
  r.bytes.assign(frame.begin(), frame.begin() + std::min(frame.size(), snaplen_));
  ++verdict_counts_[static_cast<size_t>(verdict)];
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(r));
  } else {
    ring_[head_] = std::move(r);
    head_ = (head_ + 1) % capacity_;
  }
}

std::string PacketCapture::ToJsonl() const {
  std::string out;
  out.reserve(ring_.size() * 160 + 128);
  out += "{\"k\":\"meta\",\"v\":1,\"records\":" + std::to_string(ring_.size()) +
         ",\"captured\":" + std::to_string(next_seq_) +
         ",\"snaplen\":" + std::to_string(snaplen_) + "}\n";
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Rec& r = ring_[(head_ + i) % ring_.size()];
    out += "{\"k\":\"pkt\"";
    JsonAppendField(out, "seq", r.seq);
    JsonAppendField(out, "seg", static_cast<int64_t>(r.segment));
    JsonAppendField(out, "rcv", static_cast<int64_t>(r.receiver));
    JsonAppendField(out, "t_tx", r.tx_start);
    JsonAppendField(out, "t_rx", r.arrival);
    JsonAppendField(out, "len", r.len);
    JsonAppendField(out, "verdict", CaptureVerdictName(r.verdict));
    out += ",\"dst\":\"";
    AppendEthAddr(out, r.bytes, 0);
    out += "\",\"src\":\"";
    AppendEthAddr(out, r.bytes, 6);
    out += "\",\"bytes\":\"";
    AppendHex(out, r.bytes.data(), r.bytes.size());
    out += "\"}\n";
  }
  return out;
}

void PacketCapture::Clear() {
  ring_.clear();
  head_ = 0;
  next_seq_ = 0;
  for (uint64_t& c : verdict_counts_) {
    c = 0;
  }
}

}  // namespace xk
