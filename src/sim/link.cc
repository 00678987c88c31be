#include "src/sim/link.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

#include "src/sim/object_pool.h"
#include "src/trace/pcap.h"
#include "src/trace/trace.h"

namespace xk {

namespace {
// The address at `off` (0 = destination, 6 = source); all zero if the frame
// is too short to hold it.
EthAddr AddrAt(const Message& msg, size_t off) {
  std::array<uint8_t, 12> head = {};
  std::array<uint8_t, 6> a = {};
  if (msg.length() >= off + 6) {
    msg.CopyOut(head);
    std::copy_n(head.begin() + static_cast<ptrdiff_t>(off), 6, a.begin());
  }
  return EthAddr(a);
}
}  // namespace

EthAddr EthFrame::Dst() const { return AddrAt(msg, 0); }
EthAddr EthFrame::Src() const { return AddrAt(msg, 6); }

EthernetSegment::EthernetSegment(EventQueue& events, WireModel wire, uint64_t fault_seed)
    : events_(events), wire_(wire), rng_(fault_seed) {}

int EthernetSegment::Attach(EthAddr addr, FrameSink* sink) {
  // A restarting host reclaims its old slot so station ids (and with them the
  // sender ids captured by upper layers) stay stable across crash/restart.
  for (size_t i = 0; i < stations_.size(); ++i) {
    if (stations_[i].sink == nullptr && stations_[i].addr == addr) {
      stations_[i].sink = sink;
      return static_cast<int>(i);
    }
  }
  stations_.push_back(Station{addr, sink});
  return static_cast<int>(stations_.size()) - 1;
}

void EthernetSegment::Detach(int id) { stations_[id].sink = nullptr; }

void EthernetSegment::FireDelivery(int receiver_id, const EthFrame& frame) {
  FrameSink* sink = stations_[receiver_id].sink;
  if (sink == nullptr) {
    ++down_drops_;
    return;
  }
  sink->FrameArrived(frame);
}

void EthernetSegment::DeliverAt(SimTime at, std::shared_ptr<const EthFrame> frame,
                                int receiver_id) {
  // The sink is looked up when the event fires, not here: the receiver may
  // crash (detach) while the frame is in flight.
  events_.ScheduleAt(at,
                     [this, receiver_id, f = std::move(frame)]() { FireDelivery(receiver_id, *f); });
}

void EthernetSegment::Transmit(int sender_id, EthFrame frame, SimTime ready_at) {
  auto pooled = AcquirePooled<EthFrame>();
  *pooled = std::move(frame);
  Transmit(sender_id, std::move(pooled), ready_at);
}

void EthernetSegment::Transmit(int sender_id, std::shared_ptr<EthFrame> frame,
                               SimTime ready_at) {
  assert(sender_id >= 0 && static_cast<size_t>(sender_id) < stations_.size());
  const SimTime start = ready_at > bus_free_at_ ? ready_at : bus_free_at_;
  const size_t len = frame->msg.length();
  const SimTime tx = wire_.TransmitTime(len);
  const SimTime end = start + tx;
  bus_free_at_ = end;
  bus_busy_time_ += tx;
  ++frames_sent_;
  bytes_sent_ += len;

  // Queueing statistics. Frames whose start is at or before our ready time
  // have begun transmitting; the rest (plus this frame, if it had to wait)
  // are queued behind the bus.
  while (!pending_starts_.empty() && pending_starts_.front() <= ready_at) {
    pending_starts_.pop_front();
  }
  const SimTime wait = start - ready_at;
  pending_starts_.push_back(start);
  const uint64_t depth = pending_starts_.size() - (wait == 0 ? 1 : 0);
  if (wait > 0) {
    ++queued_frames_;
  }
  queue_depth_sum_ += depth;
  if (depth > peak_queue_depth_) {
    peak_queue_depth_ = depth;
  }
  queue_wait_.Record(wait);

  // Receivers share one immutable frame; only a corrupted delivery copies.
  const std::shared_ptr<const EthFrame> shared = std::move(frame);
  const EthAddr dst = shared->Dst();
  const bool broadcast = dst.IsBroadcast();
  const SimTime arrival = end + wire_.propagation;

  if (trace_ != nullptr) {
    trace_->RecordWire(observer_id_, start, end, arrival, len, depth, wait,
                       shared->trace_msg_id);
  }
  std::vector<uint8_t> captured;  // flat bytes, made only for a capture
  if (capture_ != nullptr) {
    shared->msg.FlattenInto(captured);
  }

  for (size_t i = 0; i < stations_.size(); ++i) {
    const int rid = static_cast<int>(i);
    if (rid == sender_id) {
      continue;
    }
    if (!broadcast && stations_[i].addr != dst) {
      continue;
    }
    const uint64_t index = delivery_index_++;
    CaptureVerdict verdict = CaptureVerdict::kDelivered;
    if (drop_rate_ > 0.0 && rng_.Chance(drop_rate_)) {
      ++frames_dropped_;
      ++random_drops_;
      verdict = CaptureVerdict::kDropped;
    } else {
      const DeliveryFault fault =
          fault_hook_ ? fault_hook_(*shared, rid, index, arrival) : DeliveryFault();
      const SimTime at = arrival + fault.extra_delay;
      if (fault.extra_delay > 0) {
        ++fault_delays_;
      }
      switch (fault.verdict) {
        case LinkFault::kDrop:
          ++frames_dropped_;
          ++fault_drops_;
          verdict = CaptureVerdict::kDropped;
          break;
        case LinkFault::kDuplicate:
          ++fault_duplicates_;
          verdict = CaptureVerdict::kDuplicated;
          DeliverAt(at, shared, rid);
          DeliverAt(at + tx, shared, rid);
          break;
        case LinkFault::kCorrupt: {
          ++fault_corruptions_;
          verdict = CaptureVerdict::kCorrupted;
          // The one place a delivery copies frame bytes: flatten, flip, rebuild.
          std::vector<uint8_t> bytes = shared->msg.Flatten();
          if (!bytes.empty()) {
            const size_t off =
                fault.corrupt_offset < bytes.size() ? fault.corrupt_offset : bytes.size() - 1;
            bytes[off] ^= 0xFF;
          }
          auto bad_frame = AcquirePooled<EthFrame>();
          bad_frame->msg = Message::FromBytes(bytes);
          bad_frame->trace_msg_id = shared->trace_msg_id;
          DeliverAt(at, std::move(bad_frame), rid);
          break;
        }
        case LinkFault::kDeliver:
          DeliverAt(at, shared, rid);
          break;
      }
    }
    if (capture_ != nullptr) {
      capture_->Record(observer_id_, rid, start, arrival, captured, verdict);
    }
  }
}

void EthernetSegment::ResetStats() {
  frames_sent_ = 0;
  bytes_sent_ = 0;
  frames_dropped_ = 0;
  random_drops_ = 0;
  fault_drops_ = 0;
  fault_duplicates_ = 0;
  fault_corruptions_ = 0;
  fault_delays_ = 0;
  down_drops_ = 0;
  bus_busy_time_ = 0;
  queued_frames_ = 0;
  peak_queue_depth_ = 0;
  queue_depth_sum_ = 0;
  queue_wait_.Reset();
}

}  // namespace xk
