// Shared-bus 10 Mbps Ethernet segment.
//
// The link carries frames between attached stations. A frame holds a copy
// of the sending driver's Message, not a flattened copy of its bytes: payload
// chunks and the header arena are shared by reference from the sender's
// stack to every receiver (the paper's message tool, carried across the
// wire), so the host copies frame bytes only to corrupt one or to capture
// it. Simulated cost is unaffected: the drivers charge the device copy the
// real hardware makes. Transmissions serialize on the bus (a frame ready
// while the bus is busy queues behind it, which is what lets back-to-back
// fragments of a 16 KB message saturate the wire). Delivery filters on the
// destination address in the frame's first six bytes; broadcast frames go to
// every station except the sender.
//
// Every delivery is one event on the queue, scheduled as Transmit walks the
// stations in attachment order, so a broadcast reaches its receivers at the
// same instant in station order.
//
// Fault injection: a uniform drop rate, and one hook (FaultEngine's, or a
// test's) that can drop, duplicate, delay or corrupt individual deliveries,
// to drive every retransmission path in the protocols above.

#ifndef XK_SRC_SIM_LINK_H_
#define XK_SRC_SIM_LINK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/message.h"
#include "src/core/types.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/stat/histogram.h"

namespace xk {

class PacketCapture;
class TraceSink;

// A raw Ethernet frame on the wire: header (dst, src, type) + payload, as a
// Message holding wire bytes only (Message::WireCopy). Receivers demux their
// own copies of it, which share its storage. Only the Ethernet protocol
// interprets the full framing; the link peeks at the destination address for
// delivery filtering.
struct EthFrame {
  Message msg;

  // Host-side observability bookkeeping, never serialized: the trace id of
  // the Message this frame carries, stamped by the transmitting driver so
  // wire records and the receive path can be tied back to the sender's
  // spans. Not wire bytes -- packet formats and timing are unchanged.
  uint64_t trace_msg_id = 0;

  EthAddr Dst() const;
  EthAddr Src() const;

  // Called when a pooled frame is parked (AcquirePooled): a parked frame
  // must not pin the arena and payload blocks of the message it carried.
  void Park() { msg = Message(); }
};

// Implemented by network interfaces (device drivers) attached to a segment.
class FrameSink {
 public:
  virtual ~FrameSink() = default;

  // Called at frame arrival time. The sink is responsible for charging
  // interrupt and copy costs to its host CPU. The frame is only borrowed for
  // the duration of the call.
  virtual void FrameArrived(const EthFrame& frame) = 0;
};

// Per-delivery fault decision.
enum class LinkFault : uint8_t {
  kDeliver,
  kDrop,
  kDuplicate,  // deliver twice (second copy one transmit-time later)
  kCorrupt,    // deliver with one byte's bits flipped (default: the last)
};

// A per-delivery fault decision: the verdict plus an extra in-flight delay
// and, for kCorrupt, which byte to flip (SIZE_MAX = the last byte). Converts
// from a bare verdict, so a hook may return just a LinkFault.
struct DeliveryFault {
  DeliveryFault(LinkFault v = LinkFault::kDeliver) : verdict(v) {}  // NOLINT
  LinkFault verdict;
  SimTime extra_delay = 0;
  size_t corrupt_offset = SIZE_MAX;
};

class EthernetSegment {
 public:
  EthernetSegment(EventQueue& events, WireModel wire, uint64_t fault_seed = 1);

  // Attaches a station; returns its attachment id. Re-attaching the address
  // of a detached station reuses its id, so a host that crashes and restarts
  // keeps its slot.
  int Attach(EthAddr addr, FrameSink* sink);

  // Detaches station `id` (its NIC went down). In-flight frames addressed to
  // it are dropped at arrival time and counted in down_drops().
  void Detach(int id);

  // Queues `frame` for transmission; the frame was handed to the controller
  // at `ready_at` (the sending CPU's task clock). Transmission starts when
  // the bus frees up. The frame travels by shared_ptr the whole way
  // (driver -> segment -> receivers), so every receiver reads the same one;
  // the by-value overload wraps for callers that build frames ad hoc.
  void Transmit(int sender_id, std::shared_ptr<EthFrame> frame, SimTime ready_at);
  void Transmit(int sender_id, EthFrame frame, SimTime ready_at);

  // Uniform random drop probability applied to every delivery.
  void set_drop_rate(double p) { drop_rate_ = p; }

  // Fault hook consulted per (frame, receiver) delivery, after the uniform
  // drop rate. `delivery_index` counts deliveries since construction so tests
  // can target "the 3rd frame"; `arrival` is the delivery's scheduled arrival
  // time before any extra delay the hook adds. Null removes it.
  using FaultHook = std::function<DeliveryFault(const EthFrame& frame, int receiver_id,
                                                uint64_t delivery_index, SimTime arrival)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  const WireModel& wire() const { return wire_; }

  // --- observability ----------------------------------------------------------
  // Optional observers (owned by the caller; null detaches). Recording never
  // charges simulated cost or advances the simulated clock.
  void set_trace(TraceSink* trace) { trace_ = trace; }
  void set_capture(PacketCapture* capture) { capture_ = capture; }
  // Segment id stamped into wire/capture records (set by the topology).
  void set_observer_id(int id) { observer_id_ = id; }

  // --- statistics ------------------------------------------------------------
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t frames_dropped() const { return frames_dropped_; }
  // Fault-injection outcomes, by cause. frames_dropped() counts both drop
  // kinds; duplicates/corruptions count deliveries that were altered.
  uint64_t random_drops() const { return random_drops_; }
  uint64_t fault_drops() const { return fault_drops_; }
  uint64_t fault_duplicates() const { return fault_duplicates_; }
  uint64_t fault_corruptions() const { return fault_corruptions_; }
  // Frames that arrived at a detached station (receiver host was down).
  // Not part of frames_dropped(): the wire delivered them; the NIC was gone.
  uint64_t down_drops() const { return down_drops_; }
  // Total time the bus spent transmitting (utilization = busy/elapsed).
  SimTime bus_busy_time() const { return bus_busy_time_; }

  // --- queueing statistics ----------------------------------------------------
  // A frame "queued" if the bus was busy when its sender handed it over
  // (start > ready). Depth is measured at each bus acquisition: frames still
  // waiting behind the acquiring one, including it if it had to wait.
  uint64_t queued_frames() const { return queued_frames_; }
  uint64_t peak_queue_depth() const { return peak_queue_depth_; }
  // Mean depth over all sent frames, scaled by 1000 (integer, for
  // deterministic JSON).
  uint64_t mean_queue_depth_x1000() const {
    return frames_sent_ == 0 ? 0 : queue_depth_sum_ * 1000 / frames_sent_;
  }
  // Per-frame queueing delay (start - ready), as a histogram.
  const Histogram& queue_wait() const { return queue_wait_; }

 private:
  struct Station {
    EthAddr addr;
    FrameSink* sink;
  };

  void DeliverAt(SimTime at, std::shared_ptr<const EthFrame> frame, int receiver_id);

  // Fires one delivery: looks the sink up NOW (not at schedule time), so a
  // frame in flight toward a host that crashed meanwhile is dropped here
  // rather than delivered through a dangling pointer.
  void FireDelivery(int receiver_id, const EthFrame& frame);

  EventQueue& events_;
  WireModel wire_;
  Rng rng_;
  std::vector<Station> stations_;
  SimTime bus_free_at_ = 0;
  double drop_rate_ = 0.0;
  FaultHook fault_hook_;
  uint64_t delivery_index_ = 0;

  TraceSink* trace_ = nullptr;
  PacketCapture* capture_ = nullptr;
  int observer_id_ = 0;

  uint64_t frames_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t random_drops_ = 0;
  uint64_t fault_drops_ = 0;
  uint64_t fault_duplicates_ = 0;
  uint64_t fault_corruptions_ = 0;
  uint64_t down_drops_ = 0;
  SimTime bus_busy_time_ = 0;

  // Start times of frames that have not begun transmitting as of the last
  // arrival (bus state, like bus_free_at_).
  std::deque<SimTime> pending_starts_;
  uint64_t queued_frames_ = 0;
  uint64_t peak_queue_depth_ = 0;
  uint64_t queue_depth_sum_ = 0;
  Histogram queue_wait_;
};

}  // namespace xk

#endif  // XK_SRC_SIM_LINK_H_
