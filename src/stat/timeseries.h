// Sampled time series: sim-clock-driven metric snapshots at zero simulated
// cost, alongside src/trace.
//
// A StatSampler emits one sample per host and per segment at every multiple
// of its period. It never schedules events, charges cost, or touches an Rng:
// host samples are taken by a read-only probe the EventQueue consults before
// firing each event (EventQueue::StatProbe), and segment samples are driven
// by the bus-acquisition stream EthernetSegment::Transmit already produces.
// That makes a sampled run bit-identical (in every simulated metric, trace,
// and capture) to an unsampled one.
//
// A sample at boundary S reflects, for each entity, exactly the state
// produced by the events with firing time < S, so the sample values -- and
// the canonically sorted JSONL this class writes -- are byte-identical run
// to run.
//
// Lifetime: like TraceSink, the sampler is owned by the caller and must
// outlive every Internet attached to it (Internet detaches itself on
// destruction, but kernels and segments hold raw pointers while alive).

#ifndef XK_SRC_STAT_TIMESERIES_H_
#define XK_SRC_STAT_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/sim/event_queue.h"

namespace xk {

class Kernel;
class StatSampler;

// One emitted sample line, timestamped for the canonical merge.
struct StatLine {
  SimTime t = 0;
  std::string text;
};

// Per-host series: ready-task count, CPU backlog and cumulative busy time,
// and every protocol gauge (ExportGauges), sampled at period boundaries.
class HostSeries {
 private:
  friend class StatSampler;

  void FlushTo(SimTime t);
  void EmitSample(SimTime at);

  Kernel* kernel_ = nullptr;  // nulled when the owning Internet is destroyed
  int net_ = 0;
  int idx_ = 0;  // registration order within the net (sort key)
  SimTime period_ = 0;
  SimTime next_ = 0;  // next un-emitted boundary
  std::vector<StatLine> lines_;
};

// Per-segment series fed by EthernetSegment::Transmit: cumulative
// frames/bytes/busy time, windowed bus utilization, and the queue depth
// observed at the last bus acquisition.
class SegmentSeries {
 public:
  // One bus acquisition: the transmission started at `start` (strictly
  // monotone across calls), held the bus for `tx_time`, carried `bytes`, and
  // found `queue_depth` frames still waiting behind it.
  void OnTransmit(SimTime start, SimTime tx_time, uint64_t bytes, uint64_t queue_depth);

 private:
  friend class StatSampler;

  void FlushTo(SimTime t);
  void EmitSample(SimTime at);

  int net_ = 0;
  int segment_ = 0;
  SimTime period_ = 0;
  SimTime next_ = 0;
  uint64_t frames_ = 0;
  uint64_t bytes_ = 0;
  SimTime busy_ = 0;
  SimTime busy_at_boundary_ = 0;  // busy_ when the previous sample was cut
  uint64_t last_depth_ = 0;
  std::vector<StatLine> lines_;
};

class StatSampler {
 public:
  explicit StatSampler(SimTime period = Msec(1));
  ~StatSampler();

  StatSampler(const StatSampler&) = delete;
  StatSampler& operator=(const StatSampler&) = delete;

  SimTime period() const { return period_; }

  // --- registration (called by Internet) --------------------------------------
  // Allocates an id for one attached Internet; samples carry it so several
  // sequentially-built topologies can share a sampler.
  int AttachNet();
  void RegisterKernel(int net, Kernel& kernel);
  // Creates the series; the caller wires it into the segment
  // (EthernetSegment::set_stats).
  SegmentSeries* RegisterSegment(int net, int segment_id);
  // Emits every boundary <= t for `net` (end-of-run tail; idempotent).
  void FlushNet(int net, SimTime t);
  // Removes probes and kernel pointers for `net`; recorded samples stay.
  void DetachNet(int net);

  // --- output -----------------------------------------------------------------
  // JSON-lines: one meta line, then samples sorted by (net, t, kind, index)
  // -- a canonical order independent of the order host probes and segment
  // transmissions emitted them.
  std::string ToJsonl() const;
  size_t num_samples() const;

  // --- thread default ---------------------------------------------------------
  // An Internet constructed on this thread attaches the thread-default
  // sampler, mirroring TraceSink::thread_default().
  static StatSampler* thread_default();
  static void set_thread_default(StatSampler* sampler);

 private:
  // One probe per event queue (each attached Internet has one). Flushes its
  // hosts' boundaries <= the firing time, before the event runs.
  struct QueueProbe : EventQueue::StatProbe {
    EventQueue* queue = nullptr;  // nulled by DetachNet
    int net = 0;
    SimTime min_next = kSimTimeNever;
    std::vector<HostSeries*> hosts;
    void BeforeFire(SimTime at) override;
  };

  SimTime period_;
  int next_net_ = 0;
  // deques: registration returns stable pointers into these.
  std::deque<HostSeries> hosts_;
  std::deque<SegmentSeries> segments_;
  std::vector<std::unique_ptr<QueueProbe>> probes_;
};

}  // namespace xk

#endif  // XK_SRC_STAT_TIMESERIES_H_
