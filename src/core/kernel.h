// A Kernel is one simulated host: an instance of the x-kernel (or of a
// baseline environment) holding a protocol graph, a CPU, timers, and the
// accounting helpers protocols use to charge their work.
//
// Kernels for one experiment share an EventQueue (the simulation's clock) and
// are attached to EthernetSegments through their Ethernet driver protocols.

#ifndef XK_SRC_CORE_KERNEL_H_
#define XK_SRC_CORE_KERNEL_H_

#include <cstdarg>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/message.h"
#include "src/core/protocol.h"
#include "src/core/types.h"
#include "src/sim/cost_model.h"
#include "src/sim/cpu.h"
#include "src/sim/event_queue.h"

namespace xk {

class TraceSink;

class Kernel {
 public:
  Kernel(std::string host_name, EventQueue& events, HostEnv env, IpAddr ip, EthAddr eth);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- identity ---------------------------------------------------------------
  const std::string& host_name() const { return host_name_; }
  IpAddr ip_addr() const { return ip_; }
  EthAddr eth_addr() const { return eth_; }
  HostEnv env() const { return env_; }

  // Monotonic per-boot identifier (CHANNEL and Sprite RPC use it to detect
  // reboots).
  uint32_t boot_id() const { return boot_id_; }

  // Simulates a host crash: cancels every pending task and timer on this
  // kernel, then destroys the whole protocol graph (top-first, like the
  // destructor) so all in-memory protocol state -- sessions, sequence
  // numbers, duplicate filters -- is lost exactly as a real crash loses it.
  // The kernel object itself survives; Internet::RestartHost rebuilds the
  // graph and brings the host back up.
  void Crash();

  // Brings a crashed host back up under a new boot id. The caller (normally
  // Internet::RestartHost) rebuilds the protocol graph afterwards.
  void Restart();

  // False between Crash() and Restart().
  bool is_up() const { return up_; }

  // --- simulation access ------------------------------------------------------
  EventQueue& events() { return events_; }
  Cpu& cpu() { return cpu_; }
  const CostModel& costs() const { return costs_; }
  SimTime now() const { return cpu_.in_task() ? cpu_.now() : events_.now(); }

  // --- tasks ------------------------------------------------------------------
  // Runs `fn` as a shepherd task dispatched at event time `at` (begins at
  // max(at, cpu busy_until)). Templated so the callable is invoked directly,
  // with no std::function wrapper on the frame-arrival hot path.
  template <typename F>
  void RunTask(SimTime at, F&& fn) {
    cpu_.BeginTask(at);
    fn();
    cpu_.EndTask();
  }

  // Schedules `fn` to run as a task after `delay` of simulated time. The
  // closure travels to the event queue as-is (one EventFn, usually inline in
  // the slab slot) rather than through a std::function indirection.
  template <typename F>
  EventHandle ScheduleTask(SimTime delay, F fn) {
    ++tasks_pending_;
    EventHandle h = events_.ScheduleIn(delay, [this, fn = std::move(fn)]() mutable {
      if (tasks_pending_ > 0) {
        --tasks_pending_;
      }
      RunTask(events_.now(), fn);
    });
    TrackPending(h);
    return h;
  }

  // --- timers -----------------------------------------------------------------
  // Sets a timeout that fires `delay` from now as a task on this kernel.
  // Charges timer_set. Must be called from within a task.
  template <typename F>
  EventHandle SetTimer(SimTime delay, F fn) {
    cpu_.Charge(costs_.timer_set);
    const SimTime fire_at = cpu_.now() + delay;
    ++tasks_pending_;
    EventHandle h = events_.ScheduleAt(fire_at, [this, fn = std::move(fn)]() mutable {
      if (tasks_pending_ > 0) {
        --tasks_pending_;
      }
      RunTask(events_.now(), fn);
    });
    TrackPending(h);
    return h;
  }

  // Cancels a pending timer, charging timer_cancel if it was still pending.
  void CancelTimer(EventHandle& handle);

  // Tasks and timers scheduled on this kernel that have not yet started (the
  // host's ready/pending queue depth). Host-side gauge for the stat sampler;
  // maintained by ScheduleTask/SetTimer/CancelTimer, never charged.
  uint64_t tasks_pending() const { return tasks_pending_; }

  // --- protocol graph ---------------------------------------------------------
  // Takes ownership; protocols are destroyed in reverse insertion order
  // (top-most last-added protocols die before the substrates they use).
  Protocol& Add(std::unique_ptr<Protocol> proto);

  template <typename T, typename... Args>
  T& Emplace(Args&&... args) {
    auto p = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *p;
    Add(std::move(p));
    return ref;
  }

  // Looks up a protocol by name; null if absent.
  Protocol* Find(const std::string& name) const;

  // Visits every protocol in insertion (configuration) order.
  void ForEachProtocol(const std::function<void(const Protocol&)>& fn) const {
    for (const auto& p : protocols_) {
      fn(*p);
    }
  }

  // --- cost accounting helpers (see CostModel) --------------------------------
  void Charge(SimTime cost) { cpu_.Charge(cost); }
  void ChargeProcCall() { cpu_.Charge(costs_.proc_call); }
  // One layer crossing (Push or Demux): procedure call + environment extras.
  // Inline: these run on every message at every layer.
  void ChargeLayerCross() {
    cpu_.Charge(costs_.proc_call + costs_.layer_cross_extra + costs_.buffer_alloc);
  }
  void ChargeHdrStore(size_t bytes) {
    SimTime cost = costs_.hdr_store_fixed +
                   static_cast<SimTime>(static_cast<double>(bytes) *
                                        static_cast<double>(costs_.hdr_store_per_byte));
    if (Message::default_alloc_policy() == HeaderAllocPolicy::kPerLayerAlloc) {
      cost += costs_.hdr_alloc_extra;
    }
    cpu_.Charge(cost);
  }
  void ChargeHdrLoad(size_t bytes) {
    SimTime cost = costs_.hdr_load_fixed +
                   static_cast<SimTime>(static_cast<double>(bytes) *
                                        static_cast<double>(costs_.hdr_load_per_byte));
    if (Message::default_alloc_policy() == HeaderAllocPolicy::kPerLayerAlloc) {
      cost += costs_.hdr_free_extra;
    }
    cpu_.Charge(cost);
  }
  void ChargeMapResolve() { cpu_.Charge(costs_.map_resolve); }
  void ChargeMapBind() { cpu_.Charge(costs_.map_bind); }
  // Removing a binding probes and unlinks just like installing one, so it
  // costs the same map_bind price (the paper's map tool has no cheaper
  // removal path).
  void ChargeMapUnbind() { cpu_.Charge(costs_.map_bind); }
  void ChargeSemOp() { cpu_.Charge(costs_.sem_op); }
  void ChargeProcessSwitch() { cpu_.Charge(costs_.process_switch); }
  void ChargeDevCopy(size_t bytes) {
    cpu_.Charge(static_cast<SimTime>(static_cast<double>(bytes) *
                                     static_cast<double>(costs_.dev_copy_per_byte)));
  }
  void ChargeDevStart() { cpu_.Charge(costs_.dev_start); }
  void ChargeIntr() { cpu_.Charge(costs_.intr_overhead); }
  void ChargeChecksum(size_t bytes) {
    cpu_.Charge(costs_.checksum_fixed +
                static_cast<SimTime>(static_cast<double>(bytes) *
                                     static_cast<double>(costs_.checksum_per_byte)));
  }
  void ChargeMsgSlice() { cpu_.Charge(costs_.msg_slice); }
  void ChargeMsgJoin() { cpu_.Charge(costs_.msg_join); }
  void ChargeSessionCreate() { cpu_.Charge(costs_.session_create); }
  void ChargeSessionDestroy() { cpu_.Charge(costs_.session_destroy); }

  // --- tracing ----------------------------------------------------------------
  // The structured sink the entry-point spans and Tracef record into; null
  // (the default) disables recording. Attaching a sink never perturbs the
  // simulation -- recording charges zero simulated cost.
  TraceSink* trace_sink() const { return trace_; }
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  // printf-style logging into the trace subsystem: records a structured log
  // event when a sink is attached, and does nothing otherwise.
  void Tracef(int level, const char* fmt, ...) __attribute__((format(printf, 3, 4)));

 private:
  std::string host_name_;
  EventQueue& events_;
  HostEnv env_;
  CostModel costs_;
  Cpu cpu_;
  IpAddr ip_;
  EthAddr eth_;
  uint32_t boot_id_;
  uint64_t tasks_pending_ = 0;
  bool up_ = true;
  TraceSink* trace_ = nullptr;

  // Every pending task/timer handle, so Crash() can cancel the lot (their
  // closures capture protocol objects the crash destroys). Fired and
  // cancelled handles are compacted lazily.
  std::vector<EventHandle> pending_handles_;
  void TrackPending(EventHandle handle);

  std::vector<std::unique_ptr<Protocol>> protocols_;
  std::map<std::string, Protocol*> by_name_;
};

}  // namespace xk

#endif  // XK_SRC_CORE_KERNEL_H_
