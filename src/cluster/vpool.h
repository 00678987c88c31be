// VPOOL: a load-spreading virtual protocol (the paper's VIP technique pointed
// at replicas instead of routes).
//
// VIP demonstrates that a header-less virtual protocol can make a ROUTING
// decision -- ethernet or IP -- for the cost of a single test at push time.
// VPOOL makes a REPLICA decision the same way: it binds one virtual service
// address to a pool of N replica server stacks, and each push picks a replica
// through a pluggable deterministic policy, then rides the cached lower
// session (SELECT or any (host, command)-addressed RPC protocol) toward it.
// Like every virtual protocol it adds no header: replies demultiplex back by
// lower-session identity alone.
//
// Health: a replica is marked down when an open toward it fails or when a
// call through it errors asynchronously (CHANNEL retransmissions exhausted --
// how a crashed host manifests to its clients). Down replicas are skipped by
// every policy and readmitted on probation after `readmit_after`; a replica
// that is still dead just fails its next probe call and is marked down again.
// Per-replica balance and failover counters export through the standard
// ExportCounters observability hook.
//
// Sessions are slab-pooled and idle-tracked (the session class precedes the
// protocol so the pool member sees a complete type). Eviction reuses the same
// flush path kFlushSessions exposes to clients: a VPOOL session with nothing
// in flight drops its cached lower sessions and its command binding; one with
// a call outstanding -- or one still referenced by a client cache -- refuses.

#ifndef XK_SRC_CLUSTER_VPOOL_H_
#define XK_SRC_CLUSTER_VPOOL_H_

#include <map>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"
#include "src/sim/slab_pool.h"

namespace xk {

class VpoolProtocol;

// How VPOOL spreads calls over the up replicas.
enum class VpoolPolicy : uint8_t {
  kRoundRobin,        // strict rotation; exact balance when all replicas are up
  kWeighted,          // smooth weighted round-robin over the bound weights
  kLeastOutstanding,  // fewest calls in flight, lowest index on ties
  kHashAffinity,      // consistent-hash ring keyed per session (client, command)
};

const char* VpoolPolicyName(VpoolPolicy policy);

class VpoolSession final : public Session {
 public:
  VpoolSession(VpoolProtocol& owner, Protocol* hlp, uint16_t command, uint64_t affinity_key);

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  Session* lower_for_control() const override;
  bool CanEvict() const override;  // false while any lower has a call in flight

 private:
  friend class VpoolProtocol;

  // The cached lower session toward replica `idx`, opened on first use.
  Result<SessionRef> LowerFor(int idx);

  VpoolProtocol& pool_;
  uint16_t command_;
  uint64_t affinity_key_;
  std::vector<SessionRef> lowers_;  // per replica; null until first routed call
};

class VpoolProtocol final : public Protocol {
 public:
  // `rpc` is the real procedure-addressed protocol below (normally SELECT).
  VpoolProtocol(Kernel& kernel, Protocol* rpc, std::string name = "vpool");

  // Binds the virtual service address to its replica pool. `weights` applies
  // to kWeighted (empty = all 1). One service per VPOOL instance: opens for
  // any other peer host pass through to `rpc` untouched.
  void BindService(IpAddr vip, std::vector<IpAddr> replicas, VpoolPolicy policy,
                   std::vector<uint32_t> weights = {});

  // Probation delay before a down replica is tried again (0 = never readmit).
  void set_readmit_after(SimTime t) { readmit_after_ = t; }

  // Brownout cap (also ControlOp::kSetConcurrencyCap): a replica with this
  // many calls outstanding is skipped by every policy; when every up replica
  // is at its cap the push fails fast with BUSY -- client-side load shedding
  // before any wire traffic. 0 = uncapped (the default).
  void set_concurrency_cap(uint32_t cap) { concurrency_cap_ = cap; }

  // Circuit breaker (also ControlOp::kSetBreaker): once a replica has seen
  // `min_volume` outcomes since its window last reset, a bad-outcome ratio at
  // or above `trip_ppm` trips the breaker -- the replica is marked down and
  // the existing readmit probation doubles as the probe-before-readmit path.
  // Overload signals (BUSY, DEADLINE_EXCEEDED, RESOURCE_EXHAUSTED) feed the
  // breaker; hard failures (timeout, unreachable) still mark down at once.
  // min_volume 0 = breaker off (the default).
  void set_breaker(uint32_t min_volume, uint32_t trip_ppm) {
    breaker_min_volume_ = min_volume;
    breaker_trip_ppm_ = trip_ppm;
  }

  bool replica_up(int i) const { return replicas_[static_cast<size_t>(i)].up; }
  uint64_t replica_calls(int i) const { return replicas_[static_cast<size_t>(i)].calls; }
  uint64_t down_marks() const { return down_marks_; }
  uint64_t readmits() const { return readmits_; }
  uint64_t rerouted_opens() const { return rerouted_opens_; }
  uint64_t all_down_failures() const { return all_down_failures_; }
  uint64_t session_flushes() const { return session_flushes_; }
  uint64_t capped_rejects() const { return capped_rejects_; }
  uint64_t breaker_trips() const { return breaker_trips_; }

  // Live VpoolSessions (slab-pooled).
  size_t live_sessions() const { return sessions_.live(); }

  void SessionError(Session& lls, Status error, const Message* request) override;
  void ExportCounters(const CounterEmit& emit) const override;

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  bool EvictSession(Session& s) override;

 private:
  friend class VpoolSession;

  struct Replica {
    IpAddr addr{};
    uint32_t weight = 1;
    bool up = true;
    int64_t wrr_current = 0;  // smooth-WRR running credit
    uint64_t calls = 0;       // calls routed here (client-side ground truth)
    uint64_t errors = 0;      // open failures + asynchronous call errors
    uint64_t outstanding = 0; // in flight now (least-outstanding input)
    uint64_t window_calls = 0;  // breaker window: outcomes since last reset
    uint64_t window_bad = 0;    // breaker window: overload outcomes
    EventHandle readmit_timer;
  };

  // Picks a pickable replica per the bound policy; -1 when none qualifies.
  // `avoid` (a replica index, -1 = none) is excluded -- the hedging path uses
  // it to force the second attempt onto a different backend.
  int PickUp(uint64_t affinity_key, int avoid = -1);
  // Up, not the avoided index, and under the concurrency cap.
  bool Pickable(size_t idx, int avoid) const;
  void MarkDown(int idx);
  void Readmit(int idx);
  // Feeds one call outcome into the breaker window; trips it when the bad
  // ratio crosses the threshold at sufficient volume.
  void RecordOutcome(int idx, bool bad);

  // Drops `vs`'s cached lower sessions that have nothing in flight (the
  // kFlushSessions body; idle eviction reuses it). Returns sessions dropped.
  uint64_t FlushLowers(VpoolSession& vs);

  Protocol* rpc_;
  IpAddr vip_{};
  VpoolPolicy policy_ = VpoolPolicy::kRoundRobin;
  SimTime readmit_after_ = Msec(200);
  std::vector<Replica> replicas_;
  // Consistent-hash ring: kVnodesPerReplica points per replica, sorted.
  std::vector<std::pair<uint64_t, int>> ring_;
  size_t rr_next_ = 0;
  uint32_t concurrency_cap_ = 0;     // per-replica outstanding bound (0 = off)
  uint32_t breaker_min_volume_ = 0;  // outcomes before the breaker may trip
  uint32_t breaker_trip_ppm_ = 0;    // bad-outcome ratio that trips it
  int avoid_once_ = -1;              // one-shot exclusion (kSetAvoidReplica)
  int last_pick_ = -1;               // most recent successful pick (kGetLastPick)
  uint64_t capped_rejects_ = 0;      // pushes failed BUSY with all up replicas capped
  uint64_t breaker_trips_ = 0;
  uint64_t down_marks_ = 0;
  uint64_t readmits_ = 0;
  uint64_t rerouted_opens_ = 0;     // picks abandoned because the open failed
  uint64_t all_down_failures_ = 0;  // pushes failed with every replica down
  uint64_t session_flushes_ = 0;    // lower sessions dropped by flush/eviction
  uint64_t flush_skipped_busy_ = 0;

  SlabPool<VpoolSession> sessions_;
  DemuxMap<uint16_t> active_;              // command -> VPOOL session
  DemuxMap<Session*, SessionRef> by_lls_;  // lower session -> VPOOL session
  std::map<Session*, int> lls_replica_;    // lower session -> replica index
  std::map<Session*, uint64_t> lls_inflight_;  // flush guard (host bookkeeping)
};

}  // namespace xk

#endif  // XK_SRC_CLUSTER_VPOOL_H_
