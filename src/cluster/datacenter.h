// Datacenter-shaped topology + workload: k client segments fan in through an
// IP router to a replica-pool segment, driven by open-loop arrival processes.
//
// This is the growth step from "32 independent pairs" to a cluster-shaped
// experiment: every client runs a VPOOL (virtual service address over the
// replica pool) and an open-loop generator, all traffic funnels through the
// core router's IP forwarding, and the replicas serve an oracle-checked echo.
// Everything reported is simulated and deterministic: byte-identical run to
// run.

#ifndef XK_SRC_CLUSTER_DATACENTER_H_
#define XK_SRC_CLUSTER_DATACENTER_H_

#include <string>
#include <vector>

#include "src/app/oracle.h"
#include "src/cluster/arrivals.h"
#include "src/cluster/vpool.h"
#include "src/sim/fault.h"
#include "src/stat/histogram.h"

namespace xk {

struct DatacenterSpec {
  int client_segments = 4;     // k: segments of load generators
  int clients_per_segment = 2; // m: hosts per client segment
  int replicas = 4;            // N: server pool size (all on the server segment)
  VpoolPolicy policy = VpoolPolicy::kRoundRobin;
  std::vector<uint32_t> weights;  // kWeighted only
  ArrivalSpec arrivals;        // per-client arrival process
  size_t payload_bytes = 64;   // request payload after the 8-byte oracle id
  SimTime service_delay = 0;   // per-request replica service time
  SimTime readmit_after = Msec(150);
  // Nonzero: arm idle-session eviction (kSetIdleTimeout) on every
  // session-owning layer -- client VPOOL/SELECT/CHANNEL/VIP and the replicas'
  // stacks, including rebuilt stacks after a crash/restart. Cold sessions are
  // then reclaimed mid-run, racing retransmissions and failover.
  SimTime idle_timeout = 0;
  FaultPlan faults;            // optional campaign (replica crash, partition...)
  SimTime crash_at = 0;        // failover-timeline window for phase attribution
  SimTime restart_at = 0;      //   (0,0 = no window; normally from the plan)
  uint64_t seed = 1;

  // --- overload control (all default-off: 0 disables each mechanism) ---
  SimTime deadline = 0;          // per-call deadline, stamped by the generators
  uint32_t retry_ratio_ppm = 0;  // CHANNEL retry budget: retries per call, ppm
  uint32_t retry_burst = 0;      //   token-bucket burst, in calls' worth
  uint32_t max_inflight = 0;     // replica admission: delayed-service window
  SimTime max_backlog = 0;       // replica admission: run-queue delay bound
  uint32_t concurrency_cap = 0;  // VPOOL per-replica outstanding cap
  uint32_t breaker_min_volume = 0;  // VPOOL breaker: window volume to judge at
  uint32_t breaker_trip_ppm = 0;    //   bad-outcome ratio that trips it
  SimTime hedge_delay = 0;       // ClusterClient hedging base delay
};

struct DatacenterResult {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t success_ppm = 0;          // completed / issued, parts per million
  double offered_cps = 0;            // issued / horizon (calls per second)
  double goodput_cps = 0;            // completed / last completion time
  Histogram rtt;                     // per-call round trips, merged client order
  SimTime last_done_at = 0;
  SimTime sum_done_at = 0;           // determinism probe
  uint64_t events_fired = 0;

  // Per-replica request share, from the client-side VPOOL counters (summed
  // over clients; survives replica crashes, unlike server-side counts).
  std::vector<uint64_t> replica_calls;
  uint64_t share_spread_ppm = 0;     // (max - min) / mean over replica_calls

  // VPOOL health aggregates (summed over clients).
  uint64_t down_marks = 0;
  uint64_t readmits = 0;
  uint64_t rerouted_opens = 0;
  uint64_t all_down_failures = 0;
  uint64_t session_flushes = 0;
  uint64_t late_replies = 0;         // summed over ClusterClients
  // Idle evictions summed over the client-side stacks (VPOOL + SELECT +
  // CHANNEL + VIP); 0 unless spec.idle_timeout was set.
  uint64_t idle_evictions = 0;

  // Overload-control aggregates (all 0 with the mechanisms off).
  uint64_t shed = 0;              // calls failed DEADLINE_EXCEEDED
  uint64_t rejected = 0;          // calls failed BUSY
  uint64_t budget_exhausted = 0;  // calls failed RESOURCE_EXHAUSTED
  uint64_t hedges = 0;            // hedged second attempts issued
  uint64_t hedge_cancels = 0;     // hedges cancelled by a fast primary
  uint64_t capped_rejects = 0;    // VPOOL pushes failed with all replicas capped
  uint64_t breaker_trips = 0;     // VPOOL circuit-breaker trips

  // Failover timeline (issue-time attribution against [crash_at, restart_at)).
  struct Phase {
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t success_ppm = 0;
  };
  Phase phases[3];                   // 0 = pre, 1 = outage, 2 = post

  AmoOracle::Report oracle;

  struct RouterStat {
    std::string name;
    uint64_t forwards = 0;
    uint64_t ttl_drops = 0;
    uint64_t no_route_drops = 0;
  };
  std::vector<RouterStat> routers;

  struct SegStat {
    int segment = 0;
    uint64_t frames = 0;
    uint64_t bytes = 0;
    uint64_t utilization_ppm = 0;
    uint64_t queued_frames = 0;
    uint64_t peak_queue_depth = 0;
    int64_t wait_p99_ns = 0;
    uint64_t frames_dropped = 0;
    uint64_t down_drops = 0;
    uint64_t fault_drops = 0;
  };
  std::vector<SegStat> segments;
};

// Builds the topology, runs the workload to quiescence, tears it down.
DatacenterResult MeasureDatacenter(const DatacenterSpec& spec);

}  // namespace xk

#endif  // XK_SRC_CLUSTER_DATACENTER_H_
