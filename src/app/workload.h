// Workload drivers reproducing the paper's measurement methodology
// (Section 4): latency = round-trip of a null call averaged over many
// iterations; throughput = round-trip of large requests with null replies;
// incremental cost = slope of the 1k..16k sweep.

#ifndef XK_SRC_APP_WORKLOAD_H_
#define XK_SRC_APP_WORKLOAD_H_

#include <functional>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/message.h"
#include "src/proto/topology.h"
#include "src/stat/histogram.h"

namespace xk {

class AmoOracle;

// Issues one call carrying `args`; must invoke `done` exactly once.
using CallFn = std::function<void(Message args, std::function<void(Result<Message>)> done)>;

struct LatencyResult {
  SimTime per_call = 0;  // average round-trip
  int completed = 0;
  int failed = 0;
  Histogram rtt;  // per-call round-trip times
};

struct ThroughputResult {
  SimTime elapsed = 0;
  size_t bytes_per_call = 0;
  int completed = 0;
  int failed = 0;
  double kbytes_per_sec = 0.0;  // payload bytes delivered / elapsed
  SimTime client_cpu = 0;       // CPU busy time per call
  SimTime server_cpu = 0;
  Histogram rtt;  // per-call round-trip times
};

// Chaos workload parameters (RunChaos).
struct ChaosSpec {
  size_t payload_bytes = 64;  // request payload after the oracle's 8-byte id
  int calls = 200;            // sequential calls issued
  SimTime gap = Msec(2);      // pause between a call settling and the next issue
  SimTime crash_at = 0;       // when the fault plan crashes the server (for
                              // recovery-latency attribution); 0 = no crash
};

struct ChaosResult {
  int issued = 0;
  int completed = 0;
  int failed = 0;            // surfaced failures (never silent -- oracle checks)
  SimTime elapsed = 0;       // first issue to last settlement
  SimTime recovery_latency = 0;  // first success at/after crash_at, minus crash_at
  SimTime last_failure_at = 0;
  Histogram rtt;             // per-call round-trips, failures included
};

struct ManyPairsResult {
  SimTime elapsed = 0;  // first issue to last completion, across all pairs
  int completed = 0;
  int failed = 0;
  double agg_kbytes_per_sec = 0.0;  // all pairs' payload bytes / elapsed
  SimTime sum_done_at = 0;          // sum of per-pair completion times (determinism probe)
  Histogram rtt;                    // per-call round-trips, merged across pairs
};

class RpcWorkload {
 public:
  // Runs `iters` sequential null calls through `call`, driving `net` to
  // quiescence, and reports the average round trip. (The paper used 10,000
  // iterations to average out noise; the simulator is deterministic, so a
  // smaller count measures the same value -- the default still exercises
  // steady-state session caching.)
  static LatencyResult MeasureLatency(Internet& net, Kernel& client_kernel, const CallFn& call,
                                      int iters = 100);

  // Runs `iters` sequential calls with `bytes`-byte requests and null
  // replies; reports payload throughput and per-side CPU time per call.
  static ThroughputResult MeasureThroughput(Internet& net, Kernel& client_kernel,
                                            Kernel& server_kernel, const CallFn& call,
                                            size_t bytes, int iters = 20);

  // Drives `calls[i]` from `clients[i]` concurrently -- every pair issues
  // `iters` sequential `bytes`-byte calls, all started at the same instant,
  // in ONE RunAll.
  static ManyPairsResult MeasureManyPairs(Internet& net, const std::vector<Kernel*>& clients,
                                          const std::vector<CallFn>& calls, size_t bytes,
                                          int iters = 20);

  // Availability workload for fault campaigns: issues `spec.calls` sequential
  // oracle-tagged calls (spaced by `spec.gap`), pressing on through failures,
  // and reports success rate, recovery latency, and the per-call RTT
  // distribution. Every request is built by `oracle` (MakeRequest) and every
  // outcome recorded with it; pair with the oracle's WrapEcho handler on the
  // server and check oracle.Finish().clean() after the run.
  static ChaosResult RunChaos(Internet& net, Kernel& client_kernel, const CallFn& call,
                              AmoOracle& oracle, const ChaosSpec& spec);
};

}  // namespace xk

#endif  // XK_SRC_APP_WORKLOAD_H_
