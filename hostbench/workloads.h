// The benchmark's workloads, its simulated digest and its correctness gate.
//
// A workload runs as a sequence of episodes. An episode builds a fresh
// simulation (the set-up phase), then runs a fixed amount of simulated work
// (the run phase) made of measured steps. Everything an episode simulates
// follows from the seed alone, so every episode of one run must produce the
// same digest, and a digest recorded for a seed must be reproduced exactly:
// a host-speed change that alters the simulation cannot pass.
//
//   paper-rpc         closed-loop L_RPC-VIP calls on the paper's testbed;
//                     a step is one call, issued and run to quiescence.
//   cluster-openloop  Poisson arrivals into a routed VPOOL replica pool;
//                     a step is one slice of simulated time (RunUntil).
//   session-churn     UDP session populations opened, echoed through and
//                     drained by the idle sweep; a step is one echo call.

#ifndef XK_HOSTBENCH_WORKLOADS_H_
#define XK_HOSTBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hostbench/spans.h"
#include "src/core/types.h"

namespace hostbench {

// Episode size. The defaults are what the benchmark runs and what the
// recorded reference digests describe; tests shrink them.
struct Scale {
  int rpc_calls = 20000;
  // A slice holds about 48 calls, so a step's time averages over Poisson
  // bursts instead of catching them one at a time.
  xk::SimTime cluster_horizon = xk::Sec(100);
  xk::SimTime cluster_slice = xk::Msec(100);
  size_t churn_sessions = 100000;
  int churn_cycles = 3;
  int churn_echoes = 4096;  // per cycle

  static Scale Smoke();
  // The full set-up with a token run phase, to time set-up on its own.
  static Scale SetupOnly();
};

// The simulated outcome of one episode. Host-independent: a pure function of
// the workload, the seed and the scale.
struct Digest {
  uint64_t events = 0;        // simulation events fired
  uint64_t issued = 0;        // calls issued
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t rtt_sum_ns = 0;    // sum of simulated round trips
  uint64_t last_done_ns = 0;  // simulated time of the last completion
  uint64_t frames = 0;        // frames sent on every segment

  bool operator==(const Digest&) const = default;
  std::string ToString() const;
  static bool Parse(const std::string& text, Digest* out);
  // Name of the first field where `got` differs from `*this`; empty if none.
  std::string FirstDifference(const Digest& got) const;
};

struct EpisodeStats {
  Digest digest;
  uint64_t ops = 0;        // calls, or session lifecycles (open + eviction)
  uint64_t attempted = 0;  // operations attempted (ops plus echo calls)
  uint64_t failed = 0;     // failed or missing replies, refused opens, leaks
  double setup_s = 0;      // host seconds before the first step
  // Host ns of each part of the run phase that `ops` is counted over, in
  // order: the steps (paper-rpc), the steps and the drain (cluster-openloop),
  // or each cycle's opens and sweep (session-churn).
  std::vector<double> op_ns;
  // Host ns of each measured step, in order. Every episode of a (workload,
  // seed, scale) runs the same steps.
  std::vector<double> step_ns;
  // Run-phase deltas of simulator counters.
  uint64_t run_events = 0;
  uint64_t step_events = 0;  // the part fired by the steps' RunAll/RunUntil
  uint64_t run_frames = 0;
  uint64_t crossings = 0;    // ProtoCounters msgs_in + msgs_out
  uint64_t map_hits = 0;
  uint64_t map_misses = 0;
  uint64_t fragments = 0;    // FRAGMENT fragments sent
  uint64_t retransmits = 0;  // CHANNEL retransmissions + FRAGMENT resends
  // session-churn only.
  uint64_t opens = 0;
  uint64_t evictions = 0;
  size_t map_probe_max = 0;        // traced runs only
  double bytes_per_session = 0;    // traced runs only
  std::string error;  // first invariant that failed; empty when all held
};

using EpisodeFn = EpisodeStats (*)(uint64_t seed, const Scale& scale, SpanRecorder* rec);

struct Workload {
  const char* name;
  EpisodeFn run;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// Reference digests, keyed by (workload, seed). File format: one
// "workload seed field=value ..." line per entry; '#' starts a comment.
using ReferenceTable = std::map<std::pair<std::string, uint64_t>, Digest>;
bool LoadReference(const std::string& path, ReferenceTable* out, std::string* error);

// The shipped reference holds seeds 0 to kReferenceSeeds - 1.
inline constexpr uint64_t kReferenceSeeds = 100;

// The reference gate for `got`, the digest of a `scale` episode of `w` at
// `seed`. A recorded seed must reproduce its digest. For any other seed, one
// more episode, of the recorded seed `seed % kReferenceSeeds`, must reproduce
// that seed's digest, so every run is checked against a recorded outcome.
// Empty when the check passes; otherwise a message naming the workload, the
// seed and the first field that differs, or the missing reference.
std::string CheckReference(const ReferenceTable& ref, const Workload& w, uint64_t seed,
                           const Digest& got, const Scale& scale = Scale{});

double Median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
double Quantile(std::vector<double> v, double q);

// Other work on the host only ever slows a measurement down, and on a shared
// machine it comes and goes over seconds. So a host time is read off the
// fastest tenth of its samples: their 10th percentile.
inline double FastTime(std::vector<double> v) { return Quantile(std::move(v), 0.1); }

// Keeps, part by part, the fastest of the host ns seen for each part of an
// episode. Every episode of a run simulates the same parts, so only the
// host's interference differs between them.
void KeepFastest(const std::vector<double>& ns, std::vector<double>* fastest);

// VmHWM of this process in MB (0 where /proc is unavailable).
double PeakRssMb();

}  // namespace hostbench

#endif  // XK_HOSTBENCH_WORKLOADS_H_
