// Open-loop arrival processes for saturation workloads.
//
// Every workload so far is closed-loop: the next call waits for the previous
// one to settle, so offered load can never exceed service capacity and the
// interesting saturation behavior -- queue growth, p999 collapse -- is
// invisible. An OpenLoopGen issues calls at times drawn from an arrival
// process (Poisson, or bursty on-off) computed purely from the sim clock and
// a seeded Rng: arrivals never wait for completions, so offered load is an
// independent variable and overload is observable.
//
// Determinism: each generator owns its own SplitMix64 stream and allocates
// call ids from a private (client_index-tagged) range, so a fleet of
// generators is reproducible bit-for-bit.

#ifndef XK_SRC_CLUSTER_ARRIVALS_H_
#define XK_SRC_CLUSTER_ARRIVALS_H_

#include <string>
#include <vector>

#include "src/cluster/client.h"
#include "src/core/kernel.h"
#include "src/sim/rng.h"
#include "src/stat/histogram.h"

namespace xk {

class AmoOracle;

// Textual forms (the --arrivals= flag; FaultPlan::Parse's conventions):
//   poisson:rate=400,horizon=500ms[,churn=50][,seed=7]
//   onoff:rate=900,off_rate=100,on=100ms,off=100ms,horizon=1s[,churn=...]
// `rate` is calls/second per generator; `churn=N` drops cached sessions every
// N issues (connection churn). An on-off process is a 2-state MMPP: `rate`
// while on, `off_rate` while off (0 = silent), phases of length on/off.
struct ArrivalSpec {
  enum class Kind : uint8_t { kPoisson, kOnOff };

  Kind kind = Kind::kPoisson;
  double rate_cps = 1000.0;    // arrival rate (on-phase rate for onoff)
  double off_rate_cps = 0.0;   // off-phase rate (onoff only)
  SimTime on_for = Msec(10);   // on-phase length (onoff only)
  SimTime off_for = Msec(10);  // off-phase length (onoff only)
  SimTime horizon = Msec(500); // issue arrivals in [0, horizon)
  int churn_every = 0;         // 0 = no churn
  uint64_t seed = 1;

  static bool Parse(const std::string& text, ArrivalSpec* out, std::string* error);
  std::string ToString() const;
};

// Drives one client with an open-loop oracle-tagged call stream.
class OpenLoopGen {
 public:
  // Calls `command` at `service` through `client` with `payload_bytes`
  // payloads. Ids are `id_base | seq` with seq starting at 1: give every
  // generator a disjoint id_base (e.g. (client_index+1) << 32) because the
  // shared oracle's own allocator must not be used concurrently.
  OpenLoopGen(Kernel& kernel, ClusterClient& client, AmoOracle& oracle,
              const ArrivalSpec& spec, IpAddr service, uint16_t command,
              size_t payload_bytes, uint64_t id_base);

  // Schedules the arrival stream (call before Internet::RunAll).
  void Start();

  // Attributes issues/outcomes to before/during/after this window by their
  // ISSUE time (failover timeline for crash runs). Set before Start.
  void set_phase_window(SimTime from, SimTime until) {
    phase_from_ = from;
    phase_until_ = until;
  }

  // Per-call deadline, relative to the arrival time: every request is stamped
  // with absolute deadline `at + d`, which CHANNEL propagates on the wire so
  // both ends shed expired work. 0 = no deadlines (the default).
  void set_deadline(SimTime d) { deadline_ = d; }

  struct PhaseStats {
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
  };

  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }
  // Failure classes (each also counted in failed()).
  uint64_t shed() const { return shed_; }
  uint64_t rejected() const { return rejected_; }
  uint64_t budget_exhausted() const { return budget_exhausted_; }
  const Histogram& rtt() const { return rtt_; }
  SimTime last_done_at() const { return last_done_at_; }
  // 0 = before the phase window, 1 = inside, 2 = after.
  const PhaseStats& phase(int i) const { return phases_[static_cast<size_t>(i)]; }

 private:
  // The first arrival strictly after `t` (exact for on-off by memorylessness:
  // a draw crossing a phase boundary is redrawn from the boundary).
  SimTime NextArrivalAfter(SimTime t);
  SimTime ExpGap(double rate_cps);
  void IssueAt(SimTime at);
  void OnDone(uint64_t seq, const Result<Message>& r);
  int PhaseIndexFor(SimTime issue_at) const;

  Kernel& kernel_;
  ClusterClient& client_;
  AmoOracle& oracle_;
  ArrivalSpec spec_;
  IpAddr service_;
  uint16_t command_;
  size_t payload_bytes_;
  uint64_t id_base_;
  Rng rng_;
  SimTime phase_from_ = 0;
  SimTime phase_until_ = 0;
  SimTime deadline_ = 0;
  uint64_t seq_ = 0;
  std::vector<SimTime> issued_at_;  // arrival time of each call, by seq - 1
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t shed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t budget_exhausted_ = 0;
  Histogram rtt_;
  SimTime last_done_at_ = 0;
  PhaseStats phases_[3];
};

}  // namespace xk

#endif  // XK_SRC_CLUSTER_ARRIVALS_H_
