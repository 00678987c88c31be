// Deterministic fault campaigns: a declarative timeline of link faults and
// host crashes, executed bit-identically run to run.
//
// A FaultPlan is a list of clauses -- segment partitions with heal times,
// windowed drop rates, Gilbert-Elliott bursty loss, duplicate storms, delay
// spikes, corruption windows, and scheduled host crash/restart. A FaultEngine
// installs the plan on an Internet: link clauses become the per-segment
// fault hook (consulted once per frame delivery, in delivery order), crash
// clauses become scheduled tasks that drive Internet::CrashHost/RestartHost.
//
// Determinism: every random draw comes from a per-segment SplitMix64 stream
// seeded from the plan, and draws happen only while at least one clause is
// active on that segment -- fault-free windows consume no randomness, so
// adding a fault window never perturbs traffic outside it.

#ifndef XK_SRC_SIM_FAULT_H_
#define XK_SRC_SIM_FAULT_H_

#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/sim/link.h"
#include "src/sim/rng.h"

namespace xk {

class Internet;

// One entry in a fault timeline. Link clauses apply to frames whose arrival
// time falls in [from, until) on a matching segment (`segment` < 0 matches
// every segment; `until` == 0 leaves the window open-ended). Crash clauses
// ignore the window fields and use host/at/restart_at.
struct FaultClause {
  enum class Kind : uint8_t {
    kPartition,       // drop every frame in the window (heals at `until`)
    kDropWindow,      // drop each frame with probability `rate`
    kGilbertElliott,  // 2-state bursty loss: p_enter/p_exit, loss_good/loss_bad
    kDuplicateStorm,  // duplicate each frame with probability `rate`
    kDelaySpike,      // add `delay` with probability `rate`
    kCorruptWindow,   // flip one random byte with probability `rate`
    kCrash,           // crash `host` at `at`; restart at `restart_at` (0: never)
  };

  Kind kind = Kind::kDropWindow;
  int segment = -1;  // link clauses: -1 matches all segments
  SimTime from = 0;
  SimTime until = 0;
  double rate = 1.0;
  SimTime delay = 0;  // kDelaySpike

  // kGilbertElliott: per-frame state machine stepped while the window is
  // active; loss probability depends on the current (good/bad) state.
  double p_enter = 0.0;
  double p_exit = 1.0;
  double loss_good = 0.0;
  double loss_bad = 1.0;

  // kCrash
  std::string host;
  SimTime at = 0;
  SimTime restart_at = 0;
};

struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultClause> clauses;

  // --- fluent builders --------------------------------------------------------
  FaultPlan& Partition(int segment, SimTime from, SimTime until);
  FaultPlan& DropWindow(int segment, SimTime from, SimTime until, double rate);
  FaultPlan& GilbertElliott(int segment, SimTime from, SimTime until, double p_enter,
                            double p_exit, double loss_good, double loss_bad);
  FaultPlan& DuplicateStorm(int segment, SimTime from, SimTime until, double rate);
  FaultPlan& DelaySpike(int segment, SimTime from, SimTime until, double rate, SimTime delay);
  FaultPlan& CorruptWindow(int segment, SimTime from, SimTime until, double rate);
  FaultPlan& Crash(const std::string& host, SimTime at, SimTime restart_at = 0);

  bool empty() const { return clauses.empty(); }
  bool HasLinkClauses() const;
  bool HasCrashClauses() const;

  // Textual form, used by bench_suite's --faults= flag. Clauses are separated
  // by ';'; each is kind:key=value,... with times as <n>ns|us|ms|s. Example:
  //   crash:host=server,at=500ms,restart=900ms;drop:seg=0,from=100ms,until=300ms,rate=0.05;seed:42
  // Parse fills `out` and returns true, or returns false with a message in
  // `error`. ToString() emits the same form (Parse(ToString()) round-trips).
  static bool Parse(const std::string& spec, FaultPlan* out, std::string* error);
  std::string ToString() const;
};

// Installs a FaultPlan on an Internet for the engine's lifetime. Construct it
// after the topology is built (hooks attach to the segments that exist) and
// keep it alive across RunAll; the destructor detaches the hooks.
class FaultEngine {
 public:
  FaultEngine(Internet& net, FaultPlan plan);
  ~FaultEngine();

  FaultEngine(const FaultEngine&) = delete;
  FaultEngine& operator=(const FaultEngine&) = delete;

  const FaultPlan& plan() const { return plan_; }

  // Frames inspected by the link-fault hook (diagnostic).
  uint64_t decisions() const { return decisions_; }

 private:
  struct SegmentState {
    Rng rng;
    bool ge_bad = false;  // Gilbert-Elliott chain state
  };

  DeliveryFault Decide(int segment_id, const EthFrame& frame, SimTime arrival);

  Internet& net_;
  FaultPlan plan_;
  std::vector<SegmentState> segs_;
  bool hooks_installed_ = false;
  uint64_t decisions_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_SIM_FAULT_H_
