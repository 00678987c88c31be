// Causal call-flow stitching: per-call critical-path attribution built from
// the trace streams the simulator already emits (src/trace/trace.h).
//
// A datacenter call crosses many hosts: the client stack pushes it, the core
// router forwards it, a VPOOL replica executes it, and the reply walks the
// same path back -- possibly several times when CHANNEL retransmits. Each of
// those steps already leaves a record: spans carry message/session trace ids,
// wire records carry the frame's message id, and the cluster tier emits point
// events (issue/done/exec, retransmit, pick/reroute, replica down/readmit)
// bound to the oracle call id. Nothing here touches the simulation: the
// stitcher is a pure observer-side join over one parsed trace file.
//
// Correlation model:
//   * kIssue binds the oracle call id to the request message's trace id and
//     to the scheduled arrival time; kDone closes the call at the client.
//   * Message copies keep their trace id, so the retransmitted request, the
//     single-fragment FRAGMENT piece, the router's forwarded datagram, and
//     the echoed reply all read as ONE message id end to end; the frame
//     carries the id across the wire (EthFrame::trace_msg_id), and the
//     receive path inherits it.
//   * Every span and wire record whose message id belongs to a call becomes
//     an interval of that call's lifetime; point events mark the attempt
//     boundaries and routing decisions.
//
// Attribution: the call's wall-clock [issue, done] is swept once; each
// elementary slice is charged to the highest-priority activity covering it
// (cpu > nic queue > wire > propagation), and uncovered gaps become either
// retry backoff (the slice ends at a retransmission) or scheduling/host wait.
// The per-category sums therefore reconstruct the RTT *exactly* -- the same
// number the benchmark histogram recorded -- which is what the `xktrace
// critical-path` check in scripts/check.sh verifies against the bench JSON.

#ifndef XK_SRC_TRACE_CAUSAL_H_
#define XK_SRC_TRACE_CAUSAL_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/tools/trace_reader.h"

namespace xk::causal {

// Where a slice of a call's wall-clock went. Order is the sweep's priority
// (earlier categories win when activities overlap).
enum Category : int {
  kClientCpu = 0,  // spans on the issuing host
  kServerCpu,      // spans on a host that executed the call
  kRouterCpu,      // spans on any other host (forwarding path)
  kQueue,          // frame waiting for the bus behind other frames
  kWire,           // frame serializing onto the wire
  kProp,           // signal propagation
  kBackoff,        // idle, waiting for CHANNEL's retransmit timer
  kSched,          // idle, waiting for host CPU / event scheduling
  kNumCategories,
};

const char* CategoryName(Category c);

// One frame transmission carrying one of the call's messages.
struct Hop {
  int64_t seg = 0;
  int64_t t0 = 0;
  int64_t t1 = 0;
  int64_t arrive = 0;
  int64_t qwait = 0;
  uint64_t len = 0;
  uint64_t msg = 0;
};

// One transmission attempt: the initial send, or a CHANNEL retransmission
// classified by what it was recovering from.
struct Attempt {
  int64_t t = 0;      // when the attempt started (issue time or rexmit event)
  int retry = 0;      // 0 = first attempt
  std::string cause;  // "first"|"crash"|"reroute"|"corruption"|"drop"|"timeout"
};

// One attributed span of the call's wall-clock; a call's slices partition
// [issue, done] exactly.
struct Slice {
  int64_t t0 = 0;
  int64_t t1 = 0;
  Category cat = kSched;
  std::string label;  // cpu: "host;proto"; queue/wire/prop: "segN"; backoff: cause
};

struct CallFlow {
  uint64_t id = 0;  // oracle call id
  std::string client;
  std::string server;  // host of the (last) exec event; empty if never executed
  std::string status;  // kDone outcome ("ok", "timeout", ...)
  int64_t issue_t = 0;
  int64_t done_t = 0;
  bool completed = false;  // saw kDone (success or failure, either way settled)
  int64_t exec_t = -1;     // last server execution time (-1 = none)
  int replica = -1;        // last VPOOL pick (-1 = none seen)
  int reroutes = 0;
  bool hedged = false;     // a hedged second attempt was issued for this call
  // Overload verdict: the last shed / reject / budget_exhausted event bound to
  // this call. Failed calls carrying one get their otherwise-unattributed wait
  // labeled with it, so the causal graph closes on a cause instead of an
  // unbounded "sched_wait;wait".
  int64_t terminal_t = -1;
  std::string terminal;  // "shed" | "reject" | "budget_exhausted" | ""
  std::vector<uint64_t> msgs;  // message trace ids belonging to this call
  std::vector<Attempt> attempts;
  std::vector<Hop> hops;       // chronological
  std::vector<Slice> slices;   // chronological, covering [issue_t, done_t]
  std::array<int64_t, kNumCategories> ns{};  // per-category totals; sum == rtt()

  int64_t rtt() const { return done_t - issue_t; }
  Category critical() const;  // category with the largest share
};

struct FlowAnalysis {
  std::vector<CallFlow> calls;  // sorted by (issue time, id)
  uint64_t completed = 0;
  uint64_t failed = 0;
  std::array<int64_t, kNumCategories> total_ns{};
  std::array<uint64_t, kNumCategories> dominant_calls{};  // calls bounded by cat
  uint64_t retransmits = 0;
  std::map<std::string, uint64_t> retry_causes;
  std::map<int, uint64_t> replica_picks;
  uint64_t reroutes = 0;
  uint64_t replica_downs = 0;
  uint64_t replica_readmits = 0;
  uint64_t evictions = 0;
  uint64_t forwards = 0;
  uint64_t ttl_drops = 0;
  uint64_t no_route_drops = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  // Overload-control events (server shed/reject, CHANNEL shed, VPOOL capped
  // reject, retry-budget giveups, hedging).
  uint64_t sheds = 0;
  uint64_t rejects = 0;
  uint64_t budget_exhausted = 0;
  uint64_t hedges = 0;
  uint64_t hedge_cancels = 0;

  double MeanRttNs() const;  // over settled calls; matches the bench histogram
};

// Builds the per-call causal graphs and attribution from one parsed trace.
FlowAnalysis Stitch(const tracetool::TraceFile& tf);

// JSONL: one meta line, one line per call, one aggregate line. Deterministic
// for a deterministic trace, so flow files join the byte-identity gates.
std::string ToFlowJsonl(const FlowAnalysis& fa);

// Flame-graph-compatible folded stacks: "call;<category>;<label> <ns>", one
// per line, sorted by stack. Feed straight into flamegraph.pl.
std::string ToFolded(const FlowAnalysis& fa);

}  // namespace xk::causal

#endif  // XK_SRC_TRACE_CAUSAL_H_
