// Structured event tracing for the simulator.
//
// A TraceSink records a span for every layer crossing -- Push, Pop, Demux,
// Open, and the interrupt shepherd that starts a receive chain -- with
// simulated timestamps, the charged-cost delta attributed to that crossing,
// and message/session identity. The sink hangs off the Kernel and is
// consulted from the *non-virtual* Protocol/Session entry points, so every
// protocol in the graph is instrumented from one choke point.
//
// The invariant that makes tracing safe to leave attached: recording charges
// ZERO simulated cost. Spans read the CPU's accumulated-busy counter and the
// simulated clock but never call Charge(), never touch an Rng, and never
// schedule events, so a traced run is bit-identical (in every simulated
// metric) to an untraced one. All bookkeeping costs host time only.
//
// Cost attribution: spans nest like the call stack they shadow. A span's
// inclusive cost is the total_busy() delta between entry and exit; its
// exclusive cost subtracts the inclusive costs of its direct children, so
// summing `excl` over any set of spans never double-counts. Records are
// emitted at span end (post-order), exactly as a profiler would.

#ifndef XK_SRC_TRACE_TRACE_H_
#define XK_SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/types.h"

namespace xk {

class Kernel;
class Message;
class Protocol;
class Session;

// The layer crossings the chokepoints record, plus the point events
// (Record::Kind::kEvent) the cluster tier emits so a causal stitcher sees
// decisions -- retries, reroutes, failover -- instead of inferring them
// from gaps between spans.
enum class TraceOp : uint8_t {
  kPush,   // Session::Push (down the stack)
  kPop,    // Session::Pop (up the stack)
  kDemux,  // Protocol::Demux
  kOpen,   // Protocol::Open
  kIntr,   // interrupt shepherd carrying a frame off the wire
  // --- point events (kEvent records) ---
  kIssue,       // workload generator issued a call (t = scheduled arrival)
  kDone,        // call completed at the client (status = outcome)
  kExec,        // server executed the call body
  kRetransmit,  // CHANNEL retransmitted the pending request (detail = retry #)
  kGiveUp,      // CHANNEL exhausted its retry budget
  kPick,        // VPOOL chose replica `detail` for an open
  kReroute,     // VPOOL open toward replica `detail` failed; trying the next
  kReplicaDown,     // VPOOL marked replica `detail` down
  kReplicaReadmit,  // VPOOL readmitted replica `detail`
  kEvict,       // idle sweep reclaimed a session
  kForward,     // IP forwarded a datagram through this router (detail = ttl left)
  kTtlDrop,     // IP discarded a datagram whose ttl expired
  kNoRoute,     // IP discarded a datagram with no matching route
  kCrash,       // host crashed
  kRestart,     // host restarted (detail = new boot id)
  // --- overload control (terminal/point events) ---
  kShed,        // server dropped an already-expired request before execution
  kReject,      // server admission control fast-rejected a request (BUSY)
  kBudgetExhausted,  // client retry budget empty: call given up
  kHedge,        // client issued a hedged second attempt (detail = avoided replica)
  kHedgeCancel,  // primary settled first: pending hedge timer cancelled
};

const char* TraceOpName(TraceOp op);

class TraceSink {
 public:
  // `max_records` bounds host memory; once full, new records are counted in
  // dropped() instead of stored (span nesting is still tracked so exclusive
  // costs of retained records stay correct).
  explicit TraceSink(size_t max_records = 1 << 20);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  struct Record {
    // kEvent is a zero-duration point annotation (RecordEvent): a cluster-tier
    // decision stamped with the oracle call id, emitted immediately (in
    // program order, unlike post-order spans).
    enum class Kind : uint8_t { kSpan, kWire, kLog, kEvent };
    Kind kind = Kind::kSpan;
    // span + event
    uint32_t host = 0;   // name-table index
    uint32_t proto = 0;  // name-table index
    TraceOp op = TraceOp::kPush;
    StatusCode status = StatusCode::kOk;
    uint32_t depth = 0;
    uint64_t sess = 0;
    uint64_t msg = 0;
    uint64_t call = 0;  // oracle call id (events; 0 = not bound to a call)
    uint64_t len = 0;   // events reuse this as `detail`
    SimTime t0 = 0;
    SimTime t1 = 0;
    SimTime incl = 0;
    SimTime excl = 0;
    // wire
    int segment = 0;
    SimTime arrival = 0;
    uint64_t qdepth = 0;  // segment queue depth at bus acquisition
    SimTime qwait = 0;    // tx_start - ready (time queued behind the bus)
    // log
    int level = 0;
    std::string text;
  };

  // --- span API (used via TraceSpan below) ------------------------------------
  void BeginSpan(Kernel& kernel, TraceOp op, const Protocol& proto, Session* sess,
                 const Message* msg);
  void EndSpan(Kernel& kernel, Status status);

  // --- wire + log records -----------------------------------------------------
  // One frame transmission on segment `segment`: serialization starts at
  // `tx_start`, ends at `tx_end`, and the frame reaches receivers at
  // `arrival` (tx_end + propagation). `queue_depth` is the number of frames
  // queued behind the bus at acquisition; `queue_wait` is how long this frame
  // waited for the bus (tx_start - ready).
  // `msg_id` is the trace identity of the message the frame carries (the
  // EthFrame remembers it host-side; no wire bytes change), so an observer can
  // tie a bus transmission back to the push/pop spans of the same message.
  void RecordWire(int segment, SimTime tx_start, SimTime tx_end, SimTime arrival,
                  size_t bytes, uint64_t queue_depth = 0, SimTime queue_wait = 0,
                  uint64_t msg_id = 0);

  // A structured log line (the Kernel routes Tracef here when attached).
  void RecordLog(const Kernel& kernel, int level, std::string_view text);

  // A point event: a cluster-tier decision (issue/done/exec, retransmit,
  // reroute, failover, eviction, forward) bound to the oracle call id that
  // caused it. `t` is explicit so generators can stamp the scheduled arrival
  // rather than "now". Zero simulated cost, like every other record.
  void RecordEvent(Kernel& kernel, TraceOp op, std::string_view proto_name, SimTime t,
                   uint64_t call, const Message* msg, Session* sess, uint64_t detail,
                   StatusCode status = StatusCode::kOk);

  // Copies a previously assigned trace id onto a message that arrived off
  // the wire (the receive path's copy of EthFrame::msg, which carries no
  // trace id of its own), so one logical message reads as one id across the
  // wire. Charges nothing; pure bookkeeping.
  static void InheritTraceId(const Message& msg, uint64_t id);

  // --- output -----------------------------------------------------------------
  // JSON-lines: one `{"k":"meta",...}` header line, then one line per record
  // in emission order. Deterministic for a deterministic simulation.
  std::string ToJsonl() const;

  // Drops buffered records (open spans keep nesting). Id counters are NOT
  // reset, so sessions tagged before the clear stay unique.
  void Clear();

  size_t num_records() const { return records_.size(); }
  size_t dropped() const { return dropped_; }

  // --- thread default ---------------------------------------------------------
  // An Internet constructed on this thread attaches the thread-default sink
  // to all its kernels and segments. Lets the bench harness trace helpers
  // that build their own topologies, without plumbing a sink through every
  // signature.
  static TraceSink* thread_default();
  static void set_thread_default(TraceSink* sink);

 private:
  friend class TraceSpan;

  // A span in flight: the partially-filled record plus what is needed to
  // compute costs at exit.
  struct Frame {
    Record rec;
    SimTime busy0 = 0;       // cpu().total_busy() at entry
    SimTime child_incl = 0;  // sum of direct children's inclusive costs
  };

  uint32_t InternName(const std::string& name);
  uint64_t SessionTraceId(Session* sess);
  uint64_t MessageTraceId(const Message* msg);
  void Append(Record rec);

  size_t max_records_;
  std::vector<Record> records_;
  std::vector<Frame> stack_;
  size_t dropped_ = 0;

  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_index_;
  uint64_t next_sess_id_ = 1;
  uint64_t next_msg_id_ = 1;
};

// RAII span guard for the chokepoints. A null sink makes it a no-op, so the
// entry points construct one unconditionally.
class TraceSpan {
 public:
  TraceSpan(TraceSink* sink, Kernel& kernel, TraceOp op, const Protocol& proto,
            Session* sess, const Message* msg)
      : sink_(sink), kernel_(kernel) {
    if (sink_ != nullptr) {
      sink_->BeginSpan(kernel_, op, proto, sess, msg);
    }
  }

  ~TraceSpan() {
    if (sink_ != nullptr) {
      sink_->EndSpan(kernel_, status_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Records the operation's outcome and passes it through, so the call sites
  // read `return span.Finish(DoPush(msg));`.
  Status Finish(Status s) {
    status_ = s;
    return s;
  }

 private:
  TraceSink* sink_;
  Kernel& kernel_;
  // A span destroyed without Finish() (exception/early return) reads as an
  // error rather than a silent success.
  Status status_ = ErrStatus(StatusCode::kError);
};

}  // namespace xk

#endif  // XK_SRC_TRACE_TRACE_H_
