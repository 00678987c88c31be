// At-most-once oracle: an external checker for RPC execution semantics under
// fault campaigns.
//
// The oracle tags every request with a unique call id, records server-side
// executions (with the server's boot id at execution time) and client-side
// outcomes, and asserts, under ANY fault plan, that
//   * no call id is executed twice within one server boot (CHANNEL's
//     duplicate suppression holds),
//   * every completed reply echoes its own request (no cross-wiring), and
//   * every issued call reaches a recorded outcome -- reply or surfaced
//     failure -- never silence.
// Re-execution across a server reboot is counted separately: at-most-once
// state is in-memory by design (the paper's Sprite algorithm), so a crashed
// server that lost its duplicate filter MAY re-execute -- the oracle reports
// it, and pure-crash plans (no message loss) must still show zero.
//
// Storage: ids are (stream << 32) | index, one stream per id allocator
// (NextCallId is stream 0; each OpenLoopGen owns one). Issuing an id extends
// its stream's dense array of 16-byte records, so recording a call costs no
// allocation beyond the array's amortized growth. A call's second and later
// executions spill into a side table. Ids no stream covers -- corrupted ids
// off the wire, or arbitrary ones handed to RecordIssued -- live in a sparse
// table and never grow the dense arrays; issuing an id the sparse table
// already holds moves its record into the dense array.

#ifndef XK_SRC_APP_ORACLE_H_
#define XK_SRC_APP_ORACLE_H_

#include <cstdint>
#include <vector>

#include "src/app/anchor.h"
#include "src/core/flat_table.h"
#include "src/core/message.h"

namespace xk {

class AmoOracle {
 public:
  static constexpr size_t kIdBytes = 8;

  // Allocates the next call id (client side; ids start at 1).
  uint64_t NextCallId() { return ++last_id_; }

  // Builds a request: 8-byte big-endian call id followed by `payload_bytes`
  // of an id-derived pattern (so corrupted or cross-wired replies are
  // detectable byte-for-byte).
  static Message MakeRequest(uint64_t id, size_t payload_bytes);

  // Reads the call id out of a request or echoed reply; 0 if too short.
  static uint64_t ExtractId(const Message& msg);

  // An RpcServer handler that echoes the request and records its execution
  // under `server_kernel`'s CURRENT boot id (read at execution time, so the
  // same oracle spans crash/restart cycles -- install it again from the
  // restart hook).
  RpcServer::Handler WrapEcho(Kernel* server_kernel);

  // Client side: a call was issued / reached its outcome.
  void RecordIssued(uint64_t id, SimTime at);
  void RecordOutcome(uint64_t id, const Result<Message>& r, SimTime at);

  // Client side: a hedged second attempt went out for `id`. A hedged id
  // executing on TWO DIFFERENT hosts is the intended race, reported in
  // hedged_duplicate_executions instead of flagged; the same id twice on one
  // host in one boot stays a violation.
  void RecordHedged(uint64_t id);

  struct Report {
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;       // surfaced errors (retry exhaustion, resets)
    uint64_t executions = 0;   // total server-side executions
    uint64_t double_executions = 0;        // same id twice in ONE boot: violation
    uint64_t cross_boot_reexecutions = 0;  // re-executed after a reboot: reported
    uint64_t mismatched_replies = 0;  // reply does not echo its request: violation
    uint64_t unknown_replies = 0;     // reply id never issued: violation
    uint64_t silent = 0;              // issued, no outcome ever: violation
    // Overload-control outcome classes (each also counted in `failed`):
    uint64_t shed = 0;              // DEADLINE_EXCEEDED: expired client- or server-side
    uint64_t rejected = 0;          // BUSY: admission control / caps fast-rejected
    uint64_t budget_exhausted = 0;  // RESOURCE_EXHAUSTED: retry budget drained
    // Calls the system accepted for execution (issued - shed - rejected) and
    // how many of those completed, per million -- the graceful-degradation
    // headline: under overload this should stay ~1e6 while shed/rejected grow.
    uint64_t admitted = 0;
    uint64_t admitted_success_ppm = 0;
    uint64_t hedged = 0;  // ids that issued a second attempt
    uint64_t hedged_duplicate_executions = 0;  // hedged id ran on 2 hosts: reported

    // True iff at-most-once semantics held and no failure was silent.
    bool clean() const {
      return double_executions == 0 && mismatched_replies == 0 && unknown_replies == 0 &&
             silent == 0;
    }
  };

  // Computes the report. Call after the simulation has quiesced (RunAll
  // returned): only then can "no outcome" be judged silent.
  Report Finish() const;

  // --- introspection (tests and debugging) ---
  // Record slots in the dense stream arrays, and records in the sparse table.
  size_t dense_records() const;
  size_t sparse_records() const;

 private:
  // Streams at or above this, and ids issued more than kMaxDenseGap past
  // their stream's end, are recorded in the sparse table.
  static constexpr uint64_t kMaxDenseStreams = 1024;
  static constexpr uint64_t kMaxDenseGap = 1024;

  enum Flag : uint8_t {
    kIssued = 1 << 0,
    kCompleted = 1 << 1,
    kFailed = 1 << 2,
    kMismatched = 1 << 3,
    kHedged = 1 << 4,
    kSpilled = 1 << 5,  // executions after the first are in spilled_
  };

  // (host, boot id) of one execution; the host lets a hedged id's
  // two-replica race be told apart from a same-server duplicate.
  struct Execution {
    const Kernel* host = nullptr;
    uint32_t boot = 0;
  };

  struct CallRecord {
    const Kernel* host = nullptr;  // first execution (null: never executed)
    uint32_t boot = 0;
    uint8_t flags = 0;
    StatusCode fail_code = StatusCode::kOk;  // classifies kFailed

    // A record nothing has touched; a recorded id never reads as empty.
    bool empty() const { return flags == 0 && host == nullptr; }
  };
  static_assert(sizeof(CallRecord) == 16);

  // The record for `id`, or null when no stream covers it and the sparse
  // table has none. Never inserts.
  const CallRecord* Find(uint64_t id) const;
  // The record for `id`, created empty if absent.
  CallRecord& Touch(uint64_t id);
  // Extends id's stream to cover it when it is within reach of the stream's
  // end, absorbing any sparse records the extension now covers.
  void CoverDense(uint64_t id);
  // Adds one call's counts to `rep`.
  void Tally(uint64_t id, const CallRecord& rec, Report& rep) const;

  uint64_t last_id_ = 0;
  std::vector<std::vector<CallRecord>> streams_;  // [id >> 32][id & 0xffffffff]
  FlatTable<uint64_t, CallRecord> sparse_;
  FlatTable<uint64_t, std::vector<Execution>> spilled_;  // in execution order
  uint64_t unknown_replies_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_APP_ORACLE_H_
