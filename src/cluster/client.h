// ClusterClient: an RPC client anchor for replicated pools.
//
// RpcClient pairs completions FIFO per session, which is correct when every
// reply returns in issue order. Through VPOOL that no longer holds: calls on
// one session fan out over several replicas (and several CHANNEL channels per
// replica), so replies complete out of order. ClusterClient therefore pairs
// replies by the 8-byte big-endian call id at the head of every oracle-format
// request/reply (AmoOracle::MakeRequest layout) instead of by queue position.
//
// Pending calls sit in one flat table keyed by (session, call id), so a call
// costs no heap allocation once the table has reached its size.
//
// Errors: the SessionError upcall carries the failing request, whose first 8
// bytes are the call id, so failures complete the exact call that died even
// when rejects arrive out of issue order. An error without a request falls
// back to completing the session's lowest outstanding id.
// A reply for an id that is no longer pending (it already failed, or its
// hedge twin won) is counted in `late_replies` and dropped; at-most-once stays
// observable because failure outcomes need no echo match.
//
// Hedged requests (set_hedge_delay): when the primary attempt has not settled
// after the hedge delay -- the client's own observed p99 RTT once it has
// enough samples, the configured base until then -- a second attempt is
// pushed toward a DIFFERENT replica (one-shot kSetAvoidReplica on the pool
// below) and the first reply wins. A primary reply arriving before the timer
// fires cancels the hedge outright; the call fails only when every attempt
// has failed.

#ifndef XK_SRC_CLUSTER_CLIENT_H_
#define XK_SRC_CLUSTER_CLIENT_H_

#include <map>
#include <tuple>
#include <utility>

#include "src/app/anchor.h"
#include "src/core/flat_table.h"
#include "src/core/kernel.h"
#include "src/core/protocol.h"

namespace xk {

class ClusterClient : public Protocol {
 public:
  // `rpc` is whatever addresses procedures with (host, command) -- normally a
  // VpoolProtocol, but any SELECT-shaped protocol works.
  ClusterClient(Kernel& kernel, Protocol* rpc, std::string name = "cluclient");

  // Invokes `command` at `service` (a VPOOL virtual address or a real host).
  // `args` must be in oracle format: its first 8 bytes are `id`, big-endian.
  // Must be called from within a task.
  void Call(IpAddr service, uint16_t command, uint64_t id, Message args, RpcDone done);

  // Connection churn: drops the cached session for (service, command) and
  // asks it to flush its idle lower sessions first.
  void Evict(IpAddr service, uint16_t command);

  void set_app_cost(SimTime t) { app_cost_ = t; }

  // Enables hedging with `base` as the delay until 64 RTT samples exist
  // (then the client's own p99 takes over). 0 = off (the default).
  void set_hedge_delay(SimTime base) { hedge_base_delay_ = base; }

  // Observer for hedged call ids; the bench wires this to the oracle so a
  // hedged id executing on two replicas is reported, not flagged.
  void set_hedge_notify(std::function<void(uint64_t)> f) { hedge_notify_ = std::move(f); }

  uint64_t calls_completed() const { return calls_completed_; }
  uint64_t calls_failed() const { return calls_failed_; }
  uint64_t late_replies() const { return late_replies_; }
  uint64_t hedges() const { return hedges_; }
  uint64_t hedge_cancels() const { return hedge_cancels_; }

  void ExportCounters(const CounterEmit& emit) const override;
  void SessionError(Session& lls, Status error, const Message* request) override;

 protected:
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  // RTT samples before the hedge delay switches from the base to own-p99.
  static constexpr uint64_t kHedgeMinSamples = 64;

  struct PendingCall {
    RpcDone done;
    SimTime issued_at = 0;
    int attempts = 1;       // pushes in flight for this id
    int primary_pick = -1;  // replica the first attempt rode (hedge avoids it)
    bool hedged = false;    // the second attempt actually went out
    EventHandle hedge_timer;
    Message args;  // retained only while hedging is enabled
  };

  void FireHedge(Session* sess, uint64_t id);

  Protocol* rpc_;
  SimTime app_cost_ = Usec(45);
  SimTime hedge_base_delay_ = 0;
  std::function<void(uint64_t)> hedge_notify_;
  std::map<std::pair<IpAddr, uint16_t>, SessionRef> session_cache_;
  FlatTable<std::tuple<Session*, uint64_t>, PendingCall> pending_;
  Histogram rtt_;
  uint64_t calls_completed_ = 0;
  uint64_t calls_failed_ = 0;
  uint64_t late_replies_ = 0;
  uint64_t hedges_ = 0;
  uint64_t hedge_cancels_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_CLUSTER_CLIENT_H_
