// CHANNEL: request/reply transactions with at-most-once semantics (paper,
// Section 3.2).
//
// Each channel is a separate x-kernel session running the Sprite algorithm:
// a high-level protocol pushes a request into the channel and the reply is
// returned (delivered up when it arrives, with the blocked shepherd's
// semaphore and process-switch costs charged at the paper's attribution
// points -- CHANNEL is the most expensive layer because "of the cost of
// synchronization and process switching that is intrinsic to the
// request/reply paradigm").
//
//  * IMPLICIT ACKNOWLEDGEMENT: a reply acknowledges its request; the next
//    request on a channel acknowledges the previous reply (whose saved copy
//    the server then discards).
//  * AT-MOST-ONCE: duplicate requests are answered from the saved reply (if
//    done) or elicit an explicit ACK (if still executing); they are never
//    re-executed.
//  * STEP-FUNCTION TIMEOUT: because FRAGMENT exists as a separate protocol
//    below, CHANNEL's retransmit timer grows with the number of fragments the
//    message will become, so it never fires while FRAGMENT is mid-transfer.
//  * BOOT IDs detect peer reboots; a rebooted client resets the channel, a
//    rebooted server fails the pending call.
//
// Header (paper appendix, CHANNEL_HDR):
//   flags(2) channel(2) protocol_num(4) sequence_num(4) error(2) boot_id(4)
//   -- 18 bytes. Note the deliberate duplication the paper discusses: both
//   FRAGMENT and CHANNEL carry their own sequence number and protocol number.
//
// Sessions are slab-pooled and idle-tracked. A channel with a call in flight
// (client pending_ or server in_progress_) refuses eviction; one that only
// holds a saved reply may be evicted, which narrows the duplicate-suppression
// window -- configure the idle timeout well above the peers' full
// retransmission budget (kRetryLimit x timeout) so an evicted channel cannot
// see a late retransmit as a fresh request.

#ifndef XK_SRC_RPC_CHANNEL_H_
#define XK_SRC_RPC_CHANNEL_H_

#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"
#include "src/sim/rng.h"
#include "src/sim/slab_pool.h"

namespace xk {

class ChannelProtocol;

class ChannelSession final : public Session {
 public:
  ChannelSession(ChannelProtocol& owner, Protocol* hlp, IpAddr peer, uint16_t channel,
                 RelProtoNum proto, SessionRef lower);

  Status HandlePacket(uint16_t flags, uint32_t seq, uint16_t error, uint32_t boot_id,
                      Message& payload, Session* lls);

  uint16_t channel_id() const { return channel_; }

 protected:
  // Push semantics depend on direction: with no request executing locally
  // this is a CLIENT CALL (send request, await reply); while a request from
  // the peer is executing, it is the SERVER'S REPLY to that request.
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  Session* lower_for_control() const override { return lower_.get(); }

  // An outstanding call -- in either direction -- pins the channel. A saved
  // (not yet implicitly acknowledged) reply pins it too until the peer's
  // whole retransmission budget has lapsed since the last packet: evicting
  // sooner would let a late retransmit of the answered request hit a fresh
  // channel and re-execute -- an at-most-once violation.
  bool CanEvict() const override;

 private:
  friend class ChannelProtocol;  // eviction needs the demux key

  struct PendingCall {
    Message request;  // saved for retransmission
    uint32_t seq = 0;
    int retries = 0;
    bool acked = false;          // server sent an explicit "I'm working on it"
    bool retransmitted = false;  // Karn's rule: never sample a retransmitted call
    SimTime sent_at = 0;
    SimTime deadline = 0;  // absolute; 0 = none. Bounds retransmission.
    EventHandle timer;
  };

  void Send(uint16_t flags, uint32_t seq, uint16_t error, const Message& payload);
  SimTime TimeoutFor(const Message& msg) const;
  SimTime AdaptiveRto() const;
  void ArmTimer();
  void OnTimeout();
  // Fails the pending call with `code`, tracing the giveup and delivering
  // SessionError (with the request, so multiplexed callers can identify the
  // victim) to the high-level protocol.
  void FailPending(StatusCode code);
  Status HandleRequest(uint32_t seq, uint32_t boot_id, Message& payload, Session* lls);
  Status HandleReply(uint16_t flags, uint32_t seq, uint16_t error, Message& payload);

  ChannelProtocol& chan_;
  IpAddr peer_;
  uint16_t channel_;
  RelProtoNum proto_;
  SessionRef lower_;

  // --- client half ------------------------------------------------------------
  uint32_t send_seq_ = 0;
  std::optional<PendingCall> pending_;
  uint32_t peer_boot_id_ = 0;

  // Adaptive-RTO state (maintained always, consulted only after the protocol's
  // set_adaptive_timeout(true)). The jitter stream is seeded from the channel
  // identity so runs are deterministic.
  SimTime srtt_ = 0;
  SimTime rttvar_ = 0;
  bool have_rtt_ = false;
  Rng jitter_;

  // --- server half ------------------------------------------------------------
  uint32_t recv_seq_ = 0;
  bool in_progress_ = false;
  // Seqs of requests currently executing above, oldest first. A client that
  // gives up on a call (deadline) releases its channel and may reuse it for a
  // new request while the old one is still executing here; replies complete
  // in start order (one deterministic kernel, uniform service delay), so a
  // popped front older than recv_seq_ identifies the abandoned execution's
  // reply, which must be dropped rather than sent as the current request's
  // answer.
  std::vector<uint32_t> exec_seqs_;
  std::optional<Message> saved_reply_;
  uint32_t client_boot_id_ = 0;
};

class ChannelProtocol final : public Protocol {
 public:
  static constexpr size_t kHeaderSize = 18;
  // Step-function retransmit timeout per fragment, and retries before a call
  // fails with kTimeout.
  static constexpr SimTime kBaseTimeout = Msec(50);
  static constexpr int kRetryLimit = 5;

  // `lower` is FRAGMENT, VIP_SIZE, VIP, or IP -- anything host-addressed.
  ChannelProtocol(Kernel& kernel, Protocol* lower, std::string name = "channel");

  // Adaptive retransmission: per-session SRTT/RTTVAR estimation with Karn's
  // rule and capped exponential backoff, instead of the paper's step-function
  // timeout. Off by default so the paper's Table I-III timing behavior is
  // untouched.
  void set_adaptive_timeout(bool on) { adaptive_timeout_ = on; }

  struct Stats {
    uint64_t calls_sent = 0;
    uint64_t requests_executed = 0;
    uint64_t retransmissions = 0;
    uint64_t duplicates_suppressed = 0;  // duplicate requests NOT re-executed
    uint64_t replies_resent = 0;         // answered from the saved reply
    uint64_t explicit_acks_sent = 0;
    uint64_t explicit_acks_received = 0;
    uint64_t call_failures = 0;  // retries exhausted
    uint64_t boot_resets = 0;
    uint64_t stale_drops = 0;  // old-sequence packets discarded
    uint64_t timeouts = 0;     // retransmit timer expirations
  };
  const Stats& stats() const { return stats_; }

  // Live ChannelSessions (slab-pooled).
  size_t live_sessions() const { return pool_.live(); }

  // Idle age after which no retransmission of an already-answered request can
  // still arrive, so a channel holding a saved reply becomes safe to evict.
  SimTime EvictQuarantine() const;

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  bool EvictSession(Session& s) override;

 private:
  friend class ChannelSession;
  using Key = std::tuple<IpAddr, uint16_t, RelProtoNum>;  // (peer, channel, proto)

  // Adds one call's worth of refill to the retry budget (no-op when the
  // budget is disabled). Called once per original request sent.
  void RefillBudget();

  SlabPool<ChannelSession> pool_;
  DemuxMap<Key> active_;
  DemuxMap<RelProtoNum, Protocol*> passive_;
  bool adaptive_timeout_ = false;
  // Retry budget (kSetRetryBudget): a token bucket shared by every channel of
  // this stack. Each original call deposits retry_ratio_ppm_ tokens (capped at
  // retry_burst_ calls' worth); each retransmission spends one call's worth
  // (1e6 ppm). ratio 0 = disabled, the default -- retransmission behavior is
  // then exactly the paper's.
  uint64_t retry_ratio_ppm_ = 0;
  uint64_t retry_burst_ = 0;
  uint64_t retry_tokens_ppm_ = 0;
  Stats stats_;
};

}  // namespace xk

#endif  // XK_SRC_RPC_CHANNEL_H_
