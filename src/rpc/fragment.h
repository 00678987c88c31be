// FRAGMENT: unreliable-but-persistent bulk transfer (paper, Section 3.2).
//
// The bulk-transfer function carved out of Sprite RPC as an independent,
// reusable protocol:
//
//  * UNRELIABLE: messages may arrive out of order, duplicated, or not at all;
//    the receiver never sends a positive acknowledgement.
//  * PERSISTENT: a receiver that detects missing fragments asks the sender
//    for exactly those fragments; the sender keeps a copy of every message it
//    sent until a per-message timer expires and resends on request.
//
// A high-level protocol that needs a reply (CHANNEL) keeps its own timer and
// may resend the whole message; FRAGMENT treats the resend as an independent
// message with a fresh sequence number.
//
// Because FRAGMENT is meant to be used by multiple high-level protocols
// (CHANNEL, Psync, ...), its header carries its own 32-bit protocol number
// field -- one of the costs of making a layer a stand-alone protocol that the
// paper calls out explicitly.
//
// Header (paper appendix, FRAGMENT_HDR):
//   type(1) clnt_host(4) srvr_host(4) protocol_num(4) sequence_num(4)
//   num_frags(2) frag_mask(2) len(2)   -- 23 bytes
// where clnt_host is the SENDER of this packet and srvr_host the receiver.

#ifndef XK_SRC_RPC_FRAGMENT_H_
#define XK_SRC_RPC_FRAGMENT_H_

#include <array>
#include <cstdint>
#include <tuple>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"

namespace xk {

class FragmentProtocol : public Protocol {
 public:
  static constexpr size_t kHeaderSize = 23;
  // Sprite fragments on ~1 KB boundaries. The fragment size leaves room for
  // the CHANNEL and SELECT headers above, so a 16 KB RPC payload is still
  // exactly 16 fragments (the paper's "FRAGMENT handles 16 messages").
  static constexpr size_t kFragSize = 1056;
  static constexpr size_t kMaxFrags = 16;  // frag_mask is 16 bits
  static constexpr size_t kMaxMessage = kFragSize * kMaxFrags;
  // NACKs a receiver sends for one message before abandoning its reassembly.
  static constexpr int kMaxNacks = 3;

  // `lower` is any IP-semantics delivery protocol (VIP, IP, VIP_ADDR).
  FragmentProtocol(Kernel& kernel, Protocol* lower, std::string name = "fragment");

  // Timer knobs: a test shrinks both to reach the stale-NACK path.
  void set_send_cache_timeout(SimTime t) { send_cache_timeout_ = t; }
  void set_nack_delay(SimTime t) { nack_delay_ = t; }

  struct Stats {
    uint64_t messages_sent = 0;
    uint64_t fragments_sent = 0;
    uint64_t messages_delivered = 0;
    uint64_t nacks_sent = 0;
    uint64_t nacks_received = 0;
    uint64_t fragments_resent = 0;
    uint64_t reassembly_abandoned = 0;
    uint64_t cache_expirations = 0;
    uint64_t stale_nacks = 0;  // NACK for a message no longer cached
  };
  const Stats& stats() const { return stats_; }

  void ExportCounters(const CounterEmit& emit) const override {
    Protocol::ExportCounters(emit);
    emit("messages_sent", stats_.messages_sent);
    emit("fragments_sent", stats_.fragments_sent);
    emit("messages_delivered", stats_.messages_delivered);
    emit("nacks_sent", stats_.nacks_sent);
    emit("nacks_received", stats_.nacks_received);
    emit("fragments_resent", stats_.fragments_resent);
    emit("reassembly_abandoned", stats_.reassembly_abandoned);
    emit("cache_expirations", stats_.cache_expirations);
    emit("stale_nacks", stats_.stale_nacks);
  }

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  friend class FragmentSession;
  using Key = std::tuple<IpAddr, RelProtoNum>;  // (peer host, client protocol)

  DemuxMap<Key> active_;
  DemuxMap<RelProtoNum, Protocol*> passive_;
  SimTime send_cache_timeout_ = Msec(1000);
  SimTime nack_delay_ = Msec(20);
  Stats stats_;
};

class FragmentSession : public Session {
 public:
  FragmentSession(FragmentProtocol& owner, Protocol* hlp, IpAddr peer, RelProtoNum proto,
                  SessionRef lower);

  // Demux entry: handles one FRAGMENT packet addressed to this session.
  Status HandlePacket(uint8_t type, uint32_t seq, uint16_t num_frags, uint16_t frag_mask,
                      Message& payload, Session* lls);

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  Session* lower_for_control() const override { return lower_.get(); }

 private:
  // A sent message's payload slices (headers are rebuilt on resend), kept
  // until its discard timer fires so a NACK can be served. Slots live in a
  // power-of-two ring indexed by seq and keep their `frags` capacity when
  // freed. Seqs are this session's own, issued in order and expiring in
  // order, so the live ones form a window and the ring only grows (doubling)
  // when that window outruns it.
  struct SentSlot {
    bool occupied = false;
    uint32_t seq = 0;
    std::vector<Message> frags;
  };
  // A message being reassembled. Its seq comes off the wire (the peer's
  // numbering, or corrupted bytes), so these slots are a short array searched
  // by seq rather than a seq-indexed ring: the live set is a handful of
  // messages, but a ring sized to keep arbitrary seqs apart could be asked
  // for 2^32 slots by a single flipped high bit. Freed slots keep their
  // `frags` capacity too.
  struct Reasm {
    bool occupied = false;
    uint32_t seq = 0;
    uint16_t num_frags = 0;
    uint16_t have_mask = 0;
    int nacks = 0;
    EventHandle gap_timer;
    std::vector<Message> frags;
  };

  void SendFragment(uint32_t seq, uint16_t num_frags, uint16_t index, const Message& payload,
                    uint8_t type);
  void SendNack(uint32_t seq, uint16_t missing_mask);
  void OnGapTimer(uint32_t seq);
  void OnNack(uint32_t seq, uint16_t missing_mask);
  Status CompleteReassembly(Reasm& r);
  void ArmGapTimer(Reasm& r);

  SentSlot* FindSent(uint32_t seq);
  // Marks seq's ring slot occupied, doubling the ring while an older live
  // message still holds it.
  SentSlot& ClaimSent(uint32_t seq);
  Reasm* FindReasm(uint32_t seq);
  bool RecentlyDone(uint32_t seq) const;
  Reasm& ClaimReasm(uint32_t seq, uint16_t num_frags);
  static void Release(SentSlot& slot);
  static void Release(Reasm& r);

  FragmentProtocol& frag_;
  IpAddr peer_;
  RelProtoNum proto_;
  SessionRef lower_;
  uint32_t next_seq_ = 1;
  std::vector<SentSlot> sent_;  // ring: seq's slot is seq & (size - 1)
  std::vector<Reasm> reasm_;
  // The last kRecentWindow completed sequence numbers (a ring; slot
  // recent_count_ % kRecentWindow is the oldest once it is full) so late
  // duplicate fragments don't rebuild reassembly state.
  static constexpr size_t kRecentWindow = 64;
  std::array<uint32_t, kRecentWindow> recent_done_{};
  uint64_t recent_count_ = 0;  // completions so far
};

}  // namespace xk

#endif  // XK_SRC_RPC_FRAGMENT_H_
