// Psync: many-to-many IPC preserving context (simplified from Peterson,
// Buchholz & Schlichting; see DESIGN.md for the substitution note).
//
// Why it is here: the paper chose FRAGMENT's unreliable-but-persistent
// semantics specifically "so that it could also be used by Psync" -- Psync
// wants bulk transfer of its up-to-16KB messages but NOT at-most-once RPC
// semantics. This module demonstrates that reuse: Psync composes with the
// same FRAGMENT protocol the RPC stack uses, unchanged.
//
// Model: a conversation among N hosts. Each message carries the ids of the
// sender's current context LEAVES (messages not yet followed by another);
// receivers maintain the context graph and can ask whether one message
// precedes another in conversation order.
//
// Header: conv_id(4) msg_id(4) sender(4) num_deps(1) deps[4 each].

#ifndef XK_SRC_PSYNC_PSYNC_H_
#define XK_SRC_PSYNC_PSYNC_H_

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"

namespace xk {

// A message's identity within a conversation.
using PsyncMsgId = uint32_t;

struct PsyncDelivery {
  IpAddr sender;
  PsyncMsgId id = 0;
  std::vector<PsyncMsgId> context;  // ids this message directly follows
  Message payload;
};

class PsyncConversation;

class PsyncProtocol : public Protocol {
 public:
  static constexpr size_t kMaxDeps = 16;

  // `lower` is FRAGMENT (or any host-addressed bulk delivery protocol).
  PsyncProtocol(Kernel& kernel, Protocol* lower, std::string name = "psync");

  // Joins conversation `conv_id` with `others`. All participants must join
  // (the conversation is defined by configuration, as in Psync).
  Result<PsyncConversation*> Join(uint32_t conv_id, std::vector<IpAddr> others);

  struct Stats {
    uint64_t copies_sent = 0;  // sent x (N-1) participants
  };
  const Stats& stats() const { return stats_; }

 protected:
  Status DoDemux(Session* lls, Message& msg) override;

 private:
  friend class PsyncConversation;
  Result<SessionRef> SessionTo(IpAddr host);

  std::map<uint32_t, std::unique_ptr<PsyncConversation>> conversations_;
  std::map<IpAddr, SessionRef> peers_;  // cached FRAGMENT sessions
  Stats stats_;
};

// One host's view of one conversation: the context graph plus send state.
class PsyncConversation {
 public:
  using ReceiveHandler = std::function<void(const PsyncDelivery&)>;

  // Sends `payload` to every other participant, stamped with the current
  // context leaves. Returns the new message's id.
  Result<PsyncMsgId> Send(const Message& payload);

  void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }

  // Context-graph queries.
  // True if `a` precedes `b` in conversation order (a is reachable from b
  // through context edges).
  bool Precedes(PsyncMsgId a, PsyncMsgId b) const;
  std::vector<PsyncMsgId> Leaves() const { return {leaves_.begin(), leaves_.end()}; }
  size_t GraphSize() const { return nodes_.size(); }

 private:
  friend class PsyncProtocol;
  struct Node {
    IpAddr sender;
    std::vector<PsyncMsgId> deps;
  };

  PsyncConversation(PsyncProtocol& proto, uint32_t conv_id, std::vector<IpAddr> others);
  void Insert(PsyncMsgId id, IpAddr sender, const std::vector<PsyncMsgId>& deps);
  void HandleIncoming(PsyncMsgId id, IpAddr sender, std::vector<PsyncMsgId> deps,
                      Message& payload);

  PsyncProtocol& proto_;
  uint32_t conv_id_;
  std::vector<IpAddr> others_;
  uint32_t next_local_ = 1;
  std::map<PsyncMsgId, Node> nodes_;
  std::set<PsyncMsgId> leaves_;
  ReceiveHandler on_receive_;
};

}  // namespace xk

#endif  // XK_SRC_PSYNC_PSYNC_H_
